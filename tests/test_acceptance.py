"""Acceptance gate: every criterion at its stated tolerance, one verdict
line printed per criterion (run with -s to watch them)."""

import math
import time

import numpy as np
from qdephase import measures
from qdephase.channel import ChannelParams
from qdephase.cli import FIG_EPSILONS, SweepConfig, build_record, run_oracle_check, run_sweep
from qdephase.matcore import partial_transpose
from qdephase.oracle import ReservoirConfig
from qdephase.refsearch import closest_separable_bures
from qdephase.states import (
    family_state,
    initial_pure,
    maximally_mixed,
    mixed_reference,
    validate,
)
from reference import (BELL, linear_entropy_closed, maxmixed_fidelity_closed,
                       pure_ref_measure_family)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_oracle_equivalence():
    amp = math.sqrt(1.0 / 3.0)
    r = ReservoirConfig(alphas=(amp,) * 3, omega_ratios=(1.0,) * 3,
                        mu_cross=0.0, mu12=0.0, cutoff_tail=1e-10)
    c = ChannelParams(1.0, 1.0, 0.5, 0.5, r.ntilde)
    start = time.perf_counter()
    report = run_oracle_check(r, c, 0.5, np.linspace(0.0, c.period, 50))
    elapsed = time.perf_counter() - start
    ok = report["max_diff"] <= 1e-8 and elapsed < 10.0
    _verdict(1, "oracle equivalence",
             ok, f"max diff {report['max_diff']:.3e}, {elapsed:.2f}s")


def test_criterion_2_linear_entropy_extremum(tmp_path):
    channel = ChannelParams(omega1=1.0, omega2=1.0, mu1=0.5, mu2=0.5, ntilde=6.0)
    cfg = SweepConfig(epsilon_list=FIG_EPSILONS, t_max=channel.period,
                      t_steps=51, channel=channel,
                      out=str(tmp_path / "hot.csv"))
    summary = run_sweep(cfg)
    max_d12 = summary["max_delta12"]
    records = np.concatenate([build_record(eps, channel, t)
                              for eps in FIG_EPSILONS
                              for t in np.linspace(0.0, channel.period, 51)])
    top = records[np.argmax(records["delta12"])]
    ok = (abs(max_d12 - 2.0 / 3.0) <= 1e-9
          and top["epsilon"] == 0.5
          and top["gamma"] > 1.0 - 1e-9
          and all(d12 <= 2.0 / 3.0 + 1e-12 for d12 in records["delta12"])
          and 2.0 / 3.0 < 8.0 / 9.0)
    _verdict(2, "max linear entropy 2/3",
             ok, f"max {max_d12:.12f} at eps={top['epsilon']}, gamma={top['gamma']:.9f}")


def test_criterion_3_closed_vs_spectral():
    worst = 0.0
    for eps in np.linspace(0.0, 1.0, 50):
        for gamma in np.linspace(0.0, 1.0, 50):
            abs_a = math.sqrt(1.0 - gamma)
            rho = family_state(float(eps), abs_a * np.exp(-0.35j))
            worst = max(
                worst,
                abs(measures.negativity(rho)
                    - measures.negativity_closed(float(eps), abs_a)),
                abs(measures.linear_entropy(rho)
                    - linear_entropy_closed(float(eps), float(gamma))))
            # the paper's drop relations on the closed-form columns
            e_pure = pure_ref_measure_family(float(eps), abs_a)
            res = measures.relation_residuals({
                "epsilon": float(eps),
                "delta12": linear_entropy_closed(float(eps), float(gamma)),
                "negativity": measures.negativity_closed(float(eps), abs_a),
                "concurrence_paper": measures.concurrence_family(float(eps), abs_a),
                "e_pure": e_pure, "er_lin": 1.0 - e_pure})
            worst = max(worst, abs(res["delta12_drop"]), abs(res["concurrence_drop"]))
    _verdict(3, "closed forms vs spectra", worst <= 1e-12, f"worst {worst:.3e}")


def test_criterion_4_relation_identities():
    channel = ChannelParams(omega1=1.0, omega2=1.0, mu1=0.5, mu2=0.5, ntilde=1.0)
    worst_half = 0.0
    for t in np.linspace(0.0, channel.period, 60):
        res = measures.relation_residuals(build_record(0.5, channel, float(t))[0])
        worst_half = max(worst_half, abs(res["product_half"]), abs(res["triangular_half"]))
    worst_general = 0.0
    for eps in np.linspace(0.0, 1.0, 21):
        for t in np.linspace(0.0, channel.period, 21):
            res = measures.relation_residuals(build_record(float(eps), channel, float(t))[0])
            worst_general = max(worst_general, abs(res["widetext_purity"]),
                                abs(res["widetext_concurrence"]))
    ok = worst_half <= 1e-12 and worst_general <= 1e-12
    _verdict(4, "measure relation identities",
             ok, f"eps=1/2 worst {worst_half:.3e}, general worst {worst_general:.3e}")


def test_criterion_5_ordering(tmp_path):
    cfg = SweepConfig(epsilon_list=FIG_EPSILONS, t_steps=51,
                      out=str(tmp_path / "fig.csv"))
    summary = run_sweep(cfg)
    ordering = summary["ordering"]
    ok = (ordering["violations"] == []
          and ordering["witness_mixed_above"] is not None
          and ordering["witness_mixed_below"] is not None
          and ordering["no_global_order"])
    _verdict(5, "per-eps ordering, no global order",
             ok, f"violations {len(ordering['violations'])}, "
                 f"witnesses both ways: {ordering['no_global_order']}")


def test_criterion_6_css_optimizer():
    # independent brute force: along the Bell/maximally-mixed line the
    # fidelity is (1+3p)/4 by the pure-state formula and PPT holds to p=1/3
    ps = np.linspace(0.0, 1.0 / 3.0, 200001)
    brute = float((1.0 - np.sqrt((1.0 + 3.0 * ps) / 4.0)).min())

    start = time.perf_counter()
    res = closest_separable_bures(BELL)
    elapsed = time.perf_counter() - start

    diag = validate(np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex))
    sep = closest_separable_bures(diag)
    mm = closest_separable_bures(maximally_mixed())

    ok = (abs(res.e_value - brute) <= 1e-4
          and sep.e_value <= 1e-6
          and mm.e_value <= 1e-6
          and all(r.pt_min_eig >= -1e-7 for r in (res, sep, mm))
          and elapsed < 5.0)
    _verdict(6, "closest separable state",
             ok, f"bell {res.e_value:.8f} vs brute {brute:.8f}, "
                 f"separable {max(sep.e_value, mm.e_value):.2e}, {elapsed:.2f}s")


def test_criterion_7_measure_pipeline_properties():
    worst_cn = 0.0
    for eps in np.linspace(0.0, 1.0, 21):
        for abs_a in np.linspace(0.0, 1.0, 21):
            rho = family_state(float(eps), float(abs_a) * np.exp(0.6j))
            worst_cn = max(worst_cn, abs(measures.concurrence_wootters(rho)
                                         - measures.negativity(rho)))

    rng = np.random.default_rng(77)
    worst_fid = 0.0
    for _ in range(20):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        m /= m.trace().real
        sigma = validate(m)
        rho = family_state(0.35, 0.8)
        worst_fid = max(
            worst_fid,
            abs(measures.uhlmann_fidelity(rho, sigma)
                - measures.uhlmann_fidelity(sigma, rho)),
            abs(measures.uhlmann_fidelity(sigma, sigma) - 1.0),
            abs(measures.uhlmann_fidelity(sigma, BELL)
                - float(np.trace(sigma @ BELL).real)))

    grid = np.linspace(0.0, 1.0, 1001)
    eof_vals = [measures.eof(float(c)) for c in grid]
    eof_monotone = all(b >= a - 1e-15 for a, b in zip(eof_vals, eof_vals[1:]))

    worst_complement = 0.0
    for eps in (0.1, 0.5, 0.9):
        rho = family_state(eps, 0.4 * np.exp(-0.2j))
        ref = initial_pure(eps, 0.2)
        # the eigensolve route against the trace route: F = 1 - er_lin
        er = measures.relative_entropy_linearized(rho, ref)
        worst_complement = max(worst_complement,
                               abs(measures.pure_fidelity(rho, ref) + er - 1.0))

    ok = (worst_cn <= 1e-10 and worst_fid <= 1e-10 and eof_monotone
          and worst_complement <= 1e-15)
    _verdict(7, "measure pipeline properties",
             ok, f"concurrence-negativity {worst_cn:.2e}, fidelity {worst_fid:.2e}, "
                 f"complement {worst_complement:.2e}")


def test_criterion_8_documented_discrepancies():
    closed_endpoint = measures.concurrence_family(0.0, 1.0)
    spin_flip_endpoint = measures.concurrence_wootters(initial_pure(0.0))

    general_fid = measures.uhlmann_fidelity(BELL, maximally_mixed())
    closed_fid = maxmixed_fidelity_closed(1.0)

    floors = []
    for ntilde in (0.5, 1.0, 2.0):
        pt = partial_transpose(mixed_reference(ntilde))
        low = float(np.linalg.eigvalsh(pt).min())
        floors.append(abs(low + math.exp(-2.0 * ntilde) / 2.0))
        floors.append(0.0 if low < 0 else 1.0)

    ok = (closed_endpoint == 1.0 and spin_flip_endpoint == 0.0
          and abs(general_fid - 0.25) <= 1e-12
          and abs(closed_fid - 0.5) <= 1e-15
          and max(floors) <= 1e-14)
    _verdict(8, "documented discrepancies hold in both pipelines",
             ok, f"concurrence {closed_endpoint} vs {spin_flip_endpoint}, "
                 f"fidelity {general_fid:.4f} vs {closed_fid:.4f}")
