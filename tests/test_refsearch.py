import json
import math
import sys
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdephase import cli, kernels, measures, refsearch
from qdephase.cli import FIG_EPSILONS, build_record, sweep_blocks
from qdephase.channel import ChannelParams, decoherence_factor
from qdephase.matcore import psd_eig, psd_sqrt
from qdephase.measures import relation_residuals
from qdephase.refsearch import closest_separable_bures
from qdephase.states import (
    family_state,
    initial_pure,
    maximally_mixed,
    mixed_reference,
    save_state,
    validate,
)
from reference import (BELL, SY2, family, maxmixed_fidelity_closed, maxmixed_measure,
                       mixed_ref_fidelity, mixed_ref_measure, mixed_reference_family,
                       pure_ref_measure_family)

BELL_CSS = 1.0 - math.sqrt(0.5)


def werner_line_minimum():
    """Independent brute force for the Bell state: the fidelity of a Bell
    state to p*Bell + (1-p)I/4 is (1+3p)/4 by the pure-state formula, and the
    partial transpose stays positive up to p = 1/3."""
    ps = np.linspace(0.0, 1.0 / 3.0, 200001)
    es = 1.0 - np.sqrt((1.0 + 3.0 * ps) / 4.0)
    return float(es.min())


class TestMixedReferenceClosedForms:
    def test_zero_at_own_floor(self):
        # |a| = e^{-2*ntilde} with aligned phases is the reference itself
        for nt in (0.3, 1.0, 2.5):
            assert mixed_ref_measure(math.exp(-2 * nt), nt, 0.0) == \
                pytest.approx(0.0, abs=1e-12)

    def test_maximal_value(self):
        for nt in (0.5, 1.0, 3.0):
            expect = 1.0 - math.sqrt((1.0 + math.exp(-2.0 * nt)) / 2.0)
            assert mixed_ref_measure(1.0, nt, 0.0) == pytest.approx(
                expect, abs=1e-14)

    def test_identical_states_have_unit_fidelity(self):
        assert mixed_ref_fidelity(1.0, 0.0, 0.0) == pytest.approx(
            1.0, abs=1e-14)

    def test_closed_form_vs_uhlmann(self):
        for nt in (0.5, 1.0, 2.0):
            for theta in (0.3, 1.0, 2.2, math.pi):
                abs_a = math.exp(nt * (math.cos(theta) - 1.0))
                rel = nt * math.sin(theta)
                common = 0.77
                rho = family_state(0.5, abs_a * np.exp(-1j * (common + rel)))
                ref = mixed_reference(nt, common)
                general = 1.0 - math.sqrt(measures.uhlmann_fidelity(rho, ref))
                closed = mixed_ref_measure(abs_a, nt, rel)
                assert abs(general - closed) < 1e-10

    def test_family_form_vs_uhlmann(self):
        for eps in (0.05, 0.26, 0.5, 0.8):
            for theta in (0.0, 0.9, 2.4):
                nt = 1.3
                abs_a = math.exp(nt * (math.cos(theta) - 1.0))
                rel = nt * math.sin(theta)
                rho = family_state(eps, abs_a * np.exp(-1j * rel))
                ref = mixed_reference_family(eps, nt, 0.0)
                general = 1.0 - math.sqrt(measures.uhlmann_fidelity(rho, ref))
                gamma = -math.expm1(2.0 * nt * (math.cos(theta) - 1.0))
                closed = refsearch.mixed_ref_measure_family(eps, abs_a, gamma, nt, rel)
                assert abs(general - closed) < 1e-10

    def test_family_form_reduces_at_half(self):
        for abs_a in (0.2, 0.7, 1.0):
            assert refsearch.mixed_ref_measure_family(0.5, abs_a, 1.0 - abs_a * abs_a,
                                                      1.1, 0.4) == \
                pytest.approx(mixed_ref_measure(abs_a, 1.1, 0.4), abs=1e-14)


class TestMaxMixedClosedForms:
    def test_endpoints(self):
        assert maxmixed_measure(0.0) == 0.0
        assert maxmixed_measure(1.0) == pytest.approx(
            1.0 - 1.0 / math.sqrt(2.0), abs=1e-15)

    def test_intermediate(self):
        assert maxmixed_measure(0.6) == pytest.approx(
            0.05131670194948623, abs=1e-14)

    def test_closed_fidelity_vs_uhlmann_discrepancy(self):
        # the printed closed form doubles the true fidelity everywhere on the
        # family; both pipelines must hold their own value
        closed = maxmixed_fidelity_closed(1.0)
        general = measures.uhlmann_fidelity(BELL, maximally_mixed())
        assert closed == pytest.approx(0.5, abs=1e-15)
        assert general == pytest.approx(0.25, abs=1e-12)


class TestPureReference:
    def test_zero_time(self):
        assert 1.0 - measures.relative_entropy_linearized(BELL, BELL) == pytest.approx(
            1.0, abs=1e-15)

    def test_half_family_form(self):
        for abs_a in (0.0, 0.4, 1.0):
            assert pure_ref_measure_family(0.5, abs_a) == pytest.approx(
                (1.0 + abs_a) / 2.0, abs=1e-15)

    def test_quarter_value(self):
        assert pure_ref_measure_family(0.25, 0.5) == pytest.approx(
            0.91, abs=1e-15)

    def test_trajectory_floor_value(self):
        # the measure bottoms out at (1 + e^{-2*ntilde})/2 when |a| reaches
        # its floor; the other printed endpoint sqrt((1+e^{-2nt})/2) is the
        # square root of this and does not match the formula it annotates
        for nt in (0.5, 1.0, 3.0):
            floor = pure_ref_measure_family(0.5, math.exp(-2 * nt))
            assert floor == pytest.approx((1 + math.exp(-2 * nt)) / 2, abs=1e-15)
            assert abs(floor - math.sqrt((1 + math.exp(-2 * nt)) / 2)) > 1e-3

    def test_family_form_matches_trace_form(self):
        for eps in np.linspace(0.0, 1.0, 21):
            for abs_a in np.linspace(0.0, 1.0, 21):
                phase = 0.8
                rho = family(float(eps), float(abs_a), phase)
                ref = initial_pure(float(eps), phase)
                trace_form = 1.0 - measures.relative_entropy_linearized(rho, ref)
                closed = pure_ref_measure_family(float(eps), float(abs_a))
                assert abs(trace_form - closed) < 1e-12

    def test_complements_linearized_entropy_exactly(self):
        # the fidelity from rho's eigenpairs against 1 - Tr(sigma_p rho)
        for eps in (0.1, 0.5, 0.9):
            rho = family(eps, 0.3, 0.2)
            ref = initial_pure(eps, 0.2)
            er = measures.relative_entropy_linearized(rho, ref)
            assert abs(measures.pure_fidelity(rho, ref) + er - 1.0) <= 1e-15


def record_at(eps, theta, ntilde=1.0):
    c = ChannelParams(omega1=1.0, omega2=1.0, mu1=0.5, mu2=0.5, ntilde=ntilde)
    return build_record(eps, c, theta / (c.mu1 + c.mu2))


class TestRelationResiduals:
    def test_undamped_half(self):
        res = relation_residuals(record_at(0.5, 0.0)[0])
        assert abs(res["product_half"]) < 1e-12
        assert abs(res["triangular_half"]) < 1e-12

    def test_fully_damped_half(self):
        # gamma -> 1 needs a hot reservoir; theta = pi maximizes damping
        res = relation_residuals(record_at(0.5, math.pi, ntilde=8.0)[0])
        assert abs(res["product_half"]) < 1e-12
        assert abs(res["triangular_half"]) < 1e-12

    def test_half_identities_along_trajectory(self):
        for theta in np.linspace(0.0, 2 * math.pi, 41):
            res = relation_residuals(record_at(0.5, float(theta))[0])
            assert abs(res["product_half"]) < 1e-12
            assert abs(res["triangular_half"]) < 1e-12

    def test_widetext_identities_any_epsilon(self):
        for eps in (0.05, 0.3, 0.42, 0.77, 1.0):
            for theta in np.linspace(0.0, 2 * math.pi, 21):
                res = relation_residuals(record_at(float(eps), float(theta))[0])
                assert abs(res["widetext_purity"]) < 1e-12
                assert abs(res["widetext_concurrence"]) < 1e-12


# delta12 values that repeat exactly, sit equally near on both sides of one
# another (multiples of 2^-32 ~ 2.3e-10 around a base, inside the 1e-9
# window), straddle the window, or are tiny enough that x - d is inexact
DELTA12 = st.one_of(
    st.builds(lambda base, k: base + k * 2.0**-32,
              st.sampled_from((0.0, 0.25, 0.75)), st.integers(-5, 5)),
    st.sampled_from((0.0, 5e-324, 1e-300, 2e-300, 1e-9, 2e-9, 3e-9)),
    st.floats(0.0, 1.0),
)
# e_mixed and negativity values whose differences fall above, below and
# inside the +-WITNESS_GAP (1e-9) witness threshold
GAP_SIDE = st.one_of(st.sampled_from((0.0, 0.3, 0.3 + 5e-10, 0.3 + 2e-9, 0.6)),
                     st.floats(0.0, 1.0))


# one sweep-table row with attribute access
Row = namedtuple("Row", measures.RECORD_DTYPE.names)


def _ordering_record(eps, t, delta12, e_mixed, negativity):
    return Row(epsilon=eps, t=t, gamma=0.0, abs_a=0.0, delta12=delta12,
               negativity=negativity, concurrence_wootters=0.0,
               concurrence_paper=1.0, eof=0.0, fidelity_pure=1.0,
               e_pure=1.0, e_mixed=e_mixed, e_maxmixed=0.0,
               er_exact=0.0, er_lin=0.0)


def as_table(records):
    """The sweep table of a list of rows, in list order."""
    return np.array(records, measures.RECORD_DTYPE)


@pytest.fixture(scope="module")
def records():
    c = ChannelParams(omega1=1.0, omega2=1.0, mu1=0.5, mu2=0.5, ntilde=1.0)
    out = []
    for eps in (0.5, 0.26, 0.05):
        for t in np.linspace(0.0, c.period, 41):
            out.append(Row(*build_record(eps, c, float(t)).item()))
    return out


HYPOTHESIS_GROUPS = st.lists(st.lists(st.tuples(DELTA12, GAP_SIDE, GAP_SIDE),
                                      min_size=1, max_size=6),
                             min_size=1, max_size=4)


def _group_records(groups):
    return [_ordering_record(0.1 * (g + 1), float(k), d12, mixed, neg)
            for g, rows in enumerate(groups)
            for k, (d12, mixed, neg) in enumerate(rows)]


class TestOrderingCheck:
    def test_no_pointwise_violations(self, records):
        report = refsearch.ordering_check(as_table(records))
        assert report["violations"] == []

    def test_cross_epsilon_order_breaks_both_ways(self, records):
        report = refsearch.ordering_check(as_table(records))
        assert report["witness_mixed_above"] is not None
        assert report["witness_mixed_below"] is not None
        assert report["no_global_order"]

    def test_max_delta12_reported(self, records, tmp_path, capsys):
        # the sweep of the fixture's grid prints its largest delta12 once,
        # at the top of the summary, not in the ordering verdict
        assert cli.main(["sweep", "--epsilon-list", "0.5,0.26,0.05", "--t-steps", "41",
                         "--out", str(tmp_path / "s.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["max_delta12"] == max(r.delta12 for r in records)
        assert "max_delta12" not in summary["ordering"]

    def test_matches_nested_loop_reference(self, records):
        assert (refsearch.ordering_check(as_table(records))
                == nested_loop_ordering_check(records))

    @pytest.mark.parametrize("seed", range(4))
    def test_interleaved_unsorted_epsilons(self, records, seed):
        # rows of every epsilon interleaved, neither epsilon nor t in order
        shuffled = [records[k] for k in np.random.default_rng(seed).permutation(len(records))]
        report = refsearch.ordering_check(as_table(shuffled))
        assert report == nested_loop_ordering_check(shuffled)
        assert report["no_global_order"]

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_table_reports_as_the_sorted_one(self, records, seed):
        # the sorted table skips the sort; a random interleaving of its
        # epsilon groups, each group's rows kept in order, sorts back to it
        ordered = sorted(records, key=lambda r: r.epsilon)  # stable
        groups = {}
        for r in ordered:
            groups.setdefault(r.epsilon, []).append(r)
        labels = np.random.default_rng(seed).permutation([r.epsilon for r in ordered])
        queues = {eps: iter(rows) for eps, rows in groups.items()}
        shuffled = [next(queues[eps]) for eps in labels.tolist()]
        assert shuffled != ordered
        report = refsearch.ordering_check(as_table(ordered))
        assert refsearch.ordering_check(as_table(shuffled)) == report
        assert report == nested_loop_ordering_check(ordered)
        assert report["no_global_order"]

    def test_sorted_table_is_not_copied(self):
        # a sweep's table is epsilon-ascending: ordering_check's traced
        # peak grows by ~29 B a row, against 149 with a sorted copy
        # (128 B a row)
        c = ChannelParams(omega1=1.0, omega2=1.0, mu1=0.5, mu2=0.5, ntilde=1.0)

        def peak(t_steps):
            ts = np.linspace(0.0, c.period, t_steps)
            table = np.concatenate(list(sweep_blocks(FIG_EPSILONS, c, ts)))
            tracemalloc.start()
            try:
                refsearch.ordering_check(table)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert (peak(2001) - peak(501)) / (8 * 1500) <= 64

    def test_single_epsilon_group(self, records):
        one = [r for r in records if r.epsilon == 0.26][::-1]
        report = refsearch.ordering_check(as_table(one))
        assert report == nested_loop_ordering_check(one)
        assert report["witness_mixed_above"] is None and report["witness_mixed_below"] is None

    def test_violations_by_epsilon_then_row_then_check(self):
        def rec(eps, t, e_mixed, negativity, e_pure, concurrence):
            return _ordering_record(eps, t, 0.0, e_mixed, negativity)._replace(
                e_pure=e_pure, concurrence_paper=concurrence)

        recs = [rec(0.4, 2.0, 0.5, 0.1, 0.9, 0.2),   # e_mixed > N, e_pure > C
                rec(0.2, 1.0, 0.0, 0.9, 0.5, 1.0),   # N > e_pure
                rec(0.4, 1.0, 0.0, 0.9, 0.5, 0.1),   # N > e_pure, e_pure > C
                rec(0.2, 3.0, 0.9, 0.1, 1.0, 1.0)]   # e_mixed > N
        report = refsearch.ordering_check(as_table(recs))
        assert report["violations"] == [[0.2, 1.0, "negativity > e_pure"],
                                        [0.2, 3.0, "e_mixed > negativity"],
                                        [0.4, 2.0, "e_mixed > negativity"],
                                        [0.4, 2.0, "e_pure > concurrence"],
                                        [0.4, 1.0, "negativity > e_pure"],
                                        [0.4, 1.0, "e_pure > concurrence"]]
        assert report == nested_loop_ordering_check(recs)

    def test_returns_python_floats(self, records):
        recs = records + [_ordering_record(0.7, 0.5, 0.0, 0.9, 0.1)]
        report = refsearch.ordering_check(as_table(recs))
        assert report["violations"] == [[0.7, 0.5, "e_mixed > negativity"]]
        values = [*report["violations"][0][:2],
                  *report["witness_mixed_above"], *report["witness_mixed_below"]]
        assert all(type(v) is float for v in values)

    @settings(max_examples=300, deadline=None)
    @given(groups=HYPOTHESIS_GROUPS)
    # equally near rows on both sides of x, the lower index above it
    @example(groups=[[(0.25, 0.5, 0.0)],
                     [(0.25 + 2.0**-32, 0.0, 0.0), (0.25 - 2.0**-32, 0.0, 0.3)]])
    # a value of x - d that rounds alike for distinct d on one side of x
    @example(groups=[[(2e-300, 0.5, 0.0)], [(0.0, 0.0, 0.0), (5e-324, 0.0, 0.3)]])
    def test_witnesses_match_nested_loop_reference(self, groups):
        recs = _group_records(groups)
        assert refsearch.ordering_check(as_table(recs)) == nested_loop_ordering_check(recs)

    @settings(max_examples=100, deadline=None)
    @given(groups=HYPOTHESIS_GROUPS, data=st.data())
    def test_unsorted_rows_match_nested_loop_reference(self, groups, data):
        recs = _group_records(groups)
        recs = data.draw(st.permutations(recs))
        assert refsearch.ordering_check(as_table(recs)) == nested_loop_ordering_check(recs)


def nested_loop_ordering_check(records):
    """ordering_check written as a plain nested loop, min over the whole other
    epsilon group for every row: the reference for its sorted lookup."""
    groups = {}
    for r in records:
        groups.setdefault(r.epsilon, []).append(r)
    violations = []
    for eps, rows in sorted(groups.items()):
        for r in rows:
            if r.e_mixed > r.negativity + measures.RANGE_SLACK:
                violations.append([eps, r.t, "e_mixed > negativity"])
            if r.negativity > r.e_pure + measures.RANGE_SLACK:
                violations.append([eps, r.t, "negativity > e_pure"])
            if r.e_pure > r.concurrence_paper + measures.RANGE_SLACK:
                violations.append([eps, r.t, "e_pure > concurrence"])

    above = below = None
    eps_list = sorted(groups)
    for e1 in eps_list:
        for e2 in eps_list:
            if e1 == e2:
                continue
            for r1 in groups[e1]:
                r2 = min(groups[e2], key=lambda r: abs(r.delta12 - r1.delta12))
                if abs(r2.delta12 - r1.delta12) > refsearch.DELTA_MATCH_TOL:
                    continue
                gap = r1.e_mixed - r2.negativity
                if gap > refsearch.WITNESS_GAP and above is None:
                    above = [e1, r1.t, e2, r2.t, gap]
                elif gap < -refsearch.WITNESS_GAP and below is None:
                    below = [e1, r1.t, e2, r2.t, gap]
            if above is not None and below is not None:
                break
        if above is not None and below is not None:
            break
    return {"violations": violations,
            "witness_mixed_above": above, "witness_mixed_below": below,
            "no_global_order": above is not None and below is not None}


def entangled_non_x_state(k):
    """Seeded full-rank state with negativity >= 0.2 and no X shape: a
    random pure state mixed with a random full-rank one."""
    rng = np.random.default_rng([4101, k])
    while True:
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        noise = g @ g.conj().T
        p = 0.7 + 0.2 * rng.random()
        rho = p * np.outer(psi, psi.conj()) + (1.0 - p) * noise / noise.trace().real
        rho = (rho + rho.conj().T) / 2.0
        rho /= rho.trace().real
        if measures.negativity(rho) >= 0.2:
            return rho


class TestClosestSeparable:
    def test_bell_matches_brute_force(self):
        oracle_value = werner_line_minimum()
        assert oracle_value == pytest.approx(BELL_CSS, abs=1e-9)
        res = closest_separable_bures(BELL)
        assert res.e_value == pytest.approx(oracle_value, abs=1e-4)
        assert res.pt_min_eig >= -1e-7
        assert res.converged

    def test_random_ppt_sampling_never_beats_werner(self):
        rng = np.random.default_rng(41)
        best = np.inf
        sqrt_rho = BELL  # pure: sqrt(rho) = rho
        for _ in range(3000):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            s = g @ g.conj().T
            s /= s.trace().real
            if kernels.pt_min_eig(s) < -1e-12:
                continue
            best = min(best, 1.0 - kernels.sqrt_fidelity(sqrt_rho, s))
        assert best >= werner_line_minimum() - 1e-9

    def test_separable_diagonal_returns_zero(self):
        rho = validate(np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex))
        res = closest_separable_bures(rho)
        assert res.e_value <= 1e-6
        assert res.pt_min_eig >= -1e-7
        assert np.abs(res.sigma_star - rho).max() < 1e-4

    def test_separable_product_with_coherence(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        v = np.kron(plus, plus)
        rho = validate(np.outer(v, v.conj()).astype(complex))
        res = closest_separable_bures(rho)
        assert res.e_value <= 1e-6

    def test_fully_damped_family_state(self):
        rho = family(0.5, 0.0)
        res = closest_separable_bures(rho)
        assert res.e_value <= 1e-6

    def test_monotone_under_dephasing(self):
        bell_e = closest_separable_bures(BELL).e_value
        damped = closest_separable_bures(family(0.5, math.sqrt(1 - 0.96)))
        assert damped.e_value <= bell_e + 1e-9

    def test_deterministic_given_seed(self):
        rho = family(0.4, 0.8, 0.3)
        a = closest_separable_bures(rho)
        b = closest_separable_bures(rho)
        assert a.e_value == b.e_value
        assert a.pt_min_eig == b.pt_min_eig
        assert np.array_equal(a.sigma_star, b.sigma_star)

    def test_feasibility_of_sigma_star(self):
        for rho in (BELL, family(0.3, 0.9, 1.0), family(0.5, 0.5)):
            res = closest_separable_bures(rho)
            assert res.pt_min_eig >= -1e-7
            assert 0.0 <= res.e_value <= 1.0

    @pytest.mark.parametrize("k", range(4))
    def test_entangled_non_x_full_rank(self, k):
        rho = entangled_non_x_state(k)
        res = closest_separable_bures(rho)
        diag = np.diag(np.diag(rho))
        bound = 1.0 - math.sqrt(measures.uhlmann_fidelity(rho, diag))
        assert res.converged
        assert res.pt_min_eig >= refsearch.PT_FEASIBILITY
        assert 0.0 < res.e_value <= bound + 1e-8
        # evaluations, not seconds: the same count on every machine
        assert res.nfev < 10_000

    def test_unconverged_one_iteration_bell(self, monkeypatch):
        # one iteration per restart leaves the Bell solve separable, as every
        # sigma the search builds is, but far from its optimum
        monkeypatch.setattr(refsearch, "MAX_ITERS", 1)
        res = closest_separable_bures(BELL)
        assert res.pt_min_eig >= refsearch.PT_FEASIBILITY
        assert not res.converged

    def test_without_scipy_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        with pytest.raises(ImportError, match=r"qdephase\[search\]"):
            closest_separable_bures(BELL)


@settings(max_examples=500, deadline=None)
@given(epsilon=st.floats(0.0, 1.0), ntilde=st.floats(0.0, 20.0),
       theta=st.floats(0.0, 2.0 * math.pi))
@example(epsilon=0.5, ntilde=20.0, theta=math.pi)  # the deepest dephasing reached
@example(epsilon=1e-5, ntilde=20.0, theta=math.pi)
@example(epsilon=0.5, ntilde=0.0, theta=0.0)  # the Bell state
@example(epsilon=0.0, ntilde=1.0, theta=1.0)
@example(epsilon=1.0, ntilde=1.0, theta=1.0)
def test_paper_orders_hold_wherever_the_channel_reaches(epsilon, ntilde, theta):
    # the paper's per-epsilon orders, from the family closed forms alone, at a
    # point of a channel trajectory: e_mixed <= N <= e_pure <= C_paper, and
    # E_css below N and below e_maxmixed (I/4 is separable). |a| and gamma
    # come from the channel, not drawn apart: a trajectory keeps
    # |a| >= e^{-2 ntilde}, and at |a| = 0 with ntilde finite e_mixed > 0 = N,
    # a state none reaches. With mu1 + mu2 = 1 and omega1 + omega2 = 0 the
    # factor's phase at t = theta is the reference phase ntilde sin(theta).
    dec = decoherence_factor(ChannelParams(0.0, 0.0, 0.5, 0.5, ntilde), theta)
    abs_a, gamma = float(np.abs(dec.a)), float(dec.gamma)
    negativity = measures.negativity_closed(epsilon, abs_a)
    chain = [refsearch.mixed_ref_measure_family(epsilon, abs_a, gamma, ntilde,
                                                float(dec.phase)),
             negativity,
             pure_ref_measure_family(epsilon, abs_a),
             measures.concurrence_family(epsilon, abs_a)]
    for lo, hi in zip(chain, chain[1:]):
        assert lo <= hi + measures.RANGE_SLACK, chain
    e_css = float(refsearch.css_family_columns(epsilon, gamma)[1])
    n = epsilon**2 + (1.0 - epsilon) ** 2
    e_maxmixed = 1.0 - math.sqrt(1.0 + 2.0 * epsilon * (1.0 - epsilon) * math.sqrt(gamma) / n) / 2.0
    assert e_css <= negativity + measures.RANGE_SLACK, (e_css, negativity)
    assert e_css <= e_maxmixed + measures.RANGE_SLACK, (e_css, e_maxmixed)


FIG_CHANNEL = ChannelParams(1.0, 1.0, 0.5, 0.5, 1.0)


class TestCssFamily:
    def test_bell(self):
        assert abs(refsearch.css_family_columns([0.5], [0.0])[1][0] - BELL_CSS) <= 1e-12

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    def test_product_states_exactly_zero(self, eps, gamma):
        assert refsearch.css_family_columns([eps], [gamma])[1][0] == 0.0

    @pytest.mark.parametrize("eps", FIG_EPSILONS)
    def test_sigma_star_separable_and_attains_value(self, eps):
        for t in np.linspace(0.0, FIG_CHANNEL.period, 11):
            dec = decoherence_factor(FIG_CHANNEL, float(t))
            sigma, e_value, pt_min_eig = refsearch.css_family_columns([eps], [dec.gamma])
            sigma_star = validate(sigma[0])
            assert pt_min_eig[0] >= 0.0
            rho = family_state(eps, dec.a)
            fid = measures.uhlmann_fidelity(rho, sigma_star)
            assert abs(1.0 - math.sqrt(fid) - e_value[0]) <= 1e-12

    @pytest.mark.parametrize("eps", [0.5, 0.42, 0.26, 0.12])
    def test_matches_general_solver(self, eps):
        for t in (0.0, 1.3, math.pi):
            dec = decoherence_factor(FIG_CHANNEL, t)
            general = closest_separable_bures(family_state(eps, dec.a))
            assert abs(refsearch.css_family_columns([eps], [dec.gamma])[1][0]
                       - general.e_value) <= 1e-8

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            refsearch.css_family_columns([0.5], [1.5])
        with pytest.raises(ValueError):
            refsearch.css_family_columns([-0.1], [0.5])
        # epsilon is judged before gamma, each column naming its first bad value
        with pytest.raises(ValueError, match=r"^epsilon must be in \[0, 1\], got 2.0$"):
            refsearch.css_family_columns([0.5, 0.3, 2.0], [0.5, math.nan, 0.5])
        with pytest.raises(ValueError, match=r"^gamma must be in \[0, 1\], got nan$"):
            refsearch.css_family_columns([0.5, 0.3, 0.2], [0.5, math.nan, 1.5])

    def test_columns_equal_css_family_bit_for_bit(self):
        rng = np.random.default_rng(43)
        # the endpoints, with Delta = 0 at eps = 1/2, gamma = 0, then random points
        eps = np.concatenate([[0.0, 0.5, 1.0, 0.0, 0.5, 1.0], rng.random(300)])
        gamma = np.concatenate([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0], rng.random(300)])
        sigma, e_value, pt_min_eig = refsearch.css_family_columns(eps, gamma)
        assert sigma.shape == (306, 4, 4) and e_value.shape == pt_min_eig.shape == (306,)
        assert e_value[1] == 1.0 - math.sqrt(0.5)
        for k in range(306):
            one = refsearch.css_family_columns([float(eps[k])], [float(gamma[k])])
            assert one[1][0] == e_value[k] and one[2][0] == pt_min_eig[k]
            assert np.array_equal(validate(one[0][0]), sigma[k])


def css_from_concurrence(c):
    """Bures CSS measure of any two-qubit state from its concurrence,
    1 - sqrt((1 + sqrt(1 - C^2))/2) (max separable fidelity 1 - E_G).

    Ill-conditioned as C -> 1: sqrt(1 - C^2) turns a rounding error of C
    into one of its square root, 8.9e-9 at the Bell state's spectral C.
    """
    return 1.0 - math.sqrt((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def _random_pure(rng):
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return np.outer(psi, psi.conj()) / np.vdot(psi, psi).real


def _assert_solver_matches_concurrence(rho):
    rho = validate((rho + rho.conj().T) / 2.0)
    res = closest_separable_bures(rho)
    assert res.converged
    expected = css_from_concurrence(measures.concurrence_wootters(rho))
    assert abs(res.e_value - expected) <= 1e-8


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestGeneralSolverAgainstConcurrence:
    @settings(max_examples=8, deadline=None)
    @given(seed=SEEDS, p=st.floats(0.5, 0.9))
    def test_full_rank(self, seed, p):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        noise = g @ g.conj().T
        _assert_solver_matches_concurrence(
            p * _random_pure(rng) + (1.0 - p) * noise / noise.trace().real)

    @settings(max_examples=8, deadline=None)
    @given(seed=SEEDS, q=st.floats(0.1, 0.9))
    def test_rank_two(self, seed, q):
        rng = np.random.default_rng(seed)
        _assert_solver_matches_concurrence(
            q * _random_pure(rng) + (1.0 - q) * _random_pure(rng))


def werner(p):
    return p * BELL + (1.0 - p) * np.eye(4) / 4.0


def _random_full_rank(rng, p):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    noise = g @ g.conj().T
    return p * _random_pure(rng) + (1.0 - p) * noise / noise.trace().real


def _assert_css_closed(rho):
    """css_closed's sigma* and value, checked against the decomposition it
    is built from, the fidelity and the concurrence formula. The
    decomposition is checked from both factors a of rho = aa†: the PSD root,
    and V sqrt(Lambda) from the checked eigenpairs, which css_closed reads."""
    rho = validate((rho + rho.conj().T) / 2.0)
    res = refsearch.css_closed(rho)
    c_spectral = measures.concurrence_wootters(rho)
    for a in (psd_sqrt(rho), measures._eig_factor(*psd_eig(rho))):
        z, c = refsearch.wootters_decomposition(a)
        if z is None:
            assert c == 0.0
            continue
        assert abs(c - c_spectral) <= 1e-12
        assert np.abs(z @ z.conj().T - rho).max() <= 1e-12
        weight = (z.conj() * z).real.sum(axis=0)
        overlap = np.abs(np.einsum("ij,ik,kj->j", z, SY2, z))
        member = weight > 1e-12  # a rank-deficient rho leaves members of weight ~0
        assert np.abs(overlap[member] / weight[member] - c).max() <= 1e-10
    if z is None:  # separable by css_closed's own factor, the last: sigma* = rho
        assert np.array_equal(res.sigma_star, rho)
    validate(res.sigma_star)
    assert res.pt_min_eig >= -1e-12
    assert res.pt_min_eig == kernels.pt_min_eig(res.sigma_star)
    fid = measures.uhlmann_fidelity(rho, res.sigma_star)
    assert abs(1.0 - math.sqrt(fid) - res.e_value) <= 1e-12
    if c_spectral <= 0.999:
        assert abs(res.e_value - css_from_concurrence(c_spectral)) <= 1e-12
    assert (res.iterations, res.nfev, res.converged) == (0, 0, True)
    return res


class TestCssClosed:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=SEEDS, p=st.floats(0.1, 0.9))
    def test_full_rank(self, seed, p):
        _assert_css_closed(_random_full_rank(np.random.default_rng(seed), p))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=SEEDS, q=st.floats(0.1, 0.9))
    def test_rank_two(self, seed, q):
        rng = np.random.default_rng(seed)
        _assert_css_closed(q * _random_pure(rng) + (1.0 - q) * _random_pure(rng))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=SEEDS)
    def test_pure(self, seed):
        _assert_css_closed(_random_pure(np.random.default_rng(seed)))

    @pytest.mark.parametrize("p", [1.0 / 3.0, 0.5, 0.9, 1.0])
    def test_werner(self, p):
        # l2 = l3 = l4: a degenerate Takagi spectrum
        _assert_css_closed(werner(p))

    @pytest.mark.parametrize("p", [0.3, 0.6, 0.9])
    def test_rank_two_with_rank_one_spin_flip(self, p):
        # p Bell + (1 - p)|01><01| under a local unitary: tau has rank 1, so
        # three Takagi values repeat at 0 and only the QR completion keeps Q
        # unitary
        e01 = np.zeros((4, 4), dtype=complex)
        e01[1, 1] = 1.0
        rng = np.random.default_rng(7)
        local = np.kron(*(np.linalg.qr(rng.standard_normal((2, 2))
                                       + 1j * rng.standard_normal((2, 2)))[0]
                          for _ in range(2)))
        rho = local @ (p * BELL + (1.0 - p) * e01) @ local.conj().T
        res = _assert_css_closed(rho)
        assert abs(res.e_value - css_from_concurrence(p)) <= 1e-12

    @pytest.mark.parametrize("rho", [np.diag([0.4, 0.1, 0.2, 0.3]), np.eye(4) / 4.0],
                             ids=["diagonal", "maximally_mixed"])
    def test_separable_is_its_own_css(self, rho):
        res = _assert_css_closed(rho.astype(complex))
        assert res.e_value == 0.0

    def test_bell(self):
        res = _assert_css_closed(BELL)
        assert abs(res.e_value - BELL_CSS) <= 1e-15

    @pytest.mark.parametrize("eps", FIG_EPSILONS)
    def test_matches_css_family(self, eps):
        for t in np.linspace(0.0, FIG_CHANNEL.period, 11):
            dec = decoherence_factor(FIG_CHANNEL, float(t))
            closed = refsearch.css_closed(family_state(eps, dec.a))
            family_e = refsearch.css_family_columns([eps], [dec.gamma])[1][0]
            assert abs(closed.e_value - family_e) <= 1e-14

    @pytest.mark.parametrize("k", range(4))
    def test_general_solver_never_beats_it(self, k):
        rho = entangled_non_x_state(k)
        closed = _assert_css_closed(rho)
        assert closest_separable_bures(rho).e_value >= closed.e_value - 1e-9


# 1 - sqrt((1 + sqrt(1 - C^2))/2) of nearly_singular_state(), from its
# spin-flip spectrum at 50 digits (mpmath)
NEARLY_SINGULAR_CSS = 0.044665631195813270016


def nearly_singular_state():
    """rho = (g w) g†, normalized, with lambda_min = 8.9e-9: there a fidelity
    through the eigenvalues of sqrt(rho) sigma sqrt(rho) loses ~3e-8."""
    rng = np.random.default_rng(10_107)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w = rng.dirichlet(np.ones(4) * 0.5)
    rho = (g * w) @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return validate(rho / rho.trace().real)


class TestNearlySingularState:
    def test_css_closed_meets_the_optimum(self):
        rho = nearly_singular_state()
        assert 8.8e-9 < np.linalg.eigvalsh(rho)[0] < 9e-9
        assert abs(refsearch.css_closed(rho).e_value - NEARLY_SINGULAR_CSS) <= 1e-12

    def test_general_solver_meets_the_optimum(self):
        res = closest_separable_bures(nearly_singular_state())
        assert res.converged
        assert abs(res.e_value - NEARLY_SINGULAR_CSS) <= 1e-10

    def test_css_command_closed_gap(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        save_state(nearly_singular_state(), path)
        assert cli.main(["css", str(path)]) == 0
        assert abs(json.loads(capsys.readouterr().out)["closed_gap"]) <= 1e-12

    def test_uhlmann_fidelity_meets_the_optimum(self):
        # the general fidelity at css_closed's sigma* meets the 50-digit
        # optimum, as css_closed's own e_value does
        rho = nearly_singular_state()
        sigma = refsearch.css_closed(rho).sigma_star
        f = measures.uhlmann_fidelity(rho, sigma)
        assert abs(1.0 - math.sqrt(f) - NEARLY_SINGULAR_CSS) <= 1e-15
        # the Bures distance is sqrt(2 (1 - sqrt(F))) of the same fidelity
        bures = measures.bures_distance(rho, sigma)
        assert bures == math.sqrt(2.0 - 2.0 * math.sqrt(f))
        assert abs(bures - math.sqrt(2.0 * NEARLY_SINGULAR_CSS)) <= 4e-15

    def test_fidelities_take_no_psd_root(self, monkeypatch):
        # uhlmann_fidelity and bures_distance read each state through its
        # eigenpairs: no root of rho, and no eigensolve of sqrt(rho) sigma sqrt(rho)
        def forbidden(*args, **kwargs):
            raise AssertionError("a fidelity took a PSD root or a fidelity eigensolve")

        rho = nearly_singular_state()
        for name in ("psd_sqrt_with_min", "sqrt_fidelity"):
            monkeypatch.setattr(kernels, name, forbidden)
        f = measures.uhlmann_fidelity(rho, BELL)
        assert 0.0 <= f <= 1.0
        assert measures.bures_distance(rho, BELL) == math.sqrt(2.0 - 2.0 * math.sqrt(f))
        stack = np.array([rho, BELL])
        assert measures.uhlmann_fidelity(stack, BELL)[0] == f

    def test_css_routes_take_no_psd_root(self, tmp_path, monkeypatch, capsys):
        # both routes read rho through V sqrt(Lambda): no root of rho, and no
        # eigensolve of sqrt(rho) sigma sqrt(rho)
        def forbidden(*args, **kwargs):
            raise AssertionError("a CSS route took a PSD root or a fidelity eigensolve")

        rho = nearly_singular_state()
        path = tmp_path / "state.json"
        save_state(rho, path)
        for name in ("psd_sqrt_with_min", "sqrt_fidelity"):
            monkeypatch.setattr(kernels, name, forbidden)
        closed = refsearch.css_closed(rho)
        closest_separable_bures(rho)
        assert cli.main(["css", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["e_value"] == closed.e_value


# a kind of random state and its mixing weight: pure, q pure + (1 - q) pure,
# or p pure + (1 - p) full-rank noise
STATE_KINDS = st.one_of(st.tuples(st.just("pure"), st.just(1.0)),
                        st.tuples(st.just("rank_two"), st.floats(0.1, 0.9)),
                        st.tuples(st.just("full_rank"), st.floats(0.5, 0.9)))


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, kind=STATE_KINDS)
def test_general_solver_meets_css_closed(seed, kind):
    name, weight = kind
    rng = np.random.default_rng(seed)
    if name == "pure":
        rho = _random_pure(rng)
    elif name == "rank_two":
        rho = weight * _random_pure(rng) + (1.0 - weight) * _random_pure(rng)
    else:
        rho = _random_full_rank(rng, weight)
    rho = validate((rho + rho.conj().T) / 2.0)
    res = closest_separable_bures(rho)
    assert res.converged
    assert res.pt_min_eig >= -1e-12
    assert abs(res.e_value - refsearch.css_closed(rho).e_value) <= 1e-9
