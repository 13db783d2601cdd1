import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdephase import cli, kernels, measures, oracle, refsearch
from qdephase.channel import ChannelParams
from qdephase.cli import SweepConfig, build_record, run_sweep
from qdephase.states import initial_pure, save_state, state_to_json
import make_golden
from reference import (abs_a_50, concurrence_50, concurrence_paper_50, delta12_50, e_maxmixed_50,
                       e_mixed_50, e_pure_50, eof_50, er_exact_50, er_lin_50)

EXPECTED_HEADER = ("epsilon,t,gamma,abs_a,delta12,negativity,concurrence_wootters,"
                   "concurrence_paper,eof,fidelity_pure,e_pure,e_mixed,e_maxmixed,"
                   "er_exact_nats,er_lin")


def forbid_search(monkeypatch):
    """Make every entry to the numerical CSS search raise: the search, its
    minimizer and its objective."""
    def no_search(*args, **kwargs):
        raise AssertionError("a command ran the numerical CSS search")

    for module, name in ((refsearch, "closest_separable_bures"), (refsearch, "minimize"),
                         (kernels, "css_objective")):
        monkeypatch.setattr(module, name, no_search)


def small_config(out, **kw):
    base = dict(epsilon_list=(0.5, 0.25), t_steps=9, out=str(out))
    base.update(kw)
    return SweepConfig(**base)


class TestSweep:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "s.csv"
        summary = run_sweep(small_config(out))
        lines = out.read_text().splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == 1 + 2 * 9
        assert summary["rows"] == 18

    def test_rows_sorted_and_parsable(self, tmp_path):
        out = tmp_path / "s.csv"
        run_sweep(small_config(out))
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        keys = [(float(r[0]), float(r[1])) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert len(r) == 15
            float(r[4])

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(small_config(a))
        run_sweep(small_config(b))
        assert a.read_bytes() == b.read_bytes()

    def test_row_identity_fidelity_plus_er_lin(self, tmp_path):
        out = tmp_path / "s.csv"
        run_sweep(small_config(out, t_steps=15))
        for line in out.read_text().splitlines()[1:]:
            cols = line.split(",")
            fidelity_pure, er_lin = float(cols[9]), float(cols[14])
            assert abs(fidelity_pure + er_lin - 1.0) < 1e-12

    def test_include_css_appends_columns(self, tmp_path):
        out = tmp_path / "s.csv"
        cfg = small_config(out, epsilon_list=(0.5,), t_steps=2,
                           include_css=True)
        run_sweep(cfg)
        lines = out.read_text().splitlines()
        assert lines[0].endswith(",css_e_value,css_pt_min_eig")
        assert len(lines[1].split(",")) == 17
        # gamma = 0 row is the Bell state
        assert float(lines[1].split(",")[15]) == pytest.approx(
            1 - math.sqrt(0.5), abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(epsilon_list=())
        with pytest.raises(ValueError):
            SweepConfig(epsilon_list=(1.2,))
        with pytest.raises(ValueError):
            SweepConfig(t_steps=1)
        for t_max in (math.inf, math.nan, -0.5):
            with pytest.raises(ValueError, match="t_max"):
                SweepConfig(t_max=t_max)


FIELDS = list(measures.RECORD_DTYPE.names)


def per_point_columns(epsilons, c, ts):
    return np.concatenate([build_record(eps, c, float(t))
                           for eps in sorted(epsilons) for t in ts])


def batched_columns(epsilons, c, ts):
    blocks = list(cli.sweep_blocks(epsilons, c, ts))
    assert all(b.dtype == measures.RECORD_DTYPE for b in blocks)
    return np.concatenate(blocks), len(blocks)


def assert_columns_match(got, expect):
    for name in FIELDS:
        g, e = got[name], expect[name]
        assert np.array_equal(np.isinf(g), np.isinf(e)), name
        finite = ~np.isinf(e)
        assert np.abs(g[finite] - e[finite]).max(initial=0.0) <= 1e-14, name


def per_point_csv(cfg):
    """The CSV run_sweep should write, row by row from build_record (and a
    one-point css_family_columns with --include-css)."""
    lines = [cli.CSV_COLUMNS + (cli.CSS_COLUMNS if cfg.include_css else "")]
    for eps in sorted(cfg.epsilon_list):
        for t in np.linspace(0.0, cfg.t_max, cfg.t_steps):
            rec = build_record(eps, cfg.channel, float(t))
            line = cli.ROW_FORMAT % rec.item()
            if cfg.include_css:
                _, e_value, pt_min_eig = refsearch.css_family_columns([eps], rec["gamma"])
                line += cli.CSS_ROW_FORMAT % (e_value[0], pt_min_eig[0])
            lines.append(line)
    return ("\n".join(lines) + "\n").encode()


class TestSweepBlocks:
    @settings(max_examples=30, deadline=None)
    @given(epsilons=st.lists(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0),
                             min_size=1, max_size=3),
           ntilde=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 4.0),
           mu1=st.floats(0.0, 2.0),
           t_max=st.floats(0.0, 40.0),
           t_steps=st.integers(2, 14),
           block=st.integers(1, 6))
    def test_columns_match_build_record(self, epsilons, ntilde, mu1, t_max,
                                        t_steps, block):
        c = ChannelParams(omega1=1.0, omega2=0.7, mu1=mu1, mu2=0.5, ntilde=ntilde)
        ts = np.linspace(0.0, t_max, t_steps)
        with mock.patch.object(cli, "BLOCK_STATES", block):
            got, n_blocks = batched_columns(epsilons, c, ts)
        # blocks run on across epsilon: only the last may be short
        assert n_blocks == math.ceil(len(epsilons) * t_steps / block)
        assert_columns_match(got, per_point_columns(epsilons, c, ts))

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_columns_match_around_the_block_size(self, extra):
        c = ChannelParams(1.0, 1.0, 0.5, 0.5, 1.0)
        ts = np.linspace(0.0, 9.0, cli.BLOCK_STATES + extra)
        got, n_blocks = batched_columns((0.37,), c, ts)
        assert n_blocks == (2 if extra > 0 else 1)
        assert_columns_match(got, per_point_columns((0.37,), c, ts))

    @pytest.mark.parametrize("t_steps", [51, 501])
    def test_csv_equals_per_point_rows(self, tmp_path, t_steps):
        out = tmp_path / "s.csv"
        cfg = SweepConfig(t_steps=t_steps, out=str(out))
        run_sweep(cfg)
        assert out.read_bytes() == per_point_csv(cfg)

    @pytest.mark.parametrize("t_steps, passes", [(51, 1), (501, 8)])
    def test_one_pass_per_block_of_rows(self, tmp_path, monkeypatch, capsys, t_steps,
                                        passes):
        # blocks run on across epsilon: the figure's 8 x 51 = 408 rows take
        # one stacked pass and one gate, 8 x 501 = 4008 rows take 8 of each
        calls = {"stacked_measures": 0, "violation_mask": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(measures, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(measures, name, counted)
        assert cli.main(["sweep", "--t-steps", str(t_steps),
                         "--out", str(tmp_path / "s.csv")]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 8 * t_steps
        assert calls == {"stacked_measures": passes, "violation_mask": passes}

    def test_run_sweep_builds_no_per_point_records(self, tmp_path, monkeypatch, capsys):
        def per_point(*args, **kwargs):
            raise AssertionError("sweep built a per-point record")

        monkeypatch.setattr(cli, "build_record", per_point)
        assert cli.main(["sweep", "--out", str(tmp_path / "s.csv")]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 408

    @pytest.mark.parametrize("flags", [[], ["--include-css"]])
    def test_run_sweep_takes_no_psd_root(self, tmp_path, monkeypatch, capsys, flags):
        # rho's eigenpairs feed every spectral column
        def forbidden(*args, **kwargs):
            raise AssertionError("sweep took a PSD root or a fidelity eigensolve")

        for name in ("psd_sqrt_with_min", "sqrt_fidelity"):
            monkeypatch.setattr(kernels, name, forbidden)
        assert cli.main(["sweep", *flags, "--out", str(tmp_path / "s.csv")]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 408

    @pytest.mark.parametrize("flags", [[], ["--include-css"]])
    def test_run_sweep_takes_no_eigh(self, tmp_path, monkeypatch, capsys, flags):
        # every spectral column reads the states' Kraus factors: their SVD,
        # and the partial transpose's eigenvalues
        def forbidden(*args, **kwargs):
            raise AssertionError("sweep took an eigh")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        assert cli.main(["sweep", *flags, "--out", str(tmp_path / "s.csv")]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 408

    @pytest.mark.parametrize("slip", ["a for conj(a)", "gamma for sqrt(gamma)"])
    def test_slipped_kraus_factor_exits_two(self, tmp_path, monkeypatch, capsys, slip):
        # the sweep reads every state through its factor, so a slip in the
        # factor's second row must break a gate, not reach the CSV
        kraus_factor = cli.kraus_factor

        def slipped(epsilon, a, gamma):
            u = kraus_factor(epsilon, a, gamma)
            scale = (1.0 - epsilon) / np.sqrt(epsilon**2 + (1.0 - epsilon) ** 2)
            if slip.startswith("a "):
                u[..., 3, 0] = scale * np.asarray(a)
            else:
                u[..., 3, 1] = scale * np.asarray(gamma)
            return u

        monkeypatch.setattr(cli, "kraus_factor", slipped)
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--out", str(out)]) == 2
        assert "record invariants violated" in capsys.readouterr().err
        assert not out.exists()

    def test_invariant_failure_names_first_bad_row(self, tmp_path, monkeypatch):
        stacked = measures.stacked_measures

        def corrupted(rho, sigma_p):
            cols = stacked(rho, sigma_p)
            cols["negativity"][[3, 5]] = [math.nan, 2.0]
            return cols

        monkeypatch.setattr(measures, "stacked_measures", corrupted)
        out = tmp_path / "s.csv"
        cfg = small_config(out)
        with pytest.raises(ArithmeticError) as info:
            run_sweep(cfg)
        t = float(np.linspace(0.0, cfg.t_max, cfg.t_steps)[3])
        assert str(info.value) == (f"record invariants violated at eps=0.25, t={t}: "
                                   "['negativity outside [0, 1]: nan']")
        assert not out.exists()


    def test_nan_concurrence_exits_two_naming_its_row(self, tmp_path, monkeypatch, capsys):
        # eof is taken from C unchecked, so the gates, not eof's own
        # ValueError (exit 1, no row named), judge a bad C
        stacked = measures.stacked_measures

        def corrupted(rho, sigma_p):
            cols = stacked(rho, sigma_p)
            cols["concurrence_wootters"][1] = math.nan
            return cols

        monkeypatch.setattr(measures, "stacked_measures", corrupted)
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--epsilon-list", "0.3", "--t-steps", "4",
                         "--out", str(out)]) == 2
        t = float(np.linspace(0.0, 2.0 * math.pi, 4)[1])
        err = capsys.readouterr().err
        assert f"at eps=0.3, t={t}: ['concurrence_wootters outside [0, 1]: nan'" in err
        assert not out.exists()

    def test_broken_route_exits_two_naming_its_row(self, tmp_path, monkeypatch, capsys):
        stacked = measures.stacked_measures

        def drifted(rho, sigma_p):
            cols = stacked(rho, sigma_p)
            cols["fidelity_pure"][2] *= 1.0 - 1e-9  # still inside [0, 1]
            return cols

        monkeypatch.setattr(measures, "stacked_measures", drifted)
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--epsilon-list", "0.3", "--t-steps", "4",
                         "--out", str(out)]) == 2
        t = float(np.linspace(0.0, 2.0 * math.pi, 4)[2])
        err = capsys.readouterr().err
        assert f"at eps=0.3, t={t}: ['fidelity_pure differs from 1 - er_lin: " in err
        assert not out.exists()

    def test_drifted_purity_breaks_the_delta12_drop_relation(self, tmp_path, monkeypatch,
                                                             capsys):
        # delta12 off by 1e-9 of the purity stays inside [0, 1] and, away from
        # eps = 1/2, below C^2 + (3/2) delta12 <= 1; only the paper's
        # delta12 = (2/3)(N0^2 - N^2) catches it
        purity = kernels.purity
        monkeypatch.setattr(kernels, "purity", lambda m: purity(m) * (1.0 - 1e-9))
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--epsilon-list", "0.42,0.12", "--t-steps", "51",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "at eps=0.12, t=0.0: ['delta12 breaks the delta12_drop relation: " in err
        assert not out.exists()

    @settings(max_examples=25, deadline=None)
    # any epsilon, and on a log scale the near-product ones down to 1e-9
    @given(epsilons=st.lists(st.floats(0.0, 1.0)
                             | st.floats(-9.0, 0.0).map(lambda x: 10.0 ** x),
                             max_size=3, unique=True),
           ntilde=st.floats(0.0, 20.0),
           mu1=st.floats(-2.0, 2.0), mu2=st.floats(-2.0, 2.0),
           omega=st.floats(-5.0, 5.0),
           t_max=st.floats(0.0, 40.0))
    def test_random_channels_pass_every_gate(self, epsilons, ntilde, mu1, mu2, omega,
                                             t_max):
        # the paper's relations and the cross-route identities hold off the
        # figure's channel and grid, at any epsilon: the product endpoints,
        # epsilon = 1/2 and states a hair from a product state too
        c = ChannelParams(omega1=omega, omega2=omega, mu1=mu1, mu2=mu2, ntilde=ntilde)
        ts = np.linspace(0.0, t_max, 33)
        for cols in cli.sweep_blocks({0.0, 0.5, 1.0, *epsilons}, c, ts):
            bad = np.flatnonzero(measures.violation_mask(cols))
            assert not bad.size, measures.violations_at(cols, bad[0])

    def test_near_product_states_pass_every_gate(self):
        # rho's smallest nonzero eigenvalue falls far below 1e-9 here; er_exact
        # counts it as support, as every other spectral column does, so
        # er_lin <= er_exact holds. At epsilon = 1e-160, tau ~ epsilon and
        # the rotation's tangent has a subnormal divisor, which a complex
        # division overflows on
        c = cli._default_channel()
        ts = np.linspace(0.0, c.period, 51)
        for cols in cli.sweep_blocks((1e-160, 3e-6, 1e-5, 3e-5, 1e-4), c, ts):
            bad = np.flatnonzero(measures.violation_mask(cols))
            assert not bad.size, measures.violations_at(cols, bad[0])


@pytest.fixture(scope="module")
def census_table():
    # the figure's epsilon, the product endpoints and states a hair from
    # them, over one revival period; every row passes every gate
    c = cli._default_channel()
    ts = np.linspace(0.0, c.period, 201)
    epsilons = (*cli.FIG_EPSILONS, 0.0, 1e-5, 1.0 - 1e-5, 1.0)
    table = np.concatenate(list(cli.sweep_blocks(epsilons, c, ts)))
    assert not measures.violation_mask(table).any()
    return table


# the shifts the gates miss on some rows, and why
CENSUS_MISSES = {
    ("e_pure", -1.0): "near epsilon = 0 and 1 every relation that reads e_pure sees it "
                      "only at second order, or through a factor that vanishes with "
                      "N0 = 2 eps (1-eps)/n",
    ("e_mixed", 1.0): "no twin: only the range check reads e_mixed, and it is far below 1",
    ("e_mixed", -1.0): "no twin: only the range check reads e_mixed, which sees the shift "
                       "only where e_mixed is within it of 0 (epsilon near 0 and 1)",
    ("er_exact", 1.0): "no twin: er_lin <= er_exact bounds er_exact from below only",
    ("er_exact", -1.0): "no twin: the sign check and er_lin <= er_exact see the shift only "
                        "where er_exact is within it of 0 or of er_lin",
}


def _census_case(sign, column):
    reason = CENSUS_MISSES.get((column, sign))
    marks = pytest.mark.xfail(strict=True, reason=reason) if reason else ()
    return pytest.param(sign, column, marks=marks)


@pytest.mark.parametrize("sign, column", [
    _census_case(sign, column)
    for sign in (1.0, -1.0) for column in FIELDS if column not in ("epsilon", "t")])
def test_a_shifted_column_breaks_its_closed_form_on_every_row(census_table, column, sign):
    # a shift of 1e-9 max(1, |v|) in one measured column is flagged on every row
    table = census_table.copy()
    table[column] += sign * 1e-9 * np.maximum(1.0, np.abs(table[column]))
    assert measures.violation_mask(table).all()


# the 50-digit audit's edge grid: the product endpoints, states a hair from
# them and the figure's epsilon; t near 0 and near the revival 2 pi, and the
# default rows
EDGE_EPSILONS = (0.0, 1e-9, 1e-5, 1e-3, *cli.FIG_EPSILONS, 1.0 - 1e-5, 1.0)
EDGE_TS = np.unique(np.concatenate([[1e-8, 1e-6, 2.0 * math.pi - 1e-7],
                                    np.linspace(0.0, 2.0 * math.pi, 51)]))


@pytest.fixture(scope="module")
def edge_grid_columns():
    # per ntilde, the sweep's columns over the edge grid
    out = {}
    for ntilde in (1.0, 8.0, 40.0):
        c = ChannelParams(1.0, 1.0, 0.5, 0.5, ntilde)
        out[c] = np.concatenate(list(cli.sweep_blocks(EDGE_EPSILONS, c, EDGE_TS)))
    return out


# the largest error on the edge grid, measured on numpy 2.4.6 with |a| and
# gamma from one log|a|: abs_a 2.2e-16, delta12 1.3e-15, negativity
# 4.4e-16, concurrence_wootters 5.6e-16, er_lin 5.2e-16, e_pure 5.6e-16,
# concurrence_paper 1.1e-16, e_maxmixed 3.3e-16, fidelity_pure 3.9e-15,
# eof 4.6e-15, er_exact 7.9e-15, e_mixed 1.4e-16. With |a| from
# exp(ntilde (cos - 1)), 2e-15 off near t = 0, the cases from abs_a to
# concurrence_paper fail their bounds
@pytest.mark.parametrize("column, reference, bound", [
    ("abs_a", abs_a_50, 5e-16),
    ("delta12", delta12_50, 3e-15),
    ("negativity", concurrence_50, 1e-15),
    ("concurrence_wootters", concurrence_50, 1e-15),
    ("er_lin", er_lin_50, 1e-15),
    ("e_pure", e_pure_50, 1e-15),
    ("concurrence_paper", concurrence_paper_50, 3e-16),
    ("fidelity_pure", e_pure_50, 8e-15),
    ("eof", eof_50, 1e-14),
    ("er_exact", er_exact_50, 1.6e-14),
    ("e_maxmixed", e_maxmixed_50, 2e-15),
    ("e_mixed", e_mixed_50, 5e-16)])
def test_column_meets_its_50_digit_value_on_the_edge_grid(edge_grid_columns, column,
                                                          reference, bound):
    # e_maxmixed from the Kraus factor's singular values, e_mixed from the
    # channel's exact gamma: the eigenvalue floor (6e-8 off near a product
    # state) and 1 - |a|^2 (3.3e-9 off at t = 1e-8) are gone
    for c, cols in edge_grid_columns.items():
        for eps, t, got in zip(cols["epsilon"], cols["t"], cols[column]):
            expect = reference(float(eps), (c.mu1 + c.mu2) * float(t), c.ntilde)
            assert abs(got - expect) <= bound, (float(eps), float(t), c.ntilde)


class TestSliceWriter:
    """run_sweep writes the CSV in slices of BLOCK_STATES table rows."""

    @pytest.mark.parametrize("block", [2, 3, 4, 5])
    @pytest.mark.parametrize("include_css", [False, True])
    # the second list: epsilon where e**2 or (1-e)**2 through pow differs
    # from e*e or (1-e)*(1-e) in the last bit, so a state builder that
    # squares by pow on the scalar route and by multiplication on the
    # column route shows in the CSV
    @pytest.mark.parametrize("epsilons", [(0.5, 0.26, 0.05),
                                          (0.006883695940555379, 0.4599877486662678,
                                           0.923854799557242)])
    def test_slices_straddling_epsilon_runs_match_per_point_rows(
            self, tmp_path, block, include_css, epsilons):
        # 7 t-points per epsilon: every block size leaves blocks and slices
        # that hold the end of one epsilon's run and the start of the next
        out = tmp_path / "s.csv"
        cfg = SweepConfig(epsilon_list=epsilons, t_steps=7,
                          include_css=include_css, out=str(out))
        with mock.patch.object(cli, "BLOCK_STATES", block):
            assert run_sweep(cfg)["rows"] == 21
        assert out.read_bytes() == per_point_csv(cfg)

    @pytest.mark.parametrize("existing", [None, b"an earlier run\n"])
    def test_bad_row_in_the_third_block_writes_nothing(self, tmp_path, monkeypatch,
                                                        existing):
        stacked = measures.stacked_measures
        seen = []

        def third_corrupted(rho, sigma_p):
            cols = stacked(rho, sigma_p)
            seen.append(len(cols["negativity"]))
            if len(seen) == 3:
                cols["negativity"][0] = math.nan
            return cols

        monkeypatch.setattr(measures, "stacked_measures", third_corrupted)
        monkeypatch.setattr(cli, "BLOCK_STATES", 3)
        out = tmp_path / "s.csv"
        if existing is not None:
            out.write_bytes(existing)
        with pytest.raises(ArithmeticError, match=r"negativity outside \[0, 1\]: nan"):
            run_sweep(small_config(out, t_steps=7, include_css=True))
        # eps 0.25: t[0:3], t[3:6], then t[6] with eps 0.5's t[0:2]
        assert seen == [3, 3, 3]
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == existing

    @pytest.mark.parametrize("flags", [{}, {"include_css": True}])
    def test_peak_memory_per_row_is_bounded(self, tmp_path, flags):
        # the table and the ordering check grow with the grid; the formatted
        # CSV text takes one slice at a time
        def peak(t_steps):
            cfg = SweepConfig(t_steps=t_steps, out=str(tmp_path / "s.csv"), **flags)
            tracemalloc.start()
            try:
                run_sweep(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(1001), peak(4001)
        assert (large - small) / (8 * 3000) <= 512


class TestRecordFormatting:
    def test_infinite_relative_entropy_prints_inf(self):
        row = (0.6666666666666666,) * 14 + (math.inf,)
        assert cli.ROW_FORMAT % row == ",".join(["0.666666666667"] * 14 + ["inf"])

    def test_record_allows_infinite_er_exact(self):
        rec = build_record(0.5, ChannelParams(1.0, 1.0, 0.5, 0.5, 1.0), 0.3)
        rec["er_exact"] = math.inf
        assert measures.violations_at(rec, 0) == []


class TestBuildRecord:
    def test_all_measures_finite_and_ranged(self):
        c = ChannelParams(1.0, 1.0, 0.5, 0.5, 1.0)
        for eps in (0.0, 0.25, 0.5, 1.0):
            for t in (0.0, 1.0, 2 * math.pi):
                rec = build_record(eps, c, t)
                assert measures.violations_at(rec, 0) == []

    def test_er_exact_zero_at_start(self):
        c = ChannelParams(1.0, 1.0, 0.5, 0.5, 1.0)
        rec = build_record(0.5, c, 0.0)[0]
        assert rec["er_exact"] == pytest.approx(0.0, abs=1e-12)
        assert rec["gamma"] == 0.0
        assert rec["negativity"] == pytest.approx(1.0, abs=1e-12)


class TestMainSweep:
    def test_cli_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        rc = cli.main(["sweep", "--epsilon-list", "0.5,0.25", "--t-steps", "7",
                       "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows"] == 14
        assert summary["ordering"]["violations"] == []
        assert out.exists()

    @pytest.mark.parametrize("e_mixed_shift", [0.0, 0.5])
    def test_summary_shape(self, tmp_path, monkeypatch, capsys, e_mixed_shift):
        # the printed summary's keys in order, and each ordering entry's
        # shape; e_mixed shifted up breaks e_mixed <= N on some rows, which
        # exits 2 with the same summary
        mixed = refsearch.mixed_ref_measure_family
        monkeypatch.setattr(refsearch, "mixed_ref_measure_family",
                            lambda *args: np.minimum(1.0, mixed(*args) + e_mixed_shift))
        out = tmp_path / "s.csv"
        rc = cli.main(["sweep", "--t-steps", "11", "--out", str(out)])
        summary = json.loads(capsys.readouterr().out)
        assert list(summary) == ["out", "rows", "max_delta12", "ordering"]
        ordering = summary["ordering"]
        assert list(ordering) == ["violations", "witness_mixed_above",
                                  "witness_mixed_below", "no_global_order"]
        with open(out, encoding="utf-8", newline="") as fh:
            delta12 = [float(row["delta12"]) for row in csv.DictReader(fh)]
        assert type(summary["max_delta12"]) is float
        assert summary["max_delta12"] == pytest.approx(max(delta12), rel=1e-11)
        assert rc == (2 if ordering["violations"] else 0)
        assert bool(ordering["violations"]) == (e_mixed_shift > 0.0)
        for v in ordering["violations"]:
            assert [type(x) for x in v] == [float, float, str]
        for name in ("witness_mixed_above", "witness_mixed_below"):
            w = ordering[name]
            assert w is None or [type(x) for x in w] == [float] * 5
        assert ordering["no_global_order"] is (
            ordering["witness_mixed_above"] is not None
            and ordering["witness_mixed_below"] is not None)
        if not e_mixed_shift:
            assert ordering["no_global_order"] is True

    def test_config_file_and_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(
            "[sweep]\n"
            "epsilon_list = 0.5, 0.3\n"
            "t_steps = 5\n"
            f"out = {tmp_path / 'from_config.csv'}\n"
            "[channel]\n"
            "ntilde = 2.0\n"
            "mu1 = 0.25\n"
            "mu2 = 0.25\n")
        rc = cli.main(["sweep", "--config", str(cfgfile),
                       "--t-steps", "3"])  # flag beats file
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows"] == 6
        csv_lines = (tmp_path / "from_config.csv").read_text().splitlines()
        assert len(csv_lines) == 7
        # period = 2*pi/0.5: the config file channel drives the grid
        last_t = float(csv_lines[-1].split(",")[1])
        assert last_t == pytest.approx(4 * math.pi, rel=1e-9)

    def test_include_css_columns_equal_per_row_css_family(self, tmp_path, monkeypatch):
        # the reference: every row formatted with the closed-form CSS columns
        # taken at its own point alone
        # 604 rows: more than one CSV slice of BLOCK_STATES (512) rows
        cfg = small_config(tmp_path / "css.csv", epsilon_list=(0.0, 0.5, 1.0, 0.3),
                           t_steps=151, include_css=True)
        ts = np.linspace(0.0, cfg.t_max, cfg.t_steps)
        table = np.concatenate([measures.as_table(cols) for cols in
                                cli.sweep_blocks(cfg.epsilon_list, cfg.channel, ts)])
        expect = [cli.CSV_COLUMNS + cli.CSS_COLUMNS]
        for row in table.tolist():
            # epsilon, gamma
            _, e_value, pt_min_eig = refsearch.css_family_columns([row[0]], [row[2]])
            expect.append((cli.ROW_FORMAT + cli.CSS_ROW_FORMAT)
                          % (row + (e_value[0], pt_min_eig[0])))

        # the sweep takes the columns once per CSV slice, not once per row
        rows_per_call = []
        columns = refsearch.css_family_columns

        def counted(epsilon, gamma):
            rows_per_call.append(len(epsilon))
            return columns(epsilon, gamma)

        monkeypatch.setattr(refsearch, "css_family_columns", counted)
        run_sweep(cfg)
        assert len(rows_per_call) == -(-len(table) // cli.BLOCK_STATES)
        assert sum(rows_per_call) == len(table)
        assert (tmp_path / "css.csv").read_bytes() == ("\n".join(expect) + "\n").encode()

    def test_include_css_runs_no_search(self, tmp_path, monkeypatch):
        forbid_search(monkeypatch)
        out = tmp_path / "css.csv"
        assert cli.main(["sweep", "--include-css", "--out", str(out)]) == 0
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 408
        for row in rows:
            e = float(row["css_e_value"])
            assert float(row["css_pt_min_eig"]) >= 0.0
            # the paper's orders: E_css <= N, and E_css <= e_maxmixed since
            # I/4 is separable
            assert e <= float(row["negativity"]) + 1e-12
            assert e <= float(row["e_maxmixed"]) + 1e-12

    def test_no_optimizer_flags(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--help"])
        assert "--opt-" not in capsys.readouterr().out

    @pytest.mark.parametrize("word,value", [
        ("1", True), ("true", True), ("Yes", True), (" ON ", True),
        ("0", False), ("FALSE", False), ("no", False), ("Off", False)])
    def test_config_bool_words(self, word, value):
        assert cli._bool(word) is value

    @pytest.mark.parametrize("word", ["ture", "2", "y", ""])
    def test_config_bool_typo_exits_one(self, tmp_path, capsys, word):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(f"[sweep]\ninclude_css = {word}\n")
        out = tmp_path / "typo.csv"
        rc = cli.main(["sweep", "--config", str(cfgfile), "--t-steps", "2",
                       "--out", str(out)])
        assert rc == 1
        assert f"config [sweep] include_css = {word!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,text,where", [
        ("sweep", "[sweep]\nt_step = 5\n", "config [sweep] t_step"),
        ("sweep", "[channel]\nmu = 0.5\n", "config [channel] mu"),
        ("sweep", "[sweep]\nmodes = 2\n", "config [sweep] modes"),
        ("sweep", "[optimizer]\nmax_iters = 5\n", "config [optimizer]"),
        ("sweep", "[DEFAULT]\nt_steps = 5\n", "config [DEFAULT]"),
        ("oracle-check", "[oracle]\nepsilon = 0.4\nt_step = 5\n",
         "config [oracle] t_step"),
        # the couplings that cancel from the reduced state are not settings
        ("oracle-check", "[oracle]\nmu12 = 0.2\n", "config [oracle] mu12: unknown key"),
        ("oracle-check", "[oracle]\nmu_cross = 0.2\n",
         "config [oracle] mu_cross: unknown key"),
        # a file configparser cannot read is named, not a traceback
        ("sweep", "t_steps = 5\n", "config {path}: File contains no section headers"),
        ("sweep", "[sweep]\nt_steps = 5\nt_steps = 6\n",
         "config {path}: While reading from"),
        ("oracle-check", "[oracle]\nepsilon = 5%\n", "config {path}: '%' must be followed")])
    def test_config_unknown_key_or_section_exits_one(self, tmp_path, capsys,
                                                     command, text, where):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(text)
        out = tmp_path / "typo.out"
        rc = cli.main([command, "--config", str(cfgfile), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: " + where.format(path=cfgfile))
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flags, shown", [
        (["--mu1", "0", "--mu2", "0"], "got inf"),  # no revival period
        (["--t-max", "-1"], "got -1.0")])
    def test_bad_t_max_exits_one(self, tmp_path, capsys, flags, shown):
        out = tmp_path / "bad.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["sweep", *flags, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "t_max" in err and shown in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "oracle-check"])
    def test_infinite_default_t_max_asks_for_t_max(self, tmp_path, capsys, command):
        # mu1 + mu2 = 0: the channel has no revival period to default to
        uncoupled = [command, "--mu1", "0", "--mu2", "0", "--t-steps", "5"]
        out = tmp_path / "out"
        assert cli.main([*uncoupled, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "the default, one revival period" in err and "give --t-max" in err
        assert not out.exists()
        assert cli.main([*uncoupled, "--t-max", "3", "--out", str(out)]) == 0
        assert out.exists()

    def test_bad_epsilon_exits_one(self, capsys):
        rc = cli.main(["sweep", "--epsilon-list", "1.5"])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestMainOracleCheck:
    def test_default_passes(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        rc = cli.main(["oracle-check", "--t-steps", "11", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["max_diff"] <= report["threshold"]
        assert len(report["t_grid"]) == 11
        assert report["t_grid"][0] == 0.0
        # the t=0 residue is pure truncation deficit, bounded by the tail
        assert report["max_abs_diff"][0] <= 10 * report["config"]["cutoff_tail"]

    def test_many_modes_take_the_grouped_route(self, monkeypatch, capsys):
        # 30 modes span ~10^21 Fock indices: only the sum by total
        # occupation can run it, and it never builds the product grid
        def no_grid(*args):
            raise AssertionError("oracle-check built the per-index product grid")
        monkeypatch.setattr(oracle, "build_joint", no_grid)
        rc = cli.main(["oracle-check", "--modes", "30", "--t-steps", "2000"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["config", "t_grid", "max_abs_diff",
                                "corner_phase_offset", "max_diff", "threshold",
                                "passed"]
        assert list(report["config"]) == ["modes", "alphas", "omega_ratios",
                                          "cutoff_tail", "epsilon", "channel"]
        assert report["passed"] is True
        assert report["config"]["modes"] == 30
        assert len(report["max_abs_diff"]) == len(report["corner_phase_offset"]) == 2000
        assert report["max_diff"] == max(report["max_abs_diff"])

    def test_config_shared_with_sweep(self, tmp_path, capsys):
        # one file with every key both commands read
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(
            "[sweep]\n"
            "epsilon_list = 0.5\n"
            "t_max = 1.0\n"
            "t_steps = 3\n"
            "include_css = true\n"
            f"out = {tmp_path / 'shared.csv'}\n"
            "[oracle]\n"
            "modes = 2\n"
            "alphas = 0.5, 0.5j\n"
            "omega_ratios = 1.0, 1.0\n"
            "cutoff_tail = 1e-10\n"
            "epsilon = 0.4\n"
            "t_max = 2.0\n"
            "t_steps = 4\n"
            "[channel]\n"
            "omega1 = 1.0\n"
            "omega2 = 1.2\n"
            "mu1 = 0.5\n"
            "mu2 = 0.4\n"
            "ntilde = 0.5\n")
        assert cli.main(["sweep", "--config", str(cfgfile)]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 3
        header = (tmp_path / "shared.csv").read_text().splitlines()[0]
        assert header.endswith("css_e_value,css_pt_min_eig")
        assert cli.main(["oracle-check", "--config", str(cfgfile)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["modes"] == 2
        assert report["config"]["epsilon"] == 0.4
        assert report["t_grid"][-1] == 2.0 and len(report["t_grid"]) == 4
        assert report["config"]["channel"]["omega2"] == 1.2
        assert report["config"]["channel"]["ntilde"] == pytest.approx(0.5, abs=1e-15)

    def test_omega_ratios_change_nothing_but_config(self, capsys):
        # the mode energies cancel in the corner sum, so the grouped route
        # never reads the ratios and the report is that of the run without
        # them; that they cancel is checked per Fock index in
        # tests/test_oracle.py
        rc = cli.main(["oracle-check", "--t-steps", "5", "--omega-ratios", "1.3,0.9,2.0"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert max(abs(o) for o in report["corner_phase_offset"]) < 1e-8
        assert cli.main(["oracle-check", "--t-steps", "5"]) == 0
        plain = json.loads(capsys.readouterr().out)
        del report["config"], plain["config"]
        assert report == plain

    def test_explicit_alphas(self, capsys):
        rc = cli.main(["oracle-check", "--t-steps", "5",
                       "--alphas", "0.5,0.5,0.5,0.5", "--ntilde", "1.0"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["modes"] == 4

    @pytest.mark.parametrize("flags, shown", [
        (["--mu1", "0", "--mu2", "0"], "got inf"),  # no revival period
        (["--t-max", "-1"], "got -1.0")])
    def test_bad_t_max_exits_one(self, tmp_path, capsys, flags, shown):
        out = tmp_path / "bad.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["oracle-check", *flags, "--t-steps", "3", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "t_max" in err and shown in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, shown", [
        (["--modes", "5", "--alphas", "0.5,0.5"], "modes = 5 disagrees with the 2 alphas"),
        (["--modes", "1", "--alphas", "0.5,0.5"], "modes = 1 disagrees with the 2 alphas"),
        (["--t-steps", "0"], "t_steps must be >= 1, got 0"),
        (["--t-steps", "-3"], "t_steps must be >= 1, got -3")])
    def test_bad_mode_count_or_t_steps_exits_one(self, tmp_path, capsys, flags, shown):
        out = tmp_path / "bad.json"
        rc = cli.main(["oracle-check", "--t-steps", "3", *flags, "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert shown in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize("field, value", [
        ("omega_ratios", "nan,inf,-1"),
        ("omega_ratios", "1,1,inf"),
        ("alphas", "nan,1,1"),
        ("alphas", "0.5,1+nanj,0.5"),
        # finite alphas whose sum of |alpha|^2, the reservoir's ntilde, overflows
        ("alphas", "1e308"),
        ("alphas", "1e200"),
        ("alphas", "1e154,1e154")])
    def test_non_finite_reservoir_input_exits_one(self, tmp_path, capsys, route, field, value):
        if route == "flag":
            given = [f"--{field.replace('_', '-')}={value}"]
        else:
            cfgfile = tmp_path / "run.ini"
            cfgfile.write_text(f"[oracle]\n{field} = {value}\n")
            given = ["--config", str(cfgfile)]
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["oracle-check", "--t-steps", "3", *given, "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {field} must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("ratios", ["-1,-1,0", "1,0,1", "1,1,-0.5"])
    def test_non_positive_omega_ratio_exits_one(self, capsys, ratios):
        rc = cli.main(["oracle-check", f"--omega-ratios={ratios}", "--t-steps", "3"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "omega_ratios must be positive" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flags, config", [(["--mu2", "1e308"], ""),
                                               ([], "[channel]\nmu1 = 1e308\n")])
    def test_overflowing_branch_rate_exits_one(self, tmp_path, capsys, flags, config):
        # mu1 + mu2 is finite, but the branch rate (mu1 + mu2) N / 2 is not from N = 4
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(config)
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["oracle-check", "--config", str(cfgfile), *flags,
                           "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(
            "error: the branch rate (omega1 + omega2)/2 + (mu1 + mu2) N/2 overflows")
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", ["1.5", "-0.1", "nan"])
    def test_epsilon_outside_the_unit_interval_exits_one(self, tmp_path, capsys, epsilon):
        out = tmp_path / "bad.json"
        rc = cli.main(["oracle-check", f"--epsilon={epsilon}", "--t-steps", "3",
                       "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "epsilon must be in [0, 1]" in captured.err and captured.out == ""
        assert not out.exists()


def test_cli_commands_import_no_scipy(tmp_path):
    # scipy.optimize dominates the import time; only the general search,
    # which no command runs, needs it
    save_state(initial_pure(0.3), tmp_path / "state.json")
    code = ("import sys\n"
            "from qdephase import cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert loaded() == [], loaded()\n"
            "assert cli.main(['sweep', '--out', sys.argv[1]]) == 0\n"
            "assert cli.main(['sweep', '--include-css', '--out', sys.argv[1]]) == 0\n"
            "assert cli.main(['oracle-check', '--t-steps', '3']) == 0\n"
            "assert cli.main(['css', 'state.json']) == 0\n"
            "assert loaded() == [], loaded()\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "s.csv")],
                          env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestMainCss:
    def test_bell_state_file(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        save_state(initial_pure(0.5), path)
        rc = cli.main(["css", str(path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["e_value"] == pytest.approx(1 - math.sqrt(0.5), abs=1e-4)
        assert report["pt_min_eig"] >= -1e-7
        assert report["feasible"]
        # the formula, not sigma*, loses accuracy as C -> 1
        assert abs(report["closed_gap"]) <= 1e-8
        assert report["closed_gap"] == report["e_value"] - report["e_closed"]

    def test_maximally_mixed_file(self, tmp_path, capsys):
        path = tmp_path / "mm.json"
        blob = {"dim": 4, "re": (np.eye(4) / 4).tolist(),
                "im": np.zeros((4, 4)).tolist()}
        path.write_text(json.dumps(blob))
        rc = cli.main(["css", str(path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["e_value"] <= 1e-6

    def test_report_keys_and_closed_gap(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = 0.8 * np.outer(psi, psi.conj()) / np.vdot(psi, psi).real + 0.05 * np.eye(4)
        path = tmp_path / "state.json"
        save_state(rho, path)
        out = tmp_path / "report.json"
        assert cli.main(["css", str(path), "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text()) == report
        assert list(report) == ["e_value", "e_closed", "closed_gap", "pt_min_eig",
                                "feasible", "sigma_star"]
        assert 0.0 < report["e_value"] and abs(report["closed_gap"]) <= 1e-13

    def test_runs_no_search(self, tmp_path, capsys, monkeypatch):
        forbid_search(monkeypatch)
        path = tmp_path / "bell.json"
        save_state(initial_pure(0.5), path)
        assert cli.main(["css", str(path)]) == 0
        e = json.loads(capsys.readouterr().out)["e_value"]
        assert abs(e - (1.0 - 1.0 / math.sqrt(2.0))) <= 1e-14

    def test_has_no_optimizer_flags(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        save_state(initial_pure(0.5), path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["css", str(path), "--opt-restarts", "4"])
        assert exc.value.code == 1  # a usage error, not a numerical failure
        assert "--opt-restarts" in capsys.readouterr().err

    def test_invalid_state_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        blob = {"dim": 4, "re": np.diag([1.0, 1.0, 0, 0]).tolist(),
                "im": np.zeros((4, 4)).tolist()}
        path.write_text(json.dumps(blob))
        assert cli.main(["css", str(path)]) == 1
        assert "error" in capsys.readouterr().err
        # a dim that is not a JSON integer is not truncated to one
        path.write_text(json.dumps({**blob, "re": (np.eye(4) / 4).tolist(), "dim": 4.9}))
        assert cli.main(["css", str(path)]) == 1
        assert "malformed state JSON: dim must be an integer, got 4.9" in capsys.readouterr().err

    @pytest.mark.parametrize("entries, shown", [
        ({("im", 0, 3): math.inf}, "matrix has a non-finite entry"),
        ({("re", 0, 0): 1e308, ("re", 3, 3): 1e308}, "trace deviates from 1 by inf"),
        ({("re", 0, 3): 1e308, ("re", 3, 0): -1e308}, "hermiticity defect inf exceeds 1.0e-10"),
        ({("re", 0, 3): 1e308, ("re", 3, 0): 1e308},
         "negative eigenvalue -1.000e+308 below -1.0e-09")])
    def test_non_finite_or_huge_entry_exits_one(self, tmp_path, capsys, entries, shown):
        blob = state_to_json(initial_pure(0.5))
        for (part, i, j), value in entries.items():
            blob[part][i][j] = value
        path, out = tmp_path / "state.json", tmp_path / "report.json"
        path.write_text(json.dumps(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["css", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {shown}\n"
        assert not out.exists()

    def test_missing_file_exits_one(self, capsys):
        assert cli.main(["css", "/nonexistent/state.json"]) == 1


class TestSweepInputs:
    def test_channel_flag_overrides_bad_config_value(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text("[channel]\nmu1 = abc\n")
        out = tmp_path / "s.csv"
        argv = ["sweep", "--config", str(cfgfile), "--t-steps", "3", "--out", str(out)]
        assert cli.main(argv + ["--mu1", "0.5"]) == 0
        assert out.exists()
        out.unlink()
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert "config [channel] mu1 = 'abc'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("listed, shown", [("0.5,0.5", "epsilon 0.5"),
                                               ("0.3,-0,0.5,0", "epsilon 0.0")])
    def test_repeated_epsilon_exits_one(self, tmp_path, capsys, listed, shown):
        out = tmp_path / "s.csv"
        rc = cli.main(["sweep", f"--epsilon-list={listed}", "--t-steps", "3",
                       "--out", str(out)])
        assert rc == 1
        assert shown in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match="listed twice"):
            SweepConfig(epsilon_list=(0.0, -0.0))

    @pytest.mark.parametrize("flags, shown", [
        (["--mu1", "1e308", "--mu2", "1e308"], "mu1 + mu2 must be finite, got inf"),
        (["--omega1", "1e308", "--omega2", "1e308"], "omega1 + omega2"),
        (["--mu1", "1e300", "--mu2", "1e300", "--t-max", "1e10"],
         "phase at t = 200000000.0 is not finite")])
    def test_channel_overflow_exits_one(self, tmp_path, capsys, flags, shown):
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["sweep", *flags, "--out", str(out)])
        assert rc == 1
        assert shown in capsys.readouterr().err
        assert not out.exists()


class TestUsageErrors:
    @pytest.mark.parametrize("argv, shown", [
        (["sweep", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
        (["sweep", "--t-steps", "x"], "invalid int value: 'x'"),
        (["css"], "the following arguments are required: state"),
        (["css", "s.json", "--opt-restarts", "4"], "unrecognized arguments"),
        (["sweep", "--epsilon-list", "-0,0.5"], "--epsilon-list: expected one argument"),
        (["oracle-check", "--omega-ratios", "-1,1,1"], "expected one argument"),
        ([], "the following arguments are required: command"),
        (["bogus"], "invalid choice: 'bogus'"),
        # the couplings that cancel from the reduced state are not settings
        (["oracle-check", "--mu12", "0.8"], "unrecognized arguments: --mu12 0.8"),
        (["oracle-check", "--mu-cross", "0.2"], "unrecognized arguments: --mu-cross 0.2")])
    def test_usage_error_exits_one(self, tmp_path, capsys, monkeypatch, argv, shown):
        # exit 2 is the numerical-failure code; a bad command line is a
        # validation failure
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qdephase") and shown in err
        assert list(tmp_path.iterdir()) == []

    def test_list_starting_with_minus_takes_the_equals_form(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--epsilon-list=-0,0.5", "--t-steps", "5",
                         "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 10

    @pytest.mark.parametrize("command, flag", [("sweep", "--epsilon-list"),
                                               ("oracle-check", "--alphas"),
                                               ("oracle-check", "--omega-ratios")])
    def test_list_flag_help_gives_the_equals_form(self, capsys, monkeypatch,
                                                  command, flag):
        monkeypatch.setenv("COLUMNS", "200")  # no line break inside the flag
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--help"])
        assert info.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"{flag}=-" in help_text


# a value other than the default for every setting in cli.SETTINGS, as the
# text a flag or a config file gives
SETTING_TEXT = {
    ("sweep", "epsilon_list"): "0.5,0.3",
    ("sweep", "t_max"): "1.5",
    ("sweep", "t_steps"): "7",
    ("sweep", "include_css"): "true",
    ("sweep", "out"): "other.csv",
    ("channel", "omega1"): "1.5",
    ("channel", "omega2"): "1.25",
    ("channel", "mu1"): "0.25",
    ("channel", "mu2"): "0.75",
    ("channel", "ntilde"): "2.0",
    ("oracle", "modes"): "2",
    ("oracle", "alphas"): "0.5,0.5j",
    ("oracle", "omega_ratios"): "1.0,2.0,3.0",
    ("oracle", "cutoff_tail"): "1e-8",
    ("oracle", "epsilon"): "0.3",
    ("oracle", "t_max"): "1.5",
    ("oracle", "t_steps"): "7",
}
COMMAND_SECTION = {"sweep": "sweep", "oracle-check": "oracle"}


def _flags(command) -> set:
    ap = cli._build_parser()
    sub = next(a for a in ap._actions if a.dest == "command")
    return {opt for action in sub.choices[command]._actions
            for opt in action.option_strings if opt.startswith("--")}


def _captured(monkeypatch, tmp_path, argv):
    """What the command hands on: the SweepConfig run_sweep gets, or the
    arguments of run_oracle_check."""
    seen = []

    def sweep(cfg):
        seen.append(cfg)
        return {"ordering": {"violations": []}}

    def oracle_check(r, c, epsilon, t_grid):
        seen.append((r, c, epsilon, t_grid.tolist()))
        return {"passed": True}

    monkeypatch.setattr(cli, "run_sweep", sweep)
    monkeypatch.setattr(cli, "run_oracle_check", oracle_check)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    return seen[0]


class TestSettingsTable:
    @pytest.mark.parametrize("command", COMMAND_SECTION)
    def test_flags_are_the_settings(self, command):
        expect = {"--" + key.replace("_", "-")
                  for section in (COMMAND_SECTION[command], "channel")
                  for key in cli.SETTINGS[section]}
        # --out of oracle-check names a report copy, not a setting
        extra = {"--help", "--config"} | ({"--out"} if command == "oracle-check" else set())
        assert _flags(command) - extra == expect

    @pytest.mark.parametrize("command, section, key", [
        (command, section, key)
        for command, own in COMMAND_SECTION.items()
        for section in (own, "channel")
        for key in cli.SETTINGS[section]])
    def test_file_value_reaches_the_command_as_the_flag(self, tmp_path, monkeypatch,
                                                        capsys, command, section, key):
        text = SETTING_TEXT[section, key]
        flag = "--" + key.replace("_", "-")
        flag_argv = [command, flag] if cli.SETTINGS[section][key][0] is cli._bool \
            else [command, f"{flag}={text}"]
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(f"[{section}]\n{key} = {text}\n")
        by_flag = _captured(monkeypatch, tmp_path, flag_argv)
        by_file = _captured(monkeypatch, tmp_path, [command, "--config", str(cfgfile)])
        assert by_file == by_flag
        assert by_flag != _captured(monkeypatch, tmp_path, [command])


def _run_each_command(tmp_path) -> list:
    """(exit code, stdout) of one small call of each command, run in tmp_path."""
    save_state(initial_pure(0.5), tmp_path / "bell.json")
    results = []
    for argv in (["sweep", "--t-steps", "3", "--out", "s.csv"],
                 ["oracle-check", "--t-steps", "3"],
                 ["css", "bell.json"]):
        f = io.StringIO()
        with contextlib.redirect_stdout(f):
            rc = cli.main(argv)
        results.append((rc, f.getvalue()))
    return results


class TestParserBuiltOnce:
    def test_a_second_call_adds_no_argument(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        first = _run_each_command(tmp_path)
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def counted(self, *args, **kwargs):
            added.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        assert _run_each_command(tmp_path) == first
        assert added == []
        assert cli._build_parser() is cli._build_parser()

    def test_sweep_without_css_after_one_with_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        grid = ["--epsilon-list", "0.5,0.25", "--t-steps", "3"]
        assert cli.main(["sweep", "--include-css", *grid, "--out", "a.csv"]) == 0
        assert cli.main(["sweep", *grid, "--out", "b.csv"]) == 0
        assert "css_" in Path("a.csv").read_text().splitlines()[0]
        assert Path("b.csv").read_text().splitlines()[0] == EXPECTED_HEADER

    def test_oracle_check_without_out_after_one_with_it(self, tmp_path, monkeypatch,
                                                        capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["oracle-check", "--t-steps", "3", "--out", "r.json"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["oracle-check", "--t-steps", "3"]) == 0
        assert capsys.readouterr().out == first
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    def test_valid_css_after_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["css"])
        assert info.value.code == 1
        assert capsys.readouterr().err.startswith("usage: qdephase")
        assert cli.main(["css", str(make_golden.GOLDEN_DIR / "bell_state.json")]) == 0
        expected = (make_golden.GOLDEN_DIR / "css_bell.json").read_text(encoding="utf-8")
        assert make_golden.mismatches(expected, capsys.readouterr().out) == []

    def test_help_wraps_at_each_calls_width(self, monkeypatch, capsys):
        widest = {}
        for columns in (60, 200):
            monkeypatch.setenv("COLUMNS", str(columns))
            with pytest.raises(SystemExit) as info:
                cli.main(["sweep", "--help"])
            assert info.value.code == 0
            widest[columns] = max(map(len, capsys.readouterr().out.splitlines()))
        assert widest[60] <= 60 < widest[200] <= 200
