import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import astuple, fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdephase import cli, measures, refsearch
from qdephase.channel import ChannelParams
from qdephase.cli import SweepConfig, build_record, run_sweep
from qdephase.measures import MeasureRecord
from qdephase.states import FamilyParams, initial_pure, save_state

EXPECTED_HEADER = ("epsilon,t,gamma,abs_a,delta12,negativity,concurrence_wootters,"
                   "concurrence_paper,eof,fidelity_pure,e_pure,e_mixed,e_maxmixed,"
                   "er_exact_nats,er_lin")


def small_config(out, **kw):
    base = dict(epsilon_list=(0.5, 0.25), t_steps=9, out_path=str(out))
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


FIELDS = [f.name for f in fields(MeasureRecord)]


def per_point_columns(epsilons, c, ts):
    recs = [build_record(eps, c, float(t)) for eps in sorted(epsilons) for t in ts]
    return {name: np.array([getattr(r, name) for r in recs]) for name in FIELDS}


def batched_columns(epsilons, c, ts):
    blocks = list(cli.sweep_blocks(epsilons, c, ts))
    assert all(list(b) == FIELDS for b in blocks)
    return {name: np.concatenate([b[name] for b in blocks]) for name in FIELDS}, len(blocks)


def assert_columns_match(got, expect):
    for name in FIELDS:
        g, e = got[name], expect[name]
        assert np.array_equal(np.isinf(g), np.isinf(e)), name
        finite = ~np.isinf(e)
        assert np.abs(g[finite] - e[finite]).max(initial=0.0) <= 1e-14, name


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
        assert n_blocks == len(epsilons) * math.ceil(t_steps / block)
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
        cfg = SweepConfig(t_steps=t_steps, out_path=str(out))
        run_sweep(cfg)
        lines = [cli.CSV_COLUMNS] + [
            cli.ROW_FORMAT % astuple(build_record(eps, cfg.channel, float(t)))
            for eps in sorted(cfg.epsilon_list)
            for t in np.linspace(0.0, cfg.t_max, t_steps)]
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_run_sweep_builds_no_per_point_records(self, tmp_path, monkeypatch, capsys):
        def per_point(*args, **kwargs):
            raise AssertionError("sweep built a per-point record")

        monkeypatch.setattr(cli, "build_record", per_point)
        assert cli.main(["sweep", "--out", str(tmp_path / "s.csv")]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 408

    @pytest.mark.parametrize("flags", [[], ["--include-css"]])
    def test_run_sweep_builds_no_records(self, tmp_path, monkeypatch, capsys, flags):
        def no_record(*args, **kwargs):
            raise AssertionError("sweep built a MeasureRecord")

        monkeypatch.setattr(MeasureRecord, "__init__", no_record)
        assert cli.main(["sweep", *flags, "--out", str(tmp_path / "s.csv")]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 408

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
                                   "['negativity is not finite: nan', "
                                   "'negativity outside [0, 1]: nan']")
        assert not out.exists()


class TestRecordFormatting:
    def test_infinite_relative_entropy_prints_inf(self):
        row = (0.6666666666666666,) * 14 + (math.inf,)
        assert cli.ROW_FORMAT % row == ",".join(["0.666666666667"] * 14 + ["inf"])

    def test_record_allows_infinite_er_exact(self):
        rec = build_record(0.5, ChannelParams(1.0, 1.0, 0.5, 0.5, 1.0), 0.3)
        patched = rec.__class__(**{**rec.__dict__, "er_exact": math.inf})
        assert patched.violations() == []


class TestBuildRecord:
    def test_all_measures_finite_and_ranged(self):
        c = ChannelParams(1.0, 1.0, 0.5, 0.5, 1.0)
        for eps in (0.0, 0.25, 0.5, 1.0):
            for t in (0.0, 1.0, 2 * math.pi):
                rec = build_record(eps, c, t)
                assert rec.violations() == []

    def test_er_exact_zero_at_start(self):
        c = ChannelParams(1.0, 1.0, 0.5, 0.5, 1.0)
        rec = build_record(0.5, c, 0.0)
        assert rec.er_exact == pytest.approx(0.0, abs=1e-12)
        assert rec.gamma == 0.0
        assert rec.negativity == pytest.approx(1.0, abs=1e-12)


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

    def test_include_css_runs_no_search(self, tmp_path, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("sweep ran the numerical CSS search")

        monkeypatch.setattr(refsearch, "closest_separable_bures", no_search)
        monkeypatch.setattr(refsearch, "minimize", no_search)
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
         "config [oracle] t_step")])
    def test_config_unknown_key_or_section_exits_one(self, tmp_path, capsys,
                                                     command, text, where):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(text)
        out = tmp_path / "typo.out"
        rc = cli.main([command, "--config", str(cfgfile), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert where in captured.err
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
            "mu_cross = 0.1\n"
            "mu12 = 0.2\n"
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

    def test_qubit_coupling_flag(self, capsys):
        rc = cli.main(["oracle-check", "--t-steps", "5", "--mu12", "0.8"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert max(abs(o) for o in report["corner_phase_offset"]) < 1e-8

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


def test_sweep_and_oracle_import_no_scipy(tmp_path):
    # scipy.optimize dominates the import time; only the general search needs it
    code = ("import sys\n"
            "from qdephase import cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert loaded() == [], loaded()\n"
            "assert cli.main(['sweep', '--out', sys.argv[1]]) == 0\n"
            "assert cli.main(['sweep', '--include-css', '--out', sys.argv[1]]) == 0\n"
            "assert cli.main(['oracle-check', '--t-steps', '3']) == 0\n"
            "assert loaded() == [], loaded()\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "s.csv")],
                          env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestMainCss:
    def test_bell_state_file(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        save_state(initial_pure(FamilyParams(0.5)), path)
        rc = cli.main(["css", str(path), "--opt-restarts", "4"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["e_value"] == pytest.approx(1 - math.sqrt(0.5), abs=1e-4)
        assert report["pt_min_eig"] >= -1e-7
        assert report["feasible"]
        assert report["converged"]
        assert report["nfev"] > 0

    def test_unconverged_exits_two(self, tmp_path, capsys):
        # one iteration per minimizer run leaves the Bell solve feasible but
        # far from its optimum
        path = tmp_path / "bell.json"
        save_state(initial_pure(FamilyParams(0.5)), path)
        rc = cli.main(["css", str(path), "--opt-max-iters", "1"])
        assert rc == 2
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"]
        assert not report["converged"]

    def test_maximally_mixed_file(self, tmp_path, capsys):
        path = tmp_path / "mm.json"
        blob = {"dim": 4, "re": (np.eye(4) / 4).tolist(),
                "im": np.zeros((4, 4)).tolist()}
        path.write_text(json.dumps(blob))
        rc = cli.main(["css", str(path), "--opt-restarts", "2",
                       "--opt-max-iters", "500"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["e_value"] <= 1e-6

    def test_invalid_state_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        blob = {"dim": 4, "re": np.diag([1.0, 1.0, 0, 0]).tolist(),
                "im": np.zeros((4, 4)).tolist()}
        path.write_text(json.dumps(blob))
        assert cli.main(["css", str(path)]) == 1
        assert "error" in capsys.readouterr().err

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
