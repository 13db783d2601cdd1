"""Golden outputs: what the qdephase commands print and write on fixed
inputs, committed under tests/golden/, and the comparison that holds a tree
to them (tests/test_golden.py).

  PYTHONPATH=src python tests/make_golden.py           # rewrite tests/golden/
  PYTHONPATH=src python tests/make_golden.py --check   # compare, exit 1 on a mismatch

Each case runs one command in process, in a scratch directory, and keeps
its stdout (a sweep's summary without its "out" path) and the CSV it writes.
runs.json keeps every case's arguments, exit code and stderr, and the two
css cases read the state files the script writes beside them, which are
goldens too. Text and exit codes must match exactly, and each number to
within one unit in the 12th significant digit of the larger of the two,
because BLAS may round differently between machines. Byte-identity is reported, not
required. For a CSV that differs, both modes print the rows changed and the
largest change per column: the list a change that rewrites the goldens
records. Needs numpy alone.
"""

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np

from qdephase import cli
from qdephase.states import initial_pure, save_state

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# name -> (argv, the CSV the command writes or None)
CASES = {
    # the figure grid, 8 x 51, with the closed-form CSS columns
    "sweep_default_css": (["sweep", "--include-css", "--out", "out.csv"], "out.csv"),
    # the product states, a hair from them and epsilon = 1/2 under a hot
    # reservoir, where C ~ exp(-2 ntilde) mid-period
    "sweep_ntilde8": (["sweep", "--epsilon-list", "0,0.00001,0.5,0.99999,1",
                       "--ntilde", "8", "--t-steps", "201", "--out", "out.csv"], "out.csv"),
    "oracle_check": (["oracle-check"], None),
    "css_bell": (["css", "bell_state.json"], None),
    "css_near_singular": (["css", "near_singular_state.json"], None),
    # the validation failures .github/cli_smoke.sh runs
    "error_unknown_flag": (["sweep", "--no-such-flag"], None),
    "error_nan_omega_ratio": (["oracle-check", "--omega-ratios", "nan,1,1", "--modes", "3"],
                              None),
    "error_negative_omega_ratio": (["oracle-check", "--omega-ratios=-1,1,1", "--modes", "3"],
                                   None),
    "error_epsilon_range": (["oracle-check", "--epsilon", "1.5"], None),
}

# a decimal number standing alone: not part of a name such as omega1
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _write_states(workdir: Path) -> None:
    # the Bell state, and a nearly singular full-rank state (lambda_min = 8.9e-9)
    save_state(initial_pure(0.5), workdir / "bell_state.json")
    rng = np.random.default_rng(10_107)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w = rng.dirichlet(np.ones(4) * 0.5)
    rho = (g * w) @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    save_state(rho / rho.trace().real, workdir / "near_singular_state.json")


def _run(argv: list, workdir: Path):
    # (exit code, stdout, stderr) of one command run in workdir
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    finally:
        os.chdir(here)
    return code, out.getvalue(), err.getvalue()


def outputs(workdir) -> dict:
    """Every golden's text, file name -> text, from the tree being run."""
    workdir = Path(workdir)
    _write_states(workdir)
    files = {name: (workdir / name).read_text(encoding="utf-8")
             for name in ("bell_state.json", "near_singular_state.json")}
    runs = {}
    for name, (argv, written) in CASES.items():
        code, stdout, stderr = _run(argv, workdir)
        runs[name] = {"argv": argv, "exit": code, "stderr": stderr}
        if stdout and argv[0] == "sweep":
            summary = json.loads(stdout)
            del summary["out"]
            stdout = json.dumps(summary, indent=2) + "\n"
        if stdout:
            files[f"{name}.json"] = stdout
        if written:
            files[f"{name}.csv"] = (workdir / written).read_text(encoding="utf-8")
    files["runs.json"] = json.dumps(runs, indent=1) + "\n"
    return files


def golden_names() -> list:
    if not GOLDEN_DIR.is_dir():
        return []
    return sorted(p.name for p in GOLDEN_DIR.iterdir() if p.is_file())


def _close(expected: str, got: str) -> bool:
    # within one unit in the 12th significant digit of the larger, in
    # decimal, so the digits compared are the ones written
    e, g = Decimal(expected), Decimal(got)
    big = max(abs(e), abs(g))
    return big == 0 or abs(e - g) <= Decimal(1).scaleb(big.adjusted() - 11)


def mismatches(expected: str, got: str) -> list:
    """The lines where got differs from expected: text outside the numbers
    exactly, each number within one unit of its 12th significant digit."""
    exp_lines, got_lines = expected.splitlines(), got.splitlines()
    if len(exp_lines) != len(got_lines):
        return [f"{len(got_lines)} lines, expected {len(exp_lines)}"]
    bad = []
    for k, (e, g) in enumerate(zip(exp_lines, got_lines), 1):
        if e == g:
            continue
        e_nums, g_nums = NUMBER.findall(e), NUMBER.findall(g)
        if (NUMBER.split(e) != NUMBER.split(g) or len(e_nums) != len(g_nums)
                or not all(map(_close, e_nums, g_nums))):
            bad.append(f"line {k}: expected {e!r}, got {g!r}")
    return bad


def column_drift(expected: str, got: str) -> dict:
    """Per column of two CSVs with the same header and row count: (rows
    changed, largest absolute change), for the columns that changed. A
    column that goes between finite and inf counts the row, with an inf
    change."""
    exp_rows = [line.split(",") for line in expected.splitlines()]
    got_rows = [line.split(",") for line in got.splitlines()]
    header = exp_rows[0]
    drift = {}
    for j, name in enumerate(header):
        changed, largest = 0, 0.0
        for e, g in zip(exp_rows[1:], got_rows[1:]):
            if e[j] != g[j]:
                changed += 1
                a, b = float(e[j]), float(g[j])
                largest = max(largest, math.inf if math.isinf(a) != math.isinf(b)
                              else 0.0 if a == b else abs(a - b))
        if changed:
            drift[name] = (changed, largest)
    return drift


def _report(name: str, expected: str, got: str) -> list:
    # print how got stands against expected; return its mismatches
    if got == expected:
        print(f"{name}: byte-identical")
        return []
    bad = mismatches(expected, got)
    print(f"{name}: {'DIFFERS' if bad else 'within tolerance, not byte-identical'}")
    for line in bad[:5]:
        print(f"  {line}")
    header_kept = expected.split("\n", 1)[0] == got.split("\n", 1)[0]
    if name.endswith(".csv") and header_kept and expected.count("\n") == got.count("\n"):
        for column, (changed, largest) in column_drift(expected, got).items():
            print(f"  {column}: {changed} rows changed, largest change {largest:.2g}")
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the goldens instead of rewriting them")
    check = ap.parse_args().check
    with tempfile.TemporaryDirectory() as tmp:
        files = outputs(tmp)
    old = {name: (GOLDEN_DIR / name).read_text(encoding="utf-8") for name in golden_names()}
    failed = sorted(old.keys() ^ files.keys())
    for name in failed:
        print(f"{name}: {'no longer written' if name in old else 'new'}")
    for name in sorted(old.keys() & files.keys()):
        if _report(name, old[name], files[name]):
            failed.append(name)
    if check:
        print(f"golden check: {'FAILED on ' + ', '.join(failed) if failed else 'ok'}")
        return 1 if failed else 0
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in old.keys() - files.keys():
        (GOLDEN_DIR / name).unlink()
    for name, text in files.items():
        with open(GOLDEN_DIR / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    print(f"wrote {len(files)} goldens to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
