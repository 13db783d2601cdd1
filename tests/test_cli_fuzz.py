"""Seeded fuzz of the commands' inputs against the exit-code contract.

The argv grammar is built from cli.SETTINGS, so a new setting is fuzzed
without an edit here: each drawn setting is given once as a flag and once
as a config-file key, and css gets mutated state JSON. Every run must exit
0, 1 or 2; print nothing to stderr or one "error:" line (or, from a sweep
only, one "numerical failure:" line); raise no RuntimeWarning and no
traceback; and on an error line write no output file. The flag run and the
config run must be the same run.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest

from qdephase import cli
from qdephase.states import initial_pure, state_to_json

SEED = 20_261_022
RUNS_PER_COMMAND = 120
STATE_FILES = 240

# the config sections each command reads
SECTIONS = {"sweep": ("sweep", "channel"), "oracle-check": ("oracle", "channel")}

FLOATS = ("0", "-0", "0.5", "1", "-1", "2.5", "5e-324", "1e-300", "1e300", "1e308",
          "1.7e308", "-1e308", "inf", "-inf", "nan")
# reader -> the texts drawn for it; every text parses, so a failure is the
# command's verdict on the value and not a usage error
TEXTS = {
    float: FLOATS,
    int: ("-1", "0", "1", "2", "3", "5"),
    cli._floats: ("0.5", "-0,0.5", "0.12,0.5,1", "nan,1", "1,1,1", "1e308,1e-300,0.5",
                  "0,1", "inf,1,1", "-1,1,1", "0.5,0.5"),
    cli._complexes: ("1", "0.5,0.5j", "1j,1,1", "nan", "1e308", "0", "1+1j,0.1,2"),
    str: ("o.csv",),
}
# the words of a _bool setting that its bare switch stands for
TRUE_WORDS = ("1", "true", "yes", "on")

ENTRY_VALUES = (math.inf, -math.inf, math.nan, 1e308, -1e308, 1.7e308, 1e154, 5e-324,
                1e-300, 0.0, -0.0, 1.0, -1.0, 0.25)


def _draw_settings(rng, command):
    """(section, key, text) for one to three settings of command."""
    keys = [(s, k) for s in SECTIONS[command] for k in cli.SETTINGS[s]]
    picked = rng.choice(len(keys), size=rng.integers(1, 4), replace=False)
    drawn = []
    for i in sorted(picked):
        section, key = keys[i]
        read = cli.SETTINGS[section][key][0]
        texts = TRUE_WORDS if read is cli._bool else TEXTS[read]
        drawn.append((section, key, texts[rng.integers(len(texts))]))
    return drawn


def _as_flags(drawn):
    argv = []
    for section, key, text in drawn:
        flag = "--" + key.replace("_", "-")
        # a value may start with "-", which only the --flag=value form reads
        argv.append(flag if cli.SETTINGS[section][key][0] is cli._bool else f"{flag}={text}")
    return argv


def _as_ini(drawn):
    lines = []
    for section in dict.fromkeys(section for section, _, _ in drawn):
        lines.append(f"[{section}]")
        lines += [f"{key} = {text}" for s, key, text in drawn if s == section]
    return "\n".join(lines) + "\n"


def _run(monkeypatch, directory, argv, inputs):
    """Run argv in directory, which holds only the files in inputs: the exit
    code, stdout, stderr, the RuntimeWarnings raised and the files written."""
    monkeypatch.chdir(directory)
    stdout, stderr = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
        warnings.simplefilter("always")
        rc = cli.main(argv)
    written = {p.name: p.read_bytes() for p in sorted(directory.iterdir())
               if p.name not in inputs}
    raised = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return rc, stdout.getvalue(), stderr.getvalue(), raised, written


def _assert_contract(argv, run):
    rc, out, err, raised, written = run
    assert rc in (0, 1, 2), (argv, rc)
    assert not raised, (argv, raised)
    if err:
        # an oracle-check or css input is valid (exit 0, or 2 with its report
        # printed) or invalid (exit 1): only a sweep may end in a numerical failure
        said = ("error: ", "numerical failure: ") if argv[0] == "sweep" else ("error: ",)
        assert err.count("\n") == 1 and err.startswith(said), (argv, err)
        assert rc != 0 and out == "" and written == {}, (argv, rc, err, written)


@pytest.mark.parametrize("command", SECTIONS)
def test_a_setting_as_flag_or_config_key_keeps_the_exit_code_contract(tmp_path, monkeypatch,
                                                                      command):
    rng = np.random.default_rng([SEED, list(SECTIONS).index(command)])
    # oracle-check writes its report only if asked; ask, so an error run
    # that writes it shows
    extra = ["--out=report.json"] if command == "oracle-check" else []
    for k in range(RUNS_PER_COMMAND):
        drawn = _draw_settings(rng, command)
        runs = []
        for route in ("flag", "file"):
            directory = tmp_path / f"{k}-{route}"
            directory.mkdir()
            if route == "flag":
                argv = [command, *_as_flags(drawn), *extra]
            else:
                (directory / "run.ini").write_text(_as_ini(drawn))
                argv = [command, "--config=run.ini", *extra]
            runs.append(_run(monkeypatch, directory, argv, {"run.ini"}))
            _assert_contract(argv, runs[-1])
        assert runs[0] == runs[1], drawn


def _base_states(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mixed = g @ g.conj().T
    return [state_to_json(s) for s in (initial_pure(0.5), initial_pure(0.2),
                                       mixed / mixed.trace().real, np.eye(4) / 4.0)]


def _mutated(rng, base):
    """A copy of a state's JSON form with one to three entries replaced,
    each with its Hermitian mirror half the time; or, one time in eight,
    with its structure broken."""
    data = json.loads(json.dumps(base))
    if rng.integers(8) == 0:
        key = ("dim", "re", "im")[rng.integers(3)]
        data[key] = (None, 4.0, True, 3, "4", [[1.0]], [[0.0] * 4] * 3)[rng.integers(7)]
        return data
    for _ in range(rng.integers(1, 4)):
        part = ("re", "im")[rng.integers(2)]
        i, j = rng.integers(4, size=2)
        value = ENTRY_VALUES[rng.integers(len(ENTRY_VALUES))]
        data[part][i][j] = value
        if rng.integers(2):
            data[part][j][i] = value if part == "re" else -value
    return data


def test_a_mutated_state_file_keeps_the_exit_code_contract(tmp_path, monkeypatch):
    rng = np.random.default_rng([SEED, len(SECTIONS)])
    bases = _base_states(rng)
    for k in range(STATE_FILES):
        directory = tmp_path / str(k)
        directory.mkdir()
        (directory / "state.json").write_text(json.dumps(_mutated(rng, bases[k % len(bases)])))
        argv = ["css", "state.json", "--out=report.json"]
        _assert_contract(argv, _run(monkeypatch, directory, argv, {"state.json"}))
