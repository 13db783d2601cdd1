"""Command line interface: parameter sweeps to CSV, oracle equivalence
checks and closest-separable-state runs.

Subcommands: sweep, oracle-check, css. The settings of sweep and
oracle-check are declared once, in SETTINGS (config section -> key ->
reader, help); that table makes their flags and config-file keys and reads
the file's values. The command line wins over the file, and a setting given
by neither is not passed on, so the config object's default applies. Exit
codes: 0 success, 1 validation failure, 2 numerical failure. The parser is
built once per process, on the first main call, and reused by every later
one: it holds the command functions and setting readers by reference, and
each parse gives a fresh namespace.

sweep walks the (epsilon, t) grid, epsilon-major, in blocks of at most
BLOCK_STATES consecutive rows that may span several epsilon (sweep_blocks);
epsilon is a column of the block like t. _columns measures each block in
one stacked pass over the states' exact factors rho = UU†
(channel.kraus_factor), with the closed forms taken on the block's
columns. Each block is a sweep table (a structured array,
measures.RECORD_DTYPE); the blocks are checked for the record invariants
and joined into one table before the output file is opened, so a failing
check writes nothing. The CSV is then formatted and
written one slice of BLOCK_STATES table rows at a time (with
--include-css, each slice's closed-form CSS columns too), so the text in
memory does not grow with the grid; ordering_check reads the table.
build_record measures one point through the same _columns, as a one-row
table; it is the reference the blocks are tested against, to the byte of
the CSV.

css builds the closest separable state of a stored state in closed form
(refsearch.css_closed) and runs no search.
"""

import argparse
import configparser
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import measures, oracle, refsearch
from .channel import ChannelParams, decoherence_factor, kraus_factor
from .errors import QDephaseError
from .states import _checked_unit
# family_state has no caller here: perfbench/test_harness.py traces it through this name
from .states import family_state, initial_pure, load_state, state_to_json  # noqa: F401

FIG_EPSILONS = (0.5, 0.42, 0.37, 0.32, 0.26, 0.19, 0.12, 0.05)

# the record's fields, er_exact in nats
CSV_COLUMNS = ",".join("er_exact_nats" if name == "er_exact" else name
                       for name in measures.RECORD_DTYPE.names)
CSS_COLUMNS = ",css_e_value,css_pt_min_eig"
# one CSV row: every value to 12 significant digits, inf as "inf"
ROW_FORMAT = ",".join(["%.12g"] * len(measures.RECORD_DTYPE.names))
CSS_ROW_FORMAT = ",%.12g,%.12g"

# states per stacked pass and table rows per CSV slice; bounds the memory
# the stacks and the formatted text take
BLOCK_STATES = 512

ORACLE_DIFF_BUDGET = 1e-8  # closed-form mismatch allowed on top of the tail


def _default_channel() -> ChannelParams:
    return ChannelParams(omega1=1.0, omega2=1.0, mu1=0.5, mu2=0.5, ntilde=1.0)


@dataclass
class SweepConfig:
    epsilon_list: tuple = FIG_EPSILONS
    t_max: float | None = None  # None: one revival period of the channel
    t_steps: int = 51
    channel: ChannelParams = field(default_factory=_default_channel)
    include_css: bool = False
    out: str = "sweep.csv"

    def __post_init__(self):
        self.epsilon_list = tuple(float(e) for e in self.epsilon_list)
        if not self.epsilon_list:
            raise ValueError("epsilon_list must be nonempty")
        _checked_unit("epsilon", self.epsilon_list)
        for k, e in enumerate(self.epsilon_list):
            if e in self.epsilon_list[:k]:  # == comparison: -0.0 repeats 0.0
                raise ValueError(f"epsilon {e} is listed twice: {self.epsilon_list}")
        if self.t_steps < 2:
            raise ValueError(f"t_steps must be >= 2, got {self.t_steps}")
        self.t_max = _t_max(self.t_max, self.channel)


def _t_max(t_max: float | None, c: ChannelParams) -> float:
    """The end of a time grid: t_max, or one revival period of c if None."""
    if t_max is None:
        t_max = c.period
        if math.isinf(t_max):
            raise ValueError("t_max must be finite and >= 0, got inf: the default, one "
                             "revival period 2 pi/|mu1 + mu2|, is infinite for "
                             "mu1 + mu2 = 0; give --t-max")
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    return t_max


def build_record(epsilon: float, c: ChannelParams, t: float) -> np.ndarray:
    """Every measure at one (epsilon, t) sweep point, as a (1,) sweep table."""
    dec = decoherence_factor(c, t)
    return measures.as_table(_columns(epsilon, c, t, dec.a, dec.gamma, dec.phase))


def _columns(epsilon, c: ChannelParams, t, a, gamma, phase) -> dict:
    """The record fields at scalar epsilon and t, or on columns of epsilon
    and t of one length with the decoherence factor's a, gamma and phase at
    each t: the state measures from the states' Kraus factors
    (channel.kraus_factor) in one stacked pass, the rest in closed form."""
    cols = measures.stacked_measures(kraus_factor(epsilon, a, gamma),
                                     initial_pure(epsilon, phase))
    abs_a = np.abs(a)
    rel_phase = c.ntilde * np.sin((c.mu1 + c.mu2) * t)  # state corner vs floor's
    cols.update(epsilon=epsilon, t=t, gamma=gamma, abs_a=abs_a,
                concurrence_paper=measures.concurrence_family(epsilon, abs_a),
                eof=measures._eof(cols["concurrence_wootters"]),  # the gates judge C
                e_pure=1.0 - cols["er_lin"],
                e_mixed=refsearch.mixed_ref_measure_family(epsilon, abs_a, gamma,
                                                           c.ntilde, rel_phase))
    return cols


def sweep_blocks(epsilons, c: ChannelParams, ts):
    """The sweep table over the (epsilon, t) grid, epsilon ascending and t
    in the given order, as one table per block of at most BLOCK_STATES
    rows.

    The decoherence factor is taken once, on the whole t grid. A block is a
    run of BLOCK_STATES consecutive rows of the epsilon-major grid, which
    may span several epsilon: each row's epsilon and t come from its flat
    index, epsilon becomes a column like t, and a, gamma and phase are
    gathered at the t index. _columns measures the block in one pass, as
    build_record measures one point, so every closed-form value equals
    build_record's bit for bit.
    """
    ts = np.asarray(ts, dtype=float)
    eps = np.array(sorted(epsilons), dtype=float)
    dec = decoherence_factor(c, ts)
    rows = len(eps) * len(ts)
    for lo in range(0, rows, BLOCK_STATES):
        e, k = np.divmod(np.arange(lo, min(lo + BLOCK_STATES, rows)), len(ts))
        yield measures.as_table(_columns(eps[e], c, ts[k], dec.a[k],
                                         dec.gamma[k], dec.phase[k]))


def run_sweep(cfg: SweepConfig) -> dict:
    """Write one CSV row per (epsilon, t) grid point; return the summary."""
    ts = np.linspace(0.0, cfg.t_max, cfg.t_steps)
    blocks = []
    for block in sweep_blocks(cfg.epsilon_list, cfg.channel, ts):
        bad = np.flatnonzero(measures.violation_mask(block))
        if bad.size:
            row = block[bad[0]]
            raise ArithmeticError(
                f"record invariants violated at eps={float(row['epsilon'])}, "
                f"t={float(row['t'])}: {measures.violations_at(block, bad[0])}")
        blocks.append(block)
    table = np.concatenate(blocks)
    del blocks  # the table holds the rows now

    with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_COLUMNS + (CSS_COLUMNS if cfg.include_css else "") + "\n")
        for lo in range(0, len(table), BLOCK_STATES):
            fh.write(_csv_rows(table[lo:lo + BLOCK_STATES], cfg.include_css))

    ordering = refsearch.ordering_check(table)
    return {
        "out": cfg.out,
        "rows": len(table),
        "max_delta12": float(table["delta12"].max(initial=0.0)),
        "ordering": ordering,
    }


def _csv_rows(part, include_css: bool) -> str:
    """The CSV lines of a slice of the sweep table, each ending in a newline."""
    columns = [part[name] for name in measures.RECORD_DTYPE.names]
    row_format = ROW_FORMAT
    if include_css:
        # e_value and pt_min_eig; sigma* is not written
        columns += refsearch.css_family_columns(part["epsilon"], part["gamma"])[1:]
        row_format += CSS_ROW_FORMAT
    row_format += "\n"
    return "".join([row_format % tuple(row) for row in np.column_stack(columns).tolist()])


def run_oracle_check(r: oracle.ReservoirConfig, c: ChannelParams,
                     epsilon: float, t_grid) -> dict:
    """Compare the exact reservoir reduction, summed by total occupation,
    with the closed form on a t grid."""
    threshold = ORACLE_DIFF_BUDGET + 10.0 * r.cutoff_tail
    diffs, offsets = oracle.check_grid(epsilon, r, c, t_grid)
    max_diff = max(diffs)
    return {
        "config": {
            "modes": r.modes,
            "alphas": [[a.real, a.imag] for a in r.alphas],
            "omega_ratios": list(r.omega_ratios),
            "cutoff_tail": r.cutoff_tail,
            "epsilon": epsilon,
            "channel": asdict(c),
        },
        "t_grid": [float(t) for t in t_grid],
        "max_abs_diff": diffs,
        "corner_phase_offset": offsets,
        "max_diff": max_diff,
        "threshold": threshold,
        "passed": bool(max_diff <= threshold),
    }


def run_css(state_path: str) -> dict:
    """Closest separable state, in closed form (refsearch.css_closed), of a
    state stored as JSON.

    e_closed is 1 - sqrt((1 + sqrt(1 - C^2))/2) from the spectral
    concurrence C, and closed_gap = e_value - e_closed. The gap stays within
    1e-13 except as C -> 1, where the formula loses accuracy, not sigma*:
    sqrt(1 - C^2) turns C's rounding error into one of its square root
    (closed_gap 7.5e-9 at the Bell state).

    e_closed takes its own eigendecomposition of rho, in
    measures.concurrence_wootters, rather than the eigenpairs and Takagi
    values css_closed already holds: it is the independent second route,
    and closed_gap from shared eigenpairs would compare a route with itself.
    """
    rho = load_state(state_path)
    res = refsearch.css_closed(rho)
    c = measures.concurrence_wootters(rho)
    e_closed = 1.0 - math.sqrt((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)
    return {
        "e_value": res.e_value,
        "e_closed": e_closed,
        "closed_gap": res.e_value - e_closed,
        "pt_min_eig": res.pt_min_eig,
        "feasible": bool(res.pt_min_eig >= refsearch.PT_FEASIBILITY),
        "sigma_star": state_to_json(res.sigma_star),
    }


# ---------------------------------------------------------------- config I/O


def _floats(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _complexes(raw: str) -> tuple:
    return tuple(complex(tok) for tok in raw.split(",") if tok.strip())


def _bool(raw: str) -> bool:
    word = raw.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected one of 1/true/yes/on or 0/false/no/off")


# every setting, by config section: key -> (reader of its text, help line).
# sweep reads [sweep] and [channel], oracle-check [oracle] and [channel]; one
# file may serve both. Each key is also its command's flag, --key with "-"
# for "_" (a _bool setting is a bare switch), and the command line wins.
SETTINGS = {
    "sweep": {
        "epsilon_list": (_floats, "comma-separated epsilon values; a list that "
                                  "starts with '-' needs the --epsilon-list=-0,0.5 form"),
        "t_max": (float, "end of the time grid (s); default one revival period"),
        "t_steps": (int, "number of grid points"),
        "include_css": (_bool, "append the closed-form closest-separable-state columns"),
        "out": (str, "CSV output path"),
    },
    "channel": {
        "omega1": (float, "qubit 1 frequency (rad/s)"),
        "omega2": (float, "qubit 2 frequency (rad/s)"),
        "mu1": (float, "qubit 1 reservoir coupling (rad/s)"),
        "mu2": (float, "qubit 2 reservoir coupling (rad/s)"),
        "ntilde": (float, "effective reservoir excitation"),
    },
    "oracle": {
        "modes": (int, "reservoir mode count"),
        "alphas": (_complexes, "comma-separated coherent amplitudes (complex "
                               "literals); default splits ntilde evenly; a list "
                               "that starts with '-' needs the --alphas=-1j,1 form"),
        "omega_ratios": (_floats, "comma-separated frequency ratios; a list that "
                                  "starts with '-' needs the --omega-ratios=-1,1,1 form"),
        "cutoff_tail": (float, "truncation tail bound"),
        "epsilon": (float, "family mixing weight"),
        "t_max": (float, "end of the time grid (s); default one revival period"),
        "t_steps": (int, "number of grid points"),
    },
}


def _load_config(path) -> dict:
    """Flat key/value sections -> nested dict of strings. An unknown section
    ([DEFAULT] included) or key raises ValueError instead of being ignored,
    and so does a file configparser cannot read, naming the file."""
    parser = configparser.ConfigParser(default_section="")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        cfg = {s: dict(parser.items(s)) for s in parser.sections()}
    except configparser.Error as exc:  # no section header, a repeated key, a bare %
        raise ValueError(f"config {path}: {exc}") from exc
    for section, items in cfg.items():
        if section not in SETTINGS:
            raise ValueError(f"config [{section}]: unknown section, expected "
                             f"one of {', '.join(SETTINGS)}")
        unknown = sorted(items.keys() - SETTINGS[section].keys())
        if unknown:
            raise ValueError(f"config [{section}] {unknown[0]}: unknown key")
    return cfg


def _settings(args, cfg: dict, section: str) -> dict:
    """The settings of a section given by flag (read by argparse) or in the
    config file; the flag wins. A setting given by neither is left out, so
    the default of the object it configures applies."""
    given = {}
    for key, (read, _) in SETTINGS[section].items():
        if key in args:
            given[key] = getattr(args, key)
        elif key in cfg.get(section, {}):
            raw = cfg[section][key]
            try:
                given[key] = read(raw)
            except ValueError as exc:
                raise ValueError(f"config [{section}] {key} = {raw!r}: {exc}") from exc
    return given


def _add_settings(p, section: str) -> None:
    # an absent flag stays out of the namespace (argparse.SUPPRESS)
    for key, (read, help_text) in SETTINGS[section].items():
        kind = dict(action="store_true") if read is _bool else dict(type=read)
        p.add_argument("--" + key.replace("_", "-"), default=argparse.SUPPRESS,
                       help=help_text, **kind)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1, the validation-failure code
    (argparse's own 2 is the numerical-failure code here); subparsers are
    built with the parser's class, so they inherit this."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # built on the first main call, not at import
def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="qdephase",
        description="Entanglement versus mixedness for two coupled qubits "
                    "under a phase-damping channel.")
    sub = ap.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="emit measure records over an (epsilon, t) grid")
    sw.add_argument("--config", help="INI-style config file")
    _add_settings(sw, "sweep")
    _add_settings(sw, "channel")
    sw.set_defaults(run=_cmd_sweep)

    oc = sub.add_parser("oracle-check", help="compare the exact reservoir "
                                             "reduction with the closed form")
    oc.add_argument("--config", help="INI-style config file")
    _add_settings(oc, "oracle")
    oc.add_argument("--out", help="write the JSON report here as well")
    _add_settings(oc, "channel")
    oc.set_defaults(run=_cmd_oracle_check)

    cs = sub.add_parser("css", help="closest separable state for a JSON state file")
    cs.add_argument("state", help="path to a state JSON file")
    cs.add_argument("--out", help="write the JSON report here as well")
    cs.set_defaults(run=_cmd_css)
    return ap


def _cmd_sweep(args) -> int:
    cfg_file = _load_config(args.config) if args.config else {}
    channel = replace(_default_channel(), **_settings(args, cfg_file, "channel"))
    summary = run_sweep(SweepConfig(channel=channel, **_settings(args, cfg_file, "sweep")))
    return _report(summary, None, not summary["ordering"]["violations"])


def _cmd_oracle_check(args) -> int:
    cfg_file = _load_config(args.config) if args.config else {}
    channel_base = replace(_default_channel(), **_settings(args, cfg_file, "channel"))
    given = _settings(args, cfg_file, "oracle")
    alphas = given.pop("alphas", None)
    modes = given.pop("modes", 3 if alphas is None else len(alphas))
    if alphas is None:
        alphas = tuple(math.sqrt(channel_base.ntilde / modes) for _ in range(modes))
    elif modes != len(alphas):
        raise ValueError(f"modes = {modes} disagrees with the {len(alphas)} alphas given")
    epsilon = given.pop("epsilon", 0.5)
    t_max = given.pop("t_max", None)
    t_steps = given.pop("t_steps", 50)
    # what is left: cutoff_tail
    r = oracle.ReservoirConfig(
        alphas=alphas,
        omega_ratios=given.pop("omega_ratios", tuple(1.0 for _ in alphas)),
        **given)
    # the closed form must be fed the reservoir's actual excitation
    channel = replace(channel_base, ntilde=r.ntilde)
    t_max = _t_max(t_max, channel)
    if t_steps < 1:
        raise ValueError(f"t_steps must be >= 1, got {t_steps}")
    report = run_oracle_check(r, channel, epsilon,
                              np.linspace(0.0, t_max, t_steps))
    return _report(report, args.out, report["passed"])


def _cmd_css(args) -> int:
    report = run_css(args.state)
    return _report(report, args.out, report["feasible"])


def _report(report: dict, out, ok: bool) -> int:
    """Print the JSON report, write it to out as well if given, and return
    the exit code: 0 if ok, else 2."""
    text = json.dumps(report, indent=2)
    print(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if ok else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (QDephaseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
