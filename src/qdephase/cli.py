"""Command line interface: parameter sweeps to CSV, oracle equivalence
checks and closest-separable-state runs.

Subcommands: sweep, oracle-check, css. Every config-file key is also a
command-line flag; the command line wins. Exit codes: 0 success,
1 validation failure, 2 numerical failure.

sweep walks the (epsilon, t) grid in blocks of at most BLOCK_STATES states
(sweep_blocks), each measured in one stacked spectral pass, with the closed
forms taken on the block's columns. The blocks are checked for the record
invariants and joined into one table (a structured array of MeasureRecord's
fields) that the CSV rows and ordering_check read. build_record computes
the same record for one point, with the single-state spectral measures and
the same closed-form functions; it is the reference the blocks are tested
against, to the byte of the CSV.
"""

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import kernels, measures, oracle, refsearch
from .channel import ChannelParams, decoherence_factor
from .errors import QDephaseError
from .measures import MeasureRecord
from .refsearch import OptimizerConfig
from .states import (FamilyParams, family_stack, family_state, initial_pure,
                     initial_pure_stack, load_state, maximally_mixed,
                     state_to_json)

FIG_EPSILONS = (0.5, 0.42, 0.37, 0.32, 0.26, 0.19, 0.12, 0.05)

# the record's fields, er_exact in nats
CSV_COLUMNS = ",".join("er_exact_nats" if name == "er_exact" else name
                       for name in measures.RECORD_DTYPE.names)
CSS_COLUMNS = ",css_e_value,css_pt_min_eig"
# one CSV row: every value to 12 significant digits, inf as "inf"
ROW_FORMAT = ",".join(["%.12g"] * len(measures.RECORD_DTYPE.names))
CSS_ROW_FORMAT = ",%.12g,%.12g"

BLOCK_STATES = 512  # states per stacked pass; bounds the stacks' memory

ORACLE_DIFF_BUDGET = 1e-8  # closed-form mismatch allowed on top of the tail


def _default_channel() -> ChannelParams:
    return ChannelParams(omega1=1.0, omega2=1.0, mu1=0.5, mu2=0.5, ntilde=1.0)


@dataclass
class SweepConfig:
    epsilon_list: tuple = FIG_EPSILONS
    t_max: float = 2.0 * math.pi  # one revival period of the default channel
    t_steps: int = 51
    channel: ChannelParams = field(default_factory=_default_channel)
    include_css: bool = False
    out_path: str = "sweep.csv"

    def __post_init__(self):
        self.epsilon_list = tuple(float(e) for e in self.epsilon_list)
        if not self.epsilon_list:
            raise ValueError("epsilon_list must be nonempty")
        if any(not 0.0 <= e <= 1.0 for e in self.epsilon_list):
            raise ValueError(f"every epsilon must be in [0, 1]: {self.epsilon_list}")
        for k, e in enumerate(self.epsilon_list):
            if e in self.epsilon_list[:k]:  # == comparison: -0.0 repeats 0.0
                raise ValueError(f"epsilon {e} is listed twice: {self.epsilon_list}")
        if self.t_steps < 2:
            raise ValueError(f"t_steps must be >= 2, got {self.t_steps}")
        _check_t_max(self.t_max)


def _check_t_max(t_max: float) -> None:
    # the default is one revival period, infinite for mu1 + mu2 = 0
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")


def build_record(epsilon: float, c: ChannelParams, t: float) -> MeasureRecord:
    """Every measure at one (epsilon, t) sweep point."""
    dec = decoherence_factor(c, t)
    rho = family_state(epsilon, dec.a)
    sigma_p = initial_pure(FamilyParams(epsilon, dec.phase))
    concurrence = measures.concurrence_wootters(rho)
    er_lin = measures.relative_entropy_linearized(rho, sigma_p)
    try:
        er_exact = measures.relative_entropy_exact(sigma_p, rho)
    except QDephaseError:
        er_exact = math.inf
    return MeasureRecord(
        epsilon=epsilon,
        t=t,
        delta12=measures.linear_entropy(rho),
        negativity=measures.negativity(rho),
        concurrence_wootters=concurrence,
        fidelity_pure=measures.uhlmann_fidelity(rho, sigma_p),
        e_pure=1.0 - er_lin,
        e_maxmixed=1.0 - np.sqrt(measures.uhlmann_fidelity(rho, maximally_mixed())),
        er_exact=er_exact,
        er_lin=er_lin,
        **_closed_forms(epsilon, c, t, dec.a, dec.gamma, concurrence),
    )


def _closed_forms(epsilon: float, c: ChannelParams, t, a, gamma, concurrence) -> dict:
    """The record fields in closed form, at one point or as columns, from t,
    the corner factor a, gamma and the spectral concurrence."""
    abs_a = np.abs(a)
    rel_phase = c.ntilde * np.sin((c.mu1 + c.mu2) * t)  # state corner vs floor's
    return dict(gamma=gamma, abs_a=abs_a,
                concurrence_paper=measures.concurrence_family(epsilon, abs_a),
                eof=measures.eof(concurrence),
                e_mixed=refsearch.mixed_ref_measure_family(epsilon, abs_a, c.ntilde,
                                                           rel_phase))


def sweep_blocks(epsilons, c: ChannelParams, ts):
    """build_record's fields over the (epsilon, t) grid, epsilon ascending
    and t in the given order, as one dict of (N,) columns per block of at
    most BLOCK_STATES states, in MeasureRecord field order.

    The decoherence factor is taken once, on the whole t grid. A block is
    one epsilon's run of consecutive t: its state and reference stacks go
    through measures.stacked_measures in one pass, and its closed forms
    through _closed_forms on the block's columns, as build_record's do, so
    every closed-form value equals build_record's bit for bit.
    """
    ts = np.asarray(ts, dtype=float)
    dec = decoherence_factor(c, ts)
    for eps in sorted(epsilons):
        for lo in range(0, len(ts), BLOCK_STATES):
            part = slice(lo, lo + BLOCK_STATES)
            t = ts[part]
            cols = measures.stacked_measures(family_stack(eps, dec.a[part]),
                                             initial_pure_stack(eps, dec.phase[part]))
            cols.update(epsilon=np.full(len(t), eps), t=t, e_pure=1.0 - cols["er_lin"],
                        **_closed_forms(eps, c, t, dec.a[part], dec.gamma[part],
                                        cols["concurrence_wootters"]))
            yield {name: cols[name] for name in measures.RECORD_DTYPE.names}


def run_sweep(cfg: SweepConfig) -> dict:
    """Write one CSV row per (epsilon, t) grid point; return the summary."""
    ts = np.linspace(0.0, cfg.t_max, cfg.t_steps)
    blocks = []
    for cols in sweep_blocks(cfg.epsilon_list, cfg.channel, ts):
        block = measures.as_table(cols)
        bad = np.flatnonzero(measures.violation_mask(block))
        if bad.size:
            row = block[bad[0]]
            raise ArithmeticError(
                f"record invariants violated at eps={float(row['epsilon'])}, "
                f"t={float(row['t'])}: {measures.violations_at(block, bad[0])}")
        blocks.append(block)
    table = np.concatenate(blocks)

    row_format = ROW_FORMAT + (CSS_ROW_FORMAT if cfg.include_css else "")
    lines = [CSV_COLUMNS + (CSS_COLUMNS if cfg.include_css else "")]
    for row in table.tolist():
        if cfg.include_css:
            css = refsearch.css_family(row[0], row[2])  # epsilon, gamma
            row += (css.e_value, css.pt_min_eig)
        lines.append(row_format % row)
    with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    report = refsearch.ordering_check(table)
    return {
        "out": cfg.out_path,
        "rows": len(table),
        "kernel_backend": kernels.BACKEND,
        "max_delta12": report.max_delta12,
        "ordering": report.as_dict(),
    }


def run_oracle_check(r: oracle.ReservoirConfig, c: ChannelParams,
                     epsilon: float, t_grid) -> dict:
    """Compare the exact reservoir reduction with the closed form on a t grid."""
    joint = oracle.build_joint(epsilon, r, c)
    threshold = ORACLE_DIFF_BUDGET + 10.0 * r.cutoff_tail
    diffs = []
    offsets = []
    for t in t_grid:
        evolved = oracle.evolve_joint(joint, float(t))
        _, diff, offset = oracle.reduce_and_compare(evolved, epsilon, c, float(t))
        diffs.append(diff)
        offsets.append(offset)
    max_diff = max(diffs)
    return {
        "config": {
            "modes": r.modes,
            "alphas": [[a.real, a.imag] for a in r.alphas],
            "omega_ratios": list(r.omega_ratios),
            "mu_cross": r.mu_cross,
            "mu12": r.mu12,
            "cutoff_tail": r.cutoff_tail,
            "epsilon": epsilon,
            "channel": {"omega1": c.omega1, "omega2": c.omega2,
                        "mu1": c.mu1, "mu2": c.mu2, "ntilde": c.ntilde},
        },
        "t_grid": [float(t) for t in t_grid],
        "max_abs_diff": diffs,
        "corner_phase_offset": offsets,
        "max_diff": max_diff,
        "threshold": threshold,
        "passed": bool(max_diff <= threshold),
    }


def run_css(state_path: str, cfg: OptimizerConfig) -> dict:
    """Closest-separable-state search for a state stored as JSON."""
    rho = load_state(state_path)
    res = refsearch.closest_separable_bures(rho, cfg)
    return {
        "e_value": res.e_value,
        "pt_min_eig": res.pt_min_eig,
        "iterations": res.iterations,
        "nfev": res.nfev,
        "converged": res.converged,
        "feasible": bool(res.pt_min_eig >= refsearch.PT_FEASIBILITY),
        "sigma_star": state_to_json(res.sigma_star),
    }


# ---------------------------------------------------------------- config I/O


# every key a subcommand reads, by section; one file may serve both commands
CONFIG_KEYS = {
    "sweep": {"epsilon_list", "t_max", "t_steps", "include_css", "out"},
    "channel": {"omega1", "omega2", "mu1", "mu2", "ntilde"},
    "oracle": {"modes", "alphas", "omega_ratios", "mu_cross", "mu12",
               "cutoff_tail", "epsilon", "t_max", "t_steps"},
}


def _load_config(path) -> dict:
    """Flat key/value sections -> nested dict of strings. An unknown section
    ([DEFAULT] included) or key raises ValueError instead of being ignored."""
    parser = configparser.ConfigParser(default_section="")
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    cfg = {s: dict(parser.items(s)) for s in parser.sections()}
    for section, items in cfg.items():
        if section not in CONFIG_KEYS:
            raise ValueError(f"config [{section}]: unknown section, expected "
                             f"one of {', '.join(CONFIG_KEYS)}")
        unknown = sorted(items.keys() - CONFIG_KEYS[section])
        if unknown:
            raise ValueError(f"config [{section}] {unknown[0]}: unknown key")
    return cfg


def _setting(args, cfg: dict, section: str, key: str, cast, default):
    """A setting from its flag (args.<key>), else the config file, else the default."""
    raw = getattr(args, key)
    if raw is not None:
        return cast(raw)
    raw = cfg.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        raise ValueError(f"config [{section}] {key} = {raw!r}: {exc}") from exc


def _floats(raw: str) -> tuple:
    return tuple(float(tok) for tok in str(raw).split(",") if tok.strip())


def _complexes(raw: str) -> tuple:
    return tuple(complex(tok) for tok in str(raw).split(",") if tok.strip())


def _bool(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    word = str(raw).strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected one of 1/true/yes/on or 0/false/no/off")


def _channel_from(cfg: dict, args) -> ChannelParams:
    base = _default_channel()
    return ChannelParams(**{f.name: _setting(args, cfg, "channel", f.name, float,
                                             getattr(base, f.name))
                            for f in fields(ChannelParams)})


def _optimizer_from(args) -> OptimizerConfig:
    given = {f.name: getattr(args, f"opt_{f.name}") for f in fields(OptimizerConfig)}
    return OptimizerConfig(**{k: v for k, v in given.items() if v is not None})


def _add_channel_flags(p):
    p.add_argument("--omega1", type=float, help="qubit 1 frequency (rad/s)")
    p.add_argument("--omega2", type=float, help="qubit 2 frequency (rad/s)")
    p.add_argument("--mu1", type=float, help="qubit 1 reservoir coupling (rad/s)")
    p.add_argument("--mu2", type=float, help="qubit 2 reservoir coupling (rad/s)")
    p.add_argument("--ntilde", type=float, help="effective reservoir excitation")


def _add_optimizer_flags(p):
    for f in fields(OptimizerConfig):  # --opt-max-iters etc., typed as the defaults
        p.add_argument(f"--opt-{f.name.replace('_', '-')}", dest=f"opt_{f.name}",
                       type=type(f.default))


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qdephase",
        description="Entanglement versus mixedness for two coupled qubits "
                    "under a phase-damping channel.")
    sub = ap.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="emit measure records over an (epsilon, t) grid")
    sw.add_argument("--config", help="INI-style config file")
    sw.add_argument("--epsilon-list", help="comma-separated epsilon values")
    sw.add_argument("--t-max", type=float, help="end of the time grid (s)")
    sw.add_argument("--t-steps", type=int, help="number of grid points")
    sw.add_argument("--include-css", action="store_true", default=None,
                    help="append the closed-form closest-separable-state "
                         "columns")
    sw.add_argument("--out", help="CSV output path")
    _add_channel_flags(sw)

    oc = sub.add_parser("oracle-check", help="compare the exact reservoir "
                                             "reduction with the closed form")
    oc.add_argument("--config", help="INI-style config file")
    oc.add_argument("--modes", type=int, help="reservoir mode count")
    oc.add_argument("--alphas", help="comma-separated coherent amplitudes "
                                     "(complex literals); default splits "
                                     "ntilde evenly")
    oc.add_argument("--omega-ratios", help="comma-separated frequency ratios")
    oc.add_argument("--mu-cross", type=float, help="reservoir cross-Kerr (rad/s)")
    oc.add_argument("--mu12", type=float, help="qubit-qubit coupling (rad/s)")
    oc.add_argument("--cutoff-tail", type=float, help="truncation tail bound")
    oc.add_argument("--epsilon", type=float, help="family mixing weight")
    oc.add_argument("--t-max", type=float, help="end of the time grid (s); "
                                                "default one revival period")
    oc.add_argument("--t-steps", type=int, help="number of grid points")
    oc.add_argument("--out", help="write the JSON report here as well")
    _add_channel_flags(oc)

    cs = sub.add_parser("css", help="closest separable state for a JSON state file")
    cs.add_argument("state", help="path to a state JSON file")
    cs.add_argument("--out", help="write the JSON report here as well")
    _add_optimizer_flags(cs)
    return ap


def _cmd_sweep(args) -> int:
    cfg_file = _load_config(args.config) if args.config else {}
    channel = _channel_from(cfg_file, args)
    setting = partial(_setting, args, cfg_file, "sweep")
    cfg = SweepConfig(
        epsilon_list=setting("epsilon_list", _floats, FIG_EPSILONS),
        t_max=setting("t_max", float, channel.period),
        t_steps=setting("t_steps", int, 51),
        channel=channel,
        include_css=setting("include_css", _bool, False),
        out_path=setting("out", str, "sweep.csv"),
    )
    summary = run_sweep(cfg)
    print(json.dumps(summary, indent=2))
    return 0 if not summary["ordering"]["violations"] else 2


def _cmd_oracle_check(args) -> int:
    cfg_file = _load_config(args.config) if args.config else {}
    channel_base = _channel_from(cfg_file, args)
    setting = partial(_setting, args, cfg_file, "oracle")
    modes = setting("modes", int, 3)
    alphas = setting("alphas", _complexes, None)
    if alphas is None:
        alphas = tuple(math.sqrt(channel_base.ntilde / modes) for _ in range(modes))
    r = oracle.ReservoirConfig(
        alphas=alphas,
        omega_ratios=setting("omega_ratios", _floats, tuple(1.0 for _ in alphas)),
        mu_cross=setting("mu_cross", float, 0.0),
        mu12=setting("mu12", float, 0.0),
        cutoff_tail=setting("cutoff_tail", float, 1e-10),
    )
    # the closed form must be fed the reservoir's actual excitation
    channel = r.channel_params(channel_base.omega1, channel_base.omega2,
                               channel_base.mu1, channel_base.mu2)
    epsilon = setting("epsilon", float, 0.5)
    t_max = setting("t_max", float, channel.period)
    _check_t_max(t_max)
    t_steps = setting("t_steps", int, 50)
    report = run_oracle_check(r, channel, epsilon,
                              np.linspace(0.0, t_max, t_steps))
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if report["passed"] else 2


def _cmd_css(args) -> int:
    cfg = _optimizer_from(args)
    report = run_css(args.state, cfg)
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if report["feasible"] and report["converged"] else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "oracle-check":
            return _cmd_oracle_check(args)
        if args.command == "css":
            return _cmd_css(args)
        raise ValueError(f"unknown command {args.command!r}")
    except (QDephaseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
