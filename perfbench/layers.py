"""Per-layer metrics of a traced run: what is wrapped, and how spans become
the named numbers in BENCHMARK.json's per_layer list.
"""

import os

import numpy as np

from workloads import PT_FEASIBILITY

# module -> public functions wrapped in the traced run. The kernels are
# looked up on the dispatch module, so whichever backend it bound is traced.
TARGETS = {
    "qdephase.kernels": ("css_objective", "eigh_herm", "eigvalsh_herm",
                         "psd_sqrt_with_min", "sqrt_fidelity", "pt_min_eig",
                         "sigma_from_params"),
    "qdephase.matcore": ("psd_sqrt", "hermitian_eig", "partial_transpose"),
    "qdephase.states": ("family_state", "validate"),
    "qdephase.channel": ("decoherence_factor", "pure_reference_at"),
    "qdephase.measures": ("linear_entropy", "negativity", "concurrence_wootters",
                          "eof", "uhlmann_fidelity", "relative_entropy_exact",
                          "relative_entropy_linearized"),
    "qdephase.cli": ("build_record", "run_sweep"),
    "qdephase.refsearch": ("closest_separable_bures", "minimize", "ordering_check"),
    "qdephase.oracle": ("build_joint", "evolve_joint", "reduce_and_compare",
                        "corner_phase_offset"),
}

# functions reported with the four standard stats
STANDARD = ([f"kernels.{f}" for f in TARGETS["qdephase.kernels"]]
            + [f"matcore.{f}" for f in TARGETS["qdephase.matcore"]]
            + ["states.family_state", "states.validate",
               "channel.decoherence_factor", "channel.pure_reference_at"]
            + [f"measures.{f}" for f in TARGETS["qdephase.measures"]]
            + ["oracle.evolve_joint", "oracle.reduce_and_compare",
               "oracle.corner_phase_offset"])
STATS = (("calls", "count"), ("us_p50", "us"), ("us_p99", "us"), ("self_s", "s"))

# name -> unit, in the order they are reported
EXTRA = {
    "measures.calls_per_record": "calls/record",
    "cli.build_record.calls": "count",
    "cli.build_record.us_p50": "us",
    "cli.build_record.us_p99": "us",
    "cli.build_record.self_s": "s",
    "cli.build_record.self_us_p50": "us",
    "cli.run_sweep.self_s": "s",
    "cli.csv_bytes": "B",
    "refsearch.closest_separable_bures.calls": "count",
    "refsearch.closest_separable_bures.s_p50": "s",
    "refsearch.closest_separable_bures.s_max": "s",
    "refsearch.minimize.calls": "count",
    "refsearch.minimize.nfev_p50": "count",
    "refsearch.css.nfev_per_solve": "nfev/solve",
    "refsearch.css.nit_per_solve": "nit/solve",
    "refsearch.css.converged_ratio": "ratio",
    "refsearch.css.feasible_ratio": "ratio",
    "refsearch.css.objective_share": "ratio",
    "refsearch.ordering_check.s": "s",
    "refsearch.ordering_check.records": "count",
    "oracle.build_joint.s": "s",
    "oracle.joint_indices": "count",
    "oracle.bytes_per_step_computed": "B",
    "trace.overhead_s": "s",
}

# counts that must repeat exactly between two traced runs of the same input
EXACT = ("measures.calls_per_record", "refsearch.css.nfev_per_solve")


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {f"{fn}.{stat}": unit for fn in STANDARD for stat, unit in STATS}
    units.update(EXTRA)
    return units


def _observe_solve(res, args):
    return {"iterations": res.iterations, "converged": float(res.converged),
            "feasible": float(res.pt_min_eig >= PT_FEASIBILITY)}


def _observe_joint(j, args):
    return {"indices": float(np.prod(j.sizes)), "modes": float(len(j.sizes))}


OBSERVERS = {
    "refsearch.minimize": lambda res, args: {"nfev": res.nfev, "nit": res.nit},
    "refsearch.closest_separable_bures": _observe_solve,
    "refsearch.ordering_check": lambda rep, args: {"records": len(args[0])},
    "oracle.build_joint": _observe_joint,
    "cli.run_sweep": lambda summary, args: {"csv_bytes": os.path.getsize(summary["out"])},
}


def _extra(tracer, idx, key):
    return np.array([tracer.extras[i][key] for i in idx if i in tracer.extras])


def bytes_per_step(indices: float, modes: float) -> float:
    """Computed (not measured) array traffic of one oracle t-point.

    Each t-point reads both branch vectors (complex128) and the per-mode
    occupation numbers (float64), and writes both evolved vectors.
    """
    return indices * (4 * 16 + 8 * modes)


def layer_metrics(tracer, run: int) -> dict:
    """Per-layer metrics (name -> value) from the spans of one traced run."""
    names, dur, self_t, _, runs = tracer.arrays()
    by_name = {}
    for nid, name in enumerate(tracer.names):
        by_name[name] = np.flatnonzero((names == nid) & (runs == run))
    empty = np.array([], dtype=np.int64)

    def idx(name):
        return by_name.get(name, empty)

    def pct(values, q):
        return float(np.percentile(values, q)) if len(values) else 0.0

    out = {}
    for fn in STANDARD + ["cli.build_record"]:
        i = idx(fn)
        out[f"{fn}.calls"] = float(len(i))
        out[f"{fn}.us_p50"] = pct(dur[i], 50) * 1e6
        out[f"{fn}.us_p99"] = pct(dur[i], 99) * 1e6
        out[f"{fn}.self_s"] = float(self_t[i].sum())

    records = len(idx("cli.build_record"))
    measure_calls = sum(len(idx(f"measures.{f}")) for f in TARGETS["qdephase.measures"])
    out["measures.calls_per_record"] = measure_calls / records if records else 0.0
    out["cli.build_record.self_us_p50"] = pct(self_t[idx("cli.build_record")], 50) * 1e6
    out["cli.run_sweep.self_s"] = float(self_t[idx("cli.run_sweep")].sum())
    out["cli.csv_bytes"] = float(_extra(tracer, idx("cli.run_sweep"), "csv_bytes").sum())

    solves = idx("refsearch.closest_separable_bures")
    n_solves = len(solves)
    out["refsearch.closest_separable_bures.calls"] = float(n_solves)
    out["refsearch.closest_separable_bures.s_p50"] = pct(dur[solves], 50)
    out["refsearch.closest_separable_bures.s_max"] = float(dur[solves].max()) if n_solves else 0.0
    mins = idx("refsearch.minimize")
    nfev = _extra(tracer, mins, "nfev")
    out["refsearch.minimize.calls"] = float(len(mins))
    out["refsearch.minimize.nfev_p50"] = pct(nfev, 50)

    def per_solve(total):
        return float(total) / n_solves if n_solves else 0.0

    out["refsearch.css.nfev_per_solve"] = per_solve(nfev.sum())
    out["refsearch.css.nit_per_solve"] = per_solve(_extra(tracer, solves, "iterations").sum())
    out["refsearch.css.converged_ratio"] = per_solve(_extra(tracer, solves, "converged").sum())
    out["refsearch.css.feasible_ratio"] = per_solve(_extra(tracer, solves, "feasible").sum())
    solve_s = float(dur[solves].sum())
    objective_s = float(dur[idx("kernels.css_objective")].sum())
    out["refsearch.css.objective_share"] = objective_s / solve_s if solve_s else 0.0
    order = idx("refsearch.ordering_check")
    out["refsearch.ordering_check.s"] = float(dur[order].sum())
    out["refsearch.ordering_check.records"] = float(_extra(tracer, order, "records").sum())

    joints = idx("oracle.build_joint")
    indices = _extra(tracer, joints, "indices")
    modes = _extra(tracer, joints, "modes")
    out["oracle.build_joint.s"] = float(dur[joints].sum())
    out["oracle.joint_indices"] = float(indices.max()) if len(indices) else 0.0
    out["oracle.bytes_per_step_computed"] = (
        bytes_per_step(indices.max(), modes.max()) if len(indices) else 0.0)
    return out


def exact_counts(metrics: dict) -> dict:
    """The values of one run that must repeat exactly in the next."""
    return {k: v for k, v in metrics.items()
            if k.endswith(".calls") or k in EXACT}
