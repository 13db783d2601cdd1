#!/usr/bin/env python3
"""End-to-end benchmark of qdephase through its command line.

Run from the repository root; the program is imported from ./src as-is, with
no build step:

  python3 perfbench/run.py --workload sweep_dense --seed 1 --seconds 20 --trace 0

One client runs operations back to back in this process (closed loop), each
one ``qdephase.cli.main(argv)`` call, and checks every output. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
the first operation untraced and with every layer's public functions
wrapped, twice each, and reports the per-layer metrics of the second traced
run.
The last line of stdout is the JSON result; the full record, with the
environment stamp, goes to .bench_out/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import layers
import workloads
from spans import Tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "QDEPHASE_KERNELS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
                    "peak_rss_mb": "MB", "pass_ratio": "ratio"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time; whole passes over the inputs run "
                         "while they fit, and at least one always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# --------------------------------------------------------------- environment


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _src_digest():
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "qdephase")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    import numpy
    import scipy

    from qdephase import kernels

    return {"git_commit": _git_commit(), "src_sha256": _src_digest(),
            "kernel_backend": kernels.BACKEND,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
            "seed": seed}


# --------------------------------------------------------------------- setup


def measure_setup(samples=SETUP_SAMPLES):
    """Seconds from spawning a fresh interpreter until qdephase.cli is imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = "import time, qdephase.cli; print(time.monotonic())"
    out = []
    for _ in range(samples):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return out


# ---------------------------------------------------------------- operations


def run_op(op, cli, quiet=False):
    """One CLI call: (seconds, items, failed); failures go to stderr unless quiet."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the run goes on; this operation counts as failed
        if not quiet:
            traceback.print_exc()
        rc = 1
    seconds = time.perf_counter() - t0
    try:
        failed = op.check(rc, buf.getvalue())
    except Exception:  # malformed output fails every item of the operation
        if not quiet:
            traceback.print_exc()
        failed = op.items
    if failed and not quiet:
        print(f"{op.label}: {failed} of {op.items} items failed the check (exit {rc})",
              file=sys.stderr)
    return seconds, op.items, failed


def measure(ops, seconds, cli):
    """Closed loop over whole passes of ops while another pass fits in seconds.

    Only the first failing operation is reported, so a program that fails
    fast does not flood stderr.
    """
    samples = []
    quiet = False
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for op in ops:
            samples.append(run_op(op, cli, quiet))
            quiet = quiet or samples[-1][2] > 0
        now = time.perf_counter()
        if now - t_start + (now - t_pass) > seconds:
            return samples


def end_to_end(samples, setup):
    """Medians over operations; items_per_s is items per operation (the mean
    over a pass) divided by the median operation time."""
    times = [s for s, _, _ in samples]
    items = sum(n for _, n, _ in samples)
    failed = sum(f for _, _, f in samples)
    wall = statistics.median(times)
    return {"setup_s": statistics.median(setup),
            "wall_s": wall,
            "items_per_s": items / len(samples) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": 1.0 - failed / items}


def traced(op, cli, workload, seed):
    """Alternate untraced and traced runs of op, twice each.

    Per-layer metrics come from the second traced run; the first must give
    the same counts, else the trace is broken. The overhead is the mean
    traced minus the mean untraced time.
    """
    tracer = Tracer()
    untraced, traced_runs = [], []
    for run in (1, 2):
        untraced.append(run_op(op, cli))
        tracer.patch(layers.TARGETS, layers.OBSERVERS)
        try:
            tracer.run_id = run
            traced_runs.append(run_op(op, cli))
        finally:
            tracer.restore()
    first = layers.layer_metrics(tracer, 1)
    metrics = layers.layer_metrics(tracer, 2)
    metrics["trace.overhead_s"] = (sum(s for s, _, _ in traced_runs)
                                   - sum(s for s, _, _ in untraced)) / 2
    drift = {k: (v, metrics[k]) for k, v in layers.exact_counts(first).items()
             if metrics[k] != v}
    if drift:
        print(f"trace broken: counts differ between traced runs: {drift}", file=sys.stderr)
    tracer.save(os.path.join(OUT_DIR, f"spans_{workload}_seed{seed}.npz"))
    return untraced + traced_runs, metrics, not drift


# ---------------------------------------------------------------------- main


def _describe(samples):
    times = sorted(s for s, _, _ in samples)
    return (f"n={len(times)} median={statistics.median(times):.4f}s "
            f"min={times[0]:.4f}s max={times[-1]:.4f}s")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qdephase", "cli.py")):
        print(f"error: no qdephase sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    setup = measure_setup() if not args.trace else []
    sys.path.insert(0, SRC)
    from qdephase import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported {cli.__file__}, not the checkout's copy", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment(args.seed)
    ops = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)

    trace_ok = True
    if args.trace:
        samples, metrics, trace_ok = traced(ops[0], cli, args.workload, args.seed)
        units = layers.per_layer_units()
    else:
        samples = measure(ops, args.seconds, cli)
        metrics = end_to_end(samples, setup)
        units = END_TO_END_UNITS
    attempted = sum(n for _, n, _ in samples)
    failed = sum(f for _, _, f in samples)
    result = {"correct": failed == 0 and trace_ok, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}

    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": env, "fail_ratio": failed / attempted,
              "op_seconds": [s for s, _, _ in samples], "setup_seconds": setup,
              **result}
    name = f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  backend {env['kernel_backend']}  "
          f"commit {env['git_commit']}  src {env['src_sha256'][:12]}")
    print(f"environment {json.dumps(env)}")
    print(f"operations {_describe(samples)}  fail_ratio {failed / attempted:.6g} "
          f"({failed}/{attempted})")
    for k, u in units.items():
        print(f"  {k:48s} {metrics[k]:.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
