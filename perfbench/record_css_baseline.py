#!/usr/bin/env python3
"""Print the CSS values the correctness gate compares against, as JSON.

css_baseline.json holds this script's output at the commit that defined the
benchmark (see README.md). Later commits are gated against those recorded
values, so regenerating the file would remove the gate rather than update it.

  python3 perfbench/record_css_baseline.py > recorded.json
"""

import contextlib
import csv
import io
import json
import os
import sys
import tempfile

import workloads

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from qdephase import cli  # noqa: E402


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return buf.getvalue()


def main():
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        out = os.path.join(tmp, "sweep_css.csv")
        _run(workloads.sweep_css_argv(out))
        with open(out, encoding="utf-8") as fh:
            sweep = [float(row["css_e_value"]) for row in csv.DictReader(fh)]
        pool = {}
        for k in range(workloads.CSS_POOL_SIZE):
            path = os.path.join(tmp, f"state_{k}.json")
            workloads.write_state(workloads.pool_state(k), path)
            pool[str(k)] = json.loads(_run(["css", path]))["e_value"]
            print(f"pool state {k}: {pool[str(k)]!r}", file=sys.stderr)
    print(json.dumps({"sweep_css": sweep, "css_general": pool}, indent=1))


if __name__ == "__main__":
    main()
