"""Tests of the benchmark harness itself (not of qdephase).

  python3 -m pytest perfbench -q      # from the repository root
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NO_PARENT, Tracer, self_times  # noqa: E402

from qdephase import cli  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]))
    root = tracer.open("root")
    a = tracer.open("a")
    a1 = tracer.open("a1")
    tracer.close(a1)
    tracer.close(a)
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(root)
    _, dur, self_t, parent, _ = tracer.arrays()
    assert list(parent) == [NO_PARENT, root, a, root]
    assert list(dur) == [10.0, 3.0, 1.0, 4.0]
    # root covers a (3) and b (4) but not a1, which a already covers
    assert list(self_t) == [3.0, 2.0, 1.0, 4.0]
    assert self_t.sum() == dur[root]


def test_self_times_without_parents_is_duration():
    dur = np.array([0.5, 0.25])
    assert list(self_times(dur, np.array([NO_PARENT, NO_PARENT]))) == [0.5, 0.25]


def test_close_out_of_order_raises():
    tracer = Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def _qdephase_bindings():
    return {(name, attr): id(value)
            for name, mod in list(sys.modules.items())
            if name == "qdephase" or name.startswith("qdephase.")
            for attr, value in vars(mod).items()}


def _tiny_sweep(tmp_path):
    out = str(tmp_path / "tiny.csv")
    argv = ["sweep", "--epsilon-list", "0.5", "--t-steps", "2", "--out", out]
    return workloads.Op("tiny sweep", argv, 2, lambda rc, stdout: 0 if rc == 0 else 2)


@pytest.fixture
def traced_tiny_sweep(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    before = _qdephase_bindings()
    samples, metrics, trace_ok = run.traced(_tiny_sweep(tmp_path), cli, "tiny", 0)
    return before, samples, metrics, trace_ok


def test_every_patched_attribute_is_restored(traced_tiny_sweep):
    before, *_ = traced_tiny_sweep
    assert _qdephase_bindings() == before


def test_patch_reaches_names_bound_by_from_import():
    import qdephase.cli
    import qdephase.matcore
    import qdephase.measures

    originals = (qdephase.measures.psd_sqrt, qdephase.cli.family_state)
    tracer = Tracer()
    tracer.patch(layers.TARGETS)
    try:
        assert qdephase.measures.psd_sqrt is qdephase.matcore.psd_sqrt
        assert qdephase.measures.psd_sqrt.__wrapped__ is originals[0]
        assert qdephase.cli.family_state.__wrapped__ is originals[1]
    finally:
        tracer.restore()
    assert (qdephase.measures.psd_sqrt, qdephase.cli.family_state) == originals


def test_tiny_traced_sweep_counts(traced_tiny_sweep):
    _, samples, metrics, trace_ok = traced_tiny_sweep
    assert trace_ok
    assert [failed for _, _, failed in samples] == [0, 0, 0, 0]
    assert metrics["cli.build_record.calls"] == 2
    assert metrics["measures.concurrence_wootters.calls"] == 4
    assert metrics["refsearch.ordering_check.records"] == 2
    assert metrics["refsearch.closest_separable_bures.calls"] == 0


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == layers.per_layer_units()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_workload_inputs_follow_the_seed():
    assert workloads.css_general_picks(3) == workloads.css_general_picks(3)
    assert workloads.oracle_inputs(3) == workloads.oracle_inputs(3)
    assert workloads.oracle_inputs(3) != workloads.oracle_inputs(4)
    picks = workloads.css_general_picks(5)
    assert len(set(picks)) == workloads.CSS_STATES_PER_RUN
    assert all(0 <= k < workloads.CSS_POOL_SIZE for k in picks)
