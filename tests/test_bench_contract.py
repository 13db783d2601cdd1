"""The names the benchmark's traced run wraps must exist in the program.

perfbench/ sits outside the test paths, so a renamed function would only
show when the benchmark runs. This reads perfbench/layers.py as text, takes
its TARGETS literal and resolves every name, without importing the harness.
"""

import ast
import importlib
from pathlib import Path

from qdephase import kernels

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _targets() -> dict:
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {LAYERS}")


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    missing = [f"{mod}.{name}" for mod, names in targets.items()
               for name in names
               if not callable(getattr(importlib.import_module(mod), name, None))]
    assert missing == []


def test_kernel_backend_is_reported():
    assert isinstance(kernels.BACKEND, str) and kernels.BACKEND
