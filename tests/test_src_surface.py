"""src/qdephase keeps a top-level def or class only if the program uses it.

A name stays when another part of src/ refers to it, when the package
exports it (qdephase.__all__), or when ALLOWED lists it with its reason.
Closed forms and reference routes that only the tests run belong in
tests/reference.py. This reads src/qdephase/*.py with ast, without
importing the package or the benchmark harness.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qdephase"

_TRACED = ("traced by perfbench/layers.py; leaves src/ after the benchmark refresh "
           "(ROADMAP item 8/10 after item 3)")

# "module.name" -> why it stays without a caller in src/ or an export.
# The list only shrinks: an entry that is gone, or that has gained a caller
# in src/, fails test_allow_list_is_current.
ALLOWED = {
    "channel.pure_reference_at": _TRACED,
    "kernels.sqrt_fidelity": _TRACED,
    "matcore.hermitian_eig": _TRACED,
    "matcore.psd_sqrt": _TRACED,
    "oracle.build_joint": _TRACED,
    "oracle.evolve_joint": _TRACED,
    "oracle.reduce_and_compare": _TRACED,
    "cli.build_record": _TRACED + "; also the per-point sweep reference criteria 2 and 4 import",
    "states.save_state": ("writes the css command's input format; the README and the CI "
                          "smoke steps call it"),
}


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py"))}


def _bindings(tree) -> dict:
    # local name -> (module, name) for `from .mod import name`, and
    # local name -> (module, None) for `from . import mod`
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                out[local] = ((node.module, alias.name) if node.module
                              else (alias.name, None))
    return out


def _defined(modules) -> dict:
    """module.name -> its top-level def or class node."""
    return {f"{mod}.{node.name}": node
            for mod, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _references(modules) -> dict:
    """module.name -> the top-level statements of src/ that refer to it,
    as (module, statement index) pairs."""
    refs = {}
    for mod, tree in modules.items():
        bound = _bindings(tree)
        for k, stmt in enumerate(tree.body):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    src_mod, name = bound.get(node.id, (mod, node.id))
                    target = f"{src_mod}.{name}" if name else None
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    src_mod, name = bound.get(node.value.id, (None, ""))
                    target = f"{src_mod}.{node.attr}" if name is None else None
                else:
                    continue
                if target:
                    refs.setdefault(target, set()).add((mod, k))
    return refs


def _exported(modules) -> set:
    tree = modules["__init__"]
    bound = _bindings(tree)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {f"{bound[n][0]}.{bound[n][1]}" for n in ast.literal_eval(node.value)
                    if n in bound and bound[n][1]}
    raise AssertionError("no __all__ in qdephase/__init__.py")


def _callers(modules) -> dict:
    """module.name -> whether anything in src/ outside its own definition
    refers to it, for every top-level def and class."""
    refs = _references(modules)
    out = {}
    for key, node in _defined(modules).items():
        mod = key.split(".", 1)[0]
        own = next(k for k, stmt in enumerate(modules[mod].body) if stmt is node)
        out[key] = bool(refs.get(key, set()) - {(mod, own)})
    return out


def test_every_name_in_src_has_a_use():
    modules = _modules()
    exported = _exported(modules)
    unused = sorted(key for key, used in _callers(modules).items()
                    if not used and key not in exported and key not in ALLOWED)
    assert not unused, f"no use in src/; move to tests/reference.py or delete: {unused}"


def test_allow_list_is_current():
    modules = _modules()
    callers = _callers(modules)
    stale = sorted(key for key in ALLOWED if key not in callers)
    called = sorted(key for key in ALLOWED if callers.get(key))
    exported = sorted(key for key in ALLOWED if key in _exported(modules))
    assert (stale, called, exported) == ([], [], [])


def test_the_scan_sees_uses():
    # the guard is only as good as its reference scan: known uses, through
    # each kind of binding, are found
    callers = _callers(_modules())
    assert callers["measures._eig_factor"]       # from .measures import _eig_factor
    assert callers["refsearch.css_family_columns"]  # refsearch.css_family_columns in cli
    assert callers["measures._support_entropy"]   # a call within its own module
    assert callers["cli.main"]                    # from .cli import main in __main__
    assert not callers["cli.build_record"]


def test_only_matcore_reads_its_check_tolerances():
    # matcore._eigen is the one diagnosis of a matrix stack; a module that
    # imports or reads HERM_TOL or PSD_TOL would judge or word a failure a
    # second time
    modules = _modules()
    tolerances = {("matcore", "HERM_TOL"), ("matcore", "PSD_TOL")}
    refs = _references(modules)
    readers = {mod for a, b in tolerances for mod, _ in refs.get(f"{a}.{b}", ())}
    readers |= {mod for mod, tree in modules.items()
                if tolerances & set(_bindings(tree).values())}
    assert readers == {"matcore"}
