"""Span tracing from outside the program: wrap public functions, record spans.

A traced run replaces each target function with a wrapper in every
``qdephase`` module that holds it, so calls through names bound by
``from ... import`` are seen too. Spans are ``(name, start, end, parent,
run)`` and live in flat arrays until the run ends; ``Tracer.restore`` puts
every original back.
"""

import sys
import time
from array import array

import numpy as np

NO_PARENT = -1


class Tracer:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []          # span name table, index = name id
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.extras = {}         # span index -> {key: number}
        self.run_id = 0
        self._stack = []
        self._patched = []       # (module, attribute, original)

    # ------------------------------------------------------------ recording

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        """Start a span under the innermost open one; return its index."""
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.start.append(self.clock())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.run.append(self.run_id)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} was innermost")

    def span(self, name, fn, observe=None):
        """Wrap fn so each call records a span named name.

        observe(result, args) may return a dict of numbers kept with the span.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                tracer.extras[idx] = observe(result, args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------- patching

    def patch(self, targets, observers=None):
        """Wrap every target in each loaded qdephase module that binds it.

        targets maps a module name to the function names to wrap; a span is
        named "<last module component>.<function>".
        """
        observers = observers or {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "qdephase" or n.startswith("qdephase.")) and m is not None]
        for mod_name, funcs in targets.items():
            home = sys.modules[mod_name]
            layer = mod_name.rsplit(".", 1)[-1]
            for func in funcs:
                original = getattr(home, func)
                name = f"{layer}.{func}"
                wrapper = self.span(name, original, observers.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def restore(self):
        """Put every patched attribute back, newest first."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    # ------------------------------------------------------------- analysis

    def arrays(self):
        """Copies of the spans as numpy arrays: name ids, durations, self
        times, parents, runs."""
        names, parent, run = (np.array(a) for a in (self.name_id, self.parent, self.run))
        dur = np.array(self.end) - np.array(self.start)
        return names, dur, self_times(dur, parent), parent, run

    def save(self, path):
        """Write the spans out (compressed npz) with their name table."""
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.array(self.name_id), start=np.array(self.start),
                            end=np.array(self.end), parent=np.array(self.parent),
                            run=np.array(self.run))


def self_times(dur, parent):
    """Duration minus the time covered by direct children.

    Calls are synchronous, so children never overlap and the covered time is
    the sum of their durations.
    """
    dur = np.asarray(dur, dtype=np.float64)
    parent = np.asarray(parent)
    has_parent = parent != NO_PARENT
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered
