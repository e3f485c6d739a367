"""In-memory span tracing of rbkernel's layers, installed from outside.

The tracer replaces each public function of a layer by a wrapper at module
attribute level, in every ``rbkernel`` namespace that binds it (for example
``eval_regular`` is bound in ``riccati``, ``operator``, ``counterexample``,
``kernel``, ``cli`` and the package itself), so a call is traced whichever
module makes it.  Each wrapped call records one span
``(name, start, end, parent, size)``; spans live in memory and are reduced
to per-layer totals after each op.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

__all__ = ["LAYERS", "Tracer", "layer_totals", "self_times", "union_length"]

# layer name -> (module, attribute) of every function or method that enters it.
LAYERS = {
    "riccati": [("rbkernel.riccati", "eval_regular"),
                ("rbkernel.riccati", "eval_irregular"),
                ("rbkernel.riccati", "wronskian")],
    "kernel.solve_gamma": [("rbkernel.kernel", "solve_gamma")],
    "operator.grid": [("rbkernel.operator", "build_grid"),
                      ("rbkernel.operator", "spectral_grid")],
    "operator.nystrom": [("rbkernel.operator", "nystrom_matrix")],
    "operator.svd": [("rbkernel.operator", "min_singular_value")],
    "operator.apply": [("rbkernel.operator", "apply_operator")],
    "operator.sweep": [("rbkernel.operator", "sweep")],
    "counterexample.p": [("rbkernel.counterexample", "p_explicit"),
                         ("rbkernel.counterexample", "p_wronskian"),
                         ("rbkernel.counterexample", "p_series")],
    "counterexample.find_root": [("rbkernel.counterexample", "find_root")],
    "counterexample.check_identity": [("rbkernel.counterexample", "check_identity")],
    "counterexample.verify": [("rbkernel.counterexample", "verify_counterexample")],
    "report.serialize": [("rbkernel.report", "ScanReport.to_csv_text"),
                         ("rbkernel.report", "ScanReport.to_json_text"),
                         ("rbkernel.counterexample", "VerificationReport.to_json_text"),
                         ("rbkernel.counterexample", "VerificationReport.summary_text")],
}


def _resolve(module_name: str, dotted: str):
    """Return (owner, attribute, value) for ``module.attr`` or ``module.Class.attr``."""
    owner = sys.modules[module_name]
    *outer, attr = dotted.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Records spans of one op at a time; install the wrappers with :meth:`installed`."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        kwargs = kwargs or {}
        parent = self._stack[-1] if self._stack else None
        # an SVD span also records the order of the matrix it decomposes
        size = args[0].grid.size if name == "operator.svd" else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, size)

    def take(self) -> list:
        """Return the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Bind the wrappers in every rbkernel namespace; restore on exit."""
        wrappers = {}
        patched = []
        try:
            for name, targets in LAYERS.items():
                for module_name, dotted in targets:
                    owner, attr, original = _resolve(module_name, dotted)
                    wrappers[id(original)] = (original, self._wrapper(name, original))
                    if "." in dotted:  # a method: the class is its only binding
                        setattr(owner, attr, wrappers[id(original)][1])
                        patched.append((owner, attr, original))
            for module_name, module in list(sys.modules.items()):
                if module is None or not (module_name == "rbkernel"
                                          or module_name.startswith("rbkernel.")):
                    continue
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))  # holds the original, so ids stay unique
                    if hit is not None:
                        setattr(module, attr, hit[1])
                        patched.append((module, attr, value))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - union_length(children.get(i, ()), start, end)
        for i, (name, start, end, parent, _) in enumerate(spans)
    ]


def layer_totals(spans) -> dict[str, dict]:
    """Per layer: entries from outside the layer, summed self time, largest size.

    A span whose parent belongs to the same layer (``spectral_grid`` calling
    ``build_grid``, ``p_explicit`` delegating to ``p_series``) adds self time
    but is not a new entry.
    """
    totals: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        name, _, _, parent, size = span
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "size_max": 0})
        entry["self_s"] += own
        if parent is None or spans[parent][0] != name:
            entry["calls"] += 1
        if size is not None:
            entry["size_max"] = max(entry["size_max"], size)
    return totals
