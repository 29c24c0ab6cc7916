"""Opt-in tracing of the program's layers, from outside the program.

``Tracer.install`` rebinds the module-level functions named in ``SPANS`` and
``COUNTS`` to wrappers, in every ``spinor_forge`` module that holds them (a
module that did ``from .forms import eta`` calls its own binding, so each
binding is replaced).  A span records name, start, end and parent; a
counter only counts, for the functions too small to time per call.
Spans and counts stay in memory and are written by the caller at the end.

Self time is a span's duration minus the time its direct children cover;
calls are serial, so children never overlap.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

# span name -> (module, attribute) pairs; "Class.method" wraps a method.
SPANS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "twisted.hermitian": (("twisted", "twisted_hermitian"),),
    "forms.eta": (("forms", "eta"),),
    "forms.endo_compose": (("forms", "Endo.compose"), ("forms", "Endo.commutator")),
    "analysis.check_pure": (("analysis", "check_pure"),),
    "analysis.check_reducing": (("analysis", "check_reducing"),),
    "analysis.frame_rotation": (("analysis", "frame_rotation_check"),),
    "analysis.equivariance": (("analysis", "equivariance_check"),),
    "analysis.annihilator": (("analysis", "annihilator"),),
    "analysis.closure": (("analysis", "lie_closure_report"),),
    "analysis.commutant": (("analysis", "commutant"),),
    "analysis.even_clifford": (("analysis", "even_clifford_verify"),),
    "linalg.nullspace": (("linalg", "nullspace"),),
    "linalg.span": (("linalg", "spans_equal"), ("linalg", "span_contains")),
    "catalog.build": (("catalog", "build_qk_pure"), ("catalog", "build_spin7_pure"),
                      ("catalog", "build_spin7_reducing"),
                      ("catalog", "build_generic_reducing"),
                      ("catalog", "g2_generators")),
}

COUNTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "spinrep.generator": (("spinrep", "_generator_on_map"),),
    "twisted.slot_action": (("twisted", "_spin_generator"), ("twisted", "_twist_generator")),
}

# Spans that attribute benchmark bookkeeping (row statistics) to nobody.
STATS = "bench.stats"


def _distinct_up_to_scale(rows) -> int:
    seen = set()
    for row in rows:
        nz = [(i, Fraction(x)) for i, x in enumerate(row) if x]
        if nz:
            lead = nz[0][1]
            seen.add(tuple((i, x / lead) for i, x in nz))
    return len(seen)


class Tracer:
    def __init__(self, package, modules: Dict[str, object]) -> None:
        self.package = package
        self.modules = modules
        self.active = False
        self.spans: List[list] = []  # [name, parent, start, end, tag]
        self.counts: Counter = Counter()
        self.tag = ""
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def _rebind(self, module_name: str, attr: str, make: Callable) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(self.modules[module_name], cls_name)
            orig = getattr(cls, meth)
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(self.modules[module_name], attr)
        wrapper = make(orig)
        for mod in [self.package, *self.modules.values()]:
            for name, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, name, orig))
                    setattr(mod, name, wrapper)

    def install(self) -> None:
        for name, targets in SPANS.items():
            for module_name, attr in targets:
                self._rebind(module_name, attr, lambda f, n=name: self._span_wrapper(n, f))
        for name, targets in COUNTS.items():
            for module_name, attr in targets:
                self._rebind(module_name, attr, lambda f, n=name: self._count_wrapper(n, f))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), 0.0, self.tag])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name) if self.active else None
        try:
            yield
        finally:
            if sid is not None:
                self._close(sid)

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self
        stats = name == "linalg.nullspace"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if stats:
                rows, width = args[0], args[1]
                st = tracer._open(STATS)
                tracer.counts["linalg.rows_in"] += len(rows)
                tracer.counts["linalg.rows_distinct"] += _distinct_up_to_scale(rows)
                tracer.counts["linalg.rank"] += width - len(out)
                tracer._close(st)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def paused(self):
        """Context in which wrappers call straight through (for checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- summaries -----------------------------------------------------------

    def self_times(self, tag: str) -> Tuple[Dict[str, float], Counter]:
        """Total self seconds and call count per span name, over spans
        carrying ``tag``."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        total: Dict[str, float] = {}
        calls: Counter = Counter()
        for sid, (name, _, start, end, t) in enumerate(self.spans):
            if t != tag:
                continue
            total[name] = total.get(name, 0.0) + (end - start) - child_time[sid]
            calls[name] += 1
        return total, calls

    def dump(self) -> Dict[str, object]:
        return {
            "spans": [{"name": n, "parent": p, "start": s, "end": e, "tag": t}
                      for n, p, s, e, t in self.spans],
            "counts": dict(self.counts),
        }
