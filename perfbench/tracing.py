"""Outside-in layer tracing: wrap each layer's public entry points.

The program source is left untouched.  :class:`Tracer` replaces module
functions and class methods with wrappers that keep a per-thread span stack,
so every span's *self time* (its duration minus the time its traced children
took) is attributed to exactly one layer.  Summed over all layers plus the
self time of the benchmark's own root spans, self times add up to the traced
wall time; the roots' share is the "unattributed" row.

Wrapping rules that matter here:

* a function imported by name into another module is looked up there at call
  time, so it is wrapped on the importing module (``run_update`` is wrapped
  as ``repro.core.incremental.run_update``);
* the κ guard imports ``repro.spectral.condition`` inside the function, so
  wrappers on that module are picked up at call time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional


def _guard_counts(counters: Counter, report) -> None:
    counters["guard_rounds"] += report.rounds
    counters["guard_useful"] += 1 if report.added_edges else 0


def _removal_counts(counters: Counter, result) -> None:
    counters["repair_edges"] += result.num_repairs


def _filter_counts(counters: Counter, result) -> None:
    _, summary = result
    counters["filter_added"] += summary.added
    counters["filter_seen"] += summary.total


#: (owner, attribute, span name, observer of the return value).  The owner is
#: a module path, or ``module:Class`` for a method.
LAYERS = [
    ("repro.spectral.condition", "relative_condition_number", "spectral.condition.kappa", None),
    ("repro.spectral.condition", "dominant_generalized_eigenvector",
     "spectral.condition.eigvec", None),
    ("repro.core.incremental", "run_kappa_guard", "core.update.guard", _guard_counts),
    ("repro.core.maintenance:HierarchyMaintainer", "note_removals",
     "core.maintenance.splice", None),
    ("repro.core.maintenance:HierarchyMaintainer", "note_insertions",
     "core.maintenance.merge", None),
    ("repro.core.incremental", "run_removal", "core.update.removal", _removal_counts),
    ("repro.core.update", "run_removal_drop_stage", "core.update.drop", None),
    ("repro.core.update", "run_removal_repair_stages", "core.update.repair", None),
    ("repro.core.incremental", "validate_removals", "graphs.validation", None),
    ("repro.core.incremental", "removals_keep_connected", "graphs.validation", None),
    ("repro.core.update", "validate_new_edge_arrays", "graphs.validation", None),
    ("repro.core.incremental", "run_update", "core.update.insert", None),
    ("repro.core.update", "score_edge_arrays", "core.distortion.score", None),
    ("repro.core.update", "score_edges", "core.distortion.score", None),
    ("repro.core.filtering:SimilarityFilter", "apply_batch", "core.filtering.apply",
     _filter_counts),
    ("repro.core.filtering:SimilarityFilter", "apply", "core.filtering.apply", _filter_counts),
    ("repro.graphs.graph:Graph", "add_edges", "graphs.graph.mutate", None),
    ("repro.graphs.graph:Graph", "remove_edges", "graphs.graph.mutate", None),
    ("repro.core.incremental", "run_setup", "core.setup", None),
    ("repro.snapshot:SparsifierSnapshot", "capture", "snapshot.capture", None),
    ("repro.snapshot:SparsifierSnapshot", "effective_resistance", "snapshot.resistance", None),
    ("repro.spectral.solvers:GroundedSolver", "from_graph", "spectral.solvers.factor", None),
    ("repro.service:SparsifierService", "apply", "service.apply", None),
    ("repro.service:SparsifierService", "snapshot", "service.snapshot", None),
]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Per-thread span stacks aggregated into per-layer self time and counts."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        #: Summed duration of spans opened with an empty stack.
        self.root_seconds = 0.0
        self._undo: List[tuple] = []

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, elapsed: float, child: float, stack: List[float]) -> None:
        if stack:
            stack[-1] += elapsed
        with self._lock:
            self.self_seconds[name] += elapsed - child
            self.calls[name] += 1
            if not stack:
                self.root_seconds += elapsed

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a root around program calls)."""
        stack = self._stack()
        stack.append(0.0)
        begin = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - begin
            self._close(name, elapsed, stack.pop(), stack)

    def wrap(self, fn: Callable, name: str, observe: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            begin = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - begin
                tracer._close(name, elapsed, stack.pop(), stack)
            if observe is not None:
                with tracer._lock:
                    observe(tracer.counters, result)
            return result

        return traced

    def patch(self, owner, attribute: str, replacement_for: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attribute``; class and static methods keep their kind."""
        original = inspect.getattr_static(owner, attribute)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(replacement_for(original.__func__))
        else:
            replacement = replacement_for(original)
        setattr(owner, attribute, replacement)
        self._undo.append((owner, attribute, original))

    def install(self) -> "Tracer":
        for owner, attribute, name, observe in LAYERS:
            self.patch(_resolve(owner), attribute,
                       lambda fn, name=name, observe=observe: self.wrap(fn, name, observe))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def summary(self) -> Dict:
        with self._lock:
            return {"self_seconds": dict(self.self_seconds), "calls": dict(self.calls),
                    "counters": dict(self.counters), "root_seconds": self.root_seconds}


class ServerProbe:
    """A hook on the HTTP front end: the exact handler time of every request."""

    def __init__(self) -> None:
        self.handler_seconds: Dict[str, List[float]] = defaultdict(list)

    def install(self, tracer: Tracer) -> None:
        from repro.server.metrics import ServerMetrics

        probe = self

        def observe_for(original):
            def observe(metrics, endpoint, status, seconds):
                probe.handler_seconds[endpoint].append(seconds)
                return original(metrics, endpoint, status, seconds)
            return observe

        tracer.patch(ServerMetrics, "observe", observe_for)

    def summary(self) -> Dict:
        return {"handler_seconds": {k: list(v) for k, v in self.handler_seconds.items()}}
