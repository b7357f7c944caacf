"""Epoch snapshots of a live sparsifier — the versioned read path.

A production deployment serves *queries* — effective-resistance lookups, PCG
solves preconditioned by the current sparsifier, κ introspection —
concurrently with the write stream of updates.  :class:`SparsifierSnapshot`
is the mechanism: an immutable view of an
:class:`~repro.core.incremental.InGrassSparsifier` captured at one version
epoch.

Capture is O(1) and copy-free on the hot path:

* the tracked graph and the sparsifier are captured as their cached
  canonical edge arrays (:meth:`repro.graphs.graph.Graph.edge_arrays`).
  Those arrays are **immutable by construction** — they are a compaction of
  the graph's slot arrays that the graph never writes, dropping its
  reference on the next mutation — so holding a reference *is* a
  copy-on-write share: the writer's next mutation leaves the snapshot's
  buffers untouched.  After a write, capturing costs one numpy compaction
  per graph;
* the LRD hierarchy and the similarity filter are summarised into plain
  counters (hierarchy versions and depth, filter bucket counts); no label or
  diameter array is shared with the writer.

Every query kind (resistances, PCG solves, κ) solves through one
:class:`~repro.spectral.solvers.SolverLineage` per graph.  The service's
snapshots share its lineages, so an epoch's first query corrects the kept
factorisation of a nearby epoch for the edges that changed and factors only
past the rank cap; :meth:`InGrassSparsifier.snapshot` gives a snapshot
lineages of its own, which factor the captured arrays on first use.
:attr:`SparsifierSnapshot.graph` and :attr:`SparsifierSnapshot.sparsifier`
are :class:`~repro.graphs.graph.FrozenGraph` views over the same arrays,
built in O(1); their key index and adjacency dictionaries are built only if a
caller asks a dictionary question (``neighbors``, ``weight``, ...), which no
resistance, PCG or κ query does.  Lazy artifacts are built under a
snapshot-local lock, so readers never hold a lock that the update pipeline
contends on.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import FrozenGraph
from repro.sparsify.metrics import SparsifierReport, evaluate_sparsifier
from repro.spectral.condition import (
    DENSE_LIMIT_DEFAULT,
    SpectralContext,
    fresh_lineages,
    relative_condition_number,
)
from repro.spectral.solvers import Solver, SolverLineage, SolveReport, conjugate_gradient

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.incremental import InGrassSparsifier

EdgeArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


class SparsifierSnapshot:
    """An immutable, queryable view of a sparsifier at one version epoch.

    Build one through :meth:`InGrassSparsifier.snapshot` (or, preferably,
    :meth:`repro.service.SparsifierService.snapshot`, which hands out the one
    snapshot its writer published per epoch and retains recent ones).  All
    queries are thread-safe and run against the captured epoch — the writer
    may keep mutating concurrently without affecting any answer this
    snapshot returns.
    """

    def __init__(self, *, version: int, num_nodes: int,
                 graph_arrays: EdgeArrays, sparsifier_arrays: EdgeArrays,
                 hierarchy_summary: dict,
                 filter_summary: dict,
                 target_condition_number: float,
                 lineages: Optional[Dict[str, SolverLineage]] = None) -> None:
        self._version = int(version)
        self._num_nodes = int(num_nodes)
        self._graph_arrays = graph_arrays
        self._sparsifier_arrays = sparsifier_arrays
        self._hierarchy_summary = dict(hierarchy_summary)
        self._filter_summary = dict(filter_summary)
        self._target_condition = target_condition_number
        self._lineages = lineages if lineages is not None else fresh_lineages()
        # Lazily built artifacts, guarded by a snapshot-local lock (readers
        # of the *same* snapshot serialise on first build only).  Re-entrant:
        # building a solver builds a frozen view under the same lock.
        self._lock = threading.RLock()
        self._graph: Optional[FrozenGraph] = None
        self._sparsifier: Optional[FrozenGraph] = None
        self._solvers: Dict[str, Solver] = {}
        self._laplacian: Optional[sp.csr_matrix] = None

    # ------------------------------------------------------------------ #
    # Capture
    # ------------------------------------------------------------------ #
    @classmethod
    def capture(cls, driver: "InGrassSparsifier", *,
                lineages: Optional[Dict[str, SolverLineage]] = None) -> "SparsifierSnapshot":
        """Capture the driver's current state as a snapshot — O(1) amortised.

        The only non-constant term is compacting the graphs' edge arrays
        when the writer just mutated (one numpy pass the writer would pay
        anyway on its next spectral operation); no adjacency dict, CSR
        matrix or numpy buffer is deep-copied.

        Not safe to run concurrently with a mutating call on ``driver`` —
        serialise capture against writes, as
        :class:`repro.service.SparsifierService` does.  ``lineages`` (one
        :class:`~repro.spectral.solvers.SolverLineage` per side, see
        :func:`~repro.spectral.condition.fresh_lineages`) are the solver
        lineages to share; ``None`` gives the snapshot its own.
        """
        driver._require_setup()
        assert driver._setup is not None
        hierarchy = driver._setup.hierarchy
        graph = driver._graph
        sparsifier = driver._sparsifier
        similarity_filter = driver._filter
        assert graph is not None and sparsifier is not None and similarity_filter is not None
        return cls(
            version=driver.latest_version,
            num_nodes=graph.num_nodes,
            graph_arrays=graph.edge_arrays(),
            sparsifier_arrays=sparsifier.edge_arrays(),
            hierarchy_summary={"hierarchy_version": hierarchy.version,
                               "hierarchy_labels_version": hierarchy.labels_version,
                               "num_levels": hierarchy.num_levels},
            filter_summary=similarity_filter.state_summary(),
            target_condition_number=driver.target_condition_number,
            lineages=lineages,
        )

    # ------------------------------------------------------------------ #
    # Identity / raw state
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """The writer's version epoch this snapshot was captured at."""
        return self._version

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_graph_edges(self) -> int:
        return int(self._graph_arrays[0].shape[0])

    @property
    def num_sparsifier_edges(self) -> int:
        return int(self._sparsifier_arrays[0].shape[0])

    @property
    def filter_summary(self) -> dict:
        """Similarity-filter state summary at capture."""
        return dict(self._filter_summary)

    @property
    def filtering_level(self) -> int:
        """The driver's similarity filtering level at the captured epoch."""
        return self._filter_summary["filtering_level"]

    @property
    def target_condition_number(self) -> float:
        return self._target_condition

    def graph_arrays(self) -> EdgeArrays:
        """Canonical ``(u, v, w)`` arrays of the tracked graph (read-only)."""
        return self._graph_arrays

    def sparsifier_arrays(self) -> EdgeArrays:
        """Canonical ``(u, v, w)`` arrays of the sparsifier (read-only)."""
        return self._sparsifier_arrays

    # ------------------------------------------------------------------ #
    # Materialised graph views
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> FrozenGraph:
        """The tracked graph ``G`` at this epoch, as an immutable graph.

        An O(1) view over the captured arrays, built once per snapshot on
        first access; mutating it raises
        :class:`~repro.graphs.graph.FrozenGraphError` (use ``.copy()`` for a
        mutable clone).
        """
        if self._graph is None:
            with self._lock:
                if self._graph is None:
                    us, vs, ws = self._graph_arrays
                    self._graph = FrozenGraph.from_arrays(self._num_nodes, us, vs, ws)
        return self._graph

    @property
    def sparsifier(self) -> FrozenGraph:
        """The sparsifier ``H`` at this epoch, as an immutable graph."""
        if self._sparsifier is None:
            with self._lock:
                if self._sparsifier is None:
                    us, vs, ws = self._sparsifier_arrays
                    self._sparsifier = FrozenGraph.from_arrays(self._num_nodes, us, vs, ws)
        return self._sparsifier

    def solver_ready(self, on: str = "sparsifier") -> bool:
        """Whether the solver of graph ``on`` is built, so a resistance query
        on it costs one solve: it takes no lock and factors nothing."""
        return on in self._solvers

    def _solver(self, which: str) -> Solver:
        solver = self._solvers.get(which)
        if solver is None:
            target = self.sparsifier if which == "sparsifier" else self.graph
            with self._lock:
                solver = self._solvers.get(which)
                if solver is None:
                    solver = self._solvers[which] = self._lineages[which].solver(target)
        return solver

    def _graph_laplacian(self) -> sp.csr_matrix:
        if self._laplacian is None:
            graph = self.graph
            with self._lock:
                if self._laplacian is None:
                    self._laplacian = graph.laplacian_matrix()
        return self._laplacian

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def effective_resistance(self, u: int, v: int, *, on: str = "sparsifier") -> float:
        """Effective resistance between ``u`` and ``v`` at this epoch.

        ``on`` selects the graph: ``"sparsifier"`` (default — the cheap
        production lookup against ``H``) or ``"graph"`` (exact, against the
        full tracked graph ``G``).  The solver is fetched from the graph's
        lineage once per snapshot and reused across queries and threads.
        """
        if on not in ("sparsifier", "graph"):
            raise ValueError(f"unknown target {on!r}; expected 'sparsifier' or 'graph'")
        u, v = int(u), int(v)
        if u == v:
            return 0.0
        for node in (u, v):
            if node < 0 or node >= self._num_nodes:
                raise ValueError(f"node {node} outside 0..{self._num_nodes - 1}")
        b = np.zeros(self._num_nodes)
        b[u] = 1.0
        b[v] = -1.0
        x = self._solver(on).solve(b)
        return float(x[u] - x[v])

    def effective_resistance_many(self, pairs, *, on: str = "sparsifier") -> list:
        """Effective resistances for many ``(u, v)`` pairs in one call.

        The batched form of :meth:`effective_resistance` — one shared
        solver, one Python round trip.  It is what the HTTP front
        end's ``POST /resistance`` endpoint uses for ``pairs`` payloads, so a
        network client pays one request (and the server one snapshot pin) for
        an arbitrary number of lookups.
        """
        return [self.effective_resistance(u, v, on=on) for u, v in pairs]

    def solve(self, b: np.ndarray, *, preconditioned: bool = True,
              tol: float = 1e-8, max_iterations: Optional[int] = None) -> SolveReport:
        """Solve ``L_G x = b`` by PCG, preconditioned by this epoch's sparsifier.

        The classic downstream application: the preconditioner is the same
        sparsifier solver the resistance queries use.  Pass
        ``preconditioned=False`` for the plain-CG baseline.
        """
        laplacian = self._graph_laplacian()
        return conjugate_gradient(
            lambda x: laplacian @ x, b,
            preconditioner=self._solver("sparsifier").solve if preconditioned else None,
            tol=tol, max_iterations=max_iterations)

    def condition_number(self, *, dense_limit: int = DENSE_LIMIT_DEFAULT) -> float:
        """κ(L_G, L_H) of the captured epoch, through this snapshot's lineages."""
        context = SpectralContext(self._lineages)
        return relative_condition_number(self.graph, self.sparsifier, dense_limit=dense_limit,
                                         context=context)

    def report(self, *, compute_condition: bool = True, dense_limit: int = DENSE_LIMIT_DEFAULT) -> SparsifierReport:
        """Full quality report of the captured epoch."""
        return evaluate_sparsifier(self.graph, self.sparsifier,
                                   compute_condition=compute_condition, dense_limit=dense_limit)

    def describe(self) -> dict:
        """Cheap JSON-ready summary (no solver is built)."""
        return {
            "version": self._version,
            "num_nodes": self._num_nodes,
            "graph_edges": self.num_graph_edges,
            "sparsifier_edges": self.num_sparsifier_edges,
            "filtering_level": self.filtering_level,
            "target_condition_number": self._target_condition,
            **self._hierarchy_summary,
            "filter": self.filter_summary,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SparsifierSnapshot(version={self._version}, nodes={self._num_nodes}, "
                f"|E_G|={self.num_graph_edges}, |E_H|={self.num_sparsifier_edges})")
