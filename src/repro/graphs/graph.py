"""Weighted undirected graph container used throughout the library.

:class:`Graph` keeps its edges in append-only slot arrays (endpoints
``u <= v``, weight ``w`` and an ``alive`` flag), a dictionary from the
canonical key ``(min(u, v), max(u, v))`` to the key's slot, and one
``{neighbor: weight}`` dictionary per node.  Slot order is edge order, and it
follows a Python dict's insertion order exactly: a new key appends a slot, a
weight update stays in place, a delete tombstones the slot and a re-insert
appends a fresh one.  Compaction, once tombstones outnumber live slots, keeps
that order.  Membership tests, insertions and weight updates — what the
inGRASS update phase performs per streamed edge — stay O(1) dictionary
operations, while :meth:`Graph.edge_arrays` is one numpy compaction of the
live slots per graph version.

The array views (:meth:`Graph.edge_arrays`, :meth:`Graph.csr_view`) are cached
until the next mutation and never alias the live slots, so a snapshot may hold
them forever.  :meth:`Graph.from_arrays` adopts edge arrays in bulk and leaves
the key index and the adjacency dictionaries to be built on first use: graphs
that only feed spectral algebra (a snapshot's :class:`FrozenGraph`, the LRD
quotients and induced subgraphs, a restored checkpoint until its first update)
never build them.  :meth:`Graph.add_edges`, :meth:`Graph.remove_edges` and
:meth:`Graph.increase_weights` validate or look up a whole batch before they
write the slot arrays once.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.graphs.laplacian import laplacian_from_edges
from repro.utils.validation import check_node_index, check_positive

Edge = Tuple[int, int]
WeightedEdge = Tuple[int, int, float]

_MERGE_POLICIES = ("add", "max", "replace", "error")
#: Tombstones tolerated before compaction; it also waits until they outnumber
#: the live slots, so its O(slots) cost is amortised over the deletes.
_COMPACT_MIN_TOMBSTONES = 64


def canonical_edge(u: int, v: int) -> Edge:
    """Return the canonical (sorted) form of an undirected edge key."""
    return (u, v) if u <= v else (v, u)


def as_edge_triples(edges: Iterable[WeightedEdge]) -> np.ndarray:
    """Coerce an edge iterable (or ``(m, 3)`` ndarray) to a float ``(m, 3)`` array.

    Pure shape/dtype coercion without validation — shared by
    :func:`coerce_edge_triple_arrays` and the distortion batch kernels.
    An empty input yields an empty ``(0, 3)`` array.
    """
    if isinstance(edges, np.ndarray) and edges.ndim == 2 and edges.shape[1] == 3:
        return edges.astype(float, copy=False)
    triples = np.asarray(edges if isinstance(edges, list) else list(edges), dtype=float)
    if triples.size == 0:
        return np.zeros((0, 3))
    return triples


def coerce_edge_triple_arrays(edges: Iterable[WeightedEdge], num_nodes: int,
                              *, error_cls: type = ValueError,
                              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a batch of ``(u, v, weight)`` triples in one numpy pass.

    Shared kernel of :meth:`Graph.add_edges` and
    :func:`repro.graphs.validation.validate_new_edge_arrays`, so the batch
    rules (integer endpoints in range, no self-loops, positive finite
    weights) live in exactly one place.  Returns canonically oriented
    ``(us, vs, ws)`` arrays in input order, *without* deduplication; raises
    ``error_cls`` (a ``ValueError`` subclass) on the first violation.
    """
    try:
        triples = as_edge_triples(edges)
    except OverflowError as exc:  # an int too large for a float
        raise error_cls(f"edge value out of range: {exc}") from exc
    if triples.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise error_cls(f"expected (u, v, weight) triples, got shape {triples.shape}")
    us = triples[:, 0].astype(np.int64)
    vs = triples[:, 1].astype(np.int64)
    ws = np.ascontiguousarray(triples[:, 2])
    if np.any((us != triples[:, 0]) | (vs != triples[:, 1])):
        raise error_cls("edge endpoints must be integers")
    loops = us == vs
    if loops.any():
        bad = int(np.flatnonzero(loops)[0])
        raise error_cls(f"self-loops are not allowed (node {int(us[bad])})")
    out_of_range = (us < 0) | (vs < 0) | (us >= num_nodes) | (vs >= num_nodes)
    if out_of_range.any():
        bad = int(np.flatnonzero(out_of_range)[0])
        raise error_cls(
            f"edge ({int(us[bad])}, {int(vs[bad])}) references a node outside 0..{num_nodes - 1}"
        )
    invalid = ~np.isfinite(ws) | (ws <= 0)
    if invalid.any():
        bad = int(np.flatnonzero(invalid)[0])
        raise error_cls(
            f"edge ({int(us[bad])}, {int(vs[bad])}) has non-positive weight {float(ws[bad])}"
        )
    return np.minimum(us, vs), np.maximum(us, vs), ws


def _merged(existing: float, weight: float, merge: str, key: Edge) -> float:
    """The weight an existing edge ends with under a merge policy."""
    if merge == "add":
        return existing + weight
    if merge == "max":
        return max(existing, weight)
    if merge == "error":
        raise ValueError(f"edge {key} already exists")
    return weight  # "replace"


class Graph:
    """A weighted undirected graph on nodes ``0 .. num_nodes - 1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes.  Nodes are always the contiguous integers starting
        at zero; the benchmark loaders relabel external identifiers.
    edges:
        Optional iterable of ``(u, v, weight)`` triples.  Parallel edges are
        merged by summing weights (the physical behaviour of parallel
        resistors in the circuit graphs the paper targets).

    Notes
    -----
    Self-loops are rejected: they do not change the graph Laplacian and only
    distort density accounting.
    """

    def __init__(self, num_nodes: int, edges: Optional[Iterable[WeightedEdge]] = None) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
        self._num_nodes = int(num_nodes)
        self._set_slots(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
        self._slot_of: Optional[Dict[Edge, int]] = {}
        self._adjacency: Optional[List[Dict[int, float]]] = [dict() for _ in range(self._num_nodes)]
        if edges is not None:
            self.add_edges(edges, merge="add")

    @classmethod
    def from_arrays(cls, num_nodes: int, us: np.ndarray, vs: np.ndarray,
                    ws: np.ndarray) -> "Graph":
        """Build a graph whose edges are the given parallel arrays, in order.

        ``us``/``vs`` must be canonically oriented (``u <= v``), in range and
        duplicate-free, and ``ws`` positive — exactly what
        :meth:`edge_arrays` returns; nothing is validated.  The arrays are
        copied into the slots in one assignment each, and the key index and
        adjacency dictionaries are built only when first needed.
        """
        graph = cls.__new__(cls)
        graph._adopt(num_nodes, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64),
                     np.array(ws, dtype=float))
        return graph

    def _adopt(self, num_nodes: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> None:
        self._num_nodes = int(num_nodes)
        self._set_slots(us, vs, ws)
        self._slot_of = None
        self._adjacency = None

    def _set_slots(self, us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> None:
        """Adopt ``us``/``vs``/``ws`` (not copied) as the slots, all alive."""
        self._us, self._vs, self._ws = us, vs, ws
        self._alive = np.ones(us.shape[0], dtype=bool)
        self._size = us.shape[0]
        self._dead = 0
        self._invalidate_views()

    def _invalidate_views(self) -> None:
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._csr: Optional[sp.csr_matrix] = None

    def _maps(self) -> Tuple[Dict[Edge, int], List[Dict[int, float]]]:
        """The key index and the adjacency dictionaries, built on first use.

        Built from the live slots in slot order, which reproduces both: a
        node's adjacency order is the slot order of its incident edges.
        Graphs without maps have no tombstones (only :meth:`from_arrays`
        and :meth:`copy` of such a graph leave them unbuilt).
        """
        if self._slot_of is None:
            us, vs, ws = self.edge_arrays()
            keys = list(zip(us.tolist(), vs.tolist()))
            adjacency: List[Dict[int, float]] = [dict() for _ in range(self._num_nodes)]
            for (u, v), w in zip(keys, ws.tolist()):
                adjacency[u][v] = w
                adjacency[v][u] = w
            # The index last: readers of a shared frozen view test it alone.
            self._adjacency = adjacency
            self._slot_of = dict(zip(keys, range(len(keys))))
        return self._slot_of, self._adjacency  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Slot storage
    # ------------------------------------------------------------------ #
    def _reserve(self, extra: int) -> None:
        """Grow the slots geometrically; spare slots are pre-marked alive,
        so appends write only ``u``, ``v`` and ``w``."""
        capacity = self._us.shape[0]
        needed = self._size + extra
        if needed <= capacity:
            return
        capacity = max(needed, 2 * capacity, 16)
        for name, fill in (("_us", 0), ("_vs", 0), ("_ws", 0.0), ("_alive", True)):
            old = getattr(self, name)
            grown = np.full(capacity, fill, dtype=old.dtype)
            grown[:self._size] = old[:self._size]
            setattr(self, name, grown)

    def _append_slots(self, us: Sequence[int], vs: Sequence[int], ws: Sequence[float]) -> None:
        count = len(ws)
        if count:
            self._reserve(count)
            start, stop = self._size, self._size + count
            self._us[start:stop] = us
            self._vs[start:stop] = vs
            self._ws[start:stop] = ws
            self._size = stop

    def _append_slot(self, u: int, v: int, w: float) -> int:
        slot = self._size
        if slot == self._us.shape[0]:
            self._reserve(1)
        self._us[slot] = u
        self._vs[slot] = v
        self._ws[slot] = w
        self._size = slot + 1
        return slot

    def _write_weights(self, weights: Dict[int, float]) -> None:
        """``slot -> weight`` in one fancy assignment (dict keys are unique)."""
        if weights:
            count = len(weights)
            self._ws[np.fromiter(weights.keys(), dtype=np.int64, count=count)] = \
                np.fromiter(weights.values(), dtype=float, count=count)

    def _kill_slots(self, slots: Union[int, List[int]]) -> None:
        """Tombstone a slot or a list of slots; compact once tombstones
        outnumber live slots."""
        self._alive[slots] = False
        self._dead += 1 if isinstance(slots, int) else len(slots)
        if self._dead >= _COMPACT_MIN_TOMBSTONES and 2 * self._dead > self._size:
            self._compact()

    def _compact(self) -> None:
        """Drop the tombstones, keeping slot order; the key index is renumbered
        (its iteration order is the live slot order)."""
        live = self._alive[:self._size]
        self._set_slots(self._us[:self._size][live], self._vs[:self._size][live],
                        self._ws[:self._size][live])
        self._slot_of = dict(zip(self._slot_of, range(self._size)))  # type: ignore[arg-type]

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return self._size - self._dead

    def __len__(self) -> int:
        return self._num_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(num_nodes={self._num_nodes}, num_edges={self.num_edges})"

    def __contains__(self, edge: Tuple[int, int]) -> bool:
        u, v = edge
        return self.has_edge(u, v)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_edge(self, u: int, v: int, weight: float = 1.0, merge: str = "add") -> None:
        """Insert or update the undirected edge ``(u, v)``.

        Parameters
        ----------
        u, v:
            Endpoints; must be distinct valid node indices.
        weight:
            Positive edge weight (conductance in circuit terms).
        merge:
            Policy when the edge already exists: ``"add"`` sums the weights
            (parallel resistors), ``"replace"`` overwrites, ``"max"`` keeps
            the larger weight and ``"error"`` raises.
        """
        if merge not in _MERGE_POLICIES:
            raise ValueError(f"unknown merge policy {merge!r}")
        u = check_node_index(u, self._num_nodes, "u")
        v = check_node_index(v, self._num_nodes, "v")
        if u == v:
            raise ValueError(f"self-loops are not allowed (node {u})")
        self._merge_edge(canonical_edge(u, v), check_positive(weight, "weight"), merge)

    def _merge_edge(self, key: Edge, weight: float, merge: str) -> None:
        slot_of, adjacency = self._maps()
        u, v = key
        slot = slot_of.get(key)
        if slot is None:
            slot_of[key] = self._append_slot(u, v, weight)
        else:
            weight = _merged(adjacency[u][v], weight, merge, key)
            self._ws[slot] = weight
        adjacency[u][v] = weight
        adjacency[v][u] = weight
        self._invalidate_views()

    def add_edges(self, edges: Iterable[WeightedEdge], merge: str = "add") -> None:
        """Insert many edges at once (see :meth:`add_edge` for the semantics).

        The whole batch is validated with numpy in one shot (bounds,
        self-loops, positive finite weights) before the graph is touched, and
        the slot arrays are written once for the batch, so streaming 10⁵
        edges does not pay 10⁵ Python-level validation call chains.
        Semantics are identical to calling :meth:`add_edge` per edge,
        including the merge policy order.
        """
        if merge not in _MERGE_POLICIES:
            raise ValueError(f"unknown merge policy {merge!r}")
        us, vs, ws = coerce_edge_triple_arrays(edges, self._num_nodes)
        if us.size == 0:
            return
        slot_of, adjacency = self._maps()
        base = self._size
        new_us: List[int] = []
        new_vs: List[int] = []
        new_ws: List[float] = []
        updated: Dict[int, float] = {}
        try:
            for u, v, weight in zip(us.tolist(), vs.tolist(), ws.tolist()):
                key = (u, v)
                slot = slot_of.get(key)
                if slot is None:
                    slot_of[key] = base + len(new_ws)
                    new_us.append(u)
                    new_vs.append(v)
                    new_ws.append(weight)
                else:
                    weight = _merged(adjacency[u][v], weight, merge, key)
                    if slot >= base:
                        new_ws[slot - base] = weight
                    else:
                        updated[slot] = weight
                adjacency[u][v] = weight
                adjacency[v][u] = weight
        finally:
            # merge="error" can raise mid-batch; the edges inserted before
            # the failure stay, as they would edge by edge.
            self._append_slots(new_us, new_vs, new_ws)
            self._write_weights(updated)
            self._invalidate_views()

    def add_edge_unchecked(self, u: int, v: int, weight: float) -> None:
        """Insert ``(u, v, weight)`` with ``merge="add"`` semantics, skipping validation.

        For batch engines that have already validated the whole stream with
        numpy (:func:`repro.graphs.validation.validate_new_edge_arrays`);
        ``u``/``v``/``weight`` must be Python scalars, distinct, in range and
        positive — violating that corrupts the adjacency structure.
        """
        self._merge_edge((u, v) if u <= v else (v, u), weight, "add")

    def remove_edge(self, u: int, v: int) -> float:
        """Remove edge ``(u, v)`` and return its weight; raise if absent."""
        weight = self.pop_edge(u, v)
        if weight is None:
            raise KeyError(f"edge {canonical_edge(int(u), int(v))} not in graph")
        return weight

    def pop_edge(self, u: int, v: int) -> Optional[float]:
        """Remove edge ``(u, v)`` and return its weight; ``None`` if absent."""
        key = canonical_edge(int(u), int(v))
        slot_of, adjacency = self._maps()
        slot = slot_of.pop(key, None)
        if slot is None:
            return None
        weight = adjacency[key[0]].pop(key[1])
        del adjacency[key[1]][key[0]]
        self._kill_slots(slot)
        self._invalidate_views()
        return weight

    def remove_edges(self, pairs: Iterable[Edge]) -> List[WeightedEdge]:
        """Remove many edges at once; return the ``(u, v, weight)`` triples removed.

        Pairs are canonicalised first and every pair must exist (matching
        :meth:`remove_edge`); the returned triples carry the weight each edge
        had at removal time, in input order.  Duplicated pairs raise (the
        second occurrence no longer exists).
        """
        slot_of, adjacency = self._maps()
        removed: List[WeightedEdge] = []
        slots: List[int] = []
        try:
            for item in pairs:
                u, v = int(item[0]), int(item[1])
                key = (u, v) if u <= v else (v, u)
                slot = slot_of.pop(key, None)
                if slot is None:
                    raise KeyError(f"edge {key} not in graph")
                weight = adjacency[key[0]].pop(key[1])
                del adjacency[key[1]][key[0]]
                slots.append(slot)
                removed.append((key[0], key[1], weight))
        finally:
            # A missing pair raises mid-batch; the edges removed before the
            # failure stay removed.
            if slots:
                self._kill_slots(slots)
                self._invalidate_views()
        return removed

    def set_weight(self, u: int, v: int, weight: float) -> None:
        """Overwrite the weight of an existing edge."""
        key = canonical_edge(int(u), int(v))
        slot_of, adjacency = self._maps()
        slot = slot_of.get(key)
        if slot is None:
            raise KeyError(f"edge {key} not in graph")
        weight = check_positive(weight, "weight")
        self._ws[slot] = weight
        adjacency[key[0]][key[1]] = weight
        adjacency[key[1]][key[0]] = weight
        self._invalidate_views()

    def scale_weight(self, u: int, v: int, factor: float) -> float:
        """Multiply the weight of an existing edge by ``factor``; return the new weight."""
        current = self.weight(u, v)
        check_positive(factor, "factor")
        new_weight = current * factor
        self.set_weight(u, v, new_weight)
        return new_weight

    def increase_weight(self, u: int, v: int, delta: float) -> float:
        """Add ``delta`` to the weight of an existing edge; return the new weight."""
        current = self.weight(u, v)
        check_positive(delta, "delta")
        new_weight = current + delta
        self.set_weight(u, v, new_weight)
        return new_weight

    def increase_weights(self, pairs: Sequence[Edge], deltas: np.ndarray) -> None:
        """Add ``deltas[i]`` to the weight of existing edge ``pairs[i]`` (bulk).

        The batched similarity filter uses this to apply one aggregated
        weight redistribution per cluster instead of one Python call chain
        per edge.  All edges must exist and all deltas must be positive; the
        floats equal a scalar :meth:`increase_weight` loop's.
        """
        deltas = np.asarray(deltas, dtype=float)
        if len(pairs) != deltas.shape[0]:
            raise ValueError(f"{len(pairs)} pairs but {deltas.shape[0]} deltas")
        if deltas.size and (not np.all(np.isfinite(deltas)) or np.any(deltas <= 0)):
            raise ValueError("deltas must be positive and finite")
        slot_of, adjacency = self._maps()
        updated: Dict[int, float] = {}
        try:
            for (u, v), delta in zip(pairs, deltas.tolist()):
                key = (u, v) if u <= v else (v, u)
                slot = slot_of.get(key)
                if slot is None:
                    raise KeyError(f"edge {key} not in graph")
                weight = adjacency[key[0]][key[1]] + delta
                updated[slot] = weight
                adjacency[key[0]][key[1]] = weight
                adjacency[key[1]][key[0]] = weight
        finally:
            # A missing edge raises mid-batch; the weights updated before the
            # failure stay updated.
            if updated:
                self._write_weights(updated)
                self._invalidate_views()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the edge ``(u, v)`` is present."""
        return canonical_edge(int(u), int(v)) in self._maps()[0]

    def weight(self, u: int, v: int, default: Optional[float] = None) -> float:
        """Return the weight of ``(u, v)``; ``default`` if absent (or raise)."""
        key = canonical_edge(int(u), int(v))
        slot_of, adjacency = self._maps()
        if key in slot_of:
            return adjacency[key[0]][key[1]]
        if default is not None:
            return default
        raise KeyError(f"edge {key} not in graph")

    def edge_weights(self, keys: Sequence[Edge]) -> np.ndarray:
        """Weights of the canonical ``(u, v)`` keys, gathered from the slots."""
        slot_of = self._maps()[0]
        return self._ws[np.fromiter((slot_of[key] for key in keys), dtype=np.int64,
                                    count=len(keys))]

    def neighbors(self, node: int) -> Dict[int, float]:
        """Return a copy of the ``{neighbor: weight}`` map of ``node``."""
        node = check_node_index(node, self._num_nodes)
        return dict(self._maps()[1][node])

    def degree(self, node: int) -> int:
        """Return the number of incident edges of ``node``."""
        node = check_node_index(node, self._num_nodes)
        return len(self._maps()[1][node])

    def weighted_degree(self, node: int) -> float:
        """Return the sum of incident edge weights of ``node``."""
        node = check_node_index(node, self._num_nodes)
        return float(sum(self._maps()[1][node].values()))

    def degrees(self) -> np.ndarray:
        """Return the integer degree of every node as an array."""
        us, vs, _ = self.edge_arrays()
        return (np.bincount(us, minlength=self._num_nodes)
                + np.bincount(vs, minlength=self._num_nodes)).astype(np.int64)

    def weighted_degrees(self) -> np.ndarray:
        """Return the weighted degree of every node as an array."""
        return np.array([sum(adj.values()) for adj in self._maps()[1]], dtype=float)

    def edges(self) -> Iterator[Edge]:
        """Iterate over canonical ``(u, v)`` edge keys, in edge order."""
        us, vs, _ = self.edge_arrays()
        return zip(us.tolist(), vs.tolist())

    def weighted_edges(self) -> Iterator[WeightedEdge]:
        """Iterate over ``(u, v, weight)`` triples, in edge order."""
        us, vs, ws = self.edge_arrays()
        return zip(us.tolist(), vs.tolist(), ws.tolist())

    def edge_list(self) -> List[WeightedEdge]:
        """Return the edges as a list of ``(u, v, weight)`` triples, in edge order."""
        return list(self.weighted_edges())

    def total_weight(self) -> float:
        """Return the sum of all edge weights."""
        return float(sum(self.edge_arrays()[2].tolist()))

    def density(self) -> float:
        """Return the density ``|E| / |V|`` used by the paper's tables."""
        if self._num_nodes == 0:
            return 0.0
        return self.num_edges / self._num_nodes

    def relative_density(self, reference: "Graph") -> float:
        """Return ``|E| / |E_reference|`` — the percentages reported in Table II."""
        if reference.num_edges == 0:
            raise ValueError("reference graph has no edges")
        return self.num_edges / reference.num_edges

    # ------------------------------------------------------------------ #
    # Array / matrix views
    # ------------------------------------------------------------------ #
    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return parallel arrays ``(u, v, w)`` of all edges, in edge order.

        One compaction of the live slots, cached until the next mutation:
        the same read-only tuple is returned until then (callers key caches
        on its identity), and it never shares memory with the slots.
        """
        if self._arrays is None:
            size = self._size
            if self._dead:
                live = self._alive[:size]
                arrays = (self._us[:size][live], self._vs[:size][live], self._ws[:size][live])
            else:
                arrays = (self._us[:size].copy(), self._vs[:size].copy(), self._ws[:size].copy())
            for array in arrays:
                array.flags.writeable = False
            self._arrays = arrays
        return self._arrays

    def adjacency_matrix(self, dtype: type = float) -> sp.csr_matrix:
        """Return the symmetric weighted adjacency matrix in CSR form.

        The float CSR form is cached until the next mutation; callers receive
        a copy so they can scale/slice it freely.
        """
        if dtype is not float:
            return self._build_adjacency(dtype)
        return self.csr_view().copy()

    def csr_view(self) -> sp.csr_matrix:
        """Return the cached float CSR adjacency WITHOUT copying.

        The returned matrix is shared with the cache and must be treated as
        read-only (slice it, never scale it in place).  Bulk readers on hot
        paths — incident-edge gathers, per-level splice batching — use this to
        avoid :meth:`adjacency_matrix`'s defensive copy on every call.
        """
        if self._csr is None:
            self._csr = self._build_adjacency(float)
        return self._csr

    def _build_adjacency(self, dtype: type) -> sp.csr_matrix:
        us, vs, ws = self.edge_arrays()
        rows = np.concatenate([us, vs])
        cols = np.concatenate([vs, us])
        vals = np.concatenate([ws, ws]).astype(dtype)
        return sp.csr_matrix((vals, (rows, cols)), shape=(self._num_nodes, self._num_nodes))

    def laplacian_matrix(self) -> sp.csr_matrix:
        """Return the graph Laplacian ``L = D - A`` in CSR form
        (:func:`~repro.graphs.laplacian.laplacian_from_edges`)."""
        us, vs, ws = self.edge_arrays()
        return laplacian_from_edges(self._num_nodes, us, vs, ws)

    def incidence_matrix(self) -> sp.csr_matrix:
        """Return the oriented edge-node incidence matrix ``B`` (|E| x |V|).

        Rows follow :meth:`edge_arrays` order; each row has ``+1`` at the
        smaller endpoint and ``-1`` at the larger one, so ``B^T W B = L``.
        """
        us, vs, _ = self.edge_arrays()
        m = self.num_edges
        rows = np.repeat(np.arange(m), 2)
        cols = np.empty(2 * m, dtype=np.int64)
        cols[0::2] = us
        cols[1::2] = vs
        vals = np.empty(2 * m, dtype=float)
        vals[0::2] = 1.0
        vals[1::2] = -1.0
        return sp.csr_matrix((vals, (rows, cols)), shape=(m, self._num_nodes))

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def copy(self) -> "Graph":
        """Return a deep, mutable copy of the graph (slot for slot)."""
        clone = Graph.__new__(Graph)
        clone._num_nodes = self._num_nodes
        size = self._size
        clone._us, clone._vs, clone._ws, clone._alive = (
            array[:size].copy() for array in (self._us, self._vs, self._ws, self._alive))
        clone._size, clone._dead = size, self._dead
        clone._invalidate_views()
        if self._slot_of is None:
            clone._slot_of = clone._adjacency = None
        else:
            clone._slot_of = dict(self._slot_of)
            clone._adjacency = [dict(adj) for adj in self._adjacency]  # type: ignore[union-attr]
        return clone

    def induced_subgraph(self, nodes: Sequence[int]) -> "Graph":
        """The subgraph induced by ``nodes``, relabelled ``0 .. k-1`` in input order.

        Only edges with *both* endpoints inside ``nodes`` are kept, so by
        Rayleigh monotonicity every effective resistance measured on the
        subgraph upper-bounds the one between the same nodes here.  Edges are
        ordered by their smaller local endpoint, then by each node's
        adjacency order — the order the LRD contraction breaks ties in.
        """
        local = {node: index for index, node in enumerate(np.asarray(nodes).tolist())}
        adjacency = self._maps()[1]
        us: List[int] = []
        vs: List[int] = []
        ws: List[float] = []
        for node, index in local.items():
            for neighbor, weight in adjacency[node].items():
                other = local.get(neighbor)
                if other is not None and index < other:
                    us.append(index)
                    vs.append(other)
                    ws.append(weight)
        return Graph.from_arrays(len(nodes), us, vs, ws)

    def subgraph_from_edges(self, edges: Iterable[Edge]) -> "Graph":
        """Return a graph on the same node set containing only ``edges``.

        Edge weights are taken from this graph; unknown edges raise.
        """
        sub = Graph(self._num_nodes)
        for u, v in edges:
            sub.add_edge(u, v, self.weight(u, v), merge="error")
        return sub

    def union_with_edges(self, edges: Iterable[WeightedEdge], merge: str = "add") -> "Graph":
        """Return a copy of this graph with extra weighted edges merged in."""
        merged = self.copy()
        merged.add_edges(edges, merge=merge)
        return merged

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (weights under key ``"weight"``)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self._num_nodes))
        graph.add_weighted_edges_from(self.weighted_edges())
        return graph

    @classmethod
    def from_networkx(cls, nx_graph, weight_key: str = "weight", default_weight: float = 1.0) -> "Graph":
        """Build a :class:`Graph` from a networkx graph with integer-labelled nodes.

        Nodes are relabelled to ``0 .. n-1`` in sorted order of the original
        labels; the mapping is implicit (sorted order) so callers that need it
        should sort their own node list the same way.
        """
        nodes = sorted(nx_graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        graph = cls(len(nodes))
        for u, v, data in nx_graph.edges(data=True):
            if u == v:
                continue
            weight = float(data.get(weight_key, default_weight))
            graph.add_edge(index[u], index[v], weight, merge="add")
        return graph

    @classmethod
    def from_sparse(cls, matrix: sp.spmatrix) -> "Graph":
        """Build a graph from a symmetric sparse adjacency (or Laplacian) matrix.

        Off-diagonal entries are interpreted as adjacency weights using their
        absolute value, so both adjacency matrices and Laplacians are accepted.
        """
        matrix = sp.coo_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got shape {matrix.shape}")
        graph = cls(matrix.shape[0])
        for i, j, value in zip(matrix.row, matrix.col, matrix.data):
            if i < j and value != 0.0:
                graph.add_edge(int(i), int(j), abs(float(value)), merge="replace")
        return graph

    # ------------------------------------------------------------------ #
    # Equality (useful in tests)
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self._num_nodes != other._num_nodes or self.num_edges != other.num_edges:
            return False
        theirs = dict(zip(other.edges(), other.edge_arrays()[2].tolist()))
        for key, weight in zip(self.edges(), self.edge_arrays()[2].tolist()):
            other_weight = theirs.get(key)
            if other_weight is None or not np.isclose(weight, other_weight):
                return False
        return True

    def __hash__(self) -> int:  # Graphs are mutable; identity hash.
        return id(self)


class FrozenGraphError(RuntimeError):
    """Raised when a mutating operation is attempted on a :class:`FrozenGraph`."""


class FrozenGraph(Graph):
    """An immutable :class:`Graph` view, as handed out by snapshots.

    Every mutating method raises :class:`FrozenGraphError`; all queries,
    array/matrix views and spectral algebra behave exactly like the mutable
    graph they were captured from.  :meth:`copy` is the escape hatch — it
    returns a plain mutable :class:`Graph` with the same edges, leaving the
    frozen view (and the writer it was captured from) untouched.
    """

    _MUTATION_ERROR = ("this graph is a frozen snapshot view; call .copy() for a "
                       "mutable Graph instead of mutating the snapshot")
    _frozen = True

    @classmethod
    def from_arrays(cls, num_nodes: int, us: np.ndarray, vs: np.ndarray,
                    ws: np.ndarray) -> "FrozenGraph":
        """A read-only view over canonical parallel edge arrays.

        Same contract as :meth:`Graph.from_arrays`, but the arrays are not
        copied: they are made read-only and become both the view's slots and
        its :meth:`edge_arrays`, so construction is O(1).  The key index and
        the adjacency dictionaries are built on the first query that needs
        them; spectral algebra never does.
        """
        frozen = cls.__new__(cls)
        for array in (us, vs, ws):
            array.flags.writeable = False
        frozen._adopt(num_nodes, us, vs, ws)
        frozen._arrays = (us, vs, ws)
        return frozen

    def __init__(self, num_nodes: int, edges: Optional[Iterable[WeightedEdge]] = None) -> None:
        # Populate through the mutable base class, then freeze.
        self._frozen = False
        super().__init__(num_nodes, edges)
        self._frozen = True

    def _refuse_mutation(self) -> None:
        if self._frozen:
            raise FrozenGraphError(self._MUTATION_ERROR)

    # Every mutator funnels through one of these entry points.
    def add_edge(self, u: int, v: int, weight: float = 1.0, merge: str = "add") -> None:
        self._refuse_mutation()
        super().add_edge(u, v, weight, merge)

    def add_edges(self, edges: Iterable[WeightedEdge], merge: str = "add") -> None:
        self._refuse_mutation()
        super().add_edges(edges, merge)

    def add_edge_unchecked(self, u: int, v: int, weight: float) -> None:
        self._refuse_mutation()
        super().add_edge_unchecked(u, v, weight)

    def pop_edge(self, u: int, v: int) -> Optional[float]:
        self._refuse_mutation()
        return super().pop_edge(u, v)

    def remove_edges(self, pairs: Iterable[Edge]) -> List[WeightedEdge]:
        self._refuse_mutation()
        return super().remove_edges(pairs)

    def set_weight(self, u: int, v: int, weight: float) -> None:
        self._refuse_mutation()
        super().set_weight(u, v, weight)

    def increase_weights(self, pairs: Sequence[Edge], deltas: np.ndarray) -> None:
        self._refuse_mutation()
        super().increase_weights(pairs, deltas)

    # remove_edge delegates to pop_edge, scale_weight / increase_weight to
    # set_weight; copy() returns a mutable Graph (the thaw operation).

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FrozenGraph(num_nodes={self._num_nodes}, num_edges={self.num_edges})"
