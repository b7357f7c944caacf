"""Generation of edge-update streams for incremental sparsification experiments.

The paper's evaluation streams batches of edges that are *added to the
original graph* (e.g. new metal straps added to a power grid) and asks the
sparsifier to keep up.  Real streams are not available offline, so these
generators synthesise them with two locality profiles:

* :func:`random_pair_edges` — uniformly random node pairs (long-range,
  spectrally disruptive: the worst case for a sparsifier);
* :func:`locality_biased_edges` — endpoints a few hops apart (the realistic
  "new wire between nearby nets" case, mostly redundant spectrally);
* :func:`mixed_edges` — a configurable blend of the two, which is what the
  benchmark scenarios use.

All insertion generators avoid duplicating existing graph edges and draw
weights log-uniformly from the graph's own weight range so the new edges look
like the old ones.

Beyond the paper's insertion-only protocol, this module also models *fully
dynamic* streams — real workloads (power-grid reconfiguration, FEM remeshing)
delete edges as often as they add them:

* :class:`InsertionEvent` / :class:`DeletionEvent` — the two event kinds;
* :class:`MixedBatch` — one batch of interleaved insertions and deletions
  (deletions apply before insertions, see the class docstring);
* :func:`removable_edges` — samples existing edges whose sequential removal
  provably keeps the graph connected (bridges are never chosen).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.graphs.components import non_bridge_edges
from repro.graphs.graph import Graph, canonical_edge
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_positive_int, check_probability

Edge = Tuple[int, int]
WeightedEdge = Tuple[int, int, float]


@dataclass(frozen=True)
class InsertionEvent:
    """One streamed edge insertion: a new ``(u, v)`` wire of given weight."""

    u: int
    v: int
    weight: float

    @property
    def edge(self) -> WeightedEdge:
        """The event as a ``(u, v, weight)`` triple (canonical orientation)."""
        key = canonical_edge(self.u, self.v)
        return (key[0], key[1], self.weight)


@dataclass(frozen=True)
class DeletionEvent:
    """One streamed edge deletion: the ``(u, v)`` wire is physically removed."""

    u: int
    v: int

    @property
    def edge(self) -> Edge:
        """The deleted edge as a canonical ``(u, v)`` pair."""
        return canonical_edge(self.u, self.v)


@dataclass(frozen=True)
class WeightChangeEvent:
    """One streamed edge re-weighting: edge ``(u, v)`` gains ``delta`` conductance.

    Models a physical reinforcement of an existing wire (a thicker strap, a
    parallel conductor on the same route).  Streaming it as its own event —
    instead of the delete-then-insert round trip — lets the driver call
    :meth:`repro.graphs.graph.Graph.increase_weights` directly: no sparsifier
    repair, no hierarchy invalidation, because added conductance can only
    *lower* effective resistances, so every cached resistance upper bound
    stays valid untouched.

    ``delta`` must be positive; weight reductions are deletions followed by a
    lighter insertion (they can raise resistances and therefore need the full
    repair machinery).
    """

    u: int
    v: int
    delta: float

    @property
    def edge(self) -> WeightedEdge:
        """The event as a canonical ``(u, v, delta)`` triple."""
        key = canonical_edge(self.u, self.v)
        return (key[0], key[1], self.delta)


StreamEvent = Union[InsertionEvent, DeletionEvent, WeightChangeEvent]


@dataclass
class MixedBatch:
    """One batch of a fully dynamic update stream.

    Semantics: within a batch, **deletions apply first, then weight changes,
    then insertions** — the scenario builders guarantee the graph stays
    connected under that order and the
    :class:`~repro.core.incremental.InGrassSparsifier` driver applies batches
    the same way.

    Attributes
    ----------
    insertions:
        Newly added ``(u, v, weight)`` edges.
    deletions:
        Removed ``(u, v)`` pairs (canonical orientation).
    weight_changes:
        ``(u, v, delta)`` conductance increases on surviving edges.
    """

    insertions: List[WeightedEdge] = field(default_factory=list)
    deletions: List[Edge] = field(default_factory=list)
    weight_changes: List[WeightedEdge] = field(default_factory=list)

    @property
    def num_events(self) -> int:
        """Total number of events in the batch (all three kinds)."""
        return len(self.insertions) + len(self.deletions) + len(self.weight_changes)

    @property
    def deletion_fraction(self) -> float:
        """Fraction of the batch's events that are deletions."""
        if self.num_events == 0:
            return 0.0
        return len(self.deletions) / self.num_events

    def events(self) -> Iterator[StreamEvent]:
        """Iterate the events in application order (deletions first)."""
        for u, v in self.deletions:
            yield DeletionEvent(u, v)
        for u, v, delta in self.weight_changes:
            yield WeightChangeEvent(u, v, delta)
        for u, v, w in self.insertions:
            yield InsertionEvent(u, v, w)

    def __len__(self) -> int:
        return self.num_events

    def __bool__(self) -> bool:
        return self.num_events > 0

    @classmethod
    def from_events(cls, events: Sequence[StreamEvent]) -> "MixedBatch":
        """Bundle a flat event list into a batch (order within kind preserved).

        Because a batch applies its deletions before its insertions,
        delete-then-insert of the same edge (a switch swap: remove the old
        strap, wire a replacement) is represented faithfully — but an
        *insertion followed by a deletion* of the same edge would be silently
        reordered, so such lists are rejected; split them across two batches
        instead.  The same applies to weight changes: re-weighting an edge
        deleted or inserted earlier in the list cannot survive the batch's
        fixed application order and is rejected.
        """
        batch = cls()
        inserted: Set[Edge] = set()
        deleted: Set[Edge] = set()
        reweighted: Set[Edge] = set()
        for event in events:
            if isinstance(event, DeletionEvent):
                if event.edge in inserted:
                    raise ValueError(
                        f"edge {event.edge} is inserted and then deleted within one event "
                        "list; a MixedBatch applies deletions before insertions and cannot "
                        "preserve that interleaving — split the events across two batches"
                    )
                if event.edge in reweighted:
                    raise ValueError(
                        f"edge {event.edge} is re-weighted and then deleted within one "
                        "event list; a MixedBatch applies deletions before weight changes "
                        "and cannot preserve that interleaving — split the events across "
                        "two batches"
                    )
                batch.deletions.append(event.edge)
                deleted.add(event.edge)
            elif isinstance(event, WeightChangeEvent):
                key = canonical_edge(event.u, event.v)
                if key in deleted or key in inserted:
                    raise ValueError(
                        f"edge {key} is deleted/inserted and then re-weighted within one "
                        "event list; a MixedBatch applies weight changes between deletions "
                        "and insertions — split the events across two batches"
                    )
                batch.weight_changes.append(event.edge)
                reweighted.add(key)
            elif isinstance(event, InsertionEvent):
                key = canonical_edge(event.u, event.v)
                batch.insertions.append(event.edge)
                inserted.add(key)
            else:
                raise TypeError(f"unknown stream event {event!r}")
        return batch


def _weight_sampler(graph: Graph, rng: np.random.Generator):
    """Return a callable drawing weights log-uniformly from the graph's range."""
    _, _, weights = graph.edge_arrays()
    if weights.size == 0:
        low, high = 1.0, 1.0
    else:
        low, high = float(weights.min()), float(weights.max())
    log_low, log_high = math.log(low), math.log(max(high, low * (1 + 1e-12)))

    def sample(count: int) -> np.ndarray:
        if count == 0:
            return np.zeros(0)
        return np.exp(rng.uniform(log_low, log_high, size=count))

    return sample


def random_pair_edges(graph: Graph, count: int, *, seed: SeedLike = None,
                      exclude: Optional[set] = None) -> List[WeightedEdge]:
    """Draw ``count`` new edges between uniformly random node pairs.

    Pairs already present in ``graph`` (or in ``exclude``) are rejected and
    re-drawn, so the result contains only genuinely new edges.
    """
    count = check_positive_int(count, "count") if count else 0
    if count == 0:
        return []
    rng = as_rng(seed)
    n = graph.num_nodes
    if n < 2:
        raise ValueError("graph needs at least two nodes to add edges")
    sample_weight = _weight_sampler(graph, rng)
    taken = set(exclude) if exclude else set()
    edges: List[WeightedEdge] = []
    weights = sample_weight(count)
    attempts = 0
    max_attempts = 100 * count + 1000
    while len(edges) < count and attempts < max_attempts:
        attempts += 1
        u, v = rng.integers(0, n, size=2)
        u, v = int(u), int(v)
        if u == v:
            continue
        key = canonical_edge(u, v)
        if key in taken or graph.has_edge(u, v):
            continue
        taken.add(key)
        edges.append((key[0], key[1], float(weights[len(edges)])))
    return edges


#: Count from which :func:`locality_biased_edges` switches to the vectorised
#: batched-walk sampler (below it, the per-edge walk keeps seeded streams of
#: the existing test corpus byte-identical).
_LOCALITY_VECTOR_THRESHOLD = 5000


def _locality_biased_edges_vectorized(graph: Graph, count: int, *, hops: int, rng,
                                      taken: Set[Edge]) -> List[WeightedEdge]:
    """Batched random-walk sampler for paper-scale (10⁵+) locality streams.

    Runs all walks of one round simultaneously on the CSR adjacency (one
    fancy-indexed gather per hop instead of one Python dict walk per edge)
    and detects saturation — when a round yields almost nothing new because
    the neighbourhoods are exhausted, the caller tops up with random pairs
    instead of burning millions of rejected walks.
    """
    adjacency = graph.adjacency_matrix()
    indptr, indices = adjacency.indptr, adjacency.indices
    n = graph.num_nodes
    sample_weight = _weight_sampler(graph, rng)
    edges: List[WeightedEdge] = []
    while len(edges) < count:
        want = count - len(edges)
        batch = max(2 * want, 1024)
        starts = rng.integers(0, n, size=batch)
        lengths = rng.integers(1, hops + 1, size=batch)
        nodes = starts.copy()
        for step in range(hops):
            active = np.flatnonzero(lengths > step)
            if active.size == 0:
                break
            current = nodes[active]
            degrees = indptr[current + 1] - indptr[current]
            movable = degrees > 0
            active = active[movable]
            if active.size == 0:
                break
            current = current[movable]
            draws = (rng.random(active.size) * degrees[movable]).astype(np.int64)
            nodes[active] = indices[indptr[current] + draws]
        lo = np.minimum(starts, nodes)
        hi = np.maximum(starts, nodes)
        distinct = lo != hi
        keys = lo * np.int64(n) + hi
        # In-batch dedup, first occurrence wins (keeps rounds unbiased).
        _, first_index = np.unique(keys, return_index=True)
        fresh = np.zeros(batch, dtype=bool)
        fresh[first_index] = True
        candidates = np.flatnonzero(distinct & fresh)
        accepted_before = len(edges)
        weights = sample_weight(candidates.size)
        for offset, index in enumerate(candidates.tolist()):
            key = (int(lo[index]), int(hi[index]))
            if key in taken or key in graph:
                continue
            taken.add(key)
            edges.append((key[0], key[1], float(weights[offset])))
            if len(edges) >= count:
                break
        if len(edges) - accepted_before < max(1, batch // 100):
            # Saturated: nearly every nearby pair already exists.
            break
    return edges


def locality_biased_edges(graph: Graph, count: int, *, hops: int = 3, seed: SeedLike = None,
                          exclude: Optional[set] = None) -> List[WeightedEdge]:
    """Draw new edges whose endpoints lie within ``hops`` hops of each other.

    These model realistic incremental wiring: a new connection is usually
    added between electrically nearby nodes, which makes it spectrally
    redundant — exactly the kind of edge the similarity filter should absorb.

    Counts of ``_LOCALITY_VECTOR_THRESHOLD`` and above use a batched CSR
    random walk (all walks of a round advance in one numpy gather), which
    keeps 10⁵-edge stream generation in seconds where the per-edge walk
    would spend minutes rejection-sampling saturated neighbourhoods.
    """
    count = check_positive_int(count, "count") if count else 0
    if count == 0:
        return []
    if hops < 1:
        raise ValueError("hops must be >= 1")
    rng = as_rng(seed)
    n = graph.num_nodes
    taken = set(exclude) if exclude else set()
    edges: List[WeightedEdge] = []
    if count >= _LOCALITY_VECTOR_THRESHOLD:
        edges = _locality_biased_edges_vectorized(graph, count, hops=hops, rng=rng, taken=taken)
    else:
        sample_weight = _weight_sampler(graph, rng)
        weights = sample_weight(count)
        attempts = 0
        max_attempts = 200 * count + 1000
        while len(edges) < count and attempts < max_attempts:
            attempts += 1
            start = int(rng.integers(0, n))
            # Short random walk to find a nearby endpoint.
            node = start
            for _ in range(int(rng.integers(1, hops + 1))):
                neighbors = list(graph.neighbors(node).keys())
                if not neighbors:
                    break
                node = int(neighbors[int(rng.integers(0, len(neighbors)))])
            if node == start:
                continue
            key = canonical_edge(start, node)
            if key in taken or graph.has_edge(start, node):
                continue
            taken.add(key)
            edges.append((key[0], key[1], float(weights[len(edges)])))
    if len(edges) < count:
        # Top up with random pairs when the walk keeps landing on existing edges
        # (dense neighbourhoods); keeps the requested batch size exact.
        extra = random_pair_edges(graph, count - len(edges), seed=rng, exclude=taken)
        edges.extend(extra)
    return edges


def mixed_edges(graph: Graph, count: int, *, long_range_fraction: float = 0.5,
                hops: int = 3, seed: SeedLike = None) -> List[WeightedEdge]:
    """Blend of long-range random pairs and locality-biased edges."""
    check_probability(long_range_fraction, "long_range_fraction")
    if count == 0:
        return []
    rng = as_rng(seed)
    num_long = int(round(long_range_fraction * count))
    num_local = count - num_long
    taken: set = set()
    edges: List[WeightedEdge] = []
    if num_long:
        long_edges = random_pair_edges(graph, num_long, seed=rng, exclude=taken)
        taken.update(canonical_edge(u, v) for u, v, _ in long_edges)
        edges.extend(long_edges)
    if num_local:
        local_edges = locality_biased_edges(graph, num_local, hops=hops, seed=rng, exclude=taken)
        edges.extend(local_edges)
    order = rng.permutation(len(edges))
    return [edges[int(i)] for i in order]


def removable_edges(graph: Graph, count: int, *, seed: SeedLike = None,
                    protect: Optional[Set[Edge]] = None) -> List[Edge]:
    """Sample ``count`` existing edges whose sequential removal keeps ``graph`` connected.

    The sampler works on a scratch copy so removing the returned pairs *in
    order* (or all at once) provably leaves the graph connected.  Edges in
    ``protect`` are never chosen.

    One Tarjan bridge pass seeds a shuffled candidate queue; each pick is
    then validated with a single union-find sweep (an edge may have become a
    bridge since the pass) and the queue is refreshed only when it runs dry —
    after a refresh the first non-bridge pick always succeeds, so progress is
    guaranteed without re-running Tarjan per pick.

    Returns fewer than ``count`` pairs when the graph runs out of removable
    (cycle) edges — a tree has none.
    """
    from repro.graphs.validation import removals_keep_connected

    count = check_positive_int(count, "count") if count else 0
    if count == 0:
        return []
    rng = as_rng(seed)
    protected = set(protect) if protect else set()
    working = graph.copy()
    removed: List[Edge] = []

    def fresh_candidates() -> List[Edge]:
        candidates = [edge for edge in non_bridge_edges(working) if edge not in protected]
        order = rng.permutation(len(candidates))
        return [candidates[int(i)] for i in order]

    queue: List[Edge] = []
    while len(removed) < count:
        if not queue:
            # A fresh queue's first pick always succeeds (removing one
            # non-bridge edge keeps connectivity by definition), so the loop
            # is guaranteed to progress or terminate here.
            queue = fresh_candidates()
            if not queue:
                break
        edge = queue.pop()
        if not working.has_edge(*edge):
            continue
        if removals_keep_connected(working, [edge]):
            working.remove_edge(*edge)
            removed.append(edge)
        # else: the edge became a bridge after earlier removals; drop it.
    return removed


def weight_change_edges(graph: Graph, count: int, *, scale_range: Tuple[float, float] = (0.1, 1.0),
                        seed: SeedLike = None) -> List[WeightedEdge]:
    """Sample ``count`` re-weighting events ``(u, v, delta)`` on existing edges.

    Each sampled edge gains ``delta = weight * U(scale_range)`` conductance —
    the "reinforce an existing wire" workload that
    :class:`WeightChangeEvent` models.  Edges are drawn without replacement;
    fewer events are returned when the graph has fewer edges than ``count``.
    """
    count = check_positive_int(count, "count") if count else 0
    low, high = scale_range
    if not 0.0 < low <= high:
        raise ValueError(f"scale_range must satisfy 0 < low <= high, got {scale_range}")
    if count == 0 or graph.num_edges == 0:
        return []
    rng = as_rng(seed)
    edges = list(graph.weighted_edges())
    chosen = rng.choice(len(edges), size=min(count, len(edges)), replace=False)
    factors = rng.uniform(low, high, size=chosen.shape[0])
    return [
        (edges[int(index)][0], edges[int(index)][1], float(edges[int(index)][2] * factor))
        for index, factor in zip(chosen, factors)
    ]


def split_into_batches(edges: Sequence[WeightedEdge], num_batches: int) -> List[List[WeightedEdge]]:
    """Split a stream into ``num_batches`` near-equal consecutive batches."""
    check_positive_int(num_batches, "num_batches")
    edges = list(edges)
    if num_batches > max(len(edges), 1):
        num_batches = max(len(edges), 1)
    boundaries = np.linspace(0, len(edges), num_batches + 1).astype(int)
    return [edges[start:end] for start, end in zip(boundaries[:-1], boundaries[1:])]
