"""inGRASS update phase (Algorithm 1, steps 4-5) and its fully dynamic extension.

Each insertion update call receives a batch of newly streamed edges and,
using only the ``O(log N)``-dimensional embeddings produced by the setup
phase:

1. estimates the spectral distortion of every new edge (Section III-C-1) and
   sorts the batch so the most spectrally-critical edges are considered first;
2. runs the spectral-similarity filter at the level matching the target
   condition number (Section III-C-2), which adds unique edges, merges
   redundant inter-cluster edges into existing ones, and redistributes the
   weight of intra-cluster edges.

The cost is ``O(log N)`` per streamed edge — no resistance recomputation, no
re-sparsification.

The stage functions hold no state of their own: the caller (the
:class:`~repro.core.incremental.InGrassSparsifier` driver) owns the similarity
filter, bound to the LRD hierarchy at the filtering level it fixed at setup,
and the hierarchy maintainer (``None`` in rebuild mode), and hands both to
every stage.  The stages read the hierarchy from the filter.

:func:`run_removal` extends the protocol beyond the paper to *edge deletions*:
a removed edge always leaves the tracked graph, and when it was also carried
by the sparsifier the function (a) invalidates the similarity filter's
connectivity map and the hierarchy's cached cluster diameters, (b) reconnects
the sparsifier with the most-distorting surviving graph edges if the removal
split a cluster, (c) locally re-admits the best replacement off-tree edges
around the removal through the same similarity filter, and (d) optionally
keeps admitting globally most-distorting edges until κ returns under a
configured guard bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import InGrassConfig
from repro.core.distortion import score_edge_arrays, score_edges
from repro.core.filtering import (
    FilterAction,
    FilterDecision,
    FilterSummary,
    SimilarityFilter,
)
from repro.core.hierarchy import ClusterHierarchy
from repro.core.maintenance import HierarchyMaintainer
from repro.graphs.graph import Graph, canonical_edge
from repro.graphs.unionfind import UnionFind
from repro.graphs.validation import (
    GraphValidationError,
    canonicalize_edge_pairs,
    validate_new_edge_arrays,
)
from repro.spectral.condition import SpectralContext
from repro.utils.timing import Timer

Edge = Tuple[int, int]
WeightedEdge = Tuple[int, int, float]

#: Deletion path: cap on how many replacement edges the local repair step may
#: admit per sparsifier edge removed (connectivity repair is exempt — the
#: sparsifier is always reconnected).
REPAIR_EDGES_PER_REMOVAL = 2


@dataclass
class UpdateResult:
    """Outcome of one incremental update call."""

    #: Per-edge filter decisions, in filtering order.
    decisions: List[FilterDecision]
    summary: FilterSummary
    filtering_level: int
    update_seconds: float
    dropped_low_distortion: int = 0
    #: Clusters fused by the hierarchy maintainer after this batch
    #: (``hierarchy_mode="maintain"`` only).
    hierarchy_merges: int = 0

    @property
    def added_edges(self) -> List[WeightedEdge]:
        """Edges that were actually inserted into the sparsifier."""
        return [d.edge for d in self.decisions if d.action is FilterAction.ADDED]


def run_update(sparsifier: Graph, new_edges: Sequence[WeightedEdge], config: InGrassConfig, *,
               similarity_filter: SimilarityFilter,
               maintainer: Optional[HierarchyMaintainer]) -> UpdateResult:
    """Apply one batch of streamed edges to ``sparsifier`` (mutated in place).

    Parameters
    ----------
    sparsifier:
        Current sparsifier ``H(k)``; updated in place to ``H(k+1)``.
    new_edges:
        Batch of ``(u, v, weight)`` edges newly added to the original graph.
    config:
        inGRASS configuration (its distortion threshold).
    similarity_filter:
        The filter bound to ``sparsifier``; its level is the filtering level,
        and its LRD hierarchy's resistance bounds score the edges.
    maintainer:
        Hierarchy maintainer driving in-place cluster merges after the batch
        (``hierarchy_mode="maintain"``), ``None`` in rebuild mode.
    """
    timer = Timer().start()
    us, vs, ws = validate_new_edge_arrays(sparsifier, new_edges)

    # Score, threshold and sort the whole stream as numpy arrays, then
    # resolve the similarity filter per cluster group.
    batch = score_edge_arrays(similarity_filter.hierarchy, us, vs, ws)
    batch, dropped_batch = batch.split_by_threshold(config.distortion_threshold)
    decisions, summary = similarity_filter.apply_batch(batch.sort())
    num_dropped = len(dropped_batch)
    summary.dropped += num_dropped
    dropped_distortions = dropped_batch.distortions.tolist()
    for index in range(num_dropped):
        decisions.append(
            FilterDecision(edge=dropped_batch.edge(index),
                           action=FilterAction.DROPPED_LOW_DISTORTION,
                           distortion=dropped_distortions[index])
        )
    hierarchy_merges = 0
    if maintainer is not None and summary.added:
        added = [d.edge for d in decisions if d.action is FilterAction.ADDED]
        hierarchy_merges = maintainer.note_insertions(added, similarity_filter=similarity_filter)
    timer.stop()
    return UpdateResult(
        decisions=decisions,
        summary=summary,
        filtering_level=similarity_filter.filtering_level,
        update_seconds=timer.elapsed,
        dropped_low_distortion=num_dropped,
        hierarchy_merges=hierarchy_merges,
    )


# --------------------------------------------------------------------------- #
# Deletion path (fully dynamic extension)
# --------------------------------------------------------------------------- #
def prepare_removal_batch(graph: Graph, removals: Sequence) -> Tuple[List[Edge], dict]:
    """Canonicalise a removal batch and capture its physical graph weights.

    Returns the deduplicated canonical pairs (the ``requested`` list every
    removal record reports) and the ``(u, v) -> weight`` map of the weights
    the edges had in the tracked graph before their removal (present only for
    ``(u, v, w)`` triples).  Raises when a requested pair is still present in
    ``graph`` — the deletions must be applied to the tracked graph first,
    because it is the candidate pool for replacement edges.
    """
    requested = canonicalize_edge_pairs(removals)
    graph_weights: dict[Edge, float] = {}
    for item in removals:
        if len(item) >= 3:
            u, v = int(item[0]), int(item[1])
            graph_weights[(u, v) if u <= v else (v, u)] = float(item[2])
    for u, v in requested:
        if graph.has_edge(u, v):
            raise GraphValidationError(
                f"removal ({u}, {v}) is still present in the tracked graph; "
                "remove the edges from the graph before calling run_removal"
            )
    return requested, graph_weights


def run_removal_drop_stage(result: "RemovalResult", graph_weights: dict, *,
                           similarity_filter: SimilarityFilter, inflate: bool) -> None:
    """Stage 1 of the removal pipeline: drop, invalidate, re-home.

    For every pair of ``result.requested`` the sparsifier carries, the
    filter removes the edge from the sparsifier and its cluster-pair bucket
    and re-homes any excess weight earlier merge/redistribute decisions
    parked on it (:meth:`~repro.core.filtering.SimilarityFilter.drop_edges`).
    With ``inflate`` (rebuild mode) the cached cluster diameters containing
    both endpoints of each removed edge are then stretched via
    :meth:`~repro.core.hierarchy.ClusterHierarchy.note_edge_removed`, in the
    same order.  Fills ``result.removed_from_sparsifier`` (in request order),
    ``reassigned_weight``, ``discarded_weight`` and ``inflated_levels``.
    """
    keys = result.requested
    removed, reassigned, discarded = similarity_filter.drop_edges(
        keys, [graph_weights.get(key) for key in keys])
    result.removed_from_sparsifier.extend(removed)
    if inflate:
        hierarchy = similarity_filter.hierarchy
        for u, v, _ in removed:
            result.inflated_levels += hierarchy.note_edge_removed(u, v)
    result.reassigned_weight = reassigned
    result.discarded_weight = discarded


@dataclass
class RemovalResult:
    """Outcome of one edge-removal call against the sparsifier."""

    #: Canonical pairs the caller asked to delete (deduplicated).
    requested: List[Edge]
    #: Edges that were carried by the sparsifier and removed from it (with
    #: the weight they carried at removal time).
    removed_from_sparsifier: List[WeightedEdge]
    #: Replacement edges added purely to restore sparsifier connectivity.
    reconnection_edges: List[WeightedEdge]
    #: Replacement edges admitted by the local quality-repair pass.
    repair_edges: List[WeightedEdge] = field(default_factory=list)
    #: Repair candidates skipped because the filtering level already carries
    #: an equivalent connection (no weight is ever duplicated on skips).
    repair_skipped: int = 0
    #: Excess weight (beyond the physical edge weight) that removed
    #: sparsifier edges had absorbed from earlier merge/redistribute
    #: decisions, re-homed onto surviving support of the same cluster pair.
    reassigned_weight: float = 0.0
    #: Excess weight for which no surviving support existed (dropped).
    discarded_weight: float = 0.0
    #: Hierarchy levels whose cached cluster diameters were inflated
    #: (rebuild mode only; the maintenance mode recomputes instead).
    inflated_levels: int = 0
    filtering_level: int = 0
    removal_seconds: float = 0.0
    #: Clusters whose interior the hierarchy maintainer re-examined
    #: (``hierarchy_mode="maintain"`` only).
    spliced_clusters: int = 0
    #: New cluster fragments the maintainer created by splitting.
    split_fragments: int = 0
    #: Clusters the maintainer fused around repair/reconnection edges.
    hierarchy_merges: int = 0

    @property
    def repaired_edges(self) -> List[WeightedEdge]:
        """All edges (re)admitted into the sparsifier by this removal call."""
        return self.reconnection_edges + self.repair_edges

    @property
    def num_repairs(self) -> int:
        """Total number of edges admitted (reconnection + repair)."""
        return len(self.reconnection_edges) + len(self.repair_edges)


@dataclass
class KappaGuardReport:
    """Outcome of one κ-guard pass (see :func:`run_kappa_guard`)."""

    bound: float
    kappa_before: float
    kappa_after: float
    rounds: int = 0
    added_edges: List[WeightedEdge] = field(default_factory=list)
    guard_seconds: float = 0.0

    @property
    def satisfied(self) -> bool:
        """``True`` when the final κ is within the guard bound."""
        return self.kappa_after <= self.bound


def _rank_candidates(hierarchy: ClusterHierarchy, candidates: Sequence[WeightedEdge], *,
                     relative_threshold: float = 0.0) -> List[WeightedEdge]:
    """Candidate edges sorted by decreasing estimated distortion (stable)."""
    if not candidates:
        return []
    batch, _ = score_edges(hierarchy, candidates).split_by_threshold(relative_threshold)
    batch = batch.sort()
    return list(zip(batch.us.tolist(), batch.vs.tolist(), batch.ws.tolist()))


def _offtree_candidates(graph: Graph, sparsifier: Graph, around: Sequence[int]) -> List[WeightedEdge]:
    """Graph edges incident to ``around`` nodes that the sparsifier does not carry."""
    seen: dict[Edge, float] = {}
    for node in around:
        for neighbor, weight in graph.neighbors(node).items():
            key = canonical_edge(node, int(neighbor))
            if key not in seen and not sparsifier.has_edge(*key):
                seen[key] = float(weight)
    return [(u, v, w) for (u, v), w in seen.items()]


def _reconnect_sparsifier(sparsifier: Graph, graph: Graph,
                          similarity_filter: SimilarityFilter) -> List[WeightedEdge]:
    """Restore sparsifier connectivity using the most-distorting graph edges.

    Builds the component structure of the (possibly split) sparsifier, ranks
    every surviving graph edge that crosses two components by estimated
    spectral distortion, and greedily admits edges — highest distortion first,
    one per component merge — until a single component remains.

    The component structure comes from one vectorised sweep
    (:func:`repro.graphs.components.connected_components`) and the crossing
    candidates from one mask over the tracked graph's cached edge arrays, so
    the per-batch cost is a few numpy passes over ``E``; only the greedy
    admission loop — bounded by the component count, not the edge count —
    stays in Python, as a union-find over the *components*.
    """
    from repro.graphs.components import connected_components

    labels = connected_components(sparsifier)
    num_components = int(labels.max()) + 1 if labels.size else 0
    if num_components <= 1:
        return []
    us, vs, ws = graph.edge_arrays()
    crossing_mask = labels[us] != labels[vs]
    if not crossing_mask.any():
        raise GraphValidationError(
            "sparsifier disconnected and the tracked graph offers no reconnecting edge "
            "(was the graph itself disconnected by the removals?)"
        )
    crossing = list(zip(us[crossing_mask].tolist(), vs[crossing_mask].tolist(),
                        ws[crossing_mask].tolist()))
    ranked = _rank_candidates(similarity_filter.hierarchy, crossing)
    uf = UnionFind(num_components)
    added: List[WeightedEdge] = []
    for u, v, w in ranked:
        if uf.union(int(labels[u]), int(labels[v])):
            sparsifier.add_edge(u, v, w, merge="add")
            similarity_filter.notify_edge_added(u, v)
            added.append((u, v, w))
            if uf.num_sets <= 1:
                break
    if uf.num_sets > 1:
        raise GraphValidationError(
            "sparsifier could not be reconnected: the tracked graph is disconnected"
        )
    return added


def run_removal(sparsifier: Graph, removals: Sequence, *,
                graph: Graph, config: InGrassConfig,
                similarity_filter: SimilarityFilter,
                maintainer: Optional[HierarchyMaintainer]) -> RemovalResult:
    """Apply one batch of edge deletions to ``sparsifier`` (mutated in place).

    Parameters
    ----------
    sparsifier:
        Current sparsifier ``H(k)``; updated in place to ``H(k+1)``.
    removals:
        ``(u, v)`` pairs or ``(u, v, w)`` triples deleted from the original
        graph, where ``w`` is the weight the edge had *in the graph* before
        its removal.  When given, the weight is used to preserve conductance
        that earlier merge decisions parked on the removed sparsifier edge:
        only the physical share disappears, the excess is re-homed onto
        surviving support of the same cluster pair.  Pairs the sparsifier
        does not carry only affect the tracked graph and need no repair.
    graph:
        The tracked original graph ``G(k+1)`` — **after** the removals were
        applied to it.  It is the candidate pool for replacement edges, which
        is why the deletions must already be reflected (a deleted edge must
        never be re-admitted).
    config:
        inGRASS configuration (the distortion threshold of the repair
        ranking).
    similarity_filter:
        The filter bound to ``sparsifier``; its connectivity map is
        invalidated and updated in place.  Its LRD hierarchy ranks the
        replacement edges, and in rebuild mode the hierarchy's cached cluster
        diameters are inflated in place for removed sparsifier edges.
    maintainer:
        Hierarchy maintainer (``hierarchy_mode="maintain"``): instead of
        inflating cluster diameters, the affected clusters are spliced in
        place after the reconnection step — split along their surviving
        interior connectivity with locally recomputed diameters.  ``None``
        in rebuild mode.

    Notes
    -----
    The function mutates ``sparsifier`` (and the filter / hierarchy caches)
    as it goes and does **not** roll back on failure: if the graph itself was
    disconnected by the removals, the raised :class:`GraphValidationError`
    leaves the sparsifier partially repaired.  Pre-flight deletion batches
    with :func:`repro.graphs.validation.removals_keep_connected` (the
    :class:`~repro.core.incremental.InGrassSparsifier` driver does) when the
    input is not already known to be safe.
    """
    timer = Timer().start()
    requested, graph_weights = prepare_removal_batch(graph, removals)

    # Step 1: drop the edges the sparsifier carries, invalidating caches.
    # Weight a removed edge absorbed on behalf of *other* (still existing)
    # graph edges through earlier merge decisions is re-homed onto surviving
    # support of the same cluster pair rather than silently discarded.  In
    # rebuild mode the affected cluster diameters are inflated here; in
    # maintain mode the clusters are spliced structurally after step 2, once
    # the sparsifier is reconnected.
    result = RemovalResult(
        requested=requested,
        removed_from_sparsifier=[],
        reconnection_edges=[],
        filtering_level=similarity_filter.filtering_level,
    )
    run_removal_drop_stage(result, graph_weights,
                           similarity_filter=similarity_filter, inflate=maintainer is None)
    if not result.removed_from_sparsifier:
        timer.stop()
        result.removal_seconds = timer.elapsed
        return result

    run_removal_repair_stages(sparsifier, result, graph=graph, config=config,
                              similarity_filter=similarity_filter, maintainer=maintainer)
    timer.stop()
    result.removal_seconds = timer.elapsed
    return result


def run_removal_repair_stages(sparsifier: Graph, result: RemovalResult, *,
                              graph: Graph, config: InGrassConfig,
                              similarity_filter: SimilarityFilter,
                              maintainer: Optional[HierarchyMaintainer]) -> None:
    """Stages 2, 2b and 3 of the removal pipeline, after the drop stage.

    Union-find reconnection, maintain-mode splices judged against the
    repaired structure, and the distortion-ranked repair pass with its
    batch-wide cap.  Mutates ``result`` in place (reconnection, splice and
    repair fields).
    """
    removed_from_sparsifier = result.removed_from_sparsifier

    # Step 2: reconnect if any removal split the sparsifier.
    result.reconnection_edges = _reconnect_sparsifier(sparsifier, graph, similarity_filter)

    # Step 2b (maintain mode): splice the clusters the removals touched, now
    # that the sparsifier is whole again — interior connectivity is judged
    # against the repaired structure, so the coarsest (all-nodes) cluster
    # never splits and the fallback bound stays meaningful.  Reconnection
    # edges may additionally let the maintainer fuse clusters back together.
    if maintainer is not None:
        splice = maintainer.note_removals(removed_from_sparsifier,
                                          similarity_filter=similarity_filter)
        result.spliced_clusters = len(splice.spliced)
        result.split_fragments = splice.splits
        if result.reconnection_edges:
            result.hierarchy_merges += maintainer.note_insertions(
                result.reconnection_edges, similarity_filter=similarity_filter)

    # Step 3: local quality repair around the removed edges — the best
    # off-sparsifier graph edges incident to the endpoints, ranked by the LRD
    # distortion estimate.  Only spectrally *unique* candidates (no existing
    # connection at the filtering level) are admitted: repair candidates are
    # existing graph edges, not new conductance, so folding their weight onto
    # other sparsifier edges would double-count weight the graph does not
    # have and degrade κ from the λ_min side.
    repair_cap = REPAIR_EDGES_PER_REMOVAL * len(removed_from_sparsifier)
    if repair_cap > 0:
        endpoints = sorted({node for u, v, _ in removed_from_sparsifier for node in (u, v)})
        candidates = _offtree_candidates(graph, sparsifier, endpoints)
        if candidates:
            ranked = _rank_candidates(similarity_filter.hierarchy, candidates,
                                      relative_threshold=config.distortion_threshold)
            for p, q, weight in ranked:
                if len(result.repair_edges) >= repair_cap:
                    break
                if similarity_filter.connects_clusters(p, q):
                    result.repair_skipped += 1
                    continue
                sparsifier.add_edge(p, q, weight, merge="add")
                similarity_filter.notify_edge_added(p, q)
                result.repair_edges.append((p, q, weight))
        if maintainer is not None and result.repair_edges:
            result.hierarchy_merges += maintainer.note_insertions(
                result.repair_edges, similarity_filter=similarity_filter)


#: κ guard: most rounds per pass, and edges admitted in round 0 (round ``r``
#: admits ``KAPPA_GUARD_BATCH * 2**r``).
KAPPA_GUARD_MAX_ROUNDS = 6
KAPPA_GUARD_BATCH = 8


def run_kappa_guard(sparsifier: Graph, *, graph: Graph, config: InGrassConfig,
                    target_condition_number: float,
                    similarity_filter: SimilarityFilter,
                    maintainer: Optional[HierarchyMaintainer],
                    context: Optional[SpectralContext] = None) -> KappaGuardReport:
    """Escalating quality guard for the deletion path.

    Measures κ(G, H) and, while it exceeds ``kappa_guard_factor * target``,
    admits off-sparsifier graph edges in rounds of :data:`KAPPA_GUARD_BATCH`
    (pure additions — candidate edges exist in the graph, so no weight is
    ever duplicated).  Candidates are ranked by the dominant generalized
    eigenvector ``x`` of the pencil ``(L_G, L_H)``: by first-order
    perturbation the score ``w · (x_p - x_q)²`` measures exactly how much an
    edge relieves the mode the sparsifier supports worst, which makes the
    guard surgical where the (post-removal, inflated) LRD estimates are only
    upper bounds.  Intended to run after a full update batch so it sees the
    combined effect of deletions and insertions; the
    :class:`~repro.core.incremental.InGrassSparsifier` driver does exactly
    that.  This trades one extreme-eigenpair solve per round for a hard
    quality bound — use it when the workload needs the guarantee, skip it to
    stay strictly ``O(log N)`` per event.

    When a ``maintainer`` is active (``hierarchy_mode="maintain"``), the
    guard is *maintenance-aware*: the splice reports accumulated since the
    last guard pass mark exactly the clusters whose interior just lost
    sparsifier support, so the first round restricts its candidate pool to
    off-sparsifier edges incident to those split neighbourhoods.  Only when
    the local pool is empty — or a later round shows the local additions did
    not relieve κ — does the guard widen to the full off-sparsifier pool.

    All estimates of a pass share one
    :class:`~repro.spectral.condition.SpectralContext`: ``L_G`` is factored
    once per pass, ``L_H`` once per round, and the candidates are ranked by
    the eigenvector the κ estimate already computed.  Pass the driver's
    ``context`` to warm-start each pass from the previous one; the pass
    releases the context's factorisations when it ends.
    """
    # Looked up at call time, so wrappers installed on the module apply.
    from repro.spectral.condition import dominant_generalized_eigenvector, relative_condition_number

    if config.kappa_guard_factor is None:
        raise ValueError("run_kappa_guard requires config.kappa_guard_factor to be set")
    timer = Timer().start()
    bound = config.kappa_guard_factor * target_condition_number
    context = context if context is not None else SpectralContext()
    kappa = relative_condition_number(graph, sparsifier, context=context,
                                      dense_limit=config.kappa_guard_dense_limit)
    report = KappaGuardReport(bound=bound, kappa_before=kappa, kappa_after=kappa)
    # Maintenance-aware candidate seeding: the maintainer's splice reports
    # name the nodes whose clusters were just split, so round 0 searches the
    # off-sparsifier edges incident to that neighbourhood before paying for
    # the global pool.  Drained exactly once per guard pass, whether or not
    # the guard ends up admitting anything.
    splice_nodes = (maintainer.drain_splice_neighbourhood()
                    if maintainer is not None else np.zeros(0, dtype=np.int64))
    while report.kappa_after > bound and report.rounds < KAPPA_GUARD_MAX_ROUNDS:
        local_pool = None
        if report.rounds == 0 and splice_nodes.size:
            local_pool = _offtree_candidates(graph, sparsifier, splice_nodes.tolist())
        pool = local_pool or [(u, v, w) for u, v, w in graph.weighted_edges()
                              if not sparsifier.has_edge(u, v)]
        if not pool:
            break
        _, mode = dominant_generalized_eigenvector(graph, sparsifier, context=context,
                                                   dense_limit=config.kappa_guard_dense_limit)

        def score_pool(candidates):
            ps = np.fromiter((u for u, _, _ in candidates), dtype=np.int64, count=len(candidates))
            qs = np.fromiter((v for _, v, _ in candidates), dtype=np.int64, count=len(candidates))
            ws = np.fromiter((w for _, _, w in candidates), dtype=float, count=len(candidates))
            return ws * (mode[ps] - mode[qs]) ** 2

        scores = score_pool(pool)
        if local_pool and float(scores.max()) <= 1e-12:
            # The split neighbourhood does not touch the violating mode at
            # all (the κ breach originates elsewhere) — fall straight back
            # to the global pool rather than burning round 0 on dead edges.
            pool = [(u, v, w) for u, v, w in graph.weighted_edges()
                    if not sparsifier.has_edge(u, v)]
            if not pool:
                break
            scores = score_pool(pool)
        # Escalate geometrically: a later round means the previous additions
        # did not relieve the bottleneck, so widen the net.
        budget = min(KAPPA_GUARD_BATCH * (2 ** report.rounds), len(pool))
        order = np.argsort(scores)[::-1][:budget]
        admitted = 0
        round_edges: List[WeightedEdge] = []
        for index in order:
            u, v, w = pool[int(index)]
            sparsifier.add_edge(u, v, w, merge="add")
            similarity_filter.notify_edge_added(u, v)
            report.added_edges.append((u, v, w))
            round_edges.append((u, v, w))
            admitted += 1
        if maintainer is not None and round_edges:
            maintainer.note_insertions(round_edges, similarity_filter=similarity_filter)
        if admitted == 0:
            break
        report.rounds += 1
        report.kappa_after = relative_condition_number(graph, sparsifier, context=context,
                                                       dense_limit=config.kappa_guard_dense_limit)
    # G changes before the next pass and H already has: only the warm-start
    # vectors outlive the pass.
    context.release()
    timer.stop()
    report.guard_seconds = timer.elapsed
    return report
