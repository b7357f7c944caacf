"""Spectral similarity filtering of new edges (Section III-C-2 of the paper).

Once the new edges are ranked by spectral distortion, inGRASS decides for each
one — in ``O(log N)`` using the filtering level ``L`` of the LRD hierarchy —
whether it is *spectrally unique* enough to enter the sparsifier:

* if the two endpoints fall in **the same level-``L`` cluster**, the edge is
  discarded and its weight is distributed proportionally over the sparsifier
  edges inside that cluster (the cluster already provides a low-resistance
  path, so the new edge mostly duplicates it);
* if **another sparsifier edge already connects the two clusters**, the edge
  is discarded and its weight added onto that existing inter-cluster edge;
* otherwise the edge is **added** to the sparsifier and the cluster
  connectivity map is updated so later edges in the same stream see it.

The cluster-pair connectivity map is the operational face of the paper's
"multilevel sparse data structure": one hash map per filtering level, keyed by
cluster pairs, valued with the sparsifier edges realising that connection.
Keeping *all* realising edges (rather than one representative) lets the fully
dynamic update path invalidate the map in ``O(1)`` when a sparsifier edge is
deleted — see :meth:`SimilarityFilter.notify_edge_removed`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.distortion import DistortionBatch, DistortionEstimate
from repro.core.hierarchy import ClusterHierarchy
from repro.graphs.graph import Graph, canonical_edge

WeightedEdge = Tuple[int, int, float]
ClusterPair = Tuple[int, int]


class FilterAction(Enum):
    """What the similarity filter decided to do with a new edge."""

    ADDED = "added"
    MERGED_INTO_EXISTING = "merged_into_existing"
    REDISTRIBUTED_INTRA_CLUSTER = "redistributed_intra_cluster"
    DROPPED_LOW_DISTORTION = "dropped_low_distortion"


@dataclass
class FilterDecision:
    """Record of the filter's decision for one streamed edge."""

    edge: WeightedEdge
    action: FilterAction
    distortion: float
    target_edge: Optional[Tuple[int, int]] = None  # for merges: the edge that absorbed the weight
    cluster_pair: Optional[ClusterPair] = None


@dataclass
class FilterSummary:
    """Aggregate counts of one filtering pass."""

    added: int = 0
    merged: int = 0
    redistributed: int = 0
    dropped: int = 0

    @property
    def total(self) -> int:
        return self.added + self.merged + self.redistributed + self.dropped


#: Action codes of the group-resolved batch path (index into this list).
_CODE_TO_ACTION = [
    FilterAction.ADDED,
    FilterAction.MERGED_INTO_EXISTING,
    FilterAction.REDISTRIBUTED_INTRA_CLUSTER,
]
_ADDED, _MERGED, _REDISTRIBUTED = range(3)


class SimilarityFilter:
    """Stateful edge filter bound to a sparsifier and a filtering level.

    Parameters
    ----------
    sparsifier:
        The sparsifier ``H`` being maintained; mutated in place by
        :meth:`apply`.
    hierarchy:
        LRD hierarchy from the setup phase.
    filtering_level:
        Level ``L`` whose clusters define "spectral similarity".
    redistribute_intra_cluster_weight:
        When ``True`` (paper behaviour) the weight of an intra-cluster edge is
        spread proportionally over the sparsifier edges inside the cluster;
        when ``False`` the edge is simply dropped.
    """

    def __init__(self, sparsifier: Graph, hierarchy: ClusterHierarchy, filtering_level: int,
                 *, redistribute_intra_cluster_weight: bool = True) -> None:
        if filtering_level < 0 or filtering_level >= hierarchy.num_levels:
            raise ValueError(
                f"filtering_level {filtering_level} out of range for a hierarchy with "
                f"{hierarchy.num_levels} levels"
            )
        self._sparsifier = sparsifier
        self._hierarchy = hierarchy
        self._level_index = filtering_level
        self._redistribute = redistribute_intra_cluster_weight
        # Label-version checkpoint: the maintenance layer re-keys this map in
        # place and marks it synced; any out-of-band relabel of the filtering
        # level shows up as a version mismatch and triggers one rebuild.
        self._synced_labels_version = hierarchy.level_labels_version(filtering_level)
        # Cluster pair -> ordered set of sparsifier edges realising the
        # connection (dict used as an ordered set for O(1) add/discard).
        self._connectivity: Dict[ClusterPair, Dict[Tuple[int, int], None]] = {}
        self._intra_cluster_edges: Dict[int, Dict[Tuple[int, int], None]] = defaultdict(dict)
        self._rebuild_connectivity()

    # ------------------------------------------------------------------ #
    @property
    def _labels(self) -> np.ndarray:
        """The live label array of the filtering level — never cached.

        Read through the hierarchy on every access: an epoch-snapshot export
        followed by a mutation detaches the hierarchy onto fresh buffers
        (copy-on-write), re-pointing ``level.labels`` at a new array.  A
        reference cached at construction would keep reading the detached
        (frozen) buffer and silently miss every subsequent relabel.
        """
        return self._hierarchy.level(self._level_index).labels

    @property
    def filtering_level(self) -> int:
        """The level ``L`` used for similarity decisions."""
        return self._level_index

    @property
    def sparsifier(self) -> Graph:
        """The sparsifier being maintained."""
        return self._sparsifier

    def state_summary(self) -> dict:
        """Plain-dict summary of the filter's live state (for snapshots).

        The returned dict is detached from the filter (safe to hold across
        writer mutations) and cheap to build: counts only, no edge copies.
        """
        return {
            "filtering_level": self._level_index,
            "cluster_pairs": len(self._connectivity),
            "intra_cluster_buckets": len(self._intra_cluster_edges),
            "registered_edges": (sum(len(b) for b in self._connectivity.values())
                                 + sum(len(b) for b in self._intra_cluster_edges.values())),
            "synced_labels_version": self._synced_labels_version,
        }

    def _cluster_pair(self, p: int, q: int) -> ClusterPair:
        cp, cq = int(self._labels[p]), int(self._labels[q])
        return (cp, cq) if cp <= cq else (cq, cp)

    def _rebuild_connectivity(self) -> None:
        """Scan the sparsifier once and index its edges by cluster pair."""
        self._connectivity.clear()
        self._intra_cluster_edges.clear()
        us, vs, _weights = self._sparsifier.edge_arrays()
        self._register_pairs(us, vs)

    def _register_edge(self, u: int, v: int) -> None:
        """Index one sparsifier edge in the connectivity map."""
        key = canonical_edge(u, v)
        pair = self._cluster_pair(u, v)
        if pair[0] == pair[1]:
            self._intra_cluster_edges[pair[0]][key] = None
        else:
            self._connectivity.setdefault(pair, {})[key] = None

    def _unregister_edge(self, u: int, v: int) -> None:
        """Drop one sparsifier edge from the connectivity map (no-op if absent)."""
        key = canonical_edge(u, v)
        pair = self._cluster_pair(u, v)
        if pair[0] == pair[1]:
            bucket = self._intra_cluster_edges.get(pair[0])
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del self._intra_cluster_edges[pair[0]]
        else:
            bucket = self._connectivity.get(pair)
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del self._connectivity[pair]

    def _representative(self, pair: ClusterPair) -> Optional[Tuple[int, int]]:
        """Return the canonical sparsifier edge realising ``pair`` (or ``None``).

        The smallest edge key of the bucket, *not* an iteration-order pick:
        bucket insertion order is history (it differs between a filter that
        evolved in place and one rebuilt from a sparsifier scan, e.g. after a
        checkpoint restore), and the representative decides where merged
        weight lands — so it must be a pure function of the bucket's
        *content*.
        """
        bucket = self._connectivity.get(pair)
        if not bucket:
            return None
        return min(bucket)

    # ------------------------------------------------------------------ #
    # Invalidation hooks for the fully dynamic update path
    # ------------------------------------------------------------------ #
    def notify_edge_added(self, u: int, v: int) -> None:
        """Keep the connectivity map in sync with an out-of-band edge insertion.

        The repair step of :func:`repro.core.update.run_removal` adds
        replacement edges directly to the sparsifier (connectivity repair must
        happen regardless of spectral similarity); this hook registers them so
        later filtering decisions see the connection.
        """
        self._register_edge(u, v)

    def notify_edge_removed(self, u: int, v: int) -> None:
        """Keep the connectivity map in sync with a sparsifier edge deletion.

        ``O(1)``: the edge is discarded from its cluster-pair bucket; when the
        bucket empties the cluster pair is genuinely disconnected at this
        level and future streamed edges between those clusters will be ADDED
        again rather than merged into a stale representative.
        """
        self._unregister_edge(u, v)

    def reassign_weight(self, u: int, v: int, weight: float) -> bool:
        """Fold ``weight`` onto surviving support of ``(u, v)``'s cluster pair.

        Used by the deletion path when a removed sparsifier edge carried more
        weight than its physical counterpart (earlier MERGED/REDISTRIBUTED
        decisions parked other edges' conductance on it): the excess belongs
        to edges that still exist in the graph, so it is re-homed onto the
        surviving representative of the same cluster pair (or spread inside
        the cluster for intra-cluster pairs).  Returns ``False`` when no
        surviving support exists — the caller decides what to do then.

        Call *after* :meth:`notify_edge_removed` so the removed edge itself
        can never absorb the weight.
        """
        pair = self._cluster_pair(u, v)
        if pair[0] == pair[1]:
            if self._redistribute and self._intra_cluster_edges.get(pair[0]):
                self._redistribute_weight(pair[0], weight)
                return True
            return False
        representative = self._representative(pair)
        if representative is None:
            return False
        self._sparsifier.increase_weight(representative[0], representative[1], weight)
        return True

    def connects_clusters(self, p: int, q: int) -> bool:
        """Return ``True`` when a sparsifier edge already joins the clusters of p and q."""
        pair = self._cluster_pair(p, q)
        if pair[0] == pair[1]:
            return True
        return bool(self._connectivity.get(pair))

    # ------------------------------------------------------------------ #
    # Cluster-rename protocol for the hierarchy maintenance layer
    # ------------------------------------------------------------------ #
    def incident_edge_arrays(self, nodes) -> Tuple[np.ndarray, np.ndarray]:
        """Canonical ``(u, v)`` arrays of every sparsifier edge touching ``nodes``.

        Gathered from the sparsifier's cached CSR view in one shot —
        deduplicated and sorted by canonical key.  Cost is proportional to
        the degree sum of ``nodes``, with no per-node adjacency-dict copies.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        if nodes.size == 0:
            return empty, empty
        csr = self._sparsifier.csr_view()
        starts = csr.indptr[nodes]
        counts = csr.indptr[nodes + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return empty, empty
        ends = np.cumsum(counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
        cols = csr.indices[np.repeat(starts, counts) + offsets].astype(np.int64, copy=False)
        rows = np.repeat(nodes, counts)
        lo = np.minimum(rows, cols)
        hi = np.maximum(rows, cols)
        keys = (lo << np.int64(32)) | hi
        _, first = np.unique(keys, return_index=True)
        return lo[first], hi[first]

    def _register_pairs(self, us: np.ndarray, vs: np.ndarray) -> None:
        """Bulk :meth:`_register_edge` over canonical endpoint arrays.

        Cluster labels are gathered with one vectorised lookup; the bucket
        dict updates themselves replay the scalar path, so bucket *contents*
        are identical to per-edge registration (insertion order within a
        bucket is not part of the filter's contract — representatives and
        redistribution are content-canonical).
        """
        if us.size == 0:
            return
        labels = self._labels
        cluster_us = labels[us]
        cluster_vs = labels[vs]
        pair_los = np.minimum(cluster_us, cluster_vs).tolist()
        pair_his = np.maximum(cluster_us, cluster_vs).tolist()
        connectivity = self._connectivity
        intra = self._intra_cluster_edges
        for u, v, p, q in zip(us.tolist(), vs.tolist(), pair_los, pair_his):
            if p == q:
                intra[p][(u, v)] = None
            else:
                connectivity.setdefault((p, q), {})[(u, v)] = None

    def _unregister_pairs(self, us: np.ndarray, vs: np.ndarray) -> None:
        """Bulk :meth:`_unregister_edge` over canonical endpoint arrays."""
        if us.size == 0:
            return
        labels = self._labels
        cluster_us = labels[us]
        cluster_vs = labels[vs]
        pair_los = np.minimum(cluster_us, cluster_vs).tolist()
        pair_his = np.maximum(cluster_us, cluster_vs).tolist()
        connectivity = self._connectivity
        intra = self._intra_cluster_edges
        for u, v, p, q in zip(us.tolist(), vs.tolist(), pair_los, pair_his):
            if p == q:
                bucket = intra.get(p)
                if bucket is not None:
                    bucket.pop((u, v), None)
                    if not bucket:
                        del intra[p]
            else:
                bucket = connectivity.get((p, q))
                if bucket is not None:
                    bucket.pop((u, v), None)
                    if not bucket:
                        del connectivity[(p, q)]

    def unregister_incident_edges(self, nodes) -> List[Tuple[int, int]]:
        """Pop every sparsifier edge incident to ``nodes`` from the map.

        First half of the splice/merge re-keying protocol: the maintenance
        layer calls this *before* relabelling ``nodes`` at the filtering
        level (the current labels are needed to find the stale buckets),
        mutates the hierarchy, then hands the returned edges back to
        :meth:`register_edges`.  Cost is proportional to the degree sum of
        ``nodes`` — the local neighbourhood, not the sparsifier.
        """
        us, vs = self.incident_edge_arrays(nodes)
        self._unregister_pairs(us, vs)
        return list(zip(us.tolist(), vs.tolist()))

    def register_edges(self, edges: Sequence[Tuple[int, int]]) -> None:
        """Re-index edges under the (re-labelled) current clusters.

        Second half of the re-keying protocol; see
        :meth:`unregister_incident_edges`.
        """
        if not len(edges):
            return
        pairs = np.asarray(edges, dtype=np.int64)
        us = np.minimum(pairs[:, 0], pairs[:, 1])
        vs = np.maximum(pairs[:, 0], pairs[:, 1])
        self._register_pairs(us, vs)

    def mark_synced(self) -> None:
        """Record that the map reflects the hierarchy's current labels."""
        self._synced_labels_version = self._hierarchy.level_labels_version(self._level_index)

    def in_sync_with_hierarchy(self) -> bool:
        """``False`` when the filtering level was relabelled behind our back."""
        return self._synced_labels_version == self._hierarchy.level_labels_version(self._level_index)

    def resync(self) -> None:
        """Rebuild the cluster-pair map from scratch if (and only if) stale."""
        if not self.in_sync_with_hierarchy():
            self._rebuild_connectivity()
            self.mark_synced()

    # ------------------------------------------------------------------ #
    def _redistribute_weight(self, cluster: int, weight: float) -> None:
        """Spread ``weight`` proportionally over the sparsifier edges inside ``cluster``.

        A no-op when the cluster offers no positive-weight support.  The
        edges are sorted canonically: the proportional split divides by the
        float *sum* of the current weights, whose rounding depends on
        summation order, so the arithmetic must not see bucket insertion
        order (which differs between an evolved filter and one rebuilt from
        a scan).  Applied through
        :meth:`~repro.graphs.graph.Graph.increase_weights`, which adds the
        same per-edge deltas in the same order as a scalar
        ``increase_weight`` loop (bit-identical floats) while validating the
        batch once and invalidating the cached views once.
        """
        edges = sorted(self._intra_cluster_edges.get(cluster, {}))
        if not edges:
            return
        # Keys in the bucket are canonical, so the weights can be gathered
        # straight from the edge map (same floats as ``Graph.weight``,
        # without its per-call canonicalisation/validation overhead).
        edge_map = self._sparsifier._edges
        current_weights = np.fromiter((edge_map[edge] for edge in edges),
                                      dtype=float, count=len(edges))
        total = current_weights.sum()
        if total <= 0:
            return
        self._sparsifier.increase_weights(
            edges, np.maximum(weight * (current_weights / total), 1e-300))

    def _apply_single(self, estimate: DistortionEstimate) -> FilterDecision:
        p, q, weight = estimate.edge
        pair = self._cluster_pair(p, q)
        if pair[0] == pair[1]:
            # Both endpoints already live in one low-resistance cluster.
            if self._sparsifier.has_edge(p, q):
                # The sparsifier already carries this exact edge; treat the new
                # weight as a parallel conductor.
                self._sparsifier.increase_weight(p, q, weight)
                return FilterDecision(estimate.edge, FilterAction.MERGED_INTO_EXISTING,
                                      estimate.distortion, target_edge=(p, q), cluster_pair=pair)
            if self._redistribute:
                self._redistribute_weight(pair[0], weight)
            return FilterDecision(estimate.edge, FilterAction.REDISTRIBUTED_INTRA_CLUSTER,
                                  estimate.distortion, cluster_pair=pair)
        existing = self._representative(pair)
        if existing is not None:
            u, v = existing
            self._sparsifier.increase_weight(u, v, weight)
            return FilterDecision(estimate.edge, FilterAction.MERGED_INTO_EXISTING,
                                  estimate.distortion, target_edge=existing, cluster_pair=pair)
        # Spectrally unique edge: admit it and register the new cluster connection.
        self._sparsifier.add_edge(p, q, weight, merge="add")
        self._register_edge(p, q)
        return FilterDecision(estimate.edge, FilterAction.ADDED, estimate.distortion, cluster_pair=pair)

    def apply(self, estimates: Sequence[DistortionEstimate],
              *, max_additions: Optional[int] = None) -> Tuple[List[FilterDecision], FilterSummary]:
        """Filter a distortion-sorted batch of edges, mutating the sparsifier.

        Parameters
        ----------
        estimates:
            Candidate edges with distortion estimates, most distorting first
            (callers sort via :func:`repro.core.distortion.sort_by_distortion`).
        max_additions:
            Optional cap on how many edges may be added in this pass; once
            reached, remaining inter-cluster candidates are merged into their
            cluster-pair representative instead of being added.
        """
        decisions: List[FilterDecision] = []
        summary = FilterSummary()
        for estimate in estimates:
            if max_additions is not None and summary.added >= max_additions:
                p, q, weight = estimate.edge
                pair = self._cluster_pair(p, q)
                existing = self._representative(pair)
                if pair[0] != pair[1] and existing is not None:
                    u, v = existing
                    self._sparsifier.increase_weight(u, v, weight)
                    decision = FilterDecision(estimate.edge, FilterAction.MERGED_INTO_EXISTING,
                                              estimate.distortion, target_edge=existing, cluster_pair=pair)
                elif pair[0] == pair[1]:
                    if self._redistribute:
                        self._redistribute_weight(pair[0], weight)
                    decision = FilterDecision(estimate.edge, FilterAction.REDISTRIBUTED_INTRA_CLUSTER,
                                              estimate.distortion, cluster_pair=pair)
                else:
                    decision = FilterDecision(estimate.edge, FilterAction.DROPPED_LOW_DISTORTION,
                                              estimate.distortion, cluster_pair=pair)
            else:
                decision = self._apply_single(estimate)
            decisions.append(decision)
            if decision.action is FilterAction.ADDED:
                summary.added += 1
            elif decision.action is FilterAction.MERGED_INTO_EXISTING:
                summary.merged += 1
            elif decision.action is FilterAction.REDISTRIBUTED_INTRA_CLUSTER:
                summary.redistributed += 1
            else:
                summary.dropped += 1
        return decisions, summary

    def apply_batch(self, batch: DistortionBatch, *, max_additions: Optional[int] = None,
                    ) -> Tuple[List[FilterDecision], FilterSummary]:
        """Vectorised :meth:`apply`: resolve a distortion-sorted batch by cluster group.

        Produces exactly the same decisions and sparsifier *edge set* as
        feeding the batch through :meth:`apply` edge by edge; weight
        mutations are aggregated per target edge / per cluster (differing
        from the scalar path only in floating-point association), except for
        clusters that receive both merge and redistribution traffic in one
        batch, whose operations are replayed in stream order so even the
        weights stay bit-identical there.

        The mechanism: the cluster labels of every endpoint are gathered in
        one shot, edges sharing a cluster pair form a group, and each group
        is resolved once — the first edge of a previously unconnected
        inter-cluster group is ADDED, everything else merges into its group's
        representative or redistributes inside its cluster.

        Without an additions cap the batch is resolved *per cluster-pair
        group* rather than per edge: unique cluster pairs are far fewer than
        streamed edges on paper-scale streams (10⁵ edges typically collapse
        onto ~10⁴ pairs), so the remaining Python loop runs once per group
        while the per-edge work — labels, grouping, decision records,
        aggregated merge weights — stays in numpy.  With ``max_additions``
        the decision of each edge depends on how many additions preceded it,
        so the streamed per-edge loop is kept for that case.
        """
        m = len(batch)
        if m == 0:
            return [], FilterSummary()
        if max_additions is None:
            return self._apply_batch_grouped(batch)
        return self._apply_batch_streamed(batch, max_additions)

    def _apply_batch_grouped(self, batch: DistortionBatch,
                             ) -> Tuple[List[FilterDecision], FilterSummary]:
        """Group-resolved :meth:`apply_batch` for the uncapped case.

        Produces decisions, sparsifier edge set *and weights* identical to
        the streamed loop: ADDED edges are inserted in stream order (so the
        sparsifier's edge-dict order — and therefore any later connectivity
        rebuild — matches), aggregated merge weights accumulate per target in
        stream order, and intra-cluster operations keep the streamed loop's
        dirty-cluster replay.
        """
        m = len(batch)
        summary = FilterSummary()
        sparsifier = self._sparsifier
        labels = np.asarray(self._labels)
        us, vs, ws = batch.us, batch.vs, batch.ws
        cu = labels[us]
        cv = labels[vs]
        lo = np.minimum(cu, cv).astype(np.int64, copy=False)
        hi = np.maximum(cu, cv).astype(np.int64, copy=False)
        inter_idx = np.flatnonzero(lo != hi)
        intra_idx = np.flatnonzero(lo == hi)

        actions = np.empty(m, dtype=np.int8)
        target_us = np.full(m, -1, dtype=np.int64)
        target_vs = np.full(m, -1, dtype=np.int64)

        # ---- inter-cluster edges: one resolution per unique cluster pair.
        merge_pairs: List[Tuple[int, int]] = []
        merge_deltas = np.zeros(0)
        if inter_idx.size:
            keys = (lo[inter_idx] << np.int64(32)) | hi[inter_idx]
            _, first_pos, inverse = np.unique(keys, return_index=True, return_inverse=True)
            num_groups = first_pos.shape[0]
            first_global = inter_idx[first_pos]
            group_tu = np.empty(num_groups, dtype=np.int64)
            group_tv = np.empty(num_groups, dtype=np.int64)
            group_added = np.zeros(num_groups, dtype=bool)
            lo_first = lo[first_global].tolist()
            hi_first = hi[first_global].tolist()
            us_first = us[first_global].tolist()
            vs_first = vs[first_global].tolist()
            ws_first = ws[first_global].tolist()
            connectivity = self._connectivity
            add_unchecked = sparsifier.add_edge_unchecked
            # Visit groups in stream order of their first edge: the streamed
            # loop inserts ADDED edges in exactly that order.
            for g in np.argsort(first_pos, kind="stable").tolist():
                pair = (lo_first[g], hi_first[g])
                bucket = connectivity.get(pair)
                if bucket:
                    # Canonical representative (see _representative): merged
                    # weight must land on a bucket-content-determined edge.
                    tu, tv = min(bucket)
                else:
                    p, q = us_first[g], vs_first[g]
                    tu, tv = (p, q) if p <= q else (q, p)
                    add_unchecked(p, q, ws_first[g])
                    if bucket is None:
                        connectivity[pair] = {(tu, tv): None}
                    else:
                        bucket[(tu, tv)] = None
                    group_added[g] = True
                group_tu[g] = tu
                group_tv[g] = tv
            actions[inter_idx] = _MERGED
            target_us[inter_idx] = group_tu[inverse]
            target_vs[inter_idx] = group_tv[inverse]
            added_first = first_global[group_added]
            actions[added_first] = _ADDED
            target_us[added_first] = -1
            target_vs[added_first] = -1
            # Aggregated merge weights: every inter edge except the ADDED
            # firsts; bincount accumulates in array (= stream) order, so the
            # per-target float sums equal the streamed loop's.
            contrib = np.ones(inter_idx.size, dtype=bool)
            contrib[first_pos[group_added]] = False
            totals = np.bincount(inverse[contrib], weights=ws[inter_idx[contrib]],
                                 minlength=num_groups)
            carriers = np.flatnonzero(totals > 0)
            merge_pairs = list(zip(group_tu[carriers].tolist(), group_tv[carriers].tolist()))
            merge_deltas = totals[carriers]
            summary.added = int(group_added.sum())
            summary.merged = int(inter_idx.size) - summary.added

        # ---- intra-cluster edges: streamed (they are few, and the dirty-
        # cluster replay is inherently order-sensitive).
        intra_ops: List[Tuple[str, int, Optional[Tuple[int, int]], float]] = []
        spread_clusters: set = set()
        merge_clusters: set = set()
        redistribute = self._redistribute
        if intra_idx.size:
            sparsifier_edges = sparsifier._edges  # membership probes only
            for e, p, q, weight, cluster in zip(intra_idx.tolist(), us[intra_idx].tolist(),
                                                vs[intra_idx].tolist(), ws[intra_idx].tolist(),
                                                lo[intra_idx].tolist()):
                key = (p, q) if p <= q else (q, p)
                if key in sparsifier_edges:
                    intra_ops.append(("merge", cluster, key, weight))
                    merge_clusters.add(cluster)
                    actions[e] = _MERGED
                    target_us[e] = p
                    target_vs[e] = q
                    summary.merged += 1
                else:
                    if redistribute:
                        intra_ops.append(("spread", cluster, None, weight))
                        spread_clusters.add(cluster)
                    actions[e] = _REDISTRIBUTED
                    summary.redistributed += 1

        # ---- aggregated mutations, replicating the streamed loop's order:
        # dirty-cluster replay first, then one bulk weight increase, then one
        # redistribution per clean cluster (redistributions scale the member
        # edges proportionally, so spreading w1 then w2 equals spreading
        # w1 + w2 in one shot).
        dirty = merge_clusters & spread_clusters
        merge_totals: Dict[Tuple[int, int], float] = {}
        spread_totals: Dict[int, float] = {}
        for kind, cluster, key, weight in intra_ops:
            if cluster in dirty:
                if kind == "merge":
                    sparsifier.increase_weight(key[0], key[1], weight)
                else:
                    self._redistribute_weight(cluster, weight)
            elif kind == "merge":
                merge_totals[key] = merge_totals.get(key, 0.0) + weight
            else:
                spread_totals[cluster] = spread_totals.get(cluster, 0.0) + weight
        targets = merge_pairs + list(merge_totals.keys())
        if targets:
            deltas = np.concatenate([
                merge_deltas,
                np.fromiter(merge_totals.values(), dtype=float, count=len(merge_totals)),
            ])
            sparsifier.increase_weights(targets, deltas)
        for cluster, weight in spread_totals.items():
            self._redistribute_weight(cluster, weight)

        decisions: List[FilterDecision] = []
        us_l, vs_l, ws_l = us.tolist(), vs.tolist(), ws.tolist()
        lo_l, hi_l = lo.tolist(), hi.tolist()
        distortions_l = batch.distortions.tolist()
        actions_l = actions.tolist()
        tus_l, tvs_l = target_us.tolist(), target_vs.tolist()
        for i in range(m):
            target = None if tus_l[i] < 0 else (tus_l[i], tvs_l[i])
            decisions.append(
                FilterDecision((us_l[i], vs_l[i], ws_l[i]), _CODE_TO_ACTION[actions_l[i]],
                               distortions_l[i], target, (lo_l[i], hi_l[i]))
            )
        return decisions, summary

    def _apply_batch_streamed(self, batch: DistortionBatch, max_additions: Optional[int],
                              ) -> Tuple[List[FilterDecision], FilterSummary]:
        """Per-edge :meth:`apply_batch` loop (the additions-capped path)."""
        decisions: List[FilterDecision] = []
        summary = FilterSummary()

        labels = np.asarray(self._labels)
        cu = labels[batch.us]
        cv = labels[batch.vs]
        lo = np.minimum(cu, cv).tolist()
        hi = np.maximum(cu, cv).tolist()
        us = batch.us.tolist()
        vs = batch.vs.tolist()
        ws = batch.ws.tolist()
        distortions = batch.distortions.tolist()
        sparsifier = self._sparsifier
        sparsifier_edges = sparsifier._edges  # membership probes + in-loop inserts below

        # Per-cluster-pair state, resolved lazily on first encounter.
        pair_reps: Dict[ClusterPair, Optional[Tuple[int, int]]] = {}
        # Aggregated weight increments onto existing/added edges (inter-cluster
        # merges and clean intra-cluster merges — pure additions, no reads).
        merge_totals: Dict[Tuple[int, int], float] = defaultdict(float)
        # Ordered intra-cluster operations; replayed or aggregated after the
        # decision pass depending on whether the cluster is "dirty" (mixes
        # merges and redistributions, making order significant).
        intra_ops: List[Tuple[str, int, Optional[Tuple[int, int]], float]] = []
        spread_clusters: set = set()
        merge_clusters: set = set()

        # Local bindings: this loop runs once per streamed edge and is the
        # only per-edge Python left in the batched engine.
        decision_cls = FilterDecision
        action_added = FilterAction.ADDED
        action_merged = FilterAction.MERGED_INTO_EXISTING
        action_redistributed = FilterAction.REDISTRIBUTED_INTRA_CLUSTER
        action_dropped = FilterAction.DROPPED_LOW_DISTORTION
        redistribute = self._redistribute
        connectivity = self._connectivity
        add_unchecked = sparsifier.add_edge_unchecked
        added = merged = redistributed = dropped = 0
        append_decision = decisions.append
        append_intra = intra_ops.append
        reps_get = pair_reps.get
        missing = object()  # sentinel: pair not seen yet (None = "seen, no rep")
        no_cap = max_additions is None

        for p, q, weight, cluster_lo, cluster_hi, distortion in zip(us, vs, ws, lo, hi,
                                                                     distortions):
            target_edge = None
            if cluster_lo == cluster_hi:
                capped = not (no_cap or added < max_additions)
                key = (p, q) if p <= q else (q, p)
                if not capped and key in sparsifier_edges:
                    # Parallel conductor of an edge the sparsifier carries.
                    append_intra(("merge", cluster_lo, key, weight))
                    merge_clusters.add(cluster_lo)
                    action = action_merged
                    target_edge = (p, q)
                    merged += 1
                else:
                    if redistribute:
                        append_intra(("spread", cluster_lo, None, weight))
                        spread_clusters.add(cluster_lo)
                    action = action_redistributed
                    redistributed += 1
            else:
                pair = (cluster_lo, cluster_hi)
                representative = reps_get(pair, missing)
                if representative is missing:
                    representative = self._representative(pair)
                    pair_reps[pair] = representative
                if representative is not None:
                    merge_totals[representative] += weight
                    action = action_merged
                    target_edge = representative
                    merged += 1
                elif not (no_cap or added < max_additions):
                    action = action_dropped
                    dropped += 1
                else:
                    # Spectrally unique: admit and make the connection visible
                    # to the rest of the batch (inline _register_edge — the
                    # cluster pair is already in hand).
                    key = (p, q) if p <= q else (q, p)
                    add_unchecked(p, q, weight)
                    bucket = connectivity.get(pair)
                    if bucket is None:
                        connectivity[pair] = {key: None}
                    else:
                        bucket[key] = None
                    pair_reps[pair] = key
                    action = action_added
                    added += 1
            append_decision(decision_cls((p, q, weight), action, distortion,
                                         target_edge, (cluster_lo, cluster_hi)))
        summary.added = added
        summary.merged = merged
        summary.redistributed = redistributed
        summary.dropped = dropped

        # Apply the aggregated mutations.  Inter-cluster merge targets are
        # disjoint from intra-cluster redistribution targets, so their order
        # does not matter; intra ops in clusters mixing merges and
        # redistributions are replayed in stream order for exactness.
        dirty = merge_clusters & spread_clusters
        spread_totals: Dict[int, float] = {}
        for kind, cluster, key, weight in intra_ops:
            if cluster in dirty:
                if kind == "merge":
                    self._sparsifier.increase_weight(key[0], key[1], weight)
                else:
                    self._redistribute_weight(cluster, weight)
            elif kind == "merge":
                merge_totals[key] = merge_totals.get(key, 0.0) + weight
            else:
                spread_totals[cluster] = spread_totals.get(cluster, 0.0) + weight
        if merge_totals:
            targets = list(merge_totals.keys())
            self._sparsifier.increase_weights(targets, np.fromiter(merge_totals.values(), dtype=float,
                                                                   count=len(targets)))
        for cluster, weight in spread_totals.items():
            self._redistribute_weight(cluster, weight)
        return decisions, summary
