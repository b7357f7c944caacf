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
dynamic update path invalidate the map in ``O(1)`` per deleted sparsifier
edge — see :meth:`SimilarityFilter.drop_edges`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.distortion import DistortionBatch
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
        :meth:`apply_batch`.
    hierarchy:
        LRD hierarchy from the setup phase.
    filtering_level:
        Level ``L`` whose clusters define "spectral similarity".
    """

    def __init__(self, sparsifier: Graph, hierarchy: ClusterHierarchy, filtering_level: int) -> None:
        if filtering_level < 0 or filtering_level >= hierarchy.num_levels:
            raise ValueError(
                f"filtering_level {filtering_level} out of range for a hierarchy with "
                f"{hierarchy.num_levels} levels"
            )
        self._sparsifier = sparsifier
        self._hierarchy = hierarchy
        self._level_index = filtering_level
        # The filtering level's labels: a live view of the hierarchy's
        # embedding column, which maintenance relabels in place.
        self._labels = hierarchy.level(filtering_level).labels
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
    def filtering_level(self) -> int:
        """The level ``L`` used for similarity decisions."""
        return self._level_index

    @property
    def sparsifier(self) -> Graph:
        """The sparsifier being maintained."""
        return self._sparsifier

    @property
    def hierarchy(self) -> ClusterHierarchy:
        """The LRD hierarchy whose filtering-level labels key the map."""
        return self._hierarchy

    def state_summary(self) -> dict:
        """Plain-dict summary of the filter's live state (for snapshots).

        The returned dict is detached from the filter (safe to hold across
        writer mutations) and cheap to build: counts only, no edge copies.
        """
        return {
            "filtering_level": self._level_index,
            "cluster_pairs": len(self._connectivity),
            "intra_cluster_buckets": len(self._intra_cluster_edges),
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

    def _discard(self, key: Tuple[int, int], p: int, q: int) -> None:
        """Drop canonical edge ``key`` from the bucket of cluster pair ``(p, q)``
        (no-op if absent; an emptied bucket is deleted)."""
        if p == q:
            bucket = self._intra_cluster_edges.get(p)
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del self._intra_cluster_edges[p]
        else:
            bucket = self._connectivity.get((p, q))
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del self._connectivity[(p, q)]

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

    def reassign_weight(self, u: int, v: int, weight: float) -> bool:
        """Fold ``weight`` onto the sparsifier support of ``(u, v)``'s cluster pair.

        The weight lands on the pair's representative edge, or is spread
        inside the cluster for an intra-cluster pair: the route a
        MERGED/REDISTRIBUTED decision takes.  The driver's weight-change path
        uses it when the reinforced graph edge is not in the sparsifier (an
        earlier merge or redistribution absorbed it); :meth:`drop_edges`
        re-homes a removed edge's excess the same way.  Returns ``False``
        when the pair has no support — the caller decides what to do then.
        """
        return self._rehome(self._cluster_pair(u, v), weight)

    def _rehome(self, pair: ClusterPair, weight: float) -> bool:
        """:meth:`reassign_weight` for a known cluster pair."""
        if pair[0] == pair[1]:
            if self._intra_cluster_edges.get(pair[0]):
                self._redistribute_weight(pair[0], weight)
                return True
            return False
        representative = self._representative(pair)
        if representative is None:
            return False
        self._sparsifier.increase_weight(representative[0], representative[1], weight)
        return True

    def drop_edges(self, keys: Sequence[Tuple[int, int]],
                   physical_weights: Sequence[Optional[float]],
                   ) -> Tuple[List[WeightedEdge], float, float]:
        """Remove canonical edges from the sparsifier and the map, re-homing excess.

        For every key the sparsifier carries, in key order: the edge leaves
        the sparsifier and its cluster-pair bucket (``O(1)``; when the bucket
        empties the cluster pair is genuinely disconnected at this level, and
        later streamed edges between those clusters are ADDED again rather
        than merged into a stale representative), and when it carried more
        than its ``physical_weights`` entry (conductance earlier merge or
        redistribute decisions parked on it) the excess is re-homed as by
        :meth:`reassign_weight`.  The loop stays sequential — re-homing edge
        ``i``'s excess may pick a representative that a later key removes.
        A ``None`` physical weight re-homes nothing.

        Returns the removed ``(u, v, carried weight)`` triples in key order,
        the re-homed excess and the excess no surviving support could take.
        """
        removed: List[WeightedEdge] = []
        reassigned = 0.0
        discarded = 0.0
        if not keys:
            return removed, reassigned, discarded
        us = np.fromiter((u for u, _ in keys), dtype=np.int64, count=len(keys))
        vs = np.fromiter((v for _, v in keys), dtype=np.int64, count=len(keys))
        # Dropping edges relabels nothing: one gather serves the whole batch.
        cluster_us = self._labels[us]
        cluster_vs = self._labels[vs]
        ps = np.minimum(cluster_us, cluster_vs).tolist()
        qs = np.maximum(cluster_us, cluster_vs).tolist()
        pop_edge = self._sparsifier.pop_edge
        for key, p, q, physical in zip(keys, ps, qs, physical_weights):
            weight = pop_edge(key[0], key[1])
            if weight is None:
                continue
            self._discard(key, p, q)
            removed.append((key[0], key[1], weight))
            if physical is not None and weight > physical:
                excess = weight - physical
                if self._rehome((p, q), excess):
                    reassigned += excess
                else:
                    discarded += excess
        return removed, reassigned, discarded

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
        """Drop sparsifier edges, given as canonical endpoint arrays, from the map."""
        if us.size == 0:
            return
        labels = self._labels
        cluster_us = labels[us]
        cluster_vs = labels[vs]
        pair_los = np.minimum(cluster_us, cluster_vs).tolist()
        pair_his = np.maximum(cluster_us, cluster_vs).tolist()
        discard = self._discard
        for u, v, p, q in zip(us.tolist(), vs.tolist(), pair_los, pair_his):
            discard((u, v), p, q)

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
        # Keys in the bucket are canonical, so the weights are one gather.
        current_weights = self._sparsifier.edge_weights(edges)
        total = current_weights.sum()
        if total <= 0:
            return
        self._sparsifier.increase_weights(
            edges, np.maximum(weight * (current_weights / total), 1e-300))

    def _apply_single(self, edge: WeightedEdge, distortion: float) -> FilterDecision:
        p, q, weight = edge
        pair = self._cluster_pair(p, q)
        if pair[0] == pair[1]:
            # Both endpoints already live in one low-resistance cluster.
            if self._sparsifier.has_edge(p, q):
                # The sparsifier already carries this exact edge; treat the new
                # weight as a parallel conductor.
                self._sparsifier.increase_weight(p, q, weight)
                return FilterDecision(edge, FilterAction.MERGED_INTO_EXISTING,
                                      distortion, target_edge=(p, q), cluster_pair=pair)
            self._redistribute_weight(pair[0], weight)
            return FilterDecision(edge, FilterAction.REDISTRIBUTED_INTRA_CLUSTER,
                                  distortion, cluster_pair=pair)
        existing = self._representative(pair)
        if existing is not None:
            u, v = existing
            self._sparsifier.increase_weight(u, v, weight)
            return FilterDecision(edge, FilterAction.MERGED_INTO_EXISTING,
                                  distortion, target_edge=existing, cluster_pair=pair)
        # Spectrally unique edge: admit it and register the new cluster connection.
        self._sparsifier.add_edge(p, q, weight, merge="add")
        self._register_edge(p, q)
        return FilterDecision(edge, FilterAction.ADDED, distortion, cluster_pair=pair)

    def apply(self, batch: DistortionBatch) -> Tuple[List[FilterDecision], FilterSummary]:
        """Per-edge reference of :meth:`apply_batch`: one decision at a time.

        Walks the distortion-sorted batch edge by edge, mutating the
        sparsifier after every decision.  The update path runs
        :meth:`apply_batch`; this loop is the oracle the equivalence tests
        compare it against.
        """
        decisions: List[FilterDecision] = []
        summary = FilterSummary()
        distortions = batch.distortions.tolist()
        for index in range(len(batch)):
            decision = self._apply_single(batch.edge(index), distortions[index])
            decisions.append(decision)
            if decision.action is FilterAction.ADDED:
                summary.added += 1
            elif decision.action is FilterAction.MERGED_INTO_EXISTING:
                summary.merged += 1
            else:
                summary.redistributed += 1
        return decisions, summary

    def apply_batch(self, batch: DistortionBatch) -> Tuple[List[FilterDecision], FilterSummary]:
        """Filter a distortion-sorted batch of edges, mutating the sparsifier.

        Produces exactly the same decisions and sparsifier *edge set* as
        feeding the batch through :meth:`apply` edge by edge; weight
        mutations are aggregated per target edge / per cluster (differing
        from the per-edge loop only in floating-point association), except
        for clusters that receive both merge and redistribution traffic in
        one batch, whose operations are replayed in stream order so even the
        weights stay bit-identical there.  ADDED edges are inserted in stream
        order, so the sparsifier's edge-dict order — and therefore any later
        connectivity rebuild — matches the per-edge loop.

        The mechanism: the cluster labels of every endpoint are gathered in
        one shot, edges sharing a cluster pair form a group, and each group
        is resolved once — the first edge of a previously unconnected
        inter-cluster group is ADDED, everything else merges into its group's
        representative or redistributes inside its cluster.  Unique cluster
        pairs are far fewer than streamed edges on paper-scale streams (10⁵
        edges typically collapse onto ~10⁴ pairs), so the remaining Python
        loop runs once per group while the per-edge work — labels, grouping,
        decision records, aggregated merge weights — stays in numpy.
        """
        m = len(batch)
        if m == 0:
            return [], FilterSummary()
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
            # Visit groups in stream order of their first edge: the per-edge
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
            # firsts; bincount accumulates in array (= stream) order.
            contrib = np.ones(inter_idx.size, dtype=bool)
            contrib[first_pos[group_added]] = False
            totals = np.bincount(inverse[contrib], weights=ws[inter_idx[contrib]],
                                 minlength=num_groups)
            carriers = np.flatnonzero(totals > 0)
            merge_pairs = list(zip(group_tu[carriers].tolist(), group_tv[carriers].tolist()))
            merge_deltas = totals[carriers]
            summary.added = int(group_added.sum())
            summary.merged = int(inter_idx.size) - summary.added

        # ---- intra-cluster edges: one by one in stream order (they are
        # few, and the dirty-cluster replay is inherently order-sensitive).
        intra_ops: List[Tuple[str, int, Optional[Tuple[int, int]], float]] = []
        spread_clusters: set = set()
        merge_clusters: set = set()
        if intra_idx.size:
            for e, p, q, weight, cluster in zip(intra_idx.tolist(), us[intra_idx].tolist(),
                                                vs[intra_idx].tolist(), ws[intra_idx].tolist(),
                                                lo[intra_idx].tolist()):
                key = (p, q) if p <= q else (q, p)
                if sparsifier.has_edge(p, q):
                    intra_ops.append(("merge", cluster, key, weight))
                    merge_clusters.add(cluster)
                    actions[e] = _MERGED
                    target_us[e] = p
                    target_vs[e] = q
                    summary.merged += 1
                else:
                    intra_ops.append(("spread", cluster, None, weight))
                    spread_clusters.add(cluster)
                    actions[e] = _REDISTRIBUTED
                    summary.redistributed += 1

        # ---- aggregated mutations: dirty clusters replay the per-edge loop's
        # operations in stream order, then one bulk weight increase, then one
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
