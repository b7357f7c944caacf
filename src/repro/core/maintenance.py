"""Incremental maintenance of the LRD cluster hierarchy.

The paper's update phase treats the hierarchy built by the setup phase as an
immutable snapshot; the fully dynamic extension (PR 1) merely *degraded* it —
every sparsifier-edge removal inflated the affected cluster diameters until a
full ``O(m log n)`` re-setup restored accuracy.  This module replaces that
inflate-and-rebuild cycle with true structural maintenance:

* **Removal → splice.**  When a sparsifier edge disappears, every cluster
  that contained both endpoints is *spliced*: its interior connectivity is
  re-examined and the cluster is split along it, with fragment diameters
  recomputed locally (exact resistances for small fragments, the spanning
  tree path bound for large ones) instead of multiplied by a blind factor.
  Small clusters below the coarsest level additionally go through a
  localized re-decomposition (:func:`repro.core.lrd.decompose_node_subset`)
  honouring the level's diameter threshold, so a connected-but-stretched
  cluster also splits the way a fresh setup would have split it.  The
  coarsest level's one all-nodes cluster only ever gets the connectivity
  split, so it stays whole while the sparsifier is connected and every node
  pair keeps a common cluster.

* **Insertion → merge.**  When a new edge enters the sparsifier, clusters it
  joins are fused whenever the merged diameter (``d1 + d2 + 1/w``) fits the
  level's threshold and nesting allows it, incrementally tightening the
  resistance bounds the distortion estimates rely on.

All mutations flow through the versioned in-place API of
:class:`~repro.core.hierarchy.ClusterHierarchy`, so the embedding matrix and
the vectorised gather tables stay consistent without wholesale invalidation;
when a touched level is the similarity filter's filtering level, the filter's
cluster-pair connectivity map is re-keyed through the unregister/relabel/
re-register protocol instead of rebuilt.

Validity argument (what the property suite checks): fragment diameters are
measured on *induced subgraphs* of the current sparsifier, which by Rayleigh
monotonicity upper-bound the true resistances; merge diameters use the series
bound ``1/w`` for the joining edge; splits only push node pairs to coarser
(larger-diameter) levels; and nesting is preserved because fragments are
unions of internally connected finer-level clusters.  Hence the maintained
hierarchy's ``resistance_upper_bound`` stays a genuine upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import LRDConfig
from repro.core.hierarchy import ClusterHierarchy
from repro.core.lrd import EXACT_DIAMETER_LIMIT, _exact_diameter_dense, decompose_node_subset
from repro.graphs.graph import Graph
from repro.utils.timing import Timer

WeightedEdge = Tuple[int, int, float]


@dataclass
class MaintenanceStats:
    """Counters of one maintainer's lifetime (reset on hierarchy rebuild)."""

    #: Sparsifier-edge removals processed.
    removals: int = 0
    #: Sparsifier-edge insertions examined for cluster merges.
    insertions: int = 0
    #: Clusters whose interior was re-examined after removals.
    splices: int = 0
    #: New fragments created by splits (beyond the surviving cluster).
    splits: int = 0
    #: Cluster pairs fused after insertions.
    merges: int = 0
    #: Cluster diameters recomputed locally.
    diameter_recomputes: int = 0
    #: Wall-clock spent inside the maintainer.
    maintenance_seconds: float = 0.0
    #: Wall-clock of the removal-splice passes (subset of maintenance_seconds).
    splice_seconds: float = 0.0
    #: Wall-clock of fragment analysis — connectivity, localized
    #: re-decomposition and diameter bounds (subset of splice_seconds).
    diameter_seconds: float = 0.0
    #: Wall-clock of similarity-filter re-keying (unregister/re-register
    #: around relabels, in both splices and merges).
    rekey_seconds: float = 0.0


@dataclass
class SpliceReport:
    """Outcome of one removal-batch splice pass."""

    #: ``(level, cluster)`` pairs whose interiors were re-examined.
    spliced: List[Tuple[int, int]] = field(default_factory=list)
    #: New fragments created (count across all splices).
    splits: int = 0
    #: Clusters that stayed whole and only had their diameter recomputed.
    recomputed: int = 0


class HierarchyMaintainer:
    """Keeps a :class:`ClusterHierarchy` structurally valid under mutations.

    Parameters
    ----------
    hierarchy:
        The hierarchy to maintain (mutated in place).
    sparsifier:
        The sparsifier the hierarchy describes.  The maintainer reads it when
        re-examining cluster interiors; callers mutate it *before* notifying.
    lrd_config:
        Resistance-estimation parameters for localized re-decompositions;
        defaults to the hierarchy-construction defaults.

    Clusters of up to :data:`~repro.core.lrd.EXACT_DIAMETER_LIMIT` nodes are
    spliced by a localized re-decomposition with exact fragment diameters;
    larger ones, and the coarsest level's cluster at any size, by a
    connectivity split with exact fragment diameters up to that limit and
    the spanning-tree diameter bound above it.
    """

    def __init__(self, hierarchy: ClusterHierarchy, sparsifier: Graph, *,
                 lrd_config: Optional[LRDConfig] = None) -> None:
        self._hierarchy = hierarchy
        self._sparsifier = sparsifier
        self._lrd_config = lrd_config if lrd_config is not None else LRDConfig()
        self.stats = MaintenanceStats()

    # ------------------------------------------------------------------ #
    @property
    def hierarchy(self) -> ClusterHierarchy:
        """The hierarchy being maintained."""
        return self._hierarchy

    @property
    def sparsifier(self) -> Graph:
        """The sparsifier the hierarchy describes."""
        return self._sparsifier

    # ------------------------------------------------------------------ #
    # Removal path: splice affected clusters
    # ------------------------------------------------------------------ #
    def note_removals(self, removed_edges: Sequence[WeightedEdge], *,
                      similarity_filter=None) -> SpliceReport:
        """Splice every cluster that contained both endpoints of a removed edge.

        Call *after* the edges left the sparsifier (and after any
        connectivity repair), so interior connectivity is judged against the
        sparsifier as it will actually be queried.  Affected ``(level,
        cluster)`` pairs are deduplicated across the batch and processed
        finest level first, which keeps the nesting invariant: by the time a
        coarse cluster is re-examined, its finer-level atoms are already
        internally connected again.
        """
        report = SpliceReport()
        if not removed_edges:
            return report
        timer = Timer().start()
        splice_start = perf_counter()
        hierarchy = self._hierarchy
        num_removed = len(removed_edges)
        us = np.fromiter((edge[0] for edge in removed_edges), dtype=np.int64,
                         count=num_removed)
        vs = np.fromiter((edge[1] for edge in removed_edges), dtype=np.int64,
                         count=num_removed)
        for _ in range(num_removed):
            hierarchy.record_removal()
        self.stats.removals += num_removed
        # Levels are processed finest first, and a splice only relabels its
        # own level, so each level's dirty-cluster set can be gathered with
        # one vectorised label comparison just before that level is spliced —
        # the sets are identical to the per-edge embedding-vector scan.
        for level_index in range(hierarchy.num_levels):
            labels = hierarchy.level(level_index).labels
            labels_u = labels[us]
            together = labels_u == labels[vs]
            if not np.any(together):
                continue
            clusters = np.unique(labels_u[together])
            self._splice_level(level_index, clusters, similarity_filter, report)
        timer.stop()
        self.stats.splice_seconds += perf_counter() - splice_start
        self.stats.maintenance_seconds += timer.elapsed
        return report

    def _decompose_small(self, level_index: int, nodes: np.ndarray,
                         threshold: float) -> Tuple[List[np.ndarray], List[float]]:
        """Localized re-decomposition of one small cluster (nesting-preserving).

        The finer level's clusters enter as atomic units so nesting survives.
        """
        hierarchy = self._hierarchy
        if level_index > 0:
            atoms = hierarchy.level(level_index - 1).labels[nodes]
            finer_diameters = hierarchy.level(level_index - 1).cluster_diameters
            atom_diameters = finer_diameters[np.unique(atoms)]
        else:
            atoms = None
            atom_diameters = None
        return decompose_node_subset(
            self._sparsifier, nodes, threshold, self._lrd_config,
            atoms=atoms, atom_diameters=atom_diameters,
        )

    def _splice_level(self, level_index: int, clusters: np.ndarray,
                      similarity_filter, report: SpliceReport) -> None:
        """Splice every dirty cluster of one level in a single batched pass.

        Phase 1 (analysis) is read-only: small clusters run the localized
        re-decomposition individually, while all oversized clusters (and the
        coarsest level's all-nodes cluster, at any size) are stacked into one
        block-diagonal CSR view and resolved together (see
        :meth:`_analyse_large`).  Phase 2 applies the planned mutations
        sequentially in ascending cluster order — the exact order (and hence
        ``append_cluster`` id sequence, filter re-keying and float results)
        of the retired per-cluster scalar splice.
        """
        hierarchy = self._hierarchy
        threshold = float(hierarchy.level(level_index).diameter_threshold)
        coarsest = level_index == hierarchy.num_levels - 1
        diameter_start = perf_counter()
        plans: List[list] = []
        large: List[int] = []
        for cluster in clusters.tolist():
            cluster = int(cluster)
            nodes = hierarchy.cluster_members(level_index, cluster)
            if nodes.shape[0] <= 1:
                plans.append([cluster, nodes, None, None])
            elif nodes.shape[0] <= EXACT_DIAMETER_LIMIT and not coarsest:
                fragments, diameters = self._decompose_small(level_index, nodes, threshold)
                plans.append([cluster, nodes, fragments, diameters])
            else:
                large.append(len(plans))
                plans.append([cluster, nodes, None, None])
        if large:
            self._analyse_large(plans, large)
        self.stats.diameter_seconds += perf_counter() - diameter_start
        for cluster, nodes, fragments, diameters in plans:
            splits, recomputed = self._apply_splice(
                level_index, cluster, nodes, fragments, diameters, similarity_filter)
            report.spliced.append((level_index, cluster))
            report.splits += splits
            report.recomputed += recomputed

    def _analyse_large(self, plans: List[list], large: List[int]) -> None:
        """Fill the fragment plans of one level's oversized clusters at once.

        All clusters are sliced out of the sparsifier's cached CSR in one
        fancy-index, cross-cluster entries are masked away, and a single
        ``connected_components`` call yields every cluster's interior
        fragments; every fragment too large for the exact pinv bound then
        shares one MST + two batched dijkstra sweeps.  Bit-exactness with the
        per-cluster scalar path: CSR content depends only on the edge set
        (not insertion order), component labels arrive in ascending
        first-member order, and the minimum spanning forest restricted to one
        fragment is that fragment's own minimum spanning tree, so every float
        produced equals the one the scalar path produced.
        """
        import scipy.sparse as sp
        from scipy.sparse.csgraph import (
            connected_components,
            dijkstra,
            minimum_spanning_tree,
        )

        blocks = [plans[index][1] for index in large]
        sizes = np.array([block.shape[0] for block in blocks], dtype=np.int64)
        offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(sizes)])
        all_nodes = np.concatenate(blocks)
        sliced = self._sparsifier.csr_view()[all_nodes][:, all_nodes]
        if len(blocks) == 1:
            # One dirty cluster at this level: the slice already is the
            # block-diagonal view, no cross-cluster entries to mask.
            masked = sliced
        else:
            owner = np.repeat(np.arange(len(blocks), dtype=np.int64), sizes)
            stacked = sliced.tocoo()
            keep = owner[stacked.row] == owner[stacked.col]
            masked = sp.csr_matrix(
                (stacked.data[keep], (stacked.row[keep], stacked.col[keep])),
                shape=stacked.shape,
            )
        _, labels = connected_components(masked, directed=False)

        tree_jobs: List[Tuple[int, int, np.ndarray]] = []
        for position, plan_index in enumerate(large):
            start = int(offsets[position])
            end = int(offsets[position + 1])
            block_labels = labels[start:end]
            order = np.argsort(block_labels, kind="stable")
            bounds = np.flatnonzero(np.diff(block_labels[order])) + 1
            local_fragments = list(np.split(order, bounds))
            local_fragments.sort(key=len, reverse=True)
            block_nodes = plans[plan_index][1]
            fragments = [block_nodes[fragment] for fragment in local_fragments]
            diameters = [0.0] * len(local_fragments)
            for fragment_position, fragment in enumerate(local_fragments):
                if fragment.shape[0] <= 1:
                    continue
                rows = fragment + start
                if fragment.shape[0] <= EXACT_DIAMETER_LIMIT:
                    diameters[fragment_position] = _exact_diameter_dense(
                        masked[rows][:, rows].toarray())
                else:
                    tree_jobs.append((plan_index, fragment_position, rows))
            plans[plan_index][2] = fragments
            plans[plan_index][3] = diameters
        if tree_jobs:
            lengths = masked.copy()
            lengths.data = 1.0 / lengths.data
            forest = minimum_spanning_tree(lengths)
            sources = [int(rows[0]) for _, _, rows in tree_jobs]
            first = dijkstra(forest, directed=False, indices=sources)
            turns = []
            for job_index, (_, _, rows) in enumerate(tree_jobs):
                values = first[job_index][rows]
                turn = int(np.argmax(np.where(np.isfinite(values), values, -1.0)))
                turns.append(int(rows[turn]))
            second = dijkstra(forest, directed=False, indices=turns)
            for job_index, (plan_index, fragment_position, rows) in enumerate(tree_jobs):
                values = second[job_index][rows]
                plans[plan_index][3][fragment_position] = float(
                    np.max(values[np.isfinite(values)]))

    def _apply_splice(self, level_index: int, cluster: int, nodes: np.ndarray,
                      fragments, diameters, similarity_filter) -> Tuple[int, int]:
        """Apply one planned splice (phase 2); returns ``(splits, recomputed)``."""
        hierarchy = self._hierarchy
        if nodes.shape[0] == 0:
            return 0, 0
        self.stats.splices += 1
        if nodes.shape[0] == 1:
            hierarchy.set_cluster_diameter(level_index, cluster, 0.0)
            return 0, 1
        rekey = (
            similarity_filter is not None
            and len(fragments) > 1
            and similarity_filter.filtering_level == level_index
        )
        pending = None
        if rekey:
            rekey_start = perf_counter()
            pending = similarity_filter.unregister_incident_edges(nodes)
            self.stats.rekey_seconds += perf_counter() - rekey_start
        hierarchy.set_cluster_diameter(level_index, cluster, diameters[0])
        self.stats.diameter_recomputes += 1
        for fragment, diameter in zip(fragments[1:], diameters[1:]):
            new_cluster = hierarchy.append_cluster(level_index, diameter)
            hierarchy.relabel_nodes(level_index, fragment, new_cluster)
            self.stats.splits += 1
            self.stats.diameter_recomputes += 1
        if pending is not None:
            rekey_start = perf_counter()
            similarity_filter.register_edges(pending)
            self.stats.rekey_seconds += perf_counter() - rekey_start
        if similarity_filter is not None:
            similarity_filter.mark_synced()
        return len(fragments) - 1, 1 if len(fragments) == 1 else 0

    # ------------------------------------------------------------------ #
    # Insertion path: merge clusters the new edges join
    # ------------------------------------------------------------------ #
    def note_insertions(self, edges: Sequence[WeightedEdge], *,
                        similarity_filter=None) -> int:
        """Fuse clusters joined by newly admitted sparsifier edges.

        For every edge and every level where its endpoints live in different
        clusters, the two clusters are merged when (a) the merged diameter
        ``d1 + d2 + 1/w`` fits the level's threshold and (b) the endpoints
        already share a cluster at the next coarser level (nesting).  Returns
        the number of merges performed.
        """
        if not edges:
            return 0
        timer = Timer().start()
        hierarchy = self._hierarchy
        merges = 0
        num_levels = hierarchy.num_levels
        for u, v, w in edges:
            self.stats.insertions += 1
            if w <= 0:
                continue
            edge_resistance = 1.0 / float(w)
            for level_index in range(num_levels):
                level = hierarchy.level(level_index)
                cluster_u = int(level.labels[u])
                cluster_v = int(level.labels[v])
                if cluster_u == cluster_v:
                    continue
                if level_index + 1 < num_levels:
                    coarser = hierarchy.level(level_index + 1).labels
                    if int(coarser[u]) != int(coarser[v]):
                        continue
                merged_diameter = (
                    float(level.cluster_diameters[cluster_u])
                    + float(level.cluster_diameters[cluster_v])
                    + edge_resistance
                )
                if merged_diameter > float(level.diameter_threshold):
                    continue
                self._merge(level_index, cluster_u, cluster_v, merged_diameter,
                            similarity_filter)
                merges += 1
        timer.stop()
        self.stats.maintenance_seconds += timer.elapsed
        return merges

    def _merge(self, level_index: int, cluster_a: int, cluster_b: int,
               merged_diameter: float, similarity_filter) -> None:
        """Fuse two clusters at one level (larger id set absorbs the smaller)."""
        hierarchy = self._hierarchy
        nodes_a = hierarchy.cluster_members(level_index, cluster_a)
        nodes_b = hierarchy.cluster_members(level_index, cluster_b)
        if nodes_a.shape[0] >= nodes_b.shape[0]:
            target, source_nodes = cluster_a, nodes_b
            source = cluster_b
        else:
            target, source_nodes = cluster_b, nodes_a
            source = cluster_a
        rekey = (
            similarity_filter is not None
            and similarity_filter.filtering_level == level_index
        )
        pending = None
        if rekey:
            rekey_start = perf_counter()
            pending = similarity_filter.unregister_incident_edges(source_nodes)
            self.stats.rekey_seconds += perf_counter() - rekey_start
        hierarchy.relabel_nodes(level_index, source_nodes, target)
        hierarchy.set_cluster_diameter(level_index, target, merged_diameter)
        # The absorbed id keeps a minimal diameter; no node references it.
        hierarchy.set_cluster_diameter(level_index, source, 0.0)
        self.stats.merges += 1
        if pending is not None:
            rekey_start = perf_counter()
            similarity_filter.register_edges(pending)
            self.stats.rekey_seconds += perf_counter() - rekey_start
        if similarity_filter is not None:
            similarity_filter.mark_synced()
