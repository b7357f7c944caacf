"""Multilevel cluster hierarchy — the paper's "multilevel sparse data structure".

The LRD decomposition (Section III-B-2) produces, for every level, a
partition of the sparsifier's nodes into clusters with bounded
effective-resistance diameter.  :class:`ClusterHierarchy` stores those
partitions column-wise: the ``O(log N)``-dimensional embedding vector of a
node is simply the row of cluster indices assigned to it across the levels
(Figure 2 of the paper).  On top of the raw labels the hierarchy answers the
two queries the update phase needs in ``O(log N)`` per edge:

* the **first common level** of two nodes, whose cluster diameter upper-bounds
  their effective-resistance distance (spectral distortion estimation);
* the **filtering level** associated with a target condition number
  (Section III-C-2: the coarsest level whose largest cluster holds at most
  ``C / 2`` nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import Graph


@dataclass
class LRDLevel:
    """One level of the low-resistance-diameter decomposition.

    Attributes
    ----------
    labels:
        Array of length ``num_nodes`` mapping every original node to its
        cluster index at this level (cluster indices are compact,
        ``0 .. num_clusters-1``).
    cluster_diameters:
        Upper bound on the effective-resistance diameter of every cluster.
    diameter_threshold:
        The threshold the contraction honoured while building this level.
    """

    labels: np.ndarray
    cluster_diameters: np.ndarray
    diameter_threshold: float

    @property
    def num_clusters(self) -> int:
        return int(self.cluster_diameters.shape[0])

    @property
    def num_nodes(self) -> int:
        return int(self.labels.shape[0])

    def cluster_sizes(self) -> np.ndarray:
        """Return the node count of every cluster."""
        return np.bincount(self.labels, minlength=self.num_clusters)

    def max_cluster_size(self) -> int:
        """Return the size of the largest cluster."""
        sizes = self.cluster_sizes()
        return int(sizes.max()) if sizes.size else 0


class ClusterHierarchy:
    """Stack of LRD levels plus the node-embedding view used by inGRASS.

    Beyond the immutable snapshot queries of the paper's setup phase, the
    hierarchy exposes a small mutation API (:meth:`relabel_nodes`,
    :meth:`append_cluster`, :meth:`set_cluster_diameter`) so
    :class:`repro.core.maintenance.HierarchyMaintainer` can splice and merge
    clusters in place after sparsifier mutations.  Every mutation bumps
    :attr:`version`; label mutations additionally bump :attr:`labels_version`
    and the per-level counters of :meth:`level_labels_version`, which is how
    dependent caches (the similarity filter's cluster-pair map) detect
    staleness without wholesale invalidation.
    """

    def __init__(self, levels: Sequence[LRDLevel]) -> None:
        if not levels:
            raise ValueError("hierarchy needs at least one level")
        num_nodes = levels[0].num_nodes
        for level in levels:
            if level.num_nodes != num_nodes:
                raise ValueError("all levels must cover the same node set")
        self._levels: List[LRDLevel] = list(levels)
        self._num_nodes = num_nodes
        # (n, L) matrix of cluster indices — the paper's embedding vectors.
        self._embedding = np.column_stack([level.labels for level in self._levels])
        # Re-point every level's label array at its embedding column so the
        # matrix is the single source of truth: in-place maintenance writes
        # one array and every view (level labels, filter label caches, the
        # gather tables of resistance_upper_bounds_arrays) sees the update.
        for index, level in enumerate(self._levels):
            level.labels = self._embedding[:, index]
        # Lazily built cluster→members index, one table per level; maintained
        # incrementally by relabel_nodes/append_cluster once built, so splice
        # and merge operations read cluster member sets in O(cluster size)
        # instead of scanning all n labels per touched cluster.
        self._members: List[Optional[List[Optional[np.ndarray]]]] = [None] * len(self._levels)
        # Mutation counters: _version covers any change, _labels_version only
        # structural relabels (per level in _level_labels_versions).
        self._version = 0
        self._labels_version = 0
        self._level_labels_versions = [0] * len(self._levels)

    # ------------------------------------------------------------------ #
    @property
    def num_levels(self) -> int:
        """Number of decomposition levels (= embedding dimension)."""
        return len(self._levels)

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def levels(self) -> List[LRDLevel]:
        """The underlying levels, finest first."""
        return self._levels

    def level(self, index: int) -> LRDLevel:
        """Return level ``index`` (0 = finest)."""
        return self._levels[index]

    # ------------------------------------------------------------------ #
    # Embedding queries
    # ------------------------------------------------------------------ #
    def embedding_matrix(self) -> np.ndarray:
        """Return the ``(num_nodes, num_levels)`` cluster-index matrix."""
        return self._embedding.copy()

    def embedding_vector(self, node: int) -> np.ndarray:
        """Return the embedding vector (cluster index per level) of ``node``."""
        return self._embedding[node].copy()

    def cluster_of(self, node: int, level: int) -> int:
        """Return the cluster index of ``node`` at ``level``."""
        return int(self._embedding[node, level])

    def first_common_level(self, p: int, q: int) -> Optional[int]:
        """Return the finest level at which ``p`` and ``q`` share a cluster.

        Because clusters are nested, the nodes also share a cluster at every
        coarser level.  Returns ``None`` when the nodes never share a cluster
        (possible if the decomposition stopped before reaching one cluster).
        """
        equal = self._embedding[p] == self._embedding[q]
        if not equal.any():
            return None
        return int(np.argmax(equal))

    def first_common_levels(self, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`first_common_level`; -1 encodes "never common"."""
        equal = self._embedding[ps] == self._embedding[qs]
        has_common = equal.any(axis=1)
        first = np.argmax(equal, axis=1)
        return np.where(has_common, first, -1)

    # ------------------------------------------------------------------ #
    # Resistance bounds and distortion support
    # ------------------------------------------------------------------ #
    def fallback_resistance(self) -> float:
        """Bound used for node pairs that never share a cluster."""
        coarsest = self._levels[-1]
        if coarsest.cluster_diameters.size:
            base = float(coarsest.cluster_diameters.max())
        else:
            base = 0.0
        threshold = float(coarsest.diameter_threshold)
        return max(2.0 * base, 2.0 * threshold, 1e-12)

    def resistance_upper_bound(self, p: int, q: int) -> float:
        """Upper bound on the effective resistance between ``p`` and ``q``.

        The bound is the resistance diameter of the first cluster the two
        nodes share (Figure 2 of the paper): both nodes lie inside that
        cluster, so their resistance distance cannot exceed its diameter.
        """
        if p == q:
            return 0.0
        level_index = self.first_common_level(p, q)
        if level_index is None:
            return self.fallback_resistance()
        level = self._levels[level_index]
        cluster = int(self._embedding[p, level_index])
        diameter = float(level.cluster_diameters[cluster])
        # A zero diameter can only happen for singleton clusters, which cannot
        # contain two distinct nodes; guard anyway.
        return max(diameter, 1e-12)

    def resistance_upper_bounds(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Vectorised :meth:`resistance_upper_bound` for many node pairs."""
        if not pairs:
            return np.zeros(0)
        ps = np.fromiter((p for p, _ in pairs), dtype=np.int64, count=len(pairs))
        qs = np.fromiter((q for _, q in pairs), dtype=np.int64, count=len(pairs))
        return self.resistance_upper_bounds_arrays(ps, qs)

    def resistance_upper_bounds_arrays(self, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """Array-native :meth:`resistance_upper_bound` for many node pairs.

        One masked gather per level — ``O(m log N)`` numpy work with no
        Python-level per-pair loop, which is what lets the batched update
        engine score a 10⁵-edge stream in one shot.
        """
        levels = self.first_common_levels(ps, qs)
        bounds = np.full(ps.shape[0], self.fallback_resistance())
        for level_index, level in enumerate(self._levels):
            mask = levels == level_index
            if mask.any():
                clusters = self._embedding[ps[mask], level_index]
                bounds[mask] = np.maximum(level.cluster_diameters[clusters], 1e-12)
        bounds[ps == qs] = 0.0
        return bounds

    def compare_with_exact(self, sparsifier: Graph, pairs: Sequence[Tuple[int, int]]) -> dict:
        """Quantify the resistance bounds against exact resistances on ``pairs``.

        For tests and ablation benches on small graphs: returns ``num_pairs``,
        the Spearman rank correlation (``spearman_correlation``), the mean
        bound/exact ratio (``mean_ratio``) and the fraction of pairs whose
        bound is indeed an upper bound (``fraction_upper_bound``).
        """
        from scipy.stats import spearmanr

        from repro.spectral.effective_resistance import ExactResistanceCalculator

        pair_list = [(int(p), int(q)) for p, q in pairs if p != q]
        if not pair_list:
            raise ValueError("need at least one distinct node pair")
        exact = ExactResistanceCalculator(sparsifier).resistances(pair_list)
        estimated = self.resistance_upper_bounds(pair_list)
        correlation = float(spearmanr(exact, estimated).statistic) if len(pair_list) > 2 else 1.0
        return {
            "num_pairs": len(pair_list),
            "spearman_correlation": correlation,
            "mean_ratio": float(np.mean(estimated / np.maximum(exact, 1e-15))),
            "fraction_upper_bound": float(np.mean(estimated >= exact * (1.0 - 1e-9))),
        }

    # ------------------------------------------------------------------ #
    # Cluster membership index
    # ------------------------------------------------------------------ #
    def _members_table(self, level_index: int) -> List[Optional[np.ndarray]]:
        """Return (building lazily) the cluster→members table of one level.

        The first access pays one grouped ``O(n log n)`` pass; afterwards the
        table is maintained incrementally by :meth:`relabel_nodes` and
        :meth:`append_cluster`, which is what removes the full-array label
        scan from every splice/merge at 10⁵+ nodes.
        """
        table = self._members[level_index]
        if table is None:
            level = self._levels[level_index]
            labels = level.labels
            table = [None] * level.num_clusters
            if labels.shape[0]:
                order = np.argsort(labels, kind="stable")
                sorted_labels = labels[order]
                boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
                for group in np.split(order, boundaries):
                    # Stable argsort keeps node ids ascending within a group,
                    # matching np.flatnonzero(labels == cluster) exactly.
                    table[int(labels[group[0]])] = group.astype(np.int64, copy=False)
            self._members[level_index] = table
        return table

    def cluster_members(self, level_index: int, cluster: int) -> np.ndarray:
        """Nodes of ``cluster`` at ``level_index``, ascending (do not mutate).

        Equivalent to ``np.flatnonzero(level.labels == cluster)`` but served
        from the incrementally maintained index — ``O(cluster size)`` after
        the first access instead of an ``O(n)`` scan per call.
        """
        table = self._members_table(level_index)
        if cluster < 0 or cluster >= len(table):
            raise IndexError(f"cluster {cluster} out of range at level {level_index}")
        members = table[cluster]
        if members is None:
            return np.zeros(0, dtype=np.int64)
        return members

    # ------------------------------------------------------------------ #
    # Mutation API (used by the maintenance layer)
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Counter bumped by every in-place mutation (labels or diameters)."""
        return self._version

    @property
    def labels_version(self) -> int:
        """Counter bumped by every structural relabel (splits and merges)."""
        return self._labels_version

    def level_labels_version(self, level_index: int) -> int:
        """Relabel counter of one level — what level-bound caches validate against."""
        return self._level_labels_versions[level_index]

    def set_cluster_diameter(self, level_index: int, cluster: int, diameter: float) -> None:
        """Overwrite the cached resistance diameter of one cluster."""
        level = self._levels[level_index]
        if cluster < 0 or cluster >= level.num_clusters:
            raise IndexError(f"cluster {cluster} out of range at level {level_index}")
        level.cluster_diameters[cluster] = max(float(diameter), 1e-12)
        self._version += 1

    def append_cluster(self, level_index: int, diameter: float) -> int:
        """Register a fresh (initially empty) cluster at ``level_index``.

        Returns the new cluster index; callers move nodes into it with
        :meth:`relabel_nodes`.  Cluster ids are never compacted — a cluster
        emptied by a merge simply keeps a zero size, which every consumer
        (``bincount`` sizes, masked diameter gathers) handles naturally.
        """
        level = self._levels[level_index]
        level.cluster_diameters = np.append(level.cluster_diameters, max(float(diameter), 1e-12))
        table = self._members[level_index]
        if table is not None:
            table.append(None)
        self._version += 1
        return level.num_clusters - 1

    def relabel_nodes(self, level_index: int, nodes: np.ndarray, new_cluster: int) -> None:
        """Move ``nodes`` into ``new_cluster`` at ``level_index`` (in place).

        Writes the embedding column directly, so every label view stays
        consistent; bumps the label version counters so level-bound caches
        (e.g. the similarity filter's cluster-pair map) can detect the change.
        """
        level = self._levels[level_index]
        if new_cluster < 0 or new_cluster >= level.num_clusters:
            raise IndexError(f"cluster {new_cluster} out of range at level {level_index}")
        moved = np.unique(np.asarray(nodes, dtype=np.int64))
        table = self._members[level_index]
        if table is not None and moved.size:
            old_labels = self._embedding[moved, level_index]
            movers = moved[old_labels != new_cluster]
            if movers.size:
                for old in np.unique(old_labels[old_labels != new_cluster]).tolist():
                    bucket = table[int(old)]
                    leaving = movers[self._embedding[movers, level_index] == old]
                    kept = bucket[~np.isin(bucket, leaving, assume_unique=True)]
                    table[int(old)] = kept if kept.size else None
                existing = table[new_cluster]
                if existing is None:
                    table[new_cluster] = movers
                else:
                    table[new_cluster] = np.union1d(existing, movers)
        self._embedding[moved, level_index] = new_cluster
        self._version += 1
        self._labels_version += 1
        self._level_labels_versions[level_index] += 1

    # ------------------------------------------------------------------ #
    # Serialisation (checkpoint format)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_level_arrays(cls, embedding: np.ndarray,
                          cluster_diameters: Sequence[np.ndarray],
                          diameter_thresholds: Sequence[float]) -> "ClusterHierarchy":
        """Rebuild a hierarchy from raw level arrays.

        The constructor path of checkpoint restore.  A plain ``pickle`` of a
        live hierarchy would detach every ``level.labels`` from the
        embedding matrix (they are column *views*, and unpickling
        materialises them as independent copies), silently breaking the
        one-matrix-many-views maintenance invariant — so serialisation ships
        the arrays and rebuilds through the ordinary constructor instead.
        """
        embedding = np.ascontiguousarray(embedding, dtype=np.int64)
        if embedding.ndim != 2 or embedding.shape[1] != len(cluster_diameters):
            raise ValueError("embedding must be (num_nodes, num_levels) matching the diameter arrays")
        if len(cluster_diameters) != len(diameter_thresholds):
            raise ValueError("one diameter threshold is needed per level")
        levels = [
            LRDLevel(
                labels=embedding[:, index].copy(),
                cluster_diameters=np.asarray(diameters, dtype=np.float64).copy(),
                diameter_threshold=float(threshold),
            )
            for index, (diameters, threshold) in enumerate(zip(cluster_diameters, diameter_thresholds))
        ]
        return cls(levels)

    def checkpoint_state(self) -> dict:
        """Export the full mutable state as plain arrays and counters.

        The arrays are copies, and the version counters the constructor
        zeroes are included, so ``from_level_arrays`` + :meth:`restore_counters`
        reproduces the hierarchy bit-for-bit in another process.
        """
        return {
            "embedding": self._embedding.copy(),
            "cluster_diameters": [level.cluster_diameters.copy() for level in self._levels],
            "diameter_thresholds": [float(level.diameter_threshold) for level in self._levels],
            "version": self._version,
            "labels_version": self._labels_version,
            "level_labels_versions": list(self._level_labels_versions),
        }

    def restore_counters(self, *, version: int, labels_version: int,
                         level_labels_versions: Sequence[int]) -> None:
        """Restore the mutation counters a fresh constructor zeroed.

        Version counters are what level-bound caches (similarity filters)
        validate against, so a restored hierarchy must resume the saved
        sequence — otherwise the first post-restore mutation could collide
        with a cached pre-save version and mask real staleness.
        """
        if len(level_labels_versions) != len(self._levels):
            raise ValueError("one labels version is needed per level")
        self._version = int(version)
        self._labels_version = int(labels_version)
        self._level_labels_versions = [int(value) for value in level_labels_versions]

    # ------------------------------------------------------------------ #
    # Filtering-level selection (Section III-C-2)
    # ------------------------------------------------------------------ #
    def filtering_level_for_condition(self, target_condition_number: float,
                                      size_divisor: float = 2.0) -> int:
        """Pick the filtering level for a target condition number ``C``.

        The paper selects the level whose largest cluster holds at most
        ``C / 2`` nodes; among the levels satisfying the bound the coarsest
        one is used (coarser levels filter more aggressively while still
        keeping the intra-cluster distortion below the target).  When even the
        finest level violates the bound, the finest level is returned.
        ``size_divisor`` generalises the ``2`` for the ablation study.
        """
        if target_condition_number <= 0:
            raise ValueError("target_condition_number must be positive")
        if size_divisor <= 0:
            raise ValueError("size_divisor must be positive")
        limit = target_condition_number / size_divisor
        chosen = 0
        for index, level in enumerate(self._levels):
            if level.max_cluster_size() <= limit:
                chosen = index
            else:
                break
        return chosen

    # ------------------------------------------------------------------ #
    def summary(self) -> List[dict]:
        """Per-level summary used by reports and the walkthrough example."""
        rows = []
        for index, level in enumerate(self._levels):
            sizes = level.cluster_sizes()
            rows.append(
                {
                    "level": index,
                    "num_clusters": level.num_clusters,
                    "max_cluster_size": int(sizes.max()) if sizes.size else 0,
                    "mean_cluster_size": float(sizes.mean()) if sizes.size else 0.0,
                    "diameter_threshold": level.diameter_threshold,
                    "max_cluster_diameter": float(level.cluster_diameters.max())
                    if level.cluster_diameters.size
                    else 0.0,
                }
            )
        return rows
