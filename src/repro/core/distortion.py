"""Spectral distortion estimation for newly streamed edges (Section III-C-1).

The spectral distortion of a candidate edge ``(p, q, w)`` with respect to the
current sparsifier ``H`` is ``w * R_H(p, q)`` — equation (6) of the paper
shows it equals the total relative eigenvalue perturbation the edge would
cause if added to ``H``.  The update phase therefore ranks incoming edges by
estimated distortion (using the LRD hierarchy's resistance bounds) and considers the
most distorting edges first: those are the edges whose absence keeps the
condition number large.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.core.hierarchy import ClusterHierarchy
from repro.graphs.graph import as_edge_triples

WeightedEdge = Tuple[int, int, float]


@dataclass
class DistortionBatch:
    """Structure-of-arrays distortion estimates for one streamed batch.

    Parallel numpy arrays, one row per edge, so sorting, threshold cuts and
    the similarity filter's group resolution are matrix operations.
    All arrays share the same length and order; ``us``/``vs`` preserve the
    caller's edge orientation (the update path canonicalises beforehand).
    """

    us: np.ndarray
    vs: np.ndarray
    ws: np.ndarray
    bounds: np.ndarray
    distortions: np.ndarray

    def __len__(self) -> int:
        return int(self.us.shape[0])

    def edge(self, index: int) -> WeightedEdge:
        """The ``(u, v, weight)`` triple at ``index`` (Python scalars)."""
        return (int(self.us[index]), int(self.vs[index]), float(self.ws[index]))

    def take(self, indices: np.ndarray) -> "DistortionBatch":
        """Return a new batch holding the rows at ``indices`` (in that order)."""
        return DistortionBatch(
            us=self.us[indices], vs=self.vs[indices], ws=self.ws[indices],
            bounds=self.bounds[indices], distortions=self.distortions[indices],
        )

    def sort(self) -> "DistortionBatch":
        """Return the batch sorted by decreasing distortion (most critical
        first; stable, so equal distortions keep their batch order)."""
        if len(self) <= 1:
            return self
        order = np.argsort(-self.distortions, kind="stable")
        return self.take(order)

    def split_by_threshold(self, relative_threshold: float,
                           ) -> Tuple["DistortionBatch", "DistortionBatch"]:
        """Split into (kept, dropped) batches using a relative distortion cut.

        Edges whose distortion falls below ``relative_threshold`` times the
        median distortion of the batch are dropped outright — they are
        spectrally negligible and would only densify the sparsifier.
        ``relative_threshold`` of 0 keeps everything.
        """
        if relative_threshold <= 0 or len(self) == 0:
            return self, self.take(np.zeros(0, dtype=np.int64))
        cutoff = relative_threshold * float(np.median(self.distortions))
        keep = self.distortions >= cutoff
        return self.take(np.flatnonzero(keep)), self.take(np.flatnonzero(~keep))


def score_edges(hierarchy: ClusterHierarchy,
                new_edges: Sequence[WeightedEdge]) -> DistortionBatch:
    """Estimate the spectral distortion of every candidate edge in one shot.

    The resistance between the endpoints is upper-bounded by the diameter of
    the first LRD cluster they share; multiplying by the edge weight gives the
    distortion estimate of equation (6).  No per-edge Python work — the
    bound lookup is one masked gather per LRD level.
    """
    triples = as_edge_triples(new_edges)
    if triples.size == 0:
        empty_int = np.zeros(0, dtype=np.int64)
        empty = np.zeros(0)
        return DistortionBatch(us=empty_int, vs=empty_int, ws=empty, bounds=empty, distortions=empty)
    us = triples[:, 0].astype(np.int64)
    vs = triples[:, 1].astype(np.int64)
    ws = np.ascontiguousarray(triples[:, 2])
    return score_edge_arrays(hierarchy, us, vs, ws)


def score_edge_arrays(hierarchy: ClusterHierarchy, us: np.ndarray, vs: np.ndarray,
                      ws: np.ndarray) -> DistortionBatch:
    """:func:`score_edges` on pre-built endpoint/weight arrays (no conversion)."""
    bounds = hierarchy.resistance_upper_bounds_arrays(us, vs)
    return DistortionBatch(us=us, vs=vs, ws=ws, bounds=bounds, distortions=ws * bounds)
