"""Spectral distortion estimation for newly streamed edges (Section III-C-1).

The spectral distortion of a candidate edge ``(p, q, w)`` with respect to the
current sparsifier ``H`` is ``w * R_H(p, q)`` — equation (6) of the paper
shows it equals the total relative eigenvalue perturbation the edge would
cause if added to ``H``.  The update phase therefore ranks incoming edges by
estimated distortion (using the LRD resistance embedding) and considers the
most distorting edges first: those are the edges whose absence keeps the
condition number large.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.embedding import ResistanceEmbedding
from repro.graphs.graph import as_edge_triples

WeightedEdge = Tuple[int, int, float]


@dataclass
class DistortionEstimate:
    """Per-edge distortion estimate produced by :func:`estimate_distortions`."""

    edge: WeightedEdge
    resistance_bound: float
    distortion: float


def estimate_distortions(embedding: ResistanceEmbedding,
                         new_edges: Sequence[WeightedEdge]) -> List[DistortionEstimate]:
    """Estimate the spectral distortion of every candidate edge.

    The resistance between the endpoints is upper-bounded by the diameter of
    the first LRD cluster they share; multiplying by the edge weight gives the
    distortion estimate of equation (6).
    """
    if not new_edges:
        return []
    pairs = [(p, q) for p, q, _ in new_edges]
    weights = np.array([w for _, _, w in new_edges], dtype=float)
    bounds = embedding.estimate_resistances(pairs)
    distortions = weights * bounds
    return [
        DistortionEstimate(edge=edge, resistance_bound=float(bound), distortion=float(distortion))
        for edge, bound, distortion in zip(new_edges, bounds, distortions)
    ]


@dataclass
class DistortionBatch:
    """Structure-of-arrays distortion estimates for one streamed batch.

    The batched update engine's counterpart of a ``List[DistortionEstimate]``:
    parallel numpy arrays instead of per-edge objects, so sorting, threshold
    cuts and the similarity filter's group resolution are matrix operations.
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
        """Return the batch sorted by decreasing distortion (stable, like
        :func:`sort_by_distortion`)."""
        if len(self) <= 1:
            return self
        order = np.argsort(-self.distortions, kind="stable")
        return self.take(order)

    def split_by_threshold(self, relative_threshold: float,
                           ) -> Tuple["DistortionBatch", "DistortionBatch"]:
        """Split into (kept, dropped) batches — see :func:`filter_by_threshold`."""
        if relative_threshold <= 0 or len(self) == 0:
            return self, self.take(np.zeros(0, dtype=np.int64))
        cutoff = relative_threshold * float(np.median(self.distortions))
        keep = self.distortions >= cutoff
        return self.take(np.flatnonzero(keep)), self.take(np.flatnonzero(~keep))

    def to_estimates(self) -> List[DistortionEstimate]:
        """Materialise the per-edge objects of the scalar API (same order)."""
        us, vs, ws = self.us.tolist(), self.vs.tolist(), self.ws.tolist()
        bounds, distortions = self.bounds.tolist(), self.distortions.tolist()
        return [
            DistortionEstimate(edge=(u, v, w), resistance_bound=bound, distortion=distortion)
            for u, v, w, bound, distortion in zip(us, vs, ws, bounds, distortions)
        ]


def score_edges(embedding: ResistanceEmbedding,
                new_edges: Sequence[WeightedEdge]) -> DistortionBatch:
    """Vectorised :func:`estimate_distortions`: score a whole batch in one shot.

    Same estimates as the scalar function (weight × first-shared-cluster
    diameter, equation (6)), but produced as a :class:`DistortionBatch` with
    no per-edge Python work — the embedding lookup is one masked gather per
    LRD level.
    """
    triples = as_edge_triples(new_edges)
    if triples.size == 0:
        empty_int = np.zeros(0, dtype=np.int64)
        empty = np.zeros(0)
        return DistortionBatch(us=empty_int, vs=empty_int, ws=empty, bounds=empty, distortions=empty)
    us = triples[:, 0].astype(np.int64)
    vs = triples[:, 1].astype(np.int64)
    ws = np.ascontiguousarray(triples[:, 2])
    return score_edge_arrays(embedding, us, vs, ws)


def score_edge_arrays(embedding: ResistanceEmbedding, us: np.ndarray, vs: np.ndarray,
                      ws: np.ndarray) -> DistortionBatch:
    """:func:`score_edges` on pre-built endpoint/weight arrays (no conversion)."""
    bounds = embedding.estimate_resistances_arrays(us, vs)
    return DistortionBatch(us=us, vs=vs, ws=ws, bounds=bounds, distortions=ws * bounds)


def sort_by_distortion(estimates: Sequence[DistortionEstimate]) -> List[DistortionEstimate]:
    """Return estimates sorted by decreasing distortion (most critical first)."""
    return sorted(estimates, key=lambda item: item.distortion, reverse=True)


def filter_by_threshold(estimates: Sequence[DistortionEstimate],
                        relative_threshold: float,
                        ) -> Tuple[List[DistortionEstimate], List[DistortionEstimate]]:
    """Split estimates into (kept, dropped) using a relative distortion cut.

    Edges whose distortion falls below ``relative_threshold`` times the median
    distortion of the batch are dropped outright — they are spectrally
    negligible and would only densify the sparsifier.  ``relative_threshold``
    of 0 keeps everything.
    """
    if relative_threshold <= 0 or not estimates:
        return list(estimates), []
    distortions = np.array([item.distortion for item in estimates])
    cutoff = relative_threshold * float(np.median(distortions))
    kept = [item for item in estimates if item.distortion >= cutoff]
    dropped = [item for item in estimates if item.distortion < cutoff]
    return kept, dropped
