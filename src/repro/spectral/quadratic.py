"""Empirical spectral similarity from Laplacian quadratic forms.

Equation (1) of the paper defines spectral similarity through the ratio of
Laplacian quadratic forms ``x^T L_G x / x^T L_H x`` over all test vectors.
:func:`sample_similarity` evaluates the ratio on random and smoothed probe
vectors — a Monte-Carlo cross-check of the condition-number estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, as_rng


@dataclass
class SimilaritySample:
    """Empirical spectral-similarity statistics over random probe vectors."""

    ratios: np.ndarray

    @property
    def max_ratio(self) -> float:
        return float(self.ratios.max())

    @property
    def min_ratio(self) -> float:
        return float(self.ratios.min())

    @property
    def empirical_condition_number(self) -> float:
        """max/min ratio over the probes — a lower bound on the true κ."""
        if self.min_ratio <= 0:
            return float("inf")
        return self.max_ratio / self.min_ratio


def sample_similarity(graph: Graph, sparsifier: Graph, num_probes: int = 32,
                      *, seed: SeedLike = None, use_smooth_probes: bool = True) -> SimilaritySample:
    """Sample the quadratic-form ratio ``x^T L_G x / x^T L_H x`` over probes.

    Parameters
    ----------
    num_probes:
        Number of random probe vectors.
    use_smooth_probes:
        Mix in smoothed probes (a few Laplacian-smoothing sweeps applied to
        random vectors).  Smooth vectors excite the low end of the spectrum,
        where sparsifiers differ most, giving a tighter empirical lower bound
        on κ.
    """
    if graph.num_nodes != sparsifier.num_nodes:
        raise ValueError("graph and sparsifier must share the same node set")
    rng = as_rng(seed)
    n = graph.num_nodes
    lap_g = graph.laplacian_matrix()
    lap_h = sparsifier.laplacian_matrix()
    probes = rng.standard_normal((n, num_probes))
    probes -= probes.mean(axis=0, keepdims=True)
    if use_smooth_probes and num_probes >= 2:
        half = num_probes // 2
        smooth = probes[:, :half].copy()
        degrees = np.maximum(np.asarray(lap_g.diagonal(), dtype=float), 1e-12)
        for _ in range(8):
            smooth = smooth - (lap_g @ smooth) / (2.0 * degrees[:, None])
            smooth -= smooth.mean(axis=0, keepdims=True)
        probes[:, :half] = smooth
    energy_g = np.einsum("ij,ij->j", probes, lap_g @ probes)
    energy_h = np.einsum("ij,ij->j", probes, lap_h @ probes)
    valid = energy_h > 1e-300
    ratios = np.where(valid, energy_g / np.maximum(energy_h, 1e-300), np.inf)
    return SimilaritySample(ratios=ratios)
