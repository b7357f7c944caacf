"""Ablation bench: LRD decomposition parameters.

DESIGN.md calls out the diameter growth factor as the lever that trades the
embedding dimension (number of levels) against the granularity of the cluster
hierarchy.  This bench times the decomposition for several growth factors and
checks the expected structural trends.
"""

from __future__ import annotations

import pytest

from repro.core import LRDConfig, lrd_decompose

GROWTH_FACTORS = [1.5, 2.0, 4.0]


@pytest.mark.parametrize("growth", GROWTH_FACTORS)
def test_lrd_decomposition_time(primary_sparsifier, growth):
    """The multilevel LRD decomposition ends in one cluster for every growth factor."""
    hierarchy = lrd_decompose(primary_sparsifier, LRDConfig(growth_factor=growth, seed=0))
    assert hierarchy.levels[-1].num_clusters == 1


@pytest.mark.smoke
def test_larger_growth_means_fewer_levels(primary_sparsifier):
    """A faster-growing diameter schedule produces a shallower hierarchy."""
    shallow = lrd_decompose(primary_sparsifier, LRDConfig(growth_factor=4.0, seed=0))
    deep = lrd_decompose(primary_sparsifier, LRDConfig(growth_factor=1.5, seed=0))
    assert shallow.num_levels <= deep.num_levels


def test_embedding_quality_stable_across_growth(primary_sparsifier, rng_pairs):
    """The rank correlation of embedding estimates vs exact resistances stays
    positive for every growth factor (the estimates get coarser, not wrong)."""
    for growth in GROWTH_FACTORS:
        hierarchy = lrd_decompose(primary_sparsifier, LRDConfig(growth_factor=growth, seed=0))
        stats = hierarchy.compare_with_exact(primary_sparsifier, rng_pairs)
        assert stats["spearman_correlation"] > 0.2


@pytest.fixture(scope="module")
def rng_pairs(primary_sparsifier):
    import numpy as np

    rng = np.random.default_rng(0)
    n = primary_sparsifier.num_nodes
    return [tuple(rng.choice(n, 2, replace=False)) for _ in range(100)]
