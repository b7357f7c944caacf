"""Bench: the LRD decomposition at the paper's threshold schedule.

Level 0 contracts up to the median edge resistance and every further level
doubles the threshold (Section III-B-2), so the decomposition ends in one
cluster after ``O(log N)`` levels.  This bench checks that on the primary
sparsifier and that the hierarchy's resistance estimates still rank pairs
like the exact resistances do.
"""

from __future__ import annotations

import pytest

from repro.core import LRDConfig, lrd_decompose


@pytest.fixture(scope="module")
def hierarchy(primary_sparsifier):
    return lrd_decompose(primary_sparsifier, LRDConfig(seed=0))


def test_decomposition_ends_in_one_cluster(hierarchy):
    """The multilevel LRD decomposition ends in one cluster."""
    assert hierarchy.levels[-1].num_clusters == 1


def test_embedding_quality_at_paper_schedule(hierarchy, primary_sparsifier, rng_pairs):
    """The rank correlation of embedding estimates vs exact resistances stays
    positive (the estimates are coarse, not wrong)."""
    stats = hierarchy.compare_with_exact(primary_sparsifier, rng_pairs)
    assert stats["spearman_correlation"] > 0.2


@pytest.fixture(scope="module")
def rng_pairs(primary_sparsifier):
    import numpy as np

    rng = np.random.default_rng(0)
    n = primary_sparsifier.num_nodes
    return [tuple(rng.choice(n, 2, replace=False)) for _ in range(100)]
