"""Ablation bench: resistance-embedding method used by the setup phase.

``LRDConfig.resistance_method`` chooses between the paper's solver-free
Krylov surrogate (equation (3)) and the Johnson–Lindenstrauss embedding built
from ``O(log N)`` Laplacian solves.  This bench builds both and checks how
well each ranks the sparsifier's edge resistances (rank correlation against
exact per-pair solves), which is the property the LRD decomposition and the
distortion estimates rely on.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import spearmanr

from repro.spectral import (
    ApproxResistanceCalculator,
    ExactResistanceCalculator,
    JLResistanceCalculator,
)

METHODS = ["jl", "krylov"]


@pytest.fixture(scope="module")
def exact_edge_resistances(primary_sparsifier):
    return ExactResistanceCalculator(primary_sparsifier).edge_resistances()


@pytest.mark.parametrize("method", METHODS)
def test_embedding_build_time(primary_sparsifier, method):
    """The resistance embedding builds on the initial sparsifier."""
    calculator_class = JLResistanceCalculator if method == "jl" else ApproxResistanceCalculator
    calculator = calculator_class(primary_sparsifier, seed=0)
    assert calculator.order >= 4


@pytest.mark.parametrize("method", METHODS)
def test_embedding_ranking_quality(primary_sparsifier, exact_edge_resistances, method):
    """Rank correlation of approximate vs exact edge resistances.

    The JL embedding should rank almost perfectly; the solver-free Krylov
    surrogate is noisier but must stay clearly positively correlated — that is
    the regime in which the paper's setup phase operates.
    """
    if method == "jl":
        approx = JLResistanceCalculator(primary_sparsifier, seed=0).edge_resistances()
        threshold = 0.8
    else:
        approx = ApproxResistanceCalculator(primary_sparsifier, seed=0).edge_resistances()
        threshold = 0.4
    correlation = spearmanr(exact_edge_resistances, approx).statistic
    assert correlation > threshold


def test_jl_is_nearly_unbiased(primary_sparsifier, exact_edge_resistances):
    """The JL estimate's median ratio to the exact value stays near 1."""
    approx = JLResistanceCalculator(primary_sparsifier, seed=0).edge_resistances()
    ratio = np.median(approx / np.maximum(exact_edge_resistances, 1e-15))
    assert 0.8 < ratio < 1.25
