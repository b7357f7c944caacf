"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HierarchyMaintainer, SimilarityFilter
from repro.graphs import (
    Graph,
    cycle_graph,
    delaunay_graph,
    fe_mesh_2d,
    grid_circuit_2d,
    paper_figure2_graph,
    path_graph,
)
from repro.sparsify import GrassConfig, GrassSparsifier


@pytest.fixture
def triangle() -> Graph:
    """Unit-weight triangle: the smallest graph with a cycle."""
    return cycle_graph(3)


@pytest.fixture
def small_path() -> Graph:
    """A 5-node path with weight 2 edges."""
    return path_graph(5, weight=2.0)


@pytest.fixture
def small_grid() -> Graph:
    """An 8x8 weighted resistor grid (64 nodes) used across unit tests."""
    return grid_circuit_2d(8, seed=7)


@pytest.fixture
def medium_grid() -> Graph:
    """A 15x15 weighted resistor grid (225 nodes) for integration tests."""
    return grid_circuit_2d(15, seed=3)


@pytest.fixture
def small_mesh() -> Graph:
    """A small unit-weight FE-style mesh."""
    return fe_mesh_2d(144, seed=5)


@pytest.fixture
def small_delaunay() -> Graph:
    """A small Delaunay graph."""
    return delaunay_graph(120, seed=11)


@pytest.fixture
def figure2_graph() -> Graph:
    """The 14-node example from the paper's Figures 2/3."""
    return paper_figure2_graph()


@pytest.fixture
def grid_with_sparsifier(medium_grid):
    """A (graph, sparsifier) pair at roughly 20% off-tree density."""
    config = GrassConfig(target_offtree_density=0.2, seed=1)
    sparsifier = GrassSparsifier(config).sparsify(medium_grid, evaluate_condition=False).sparsifier
    return medium_grid, sparsifier


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for test-local randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def stage_engine():
    """Factory for what the driver hands the stage functions of
    :mod:`repro.core.update`: ``(similarity filter, maintainer)`` for a
    sparsifier, its hierarchy, a config and a target κ."""

    def build(sparsifier, hierarchy, config, target):
        level = hierarchy.filtering_level_for_condition(target)
        maintainer = HierarchyMaintainer(hierarchy, sparsifier, lrd_config=config.lrd)
        return SimilarityFilter(sparsifier, hierarchy, level), maintainer

    return build
