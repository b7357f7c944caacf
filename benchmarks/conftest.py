"""Shared fixtures for the tests under ``benchmarks/``.

Every test works on the *small* scale of the dataset registry so that a
full ``pytest benchmarks`` run finishes in about a minute on a laptop.  The
standalone CLI scripts (``python -m repro bench table2`` etc.) run the same
protocols on more and larger cases.
"""

from __future__ import annotations

import pytest

from repro.bench import HarnessConfig
from repro.bench.datasets import build_dataset
from repro.sparsify import GrassConfig, GrassSparsifier
from repro.streams import (
    DynamicScenarioConfig,
    ScenarioConfig,
    build_dynamic_scenario,
    build_scenario,
)

#: Harness configuration used across the benchmark tests.
BENCH_CONFIG = HarnessConfig(scale="small", seed=0, condition_dense_limit=500)

#: The single representative case used where one graph suffices.
PRIMARY_CASE = "g2_circuit"


@pytest.fixture(scope="session")
def bench_config() -> HarnessConfig:
    return BENCH_CONFIG


@pytest.fixture(scope="session")
def primary_graph():
    """The primary benchmark graph (circuit analogue, ~1300 nodes)."""
    return build_dataset(PRIMARY_CASE, scale="small", seed=0)


@pytest.fixture(scope="session")
def primary_sparsifier(primary_graph):
    """A 10 % off-tree-density GRASS sparsifier of the primary graph."""
    config = GrassConfig(target_offtree_density=0.10, tree_method="shortest_path", seed=0)
    return GrassSparsifier(config).sparsify(primary_graph, evaluate_condition=False).sparsifier


@pytest.fixture(scope="session")
def primary_scenario(primary_graph):
    """The paper's 10-iteration incremental scenario on the primary graph."""
    scenario_config = ScenarioConfig(
        initial_offtree_density=0.10,
        final_offtree_density=0.34,
        num_iterations=10,
        condition_dense_limit=BENCH_CONFIG.condition_dense_limit,
        seed=0,
    )
    return build_scenario(primary_graph, scenario_config)


@pytest.fixture(scope="session")
def churn_scenario(primary_graph):
    """Fully dynamic 10-iteration scenario with >=30% deletions on the primary graph."""
    scenario_config = DynamicScenarioConfig(
        initial_offtree_density=0.10,
        final_offtree_density=0.34,
        num_iterations=10,
        deletion_fraction=0.35,
        condition_dense_limit=BENCH_CONFIG.condition_dense_limit,
        seed=0,
    )
    return build_dynamic_scenario(primary_graph, scenario_config)
