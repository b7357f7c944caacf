"""Benchmark for Table I: GRASS from-scratch time vs inGRASS setup time.

Paper reference: Table I reports, per test case, the runtime of one GRASS
sparsification of the original graph next to the one-time setup cost of
inGRASS (resistance estimation + multilevel LRD decomposition) on the initial
sparsifier.  The claim is that the setup is of the same order as — usually
cheaper than — a single GRASS run, so it amortises immediately.

Regenerate the full table with ``python -m repro bench table1``.
"""

from __future__ import annotations

import pytest

from repro.bench.datasets import QUICK_CASES, build_dataset
from repro.core import InGrassConfig, LRDConfig, run_setup
from repro.sparsify import GrassConfig, GrassSparsifier


def _grass_config() -> GrassConfig:
    return GrassConfig(target_offtree_density=0.10, tree_method="shortest_path", seed=0)


@pytest.mark.parametrize("case", QUICK_CASES)
def test_grass_from_scratch_time(benchmark, case):
    """Time one GRASS-style sparsification of the original graph (Table I, 'GRASS')."""
    graph = build_dataset(case, scale="small", seed=0)

    def run():
        return GrassSparsifier(_grass_config()).sparsify(graph, evaluate_condition=False)

    result = benchmark(run)
    assert result.sparsifier.num_edges >= graph.num_nodes - 1


@pytest.mark.smoke
@pytest.mark.parametrize("case", QUICK_CASES)
def test_ingrass_setup_time(benchmark, case):
    """Time the inGRASS setup phase on the initial sparsifier (Table I, 'Setup')."""
    graph = build_dataset(case, scale="small", seed=0)
    sparsifier = GrassSparsifier(_grass_config()).sparsify(graph, evaluate_condition=False).sparsifier
    config = InGrassConfig(lrd=LRDConfig(seed=0), seed=0)

    def run():
        return run_setup(sparsifier.copy(), config)

    setup = benchmark(run)
    assert setup.hierarchy.num_levels >= 1


@pytest.mark.smoke
def test_setup_time_same_order_as_grass(primary_graph):
    """Shape check: the setup cost stays within a small factor of one GRASS run."""
    from repro.utils.timing import time_call

    grass, grass_seconds = time_call(
        lambda: GrassSparsifier(_grass_config()).sparsify(primary_graph, evaluate_condition=False)
    )
    _, setup_seconds = time_call(lambda: run_setup(grass.sparsifier, InGrassConfig(seed=0)))
    assert setup_seconds < 10 * max(grass_seconds, 1e-3)
