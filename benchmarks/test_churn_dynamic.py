"""Benchmark for the churn protocol: fully dynamic insert/delete streams.

This protocol goes beyond the paper.  Table II streams insertions only; real
workloads (power-grid reconfiguration, FEM remeshing) also delete edges, so
the churn scenario mixes >=30% deletions into the 10-iteration stream and the
acceptance bar is that the maintained sparsifier stays connected and within
2x the target condition number at *every* iteration.

One test streams the full dynamic maintenance pass; another asserts the
quality trajectory.  Regenerate the full table with
``python -m repro bench churn``.
"""

from __future__ import annotations

import pytest

from repro.core import InGrassConfig, InGrassSparsifier, LRDConfig
from repro.graphs import is_connected
from repro.sparsify import offtree_density


def _dynamic_config(bench_config):
    return InGrassConfig(
        lrd=LRDConfig(seed=0),
        kappa_guard_factor=1.8,
        kappa_guard_dense_limit=bench_config.condition_dense_limit,
        seed=0,
    )


@pytest.mark.smoke
def test_churn_ten_iteration_updates(churn_scenario, bench_config):
    """The dynamic side: setup once, then stream all ten mixed batches."""
    ingrass = InGrassSparsifier(_dynamic_config(bench_config))
    ingrass.setup(churn_scenario.graph, churn_scenario.initial_sparsifier,
                  target_condition_number=churn_scenario.initial_condition_number)
    for batch in churn_scenario.batches:
        ingrass.apply_batch(batch)
    assert len(ingrass.history) == len(churn_scenario.batches)


@pytest.mark.smoke
def test_churn_quality_trajectory(churn_scenario, bench_config):
    """Acceptance assertions for the churn protocol on the primary case:

    * the stream really is churn (>=30% deletions over >=10 iterations);
    * the maintained sparsifier stays connected after every batch;
    * kappa(G(k), H(k)) stays within 2x the target at every iteration;
    * the sparsifier stays far sparser than the full evolving graph.
    """
    assert churn_scenario.deletion_fraction >= 0.30
    assert len(churn_scenario.batches) >= 10

    target = churn_scenario.initial_condition_number
    ingrass = InGrassSparsifier(_dynamic_config(bench_config))
    ingrass.setup(churn_scenario.graph, churn_scenario.initial_sparsifier,
                  target_condition_number=target)
    removed_total = 0
    for batch in churn_scenario.batches:
        result = ingrass.apply_batch(batch)
        if result.removal is not None:
            removed_total += len(result.removal.removed_from_sparsifier)
        assert is_connected(ingrass.sparsifier)
        kappa = ingrass.condition_number(dense_limit=bench_config.condition_dense_limit)
        assert kappa <= 2.0 * target
    # Deletions genuinely exercised the sparsifier repair path.
    assert removed_total > 0
    final_graph = ingrass.graph
    assert offtree_density(ingrass.sparsifier) < offtree_density(final_graph)


def test_deletion_heavy_stream_stays_connected(primary_graph, bench_config):
    """A 75%-deletion stream keeps the sparsifier connected and supported."""
    from repro.streams import DynamicScenarioConfig, build_deletion_scenario

    scenario = build_deletion_scenario(
        primary_graph,
        DynamicScenarioConfig(
            deletion_fraction=0.75,
            num_iterations=5,
            condition_dense_limit=bench_config.condition_dense_limit,
            seed=1,
        ),
    )
    ingrass = InGrassSparsifier(_dynamic_config(bench_config))
    ingrass.setup(scenario.graph, scenario.initial_sparsifier,
                  target_condition_number=scenario.initial_condition_number)
    for batch in scenario.batches:
        ingrass.apply_batch(batch)
        assert is_connected(ingrass.sparsifier)
    # Every sparsifier edge still exists in the evolving graph: deletions
    # were honoured and repairs only re-used surviving graph edges.
    for u, v in ingrass.sparsifier.edges():
        assert ingrass.graph.has_edge(u, v)
