"""Benchmark for Table II: incremental sparsification through 10 update iterations.

Paper reference: Table II compares, per test case, the density each method
needs to restore the initial condition number after ten batches of edge
insertions (GRASS-D / inGRASS-D / Random-D) and the total runtime of the ten
iterations (GRASS-T / inGRASS-T), with speedups of 70-220x for inGRASS.

Two tests below run the two sides of the speedup ratio — one full GRASS
re-sparsification and one full inGRASS update pass over the same stream —
and a third asserts the qualitative shape.  Regenerate the full table with
``python -m repro bench table2``.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import _run_grass_incremental, _run_ingrass_incremental
from repro.core import InGrassConfig, InGrassSparsifier, LRDConfig
from repro.sparsify import GrassConfig, GrassSparsifier, offtree_density


@pytest.mark.smoke
def test_ingrass_ten_iteration_updates(primary_scenario):
    """The inGRASS side: setup once, then stream all ten batches (Table II, 'inGRASS-T')."""
    ingrass = InGrassSparsifier(InGrassConfig(lrd=LRDConfig(seed=0), seed=0))
    ingrass.setup(primary_scenario.graph, primary_scenario.initial_sparsifier,
                  target_condition_number=primary_scenario.initial_condition_number)
    for batch in primary_scenario.batches:
        ingrass.apply_batch(batch)
    assert len(ingrass.history) == len(primary_scenario.batches)


def test_grass_single_rerun_from_scratch(primary_scenario, bench_config):
    """One GRASS re-sparsification of the fully updated graph (one of the
    ten from-scratch runs that make up Table II's 'GRASS-T')."""
    sparsifier = GrassSparsifier(
        GrassConfig(tree_method="shortest_path", condition_dense_limit=bench_config.condition_dense_limit,
                    seed=0)
    )
    result = sparsifier.sparsify_to_condition(primary_scenario.final_graph,
                                              primary_scenario.initial_condition_number,
                                              max_density=1.0)
    assert result.condition_number is not None


def test_table2_shape(primary_scenario, bench_config):
    """Shape assertions for the Table II comparison on the primary case:

    * inGRASS's ten updates are at least an order of magnitude faster than
      re-running GRASS from scratch at every iteration;
    * the maintained sparsifier stays far sparser than blindly including every
      streamed edge;
    * the updated sparsifier is spectrally no worse than never updating it.
    """
    ingrass_outcome, setup_seconds = _run_ingrass_incremental(primary_scenario, bench_config)
    grass_outcome = _run_grass_incremental(primary_scenario, bench_config)

    assert grass_outcome.seconds > 10 * ingrass_outcome.seconds
    blind_density = offtree_density(
        primary_scenario.initial_sparsifier.union_with_edges(primary_scenario.all_new_edges)
    )
    assert ingrass_outcome.offtree_density < blind_density
    degraded = primary_scenario.degraded_condition_number()
    assert ingrass_outcome.condition_number <= degraded * 1.2
    # GRASS, which explicitly verifies the target, reaches it.
    assert grass_outcome.condition_number <= primary_scenario.initial_condition_number * 1.1
