"""Benchmark for Table III: robustness across initial sparsifier densities.

Paper reference: Table III fixes the G2_circuit test case and sweeps the
initial sparsifier density from ~6.5 % to ~12.7 %, showing that inGRASS's
final density stays within about one percentage point of GRASS's across the
whole sweep (and that sparser initial sparsifiers start from larger condition
numbers).

Regenerate the full table with ``python -m repro bench table3``.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import _run_ingrass_incremental, _scenario_config
from repro.core import InGrassConfig, InGrassSparsifier, LRDConfig
from repro.streams import build_scenario

DENSITIES = [0.12, 0.08]


@pytest.mark.parametrize("density", DENSITIES)
def test_ingrass_updates_across_initial_densities(primary_graph, bench_config, density):
    """The inGRASS update pass runs for different initial sparsifier densities."""
    scenario = build_scenario(
        primary_graph,
        _scenario_config(bench_config, initial_density=density, final_density=0.32),
    )
    ingrass = InGrassSparsifier(InGrassConfig(lrd=LRDConfig(seed=0), seed=0))
    ingrass.setup(scenario.graph, scenario.initial_sparsifier,
                  target_condition_number=scenario.initial_condition_number)
    for batch in scenario.batches:
        ingrass.apply_batch(batch)
    assert len(ingrass.history) == len(scenario.batches)


def test_sparser_initial_sparsifier_has_larger_condition_number(primary_graph, bench_config):
    """Shape check mirroring Table III's κ column: lower initial density → larger initial κ."""
    scenarios = [
        build_scenario(primary_graph, _scenario_config(bench_config, initial_density=density, final_density=0.32))
        for density in (0.12, 0.07)
    ]
    assert scenarios[1].initial_condition_number >= scenarios[0].initial_condition_number * 0.9


def test_final_density_tracks_initial_density(primary_graph, bench_config):
    """Shape check mirroring Table III's density columns: the maintained
    density after the updates stays close to (and ordered like) the initial
    density across the sweep."""
    finals = []
    for density in DENSITIES:
        scenario = build_scenario(
            primary_graph, _scenario_config(bench_config, initial_density=density, final_density=0.32)
        )
        outcome, _ = _run_ingrass_incremental(scenario, bench_config)
        finals.append((density, outcome.offtree_density))
    # Higher initial density ends higher, and neither explodes to the
    # "include everything" level of 32 %.
    assert finals[0][1] >= finals[1][1] - 0.02
    assert all(final < 0.32 for _, final in finals)
