"""Ablation bench: similarity-filtering level selection.

DESIGN.md calls out the filtering-level rule (largest cluster size at most
``C / filtering_size_divisor``) as a design choice: the paper's divisor of 2
filters aggressively (sparser result, looser tracking of the target κ), while
larger divisors pick a finer level that admits more edges but follows the
target more closely.  This bench sweeps the divisor on the primary scenario.
"""

from __future__ import annotations

import pytest

from repro.core import InGrassConfig, InGrassSparsifier, LRDConfig
from repro.sparsify import offtree_density
from repro.spectral import relative_condition_number

DIVISORS = [2.0, 4.0, 8.0]


def _run_with_divisor(scenario, divisor, dense_limit):
    config = InGrassConfig(filtering_size_divisor=divisor, lrd=LRDConfig(seed=0), seed=0)
    ingrass = InGrassSparsifier(config)
    ingrass.setup(scenario.graph, scenario.initial_sparsifier,
                  target_condition_number=scenario.initial_condition_number)
    for batch in scenario.batches:
        ingrass.apply_batch(batch)
    return ingrass


@pytest.mark.parametrize("divisor", DIVISORS)
def test_update_time_per_divisor(benchmark, primary_scenario, bench_config, divisor):
    """Time the full update pass for each filtering-size divisor."""
    ingrass = benchmark.pedantic(
        lambda: _run_with_divisor(primary_scenario, divisor, bench_config.condition_dense_limit),
        iterations=1, rounds=1,
    )
    assert len(ingrass.history) == len(primary_scenario.batches)


def test_finer_filtering_adds_more_edges(primary_scenario, bench_config):
    """A larger divisor (finer filtering level) admits at least as many edges
    and tracks the target condition number at least as tightly."""
    results = {}
    for divisor in (2.0, 8.0):
        ingrass = _run_with_divisor(primary_scenario, divisor, bench_config.condition_dense_limit)
        kappa = relative_condition_number(ingrass.graph, ingrass.sparsifier,
                                          dense_limit=bench_config.condition_dense_limit)
        results[divisor] = (offtree_density(ingrass.sparsifier), kappa)
    density_paper, kappa_paper = results[2.0]
    density_fine, kappa_fine = results[8.0]
    assert density_fine >= density_paper - 1e-9
    assert kappa_fine <= kappa_paper * 1.25
