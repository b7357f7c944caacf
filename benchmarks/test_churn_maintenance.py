"""Benchmark for incremental LRD hierarchy maintenance on the churn stream.

The hierarchy maintainer splices and merges clusters in place, so a mixed
insert/delete stream never pays a full re-setup.  This driver streams the
shared churn scenario with the κ guard on and asserts the maintainer's
contract: zero re-setups, real splice work, a connected sparsifier and κ
within ``python -m repro bench churn``'s bound of twice the target after
every batch.
"""

from __future__ import annotations

import pytest

from repro.core import InGrassConfig, InGrassSparsifier, LRDConfig
from repro.graphs import is_connected

#: ``bench churn``'s acceptance bound on κ relative to the target.
KAPPA_RATIO_BOUND = 2.0


@pytest.mark.smoke
def test_maintained_hierarchy_pays_zero_resetups(churn_scenario, bench_config):
    """The maintained pass streams every batch without a re-setup, within κ bounds."""
    ingrass = InGrassSparsifier(InGrassConfig(
        lrd=LRDConfig(seed=0),
        kappa_guard_factor=1.8,
        kappa_guard_dense_limit=bench_config.condition_dense_limit,
        seed=0,
    ))
    target = churn_scenario.initial_condition_number
    ingrass.setup(churn_scenario.graph, churn_scenario.initial_sparsifier,
                  target_condition_number=target)
    for batch in churn_scenario.batches:
        guard = ingrass.apply_batch(batch).kappa_guard
        assert guard.kappa_after <= KAPPA_RATIO_BOUND * target
        assert is_connected(ingrass.sparsifier)
    assert len(ingrass.history) == len(churn_scenario.batches)
    assert ingrass.full_resetups == 0
    # The maintainer genuinely worked the stream (not a silent no-op).
    stats = ingrass.maintenance_stats
    assert stats.removals > 0
    assert stats.splices > 0
