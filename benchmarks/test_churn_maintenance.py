"""Benchmark for incremental LRD hierarchy maintenance (splice vs rebuild).

The fully dynamic path of PR 1 only *degraded* the hierarchy under deletions
(diameter inflation + periodic full re-setups); ``hierarchy_mode="maintain"``
splices and merges clusters in place instead.  These drivers assert the two
headline properties on the shared churn scenario — maintain mode pays zero
full re-setups while rebuild mode pays several, and its end-state condition
number is no worse — and stream the maintained pass.  Regenerate the full
comparison with ``python -m repro bench churn-maintenance``.
"""

from __future__ import annotations

import pytest

from repro.core import InGrassConfig, InGrassSparsifier, LRDConfig
from repro.graphs import is_connected

#: Rebuild-mode refresh threshold used by the comparison tests; low enough
#: that the 10-iteration churn scenario pays at least one full re-setup.
RESETUP_AFTER = 6


def _config(bench_config, mode: str) -> InGrassConfig:
    return InGrassConfig(
        lrd=LRDConfig(seed=0),
        kappa_guard_factor=1.8,
        kappa_guard_dense_limit=bench_config.condition_dense_limit,
        hierarchy_mode=mode,
        resetup_after_removals=RESETUP_AFTER,
        seed=0,
    )


def _run(scenario, bench_config, mode: str) -> InGrassSparsifier:
    ingrass = InGrassSparsifier(_config(bench_config, mode))
    ingrass.setup(scenario.graph, scenario.initial_sparsifier,
                  target_condition_number=scenario.initial_condition_number)
    for batch in scenario.batches:
        ingrass.apply_batch(batch)
    return ingrass


@pytest.mark.smoke
def test_maintained_hierarchy_pays_zero_resetups(churn_scenario, bench_config):
    """Maintain mode never refreshes where rebuild mode must, same stream."""
    maintained = _run(churn_scenario, bench_config, "maintain")
    rebuilt = _run(churn_scenario, bench_config, "rebuild")
    assert maintained.full_resetups == 0
    assert rebuilt.full_resetups >= 1
    # The maintainer genuinely worked the stream (not a silent no-op).
    stats = maintained.maintenance_stats
    assert stats.removals > 0
    assert stats.splices > 0
    # End-state quality: no worse than the rebuild fallback (10% slack).
    dense_limit = bench_config.condition_dense_limit
    kappa_maintained = maintained.condition_number(dense_limit=dense_limit)
    kappa_rebuilt = rebuilt.condition_number(dense_limit=dense_limit)
    assert kappa_maintained <= kappa_rebuilt * 1.10 + 1e-9
    assert is_connected(maintained.sparsifier)


@pytest.mark.smoke
def test_maintained_churn_pass(churn_scenario, bench_config):
    """The maintained dynamic pass streams every batch without a re-setup."""
    ingrass = _run(churn_scenario, bench_config, "maintain")
    assert len(ingrass.history) == len(churn_scenario.batches)
    assert ingrass.full_resetups == 0
