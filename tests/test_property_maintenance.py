"""Property-based tests (hypothesis) for incremental hierarchy maintenance.

For arbitrary random churn streams, the hierarchy maintainer must uphold the
contracts the update phase relies on:

* the maintained hierarchy's resistance upper bounds keep tracking the exact
  resistances of the evolving sparsifier from above (same tolerance the
  fresh-setup embedding tests use — the LRD diameters are measured on
  contracted graphs, which can undershoot slightly);
* the hierarchy structure stays a valid nested partition stack (the
  ``first_common_level`` logic silently depends on it);
* the incrementally re-keyed similarity-filter connectivity map is
  bit-identical to one rebuilt from scratch against the same hierarchy and
  sparsifier, and therefore the *next batch's filter decisions* match the
  rebuilt-oracle decisions exactly;
* the full driver protocol holds: connectivity, support and deletions
  honoured.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import InGrassConfig, InGrassSparsifier, LRDConfig, SimilarityFilter
from repro.core.distortion import score_edges
from repro.graphs import grid_circuit_2d, is_connected
from repro.spectral import ExactResistanceCalculator
from repro.streams import DynamicScenarioConfig, build_dynamic_scenario, random_pair_edges

DENSE_LIMIT = 300

#: Same slack the fresh-setup embedding tests grant: level resistances are
#: measured on contracted graphs, which slightly underestimates.
BOUND_SLACK = 1.3

churn_params = st.fixed_dictionaries(
    {
        "side": st.integers(min_value=6, max_value=9),
        "graph_seed": st.integers(min_value=0, max_value=2**16),
        "stream_seed": st.integers(min_value=0, max_value=2**16),
        "deletion_fraction": st.floats(min_value=0.2, max_value=0.7),
        "num_iterations": st.integers(min_value=4, max_value=7),
    }
)


def _run_maintained_churn(params, *, guard: bool = False):
    graph = grid_circuit_2d(params["side"], seed=params["graph_seed"])
    scenario = build_dynamic_scenario(
        graph,
        DynamicScenarioConfig(
            deletion_fraction=params["deletion_fraction"],
            num_iterations=params["num_iterations"],
            condition_dense_limit=DENSE_LIMIT,
            seed=params["stream_seed"],
        ),
    )
    config = InGrassConfig(
        seed=0,
        lrd=LRDConfig(resistance_method="exact", seed=0),
        kappa_guard_factor=1.8 if guard else None,
        kappa_guard_dense_limit=DENSE_LIMIT,
    )
    ingrass = InGrassSparsifier(config)
    ingrass.setup(scenario.graph, scenario.initial_sparsifier,
                  target_condition_number=scenario.initial_condition_number)
    return scenario, ingrass


@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(params=churn_params)
def test_maintained_bounds_track_exact_resistances(params):
    scenario, ingrass = _run_maintained_churn(params)
    rng = np.random.default_rng(params["stream_seed"])
    for batch in scenario.batches:
        ingrass.apply_batch(batch)
    assert ingrass.full_resetups == 0
    hierarchy = ingrass.setup_result.hierarchy
    calculator = ExactResistanceCalculator(ingrass.sparsifier)
    n = ingrass.sparsifier.num_nodes
    upper = 0
    total = 0
    for _ in range(120):
        p, q = (int(x) for x in rng.choice(n, 2, replace=False))
        bound = hierarchy.resistance_upper_bound(p, q)
        exact = calculator.resistance(p, q)
        total += 1
        # Hard contract: bounds never undershoot beyond the contraction slack.
        assert bound * BOUND_SLACK + 1e-9 >= exact
        if bound + 1e-9 >= exact:
            upper += 1
    # Statistical contract: the overwhelming majority are genuine upper bounds.
    assert upper / total > 0.9


@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(params=churn_params)
def test_maintained_hierarchy_stays_nested(params):
    scenario, ingrass = _run_maintained_churn(params)
    hierarchy = ingrass.setup_result.hierarchy
    for batch in scenario.batches:
        ingrass.apply_batch(batch)
        # Nested partitions: a fine cluster maps into exactly one coarse one.
        for fine, coarse in zip(hierarchy.levels, hierarchy.levels[1:]):
            mapping: dict = {}
            for node in range(hierarchy.num_nodes):
                fine_label = int(fine.labels[node])
                coarse_label = int(coarse.labels[node])
                assert mapping.setdefault(fine_label, coarse_label) == coarse_label
        # Every diameter stays finite and non-negative.
        for level in hierarchy.levels:
            assert np.isfinite(level.cluster_diameters).all()
            assert (level.cluster_diameters >= 0.0).all()
        # The coarsest level still holds everything together (the sparsifier
        # is reconnected before splices, so the top cluster never splits).
        top = hierarchy.levels[-1]
        assert np.unique(top.labels).shape[0] == 1


@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(params=churn_params)
def test_filter_decisions_match_rebuilt_oracle(params):
    """After any churn prefix, the incrementally maintained filter equals a
    freshly built one — map and next-batch decisions alike."""
    scenario, ingrass = _run_maintained_churn(params)
    for batch in scenario.batches:
        ingrass.apply_batch(batch)
        live_filter = ingrass._filter
        assert live_filter.in_sync_with_hierarchy()
        oracle = SimilarityFilter(ingrass.sparsifier, ingrass.setup_result.hierarchy,
                                  live_filter.filtering_level)
        assert live_filter._connectivity == oracle._connectivity
        assert dict(live_filter._intra_cluster_edges) == dict(oracle._intra_cluster_edges)
    # Decision oracle: score one more probe batch through both filters
    # against copies, and demand identical decisions.
    probe = random_pair_edges(ingrass.graph, 12, seed=params["stream_seed"] + 1)
    batch = score_edges(ingrass.setup_result.hierarchy, probe).sort()
    live_filter = ingrass._filter
    sparsifier_a = ingrass.sparsifier.copy()
    sparsifier_b = ingrass.sparsifier.copy()
    incremental = SimilarityFilter(sparsifier_a, ingrass.setup_result.hierarchy,
                                   live_filter.filtering_level)
    incremental._connectivity = {pair: dict(bucket)
                                 for pair, bucket in live_filter._connectivity.items()}
    oracle = SimilarityFilter(sparsifier_b, ingrass.setup_result.hierarchy,
                              live_filter.filtering_level)
    decisions_a, summary_a = incremental.apply_batch(batch)
    decisions_b, summary_b = oracle.apply_batch(batch)
    assert summary_a == summary_b
    assert [(d.edge, d.action, d.target_edge, d.cluster_pair) for d in decisions_a] == \
           [(d.edge, d.action, d.target_edge, d.cluster_pair) for d in decisions_b]


@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(params=churn_params)
def test_maintain_mode_upholds_driver_invariants(params):
    scenario, ingrass = _run_maintained_churn(params, guard=True)
    target = scenario.initial_condition_number
    for batch in scenario.batches:
        result = ingrass.apply_batch(batch)
        sparsifier = ingrass.sparsifier
        graph = ingrass.graph
        assert is_connected(sparsifier)
        for u, v in sparsifier.edges():
            assert graph.has_edge(u, v)
        for u, v in batch.deletions:
            assert not sparsifier.has_edge(u, v)
        guard = result.kappa_guard
        if guard is not None and guard.kappa_after <= guard.bound:
            assert guard.kappa_after <= 1.8 * target * (1 + 1e-9)
    assert ingrass.full_resetups == 0
    assert ingrass.condition_number(dense_limit=DENSE_LIMIT) <= 2.0 * target
