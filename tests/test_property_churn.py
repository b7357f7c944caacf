"""Property-based tests (hypothesis) for the fully dynamic update path.

For arbitrary random churn streams the maintained sparsifier must uphold the
structural invariants regardless of seed, deletion mix or batch shape:

* ``H(k)`` stays connected after every batch;
* ``H(k)`` supports ``G(k)``: same node set, and every sparsifier edge still
  exists in the evolving graph (deletions are honoured, repairs only re-use
  surviving edges);
* with the κ guard enabled, κ(G(k), H(k)) stays within the configured bound
  at every iteration (up to the guard's round budget).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import InGrassConfig, InGrassSparsifier
from repro.core.update import KAPPA_GUARD_MAX_ROUNDS
from repro.graphs import grid_circuit_2d, is_connected
from repro.streams import DynamicScenarioConfig, build_dynamic_scenario

GUARD_FACTOR = 1.8
DENSE_LIMIT = 300

churn_params = st.fixed_dictionaries(
    {
        "side": st.integers(min_value=6, max_value=9),
        "graph_seed": st.integers(min_value=0, max_value=2**16),
        "stream_seed": st.integers(min_value=0, max_value=2**16),
        "deletion_fraction": st.floats(min_value=0.2, max_value=0.7),
        "num_iterations": st.integers(min_value=4, max_value=8),
    }
)


def _run_churn(params):
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
    ingrass = InGrassSparsifier(
        InGrassConfig(seed=0, kappa_guard_factor=GUARD_FACTOR,
                      kappa_guard_dense_limit=DENSE_LIMIT)
    )
    ingrass.setup(scenario.graph, scenario.initial_sparsifier,
                  target_condition_number=scenario.initial_condition_number)
    return scenario, ingrass


@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(params=churn_params)
def test_churn_preserves_connectivity_and_support(params):
    scenario, ingrass = _run_churn(params)
    for batch in scenario.batches:
        ingrass.apply_batch(batch)
        sparsifier = ingrass.sparsifier
        graph = ingrass.graph
        # Connected on the full node set.
        assert sparsifier.num_nodes == graph.num_nodes
        assert is_connected(sparsifier)
        # Support: every sparsifier edge survives in the evolving graph, so
        # deleted edges can never linger and repairs never invent edges.
        for u, v in sparsifier.edges():
            assert graph.has_edge(u, v)
        # Deletions were honoured on the sparsifier side too.
        for u, v in batch.deletions:
            assert not sparsifier.has_edge(u, v)


@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(params=churn_params)
def test_churn_kappa_stays_within_guard_bound(params):
    scenario, ingrass = _run_churn(params)
    target = scenario.initial_condition_number
    guards_ran = 0
    for batch in scenario.batches:
        result = ingrass.apply_batch(batch)
        guard = result.kappa_guard
        if guard is not None:
            guards_ran += 1
            # The guard never makes things worse, and when it reports success
            # the measured κ really is within the bound.
            assert guard.kappa_after <= guard.kappa_before + 1e-9
            if guard.kappa_after <= guard.bound:
                assert guard.kappa_after <= GUARD_FACTOR * target * (1 + 1e-9)
            else:
                # A guarded iteration ends within 2x target unless the guard
                # exhausted its round budget (it reports that honestly).
                assert guard.rounds == KAPPA_GUARD_MAX_ROUNDS or not guard.added_edges
    assert guards_ran == len([b for b in scenario.batches if b])
    # End state: quality within 2x target (the acceptance bound) — the guard
    # had the whole stream to keep the trajectory in check.
    final = ingrass.condition_number(dense_limit=DENSE_LIMIT)
    assert final <= 2.0 * target


@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(params=churn_params)
def test_churn_history_accounting_is_exact(params):
    scenario, ingrass = _run_churn(params)
    for batch in scenario.batches:
        ingrass.apply_batch(batch)
    assert len(ingrass.history) == len(scenario.batches)
    for record, batch in zip(ingrass.history, scenario.batches):
        assert record.streamed_edges == len(batch.insertions)
        assert record.removed_edges == len(batch.deletions)
        total = (record.added_edges + record.merged_edges
                 + record.redistributed_edges + record.dropped_edges)
        assert total == len(batch.insertions)
    assert ingrass.graph.num_edges == scenario.final_graph.num_edges
    # The filter indexes every sparsifier edge in exactly one bucket.
    live_filter = ingrass._filter
    registered = (sum(map(len, live_filter._connectivity.values()))
                  + sum(map(len, live_filter._intra_cluster_edges.values())))
    assert registered == ingrass.sparsifier.num_edges
