"""Property-based tests (hypothesis) for the bulk filter re-keying kernels.

The splice/merge protocol of the hierarchy maintainer and the removal drop
stage re-key the similarity filter's connectivity map through the vectorised
bulk kernels (:meth:`SimilarityFilter.unregister_incident_edges` /
:meth:`SimilarityFilter.register_edges`).  Their contract is byte-identical
state with the per-edge scalar protocol they replaced: one bucket
``_discard`` / ``_register_edge`` call per incident edge, discovered by
walking the sparsifier adjacency.  These properties pin that contract for
arbitrary graphs, node subsets and churn streams:

* the bulk kernels leave the ``_connectivity`` / ``_intra_cluster_edges``
  maps equal to the scalar oracle's, and return the same pending edge set;
* the full driver ends every churn stream with a connectivity map
  identical to one rebuilt from a fresh sparsifier scan, on mixed and
  deletion-heavy streams.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import InGrassConfig, InGrassSparsifier, LRDConfig, SimilarityFilter
from repro.core.config import LRDConfig as _LRDConfig
from repro.core.lrd import lrd_decompose
from repro.graphs import grid_circuit_2d
from repro.graphs.graph import Graph, canonical_edge
from repro.streams import DynamicScenarioConfig, build_dynamic_scenario

DENSE_LIMIT = 300


# --------------------------------------------------------------------------- #
# Scalar oracle: the per-edge protocol the bulk kernels replaced
# --------------------------------------------------------------------------- #
def oracle_unregister_incident(similarity_filter, nodes):
    """Per-edge reference for ``unregister_incident_edges``."""
    pending = {}
    sparsifier = similarity_filter._sparsifier
    for node in nodes:
        for neighbour in sparsifier.neighbors(int(node)):
            pending[canonical_edge(int(node), int(neighbour))] = None
    for u, v in pending:
        similarity_filter._discard((u, v), *similarity_filter._cluster_pair(u, v))
    return sorted(pending)


def oracle_register(similarity_filter, edges):
    """Per-edge reference for ``register_edges``."""
    for u, v in edges:
        similarity_filter._register_edge(int(u), int(v))


def filter_state(similarity_filter):
    return (copy.deepcopy(similarity_filter._connectivity),
            copy.deepcopy(dict(similarity_filter._intra_cluster_edges)))


def random_connected_graph(rng, n, extra):
    graph = Graph(n)
    perm = rng.permutation(n)
    for i in range(n - 1):
        graph.add_edge(int(perm[i]), int(perm[i + 1]), float(rng.uniform(0.2, 3.0)))
    added = 0
    while added < extra:
        u, v = rng.integers(0, n, size=2)
        if u != v and not graph.has_edge(int(u), int(v)):
            graph.add_edge(int(u), int(v), float(rng.uniform(0.2, 3.0)))
            added += 1
    return graph


kernel_params = st.fixed_dictionaries(
    {
        "num_nodes": st.integers(min_value=12, max_value=120),
        "graph_seed": st.integers(min_value=0, max_value=2**16),
        "rounds": st.integers(min_value=1, max_value=5),
    }
)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(params=kernel_params)
def test_bulk_rekey_matches_scalar_oracle(params):
    """Bulk unregister/re-register is byte-identical to the per-edge oracle."""
    rng = np.random.default_rng(params["graph_seed"])
    n = params["num_nodes"]
    graph = random_connected_graph(rng, n, int(rng.integers(n // 2, n * 2)))
    hierarchy = lrd_decompose(graph, _LRDConfig(seed=int(rng.integers(0, 1000))))
    level = int(rng.integers(0, hierarchy.num_levels))
    bulk = SimilarityFilter(graph, hierarchy, filtering_level=level)
    scalar = SimilarityFilter(graph, hierarchy, filtering_level=level)
    assert filter_state(bulk) == filter_state(scalar)

    for _round in range(params["rounds"]):
        nodes = np.unique(rng.integers(0, n, size=int(rng.integers(1, max(2, n // 3)))))
        pending_bulk = bulk.unregister_incident_edges(nodes)
        pending_scalar = oracle_unregister_incident(scalar, nodes)
        assert sorted(pending_bulk) == pending_scalar
        assert filter_state(bulk) == filter_state(scalar)
        # Re-home the pending edges, as the splice protocol does after the
        # fragments were relabelled (here labels are unchanged, which the
        # kernels cannot tell apart from a relabel).
        bulk.register_edges(pending_bulk)
        oracle_register(scalar, pending_scalar)
        assert filter_state(bulk) == filter_state(scalar)


# --------------------------------------------------------------------------- #
# Driver-level parity on churn streams
# --------------------------------------------------------------------------- #
driver_params = st.fixed_dictionaries(
    {
        "side": st.integers(min_value=6, max_value=8),
        "graph_seed": st.integers(min_value=0, max_value=2**16),
        "stream_seed": st.integers(min_value=0, max_value=2**16),
        # Spans mixed (0.3) through deletion-heavy (0.7) streams.
        "deletion_fraction": st.floats(min_value=0.3, max_value=0.7),
    }
)


@settings(max_examples=4, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(params=driver_params)
def test_driver_filter_map_matches_rebuild_after_churn(params):
    """After a churn stream the evolved filter map equals a fresh rebuild."""
    graph = grid_circuit_2d(params["side"], seed=params["graph_seed"])
    scenario = build_dynamic_scenario(
        graph,
        DynamicScenarioConfig(
            deletion_fraction=params["deletion_fraction"],
            num_iterations=4,
            condition_dense_limit=DENSE_LIMIT,
            seed=params["stream_seed"],
        ),
    )
    driver = InGrassSparsifier(InGrassConfig(
        seed=0,
        lrd=LRDConfig(seed=0),
        kappa_guard_dense_limit=DENSE_LIMIT,
    ))
    driver.setup(scenario.graph, scenario.initial_sparsifier,
                 target_condition_number=scenario.initial_condition_number)
    for batch in scenario.batches:
        driver.apply_batch(batch)
    # The evolved (incrementally re-keyed) filter map must equal one
    # rebuilt from a fresh scan of the final sparsifier.
    live = driver._filter
    rebuilt = SimilarityFilter(driver.sparsifier, driver.setup_result.hierarchy,
                               live.filtering_level)
    assert filter_state(live) == filter_state(rebuilt)
