"""Equivalence suite for the batch update engine.

The update path scores, thresholds and sorts each batch as arrays and
resolves it with the grouped :meth:`SimilarityFilter.apply_batch`.  That
must be a pure speed transformation of the per-edge reference
:meth:`SimilarityFilter.apply`: identical filter decisions, identical
sparsifier edge sets and near-identical weights (the aggregated mutations
differ only in floating-point association) on every workload — random
streams, locality-biased streams, threshold cuts and full mixed
insert/delete scenarios.  The array scoring kernels are checked against
per-pair and list-based references.  ``scalar`` names the per-edge
reference run and ``vectorized`` the engine run, as in
``benchmarks/test_batch_scaling.py``.
"""

from __future__ import annotations

import statistics
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    HierarchyMaintainer,
    InGrassConfig,
    InGrassSparsifier,
    LRDConfig,
    SimilarityFilter,
    run_setup,
    run_update,
    score_edges,
)
from repro.graphs import Graph, grid_circuit_2d
from repro.graphs.validation import validate_new_edge_arrays, validate_new_edges
from repro.sparsify import GrassConfig, GrassSparsifier
from repro.streams import mixed_edges, random_pair_edges
from repro.streams.scenarios import DynamicScenarioConfig, build_dynamic_scenario


def _sparsify(graph: Graph, density: float = 0.15, seed: int = 0) -> Graph:
    config = GrassConfig(target_offtree_density=density, seed=seed)
    return GrassSparsifier(config).sparsify(graph, evaluate_condition=False).sparsifier


def _assert_same_decisions(scalar_result, vector_result):
    assert len(scalar_result.decisions) == len(vector_result.decisions)
    for expected, actual in zip(scalar_result.decisions, vector_result.decisions):
        assert expected.edge == actual.edge
        assert expected.action == actual.action
        assert expected.target_edge == actual.target_edge
        assert expected.cluster_pair == actual.cluster_pair
        assert expected.distortion == pytest.approx(actual.distortion)
    left, right = scalar_result.summary, vector_result.summary
    assert (left.added, left.merged, left.redistributed, left.dropped) == (
        right.added, right.merged, right.redistributed, right.dropped)


def _assert_same_sparsifier(scalar: Graph, vector: Graph, *, rtol: float = 1e-9):
    assert set(scalar.edges()) == set(vector.edges())
    edges = sorted(scalar.edges())
    scalar_weights = np.array([scalar.weight(u, v) for u, v in edges])
    vector_weights = np.array([vector.weight(u, v) for u, v in edges])
    np.testing.assert_allclose(scalar_weights, vector_weights, rtol=rtol)


def _edges(batch):
    return [batch.edge(i) for i in range(len(batch))]


def _per_edge_reference():
    """Route every ``apply_batch`` call through the per-edge :meth:`apply`."""
    return mock.patch.object(SimilarityFilter, "apply_batch", SimilarityFilter.apply)


def _run_both(graph, sparsifier, stream, *, target=64.0, **config_kwargs):
    """Run one update batch through the engine and the reference from identical state."""
    config = InGrassConfig(lrd=LRDConfig(seed=0), seed=0, **config_kwargs)

    def run():
        working = sparsifier.copy()
        hierarchy = run_setup(working, config).hierarchy
        level = hierarchy.filtering_level_for_condition(target, config.filtering_size_divisor)
        result = run_update(working, stream, config,
                            similarity_filter=SimilarityFilter(working, hierarchy, level),
                            maintainer=HierarchyMaintainer(hierarchy, working, lrd_config=config.lrd))
        return working, result

    outcomes = {"vectorized": run()}
    with _per_edge_reference():
        outcomes["scalar"] = run()
    return outcomes


class TestScoringEquivalence:
    def test_score_edges_matches_estimate_distortions(self, grid_with_sparsifier):
        graph, sparsifier = grid_with_sparsifier
        working = sparsifier.copy()
        setup = run_setup(working, InGrassConfig(lrd=LRDConfig(seed=0)))
        stream = mixed_edges(graph, 200, seed=3)
        batch = score_edges(setup.hierarchy, stream)
        bounds = [setup.hierarchy.resistance_upper_bound(p, q) for p, q, _ in stream]
        np.testing.assert_allclose(batch.bounds, bounds)
        np.testing.assert_allclose(batch.distortions,
                                   [bound * w for bound, (_, _, w) in zip(bounds, stream)])

    def test_sort_is_stable_like_scalar(self, grid_with_sparsifier):
        graph, sparsifier = grid_with_sparsifier
        working = sparsifier.copy()
        setup = run_setup(working, InGrassConfig(lrd=LRDConfig(seed=0)))
        stream = mixed_edges(graph, 300, seed=4)
        batch = score_edges(setup.hierarchy, stream)
        distortions = batch.distortions.tolist()
        order = sorted(range(len(batch)), key=lambda i: distortions[i], reverse=True)
        assert _edges(batch.sort()) == [batch.edge(i) for i in order]

    def test_threshold_split_matches_scalar(self, grid_with_sparsifier):
        graph, sparsifier = grid_with_sparsifier
        working = sparsifier.copy()
        setup = run_setup(working, InGrassConfig(lrd=LRDConfig(seed=0)))
        stream = mixed_edges(graph, 300, seed=5)
        batch = score_edges(setup.hierarchy, stream)
        kept_batch, dropped_batch = batch.split_by_threshold(0.5)
        distortions = batch.distortions.tolist()
        cutoff = 0.5 * statistics.median(distortions)
        rows = list(zip(_edges(batch), distortions))
        assert _edges(kept_batch) == [edge for edge, d in rows if d >= cutoff]
        assert _edges(dropped_batch) == [edge for edge, d in rows if d < cutoff]

    def test_validate_new_edge_arrays_matches_scalar_semantics(self, medium_grid):
        edges = [(3, 7, 1.0), (7, 3, 2.0), (1, 2, 0.5), (3, 7, 0.25)]
        us, vs, ws = validate_new_edge_arrays(medium_grid, edges)
        assert list(zip(us.tolist(), vs.tolist(), ws.tolist())) == [(3, 7, 3.25), (1, 2, 0.5)]
        assert validate_new_edges(medium_grid, edges) == [(3, 7, 3.25), (1, 2, 0.5)]


class TestFilterEquivalence:
    def test_mixed_stream(self, medium_grid):
        sparsifier = _sparsify(medium_grid)
        stream = mixed_edges(medium_grid, 600, long_range_fraction=0.5, seed=11)
        outcomes = _run_both(medium_grid, sparsifier, stream)
        _assert_same_decisions(outcomes["scalar"][1], outcomes["vectorized"][1])
        _assert_same_sparsifier(outcomes["scalar"][0], outcomes["vectorized"][0])

    def test_long_range_stream(self, medium_grid):
        sparsifier = _sparsify(medium_grid)
        stream = random_pair_edges(medium_grid, 400, seed=13)
        outcomes = _run_both(medium_grid, sparsifier, stream)
        _assert_same_decisions(outcomes["scalar"][1], outcomes["vectorized"][1])
        _assert_same_sparsifier(outcomes["scalar"][0], outcomes["vectorized"][0])

    def test_with_distortion_threshold(self, medium_grid):
        sparsifier = _sparsify(medium_grid)
        stream = mixed_edges(medium_grid, 500, seed=17)
        outcomes = _run_both(medium_grid, sparsifier, stream, distortion_threshold=0.4)
        _assert_same_decisions(outcomes["scalar"][1], outcomes["vectorized"][1])
        _assert_same_sparsifier(outcomes["scalar"][0], outcomes["vectorized"][0])
        assert outcomes["scalar"][1].dropped_low_distortion == outcomes["vectorized"][1].dropped_low_distortion
        assert outcomes["vectorized"][1].dropped_low_distortion > 0

    def test_duplicate_edges_in_batch(self, medium_grid):
        sparsifier = _sparsify(medium_grid)
        base = random_pair_edges(medium_grid, 120, seed=23)
        stream = base + [(v, u, w / 2) for u, v, w in base[:40]]
        outcomes = _run_both(medium_grid, sparsifier, stream)
        _assert_same_decisions(outcomes["scalar"][1], outcomes["vectorized"][1])
        _assert_same_sparsifier(outcomes["scalar"][0], outcomes["vectorized"][0])

    def test_parallel_conductors_of_sparsifier_edges(self, medium_grid):
        # Streamed edges that duplicate existing sparsifier edges exercise the
        # intra-cluster MERGED branch and the dirty-cluster replay.
        sparsifier = _sparsify(medium_grid)
        existing = list(sparsifier.edges())[:60]
        stream = [(u, v, 0.5) for u, v in existing]
        stream += mixed_edges(medium_grid, 200, long_range_fraction=0.2, seed=29)
        outcomes = _run_both(medium_grid, sparsifier, stream)
        _assert_same_decisions(outcomes["scalar"][1], outcomes["vectorized"][1])
        _assert_same_sparsifier(outcomes["scalar"][0], outcomes["vectorized"][0])

    def test_empty_and_tiny_batches(self, medium_grid):
        sparsifier = _sparsify(medium_grid)
        outcomes = _run_both(medium_grid, sparsifier, [])
        assert outcomes["vectorized"][1].decisions == []
        tiny = random_pair_edges(medium_grid, 3, seed=31)
        outcomes = _run_both(medium_grid, sparsifier, tiny)
        _assert_same_decisions(outcomes["scalar"][1], outcomes["vectorized"][1])
        _assert_same_sparsifier(outcomes["scalar"][0], outcomes["vectorized"][0])


class TestDriverEquivalence:
    """End-to-end: the InGrassSparsifier driver under the engine and the reference."""

    @pytest.mark.parametrize("deletion_fraction", [0.0, 0.35])
    def test_dynamic_scenario(self, deletion_fraction):
        graph = grid_circuit_2d(13, seed=2)
        scenario = build_dynamic_scenario(
            graph,
            DynamicScenarioConfig(
                initial_offtree_density=0.12, final_offtree_density=0.3,
                num_iterations=4, deletion_fraction=deletion_fraction,
                condition_dense_limit=400, seed=2,
            ),
        )
        def run():
            ingrass = InGrassSparsifier(InGrassConfig(lrd=LRDConfig(seed=0), seed=0))
            ingrass.setup(scenario.graph, scenario.initial_sparsifier,
                          target_condition_number=scenario.initial_condition_number)
            for batch in scenario.batches:
                ingrass.apply_batch(batch)
            return ingrass

        finals = {"vectorized": run()}
        with _per_edge_reference():
            finals["scalar"] = run()
        _assert_same_sparsifier(finals["scalar"].sparsifier, finals["vectorized"].sparsifier)
        assert finals["scalar"].graph == finals["vectorized"].graph
        scalar_history = finals["scalar"].history
        vector_history = finals["vectorized"].history
        for left, right in zip(scalar_history, vector_history):
            assert (left.streamed_edges, left.added_edges, left.merged_edges,
                    left.redistributed_edges, left.dropped_edges, left.removed_edges,
                    left.repair_edges) == (
                right.streamed_edges, right.added_edges, right.merged_edges,
                right.redistributed_edges, right.dropped_edges, right.removed_edges,
                right.repair_edges)

    def test_plain_update_and_mixed_batch_record_identically(self):
        """update(list) and update(MixedBatch(insertions=list)) agree (satellite fix)."""
        from repro.streams import MixedBatch

        graph = grid_circuit_2d(10, seed=4)
        stream = mixed_edges(graph, 40, seed=5)
        records = {}
        for wrap in (False, True):
            config = InGrassConfig(lrd=LRDConfig(seed=0), seed=0, kappa_guard_factor=1.5,
                                   kappa_guard_dense_limit=400)
            ingrass = InGrassSparsifier(config)
            ingrass.setup(graph, _sparsify(graph, seed=4))
            batch = MixedBatch(insertions=list(stream)) if wrap else list(stream)
            result = ingrass.apply_batch(batch)
            guard = result.kappa_guard
            assert guard is not None  # the guard runs on both packaging styles
            records[wrap] = ingrass.history[0]
        plain, mixed = records[False], records[True]
        assert (plain.streamed_edges, plain.added_edges, plain.merged_edges,
                plain.redistributed_edges, plain.dropped_edges, plain.repair_edges) == (
            mixed.streamed_edges, mixed.added_edges, mixed.merged_edges,
            mixed.redistributed_edges, mixed.dropped_edges, mixed.repair_edges)


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(
    side=st.integers(min_value=6, max_value=12),
    stream_size=st.integers(min_value=1, max_value=300),
    long_range=st.floats(min_value=0.0, max_value=1.0),
    threshold=st.sampled_from([0.0, 0.25, 0.75]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_property_batch_equivalence(side, stream_size, long_range, threshold, seed):
    """Random graphs x random streams x random thresholds: engine and reference agree."""
    graph = grid_circuit_2d(side, seed=seed % 97)
    sparsifier = _sparsify(graph, density=0.15, seed=seed % 13)
    stream = mixed_edges(graph, stream_size, long_range_fraction=long_range, seed=seed)
    outcomes = _run_both(graph, sparsifier, stream, distortion_threshold=threshold)
    _assert_same_decisions(outcomes["scalar"][1], outcomes["vectorized"][1])
    _assert_same_sparsifier(outcomes["scalar"][0], outcomes["vectorized"][0])
