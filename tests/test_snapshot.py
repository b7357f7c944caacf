"""Tests for FrozenGraph and the epoch-snapshot read layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InGrassConfig, InGrassSparsifier
from repro.core.hierarchy import ClusterHierarchy, LRDLevel
from repro.graphs import FrozenGraph, FrozenGraphError, Graph, grid_circuit_2d
from repro.snapshot import SparsifierSnapshot
from repro.spectral import effective_resistance
from repro.streams import DynamicScenarioConfig, build_churn_scenario


@pytest.fixture()
def churn_driver():
    """A driver set up on a small grid plus a ready-made churn stream."""
    graph = grid_circuit_2d(8, seed=3)
    scenario = build_churn_scenario(
        graph, DynamicScenarioConfig(num_iterations=4, seed=3))
    driver = InGrassSparsifier(InGrassConfig(seed=3))
    driver.setup(scenario.graph, scenario.initial_sparsifier,
                 target_condition_number=scenario.initial_condition_number)
    return driver, scenario


class TestFrozenGraph:
    def _frozen(self) -> FrozenGraph:
        return FrozenGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5)])

    def test_reads_work(self):
        frozen = self._frozen()
        assert frozen.num_edges == 3
        assert frozen.weight(1, 2) == 2.0
        assert frozen.has_edge(0, 1)

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_edge(0, 3, 1.0),
        lambda g: g.add_edges([(0, 3, 1.0)]),
        lambda g: g.add_edge_unchecked(0, 3, 1.0),
        lambda g: g.remove_edge(0, 1),
        lambda g: g.remove_edges([(0, 1)]),
        lambda g: g.set_weight(0, 1, 9.0),
        lambda g: g.scale_weight(0, 1, 2.0),
        lambda g: g.increase_weight(0, 1, 1.0),
        lambda g: g.increase_weights([(0, 1)], np.array([1.0])),
    ])
    def test_every_mutator_raises(self, mutate):
        frozen = self._frozen()
        with pytest.raises(FrozenGraphError):
            mutate(frozen)
        # The failed mutation must not have leaked through.
        assert frozen.num_edges == 3
        assert frozen.weight(0, 1) == 1.0

    def test_copy_returns_mutable_graph(self):
        frozen = self._frozen()
        clone = frozen.copy()
        assert type(clone) is Graph
        clone.add_edge(0, 3, 1.0)
        assert clone.num_edges == 4
        assert frozen.num_edges == 3

    def test_from_arrays_marks_buffers_readonly(self):
        graph = grid_circuit_2d(4, seed=0)
        us, vs, ws = graph.edge_arrays()
        frozen = FrozenGraph.from_arrays(graph.num_nodes, us, vs, ws)
        assert frozen.num_edges == graph.num_edges
        fus, fvs, fws = frozen.edge_arrays()
        assert np.shares_memory(fus, us)
        assert not fws.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            fws[0] = 99.0


class TestSnapshotCapture:
    def test_capture_requires_setup(self):
        driver = InGrassSparsifier(InGrassConfig())
        with pytest.raises(RuntimeError):
            SparsifierSnapshot.capture(driver)

    def test_capture_shares_edge_buffers(self, churn_driver):
        driver, _ = churn_driver
        snap = driver.snapshot()
        for mine, live in zip(snap.graph_arrays(), driver.graph.edge_arrays()):
            assert np.shares_memory(mine, live)
        for mine, live in zip(snap.sparsifier_arrays(),
                              driver.sparsifier.edge_arrays()):
            assert np.shares_memory(mine, live)

    def test_snapshot_is_anchored_to_version(self, churn_driver):
        driver, scenario = churn_driver
        snap = driver.snapshot()
        assert snap.version == driver.latest_version == 1
        driver.update(scenario.batches[0])
        assert driver.latest_version > snap.version
        assert driver.snapshot().version == driver.latest_version

    def test_hierarchy_state_matches_capture_epoch(self, churn_driver):
        driver, _ = churn_driver
        hierarchy = driver.setup_result.hierarchy
        snap = driver.snapshot()
        state = snap.hierarchy_state
        assert state.version == hierarchy.version
        assert state.labels_version == hierarchy.labels_version
        assert state.num_levels == hierarchy.num_levels
        assert not state.embedding.flags.writeable
        np.testing.assert_array_equal(state.level_labels(0),
                                      hierarchy.level(0).labels)

    def test_config_is_pinned(self, churn_driver):
        driver, _ = churn_driver
        snap = driver.snapshot()
        assert snap.filtering_level == driver._resolved_config().filtering_level
        assert snap.target_condition_number == driver.target_condition_number


class TestSnapshotQueries:
    def test_effective_resistance_matches_ground_truth(self, churn_driver):
        driver, _ = churn_driver
        snap = driver.snapshot()
        for u, v in [(0, 1), (0, 63), (10, 42)]:
            exact = effective_resistance(driver.sparsifier, u, v)
            assert snap.effective_resistance(u, v) == pytest.approx(exact, rel=1e-9)
            exact_g = effective_resistance(driver.graph, u, v)
            assert snap.effective_resistance(u, v, on="graph") == pytest.approx(
                exact_g, rel=1e-9)

    def test_effective_resistance_validates_inputs(self, churn_driver):
        driver, _ = churn_driver
        snap = driver.snapshot()
        assert snap.effective_resistance(5, 5) == 0.0
        with pytest.raises(ValueError):
            snap.effective_resistance(0, snap.num_nodes)
        with pytest.raises(ValueError):
            snap.effective_resistance(0, 1, on="tree")

    def test_solve_is_preconditioned_by_the_epoch_sparsifier(self, churn_driver):
        driver, _ = churn_driver
        snap = driver.snapshot()
        b = np.zeros(snap.num_nodes)
        b[0], b[-1] = 1.0, -1.0
        pcg = snap.solve(b)
        assert pcg.converged
        plain = snap.solve(b, preconditioned=False)
        assert plain.converged
        assert pcg.iterations <= plain.iterations
        # Non-default solve parameters share the same cached factorisation.
        loose = snap.solve(b, tol=1e-4)
        assert loose.iterations <= pcg.iterations
        np.testing.assert_allclose(pcg.solution[0] - pcg.solution[-1],
                                   snap.effective_resistance(0, snap.num_nodes - 1,
                                                             on="graph"),
                                   rtol=1e-6)

    def test_condition_number_and_report(self, churn_driver):
        driver, _ = churn_driver
        snap = driver.snapshot()
        kappa = snap.condition_number()
        assert kappa >= 1.0
        report = snap.report()
        assert report.condition_number == pytest.approx(kappa)
        described = snap.describe()
        assert described["version"] == snap.version
        assert described["sparsifier_edges"] == snap.num_sparsifier_edges

    def test_answers_survive_writer_churn_bit_exact(self, churn_driver):
        driver, scenario = churn_driver
        snap = driver.snapshot()
        before = [snap.effective_resistance(u, v) for u, v in [(0, 7), (3, 60)]]
        frozen_bytes = snap.sparsifier_arrays()[2].tobytes()
        for batch in scenario.batches:
            driver.update(batch)
        after = [snap.effective_resistance(u, v) for u, v in [(0, 7), (3, 60)]]
        assert before == after  # bit-exact: same solver, same buffers
        assert snap.sparsifier_arrays()[2].tobytes() == frozen_bytes
        assert driver.snapshot().num_graph_edges != snap.num_graph_edges or \
            driver.snapshot().num_sparsifier_edges != snap.num_sparsifier_edges

    def test_snapshot_graphs_are_frozen(self, churn_driver):
        driver, _ = churn_driver
        snap = driver.snapshot()
        with pytest.raises(FrozenGraphError):
            snap.graph.add_edge(0, 1, 1.0)
        with pytest.raises(FrozenGraphError):
            snap.sparsifier.remove_edge(*next(iter(snap.sparsifier.edges()))[:2])
        mutable = snap.graph.copy()
        mutable.add_edge(0, 2, 5.0)  # escape hatch stays open


def _tiny_hierarchy() -> ClusterHierarchy:
    labels0 = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
    labels1 = np.array([0, 0, 0, 0, 1, 1], dtype=np.int64)
    return ClusterHierarchy([
        LRDLevel(labels0, np.array([0.5, 0.6, 0.7]), 1.0),
        LRDLevel(labels1, np.array([1.5, 1.7]), 2.0),
    ])


class TestHierarchyCopyOnWrite:
    def test_export_is_o1_and_readonly(self):
        hierarchy = _tiny_hierarchy()
        state = hierarchy.export_state()
        assert hierarchy.cow_shared
        assert np.shares_memory(state.embedding, hierarchy._embedding)
        assert not state.embedding.flags.writeable
        assert hierarchy.cow_copies == 0

    def test_mutation_detaches_exactly_once(self):
        hierarchy = _tiny_hierarchy()
        state = hierarchy.export_state()
        exported = state.level_labels(0).copy()
        hierarchy.relabel_nodes(0, np.array([1]), 2)
        assert hierarchy.cow_copies == 1
        assert not np.shares_memory(state.embedding, hierarchy._embedding)
        # Further mutations in the same epoch reuse the detached buffers.
        hierarchy.set_cluster_diameter(0, 0, 0.9)
        hierarchy.append_cluster(1, 0.1)
        assert hierarchy.cow_copies == 1
        # The exported view still answers with the capture-time labels.
        np.testing.assert_array_equal(state.level_labels(0), exported)
        assert hierarchy.cluster_of(1, 0) == 2

    def test_no_copy_without_outstanding_export(self):
        hierarchy = _tiny_hierarchy()
        hierarchy.relabel_nodes(0, np.array([1]), 2)
        hierarchy.set_cluster_diameter(0, 0, 0.9)
        assert hierarchy.cow_copies == 0

    def test_each_export_epoch_detaches_independently(self):
        hierarchy = _tiny_hierarchy()
        first = hierarchy.export_state()
        hierarchy.relabel_nodes(0, np.array([1]), 2)
        second = hierarchy.export_state()
        hierarchy.relabel_nodes(0, np.array([0]), 2)
        assert hierarchy.cow_copies == 2
        assert first.level_labels(0)[1] == 0
        assert second.level_labels(0)[1] == 2
        assert hierarchy.cluster_of(0, 0) == 2

    def test_levels_stay_views_of_embedding_after_detach(self):
        hierarchy = _tiny_hierarchy()
        hierarchy.export_state()
        hierarchy.relabel_nodes(0, np.array([1]), 2)
        for index in range(hierarchy.num_levels):
            assert np.shares_memory(hierarchy.level(index).labels,
                                    hierarchy._embedding)

    def test_similarity_filter_reads_live_labels_across_detach(self):
        # Regression: the filter must not cache the label array object — a
        # COW detach re-points level.labels at a fresh buffer, and a cached
        # reference would keep reading the frozen pre-detach labels (which
        # silently changes filtering decisions after any snapshot capture).
        from repro.core.filtering import SimilarityFilter

        hierarchy = _tiny_hierarchy()
        sparsifier = Graph(3)
        sparsifier.add_edge(0, 1, 1.0)
        sparsifier.add_edge(1, 2, 1.0)
        similarity_filter = SimilarityFilter(sparsifier, hierarchy, 0)
        assert similarity_filter._labels is hierarchy.level(0).labels
        hierarchy.export_state()
        hierarchy.relabel_nodes(0, np.array([1]), 2)  # triggers the detach
        assert similarity_filter._labels is hierarchy.level(0).labels
        assert similarity_filter._labels[1] == 2

    def test_snapshot_capture_never_perturbs_the_writer(self, churn_driver):
        # End-to-end form of the same guarantee: interleaving snapshot
        # captures (reader traffic) with the churn stream must leave the
        # writer's trajectory bit-identical to an uninterrupted replay.
        driver, scenario = churn_driver
        reference = InGrassSparsifier(InGrassConfig(seed=3))
        reference.setup(scenario.graph, scenario.initial_sparsifier,
                        target_condition_number=scenario.initial_condition_number)
        for batch in scenario.batches:
            reference.update(batch)
        for batch in scenario.batches:
            before = SparsifierSnapshot.capture(driver)
            before.effective_resistance(0, 1)
            driver.update(batch)
            SparsifierSnapshot.capture(driver).effective_resistance(1, 2)
        assert dict(driver.sparsifier._edges) == dict(reference.sparsifier._edges)
        assert dict(driver.graph._edges) == dict(reference.graph._edges)
