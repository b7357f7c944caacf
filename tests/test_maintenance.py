"""Unit tests for incremental LRD hierarchy maintenance and its satellites.

Covers the in-place mutation API of :class:`ClusterHierarchy`, the
:class:`HierarchyMaintainer` splice/merge mechanics, the similarity filter's
cluster-rename protocol, the weight-change driver path and the rebuild-mode
diameter clamp.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    HierarchyMaintainer,
    InGrassConfig,
    InGrassSparsifier,
    LRDConfig,
    SimilarityFilter,
    cluster_diameter_bound,
    decompose_node_subset,
    run_setup,
)
from repro.core.hierarchy import ClusterHierarchy, LRDLevel
from repro.graphs import Graph, canonical_edge, grid_circuit_2d, is_connected
from repro.spectral import ExactResistanceCalculator
from repro.streams import (
    DeletionEvent,
    InsertionEvent,
    MixedBatch,
    WeightChangeEvent,
    removable_edges,
    weight_change_edges,
)


def _exact_setup(sparsifier: Graph):
    return run_setup(sparsifier, InGrassConfig(lrd=LRDConfig(resistance_method="exact", seed=0)))


class TestHierarchyMutationAPI:
    def _toy(self) -> ClusterHierarchy:
        level0 = LRDLevel(labels=np.array([0, 0, 1, 1, 2, 2]),
                          cluster_diameters=np.array([1.0, 2.0, 3.0]),
                          diameter_threshold=3.0)
        level1 = LRDLevel(labels=np.zeros(6, dtype=np.int64),
                          cluster_diameters=np.array([10.0]), diameter_threshold=10.0)
        return ClusterHierarchy([level0, level1])

    def test_labels_are_embedding_views(self):
        hierarchy = self._toy()
        hierarchy.relabel_nodes(0, np.array([2, 3]), 0)
        # The level's label array and the embedding stay in sync.
        assert hierarchy.level(0).labels.tolist() == [0, 0, 0, 0, 2, 2]
        assert hierarchy.embedding_vector(2).tolist() == [0, 0]
        assert hierarchy.cluster_of(3, 0) == 0

    def test_version_counters(self):
        hierarchy = self._toy()
        assert hierarchy.version == 0
        assert hierarchy.labels_version == 0
        hierarchy.set_cluster_diameter(0, 1, 5.0)
        assert hierarchy.version == 1
        assert hierarchy.labels_version == 0
        hierarchy.relabel_nodes(0, np.array([2]), 0)
        assert hierarchy.labels_version == 1
        assert hierarchy.level_labels_version(0) == 1
        assert hierarchy.level_labels_version(1) == 0

    def test_append_cluster_and_relabel(self):
        hierarchy = self._toy()
        fresh = hierarchy.append_cluster(0, 4.5)
        assert fresh == 3
        hierarchy.relabel_nodes(0, np.array([5]), fresh)
        assert hierarchy.cluster_of(5, 0) == 3
        assert hierarchy.level(0).cluster_diameters[3] == pytest.approx(4.5)
        # Resistance bounds follow the relabel: 4 and 5 no longer share level 0.
        assert hierarchy.first_common_level(4, 5) == 1
        assert hierarchy.resistance_upper_bound(4, 5) == pytest.approx(10.0)

    def test_out_of_range_mutations_raise(self):
        hierarchy = self._toy()
        with pytest.raises(IndexError):
            hierarchy.set_cluster_diameter(0, 7, 1.0)
        with pytest.raises(IndexError):
            hierarchy.relabel_nodes(0, np.array([0]), 9)

    def test_record_removal_bumps_counter_without_diameters(self):
        hierarchy = self._toy()
        before = hierarchy.level(0).cluster_diameters.copy()
        hierarchy.record_removal()
        assert hierarchy.noted_removals == 1
        assert np.array_equal(hierarchy.level(0).cluster_diameters, before)

    def test_note_edge_removed_clamps_at_fallback(self):
        hierarchy = self._toy()
        ceiling = hierarchy.fallback_resistance()
        for _ in range(200):
            hierarchy.note_edge_removed(0, 1, inflation_factor=2.0)
        # Compounding stops at the fallback bound instead of overflowing.
        assert hierarchy.level(0).cluster_diameters[0] <= ceiling * 2.0 + 1e-9
        assert np.isfinite(hierarchy.level(0).cluster_diameters).all()


class TestLocalizedDecomposition:
    def test_path_cut_in_half_splits(self):
        # 0-1-2-3 with the middle edge gone: two fragments, exact diameters.
        graph = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        fragments, diameters = decompose_node_subset(graph, np.arange(4), threshold=10.0)
        assert sorted(tuple(f) for f in fragments) == [(0, 1), (2, 3)]
        assert all(d == pytest.approx(1.0) for d in diameters)

    def test_threshold_splits_connected_cluster(self):
        # A connected path whose total resistance exceeds the threshold must
        # split the way a fresh bounded-diameter contraction would.
        graph = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        fragments, diameters = decompose_node_subset(graph, np.arange(4), threshold=1.5)
        assert len(fragments) >= 2
        for fragment, diameter in zip(fragments, diameters):
            if fragment.shape[0] > 1:
                exact = cluster_diameter_bound(graph, fragment)
                assert diameter == pytest.approx(exact)

    def test_atoms_never_separated(self):
        # Nodes 0,1 form one atom; even though their connecting edge is weak,
        # the re-decomposition must keep them together (nesting invariant).
        graph = Graph(4, [(0, 1, 0.01), (1, 2, 1.0), (2, 3, 1.0)])
        atoms = np.array([7, 7, 8, 9])
        fragments, _ = decompose_node_subset(graph, np.arange(4), threshold=0.5, atoms=atoms)
        for fragment in fragments:
            members = set(fragment.tolist())
            assert not ({0, 1} & members) or {0, 1} <= members

    def test_cluster_diameter_bound_exact_small(self):
        graph = Graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        # Series resistances: R(0,2) = 1 + 0.5 = 1.5 is the diameter.
        assert cluster_diameter_bound(graph, np.arange(3)) == pytest.approx(1.5)

    def test_cluster_diameter_bound_tree_path_is_upper_bound(self):
        graph = grid_circuit_2d(8, seed=2)
        nodes = np.arange(graph.num_nodes)
        loose = cluster_diameter_bound(graph, nodes, exact_limit=4)
        exact = ExactResistanceCalculator(graph)
        worst = max(exact.resistance(0, q) for q in range(1, graph.num_nodes))
        assert loose >= worst - 1e-9

    def test_disconnected_cluster_raises(self):
        graph = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            cluster_diameter_bound(graph, np.arange(4))


class TestHierarchyMaintainer:
    def _setup_pair(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        working = sparsifier.copy()
        setup = _exact_setup(working)
        maintainer = HierarchyMaintainer(setup.hierarchy, working,
                                         lrd_config=LRDConfig(resistance_method="exact", seed=0))
        return working, setup, maintainer

    def test_removal_recomputes_instead_of_inflating(self, grid_with_sparsifier):
        working, setup, maintainer = self._setup_pair(grid_with_sparsifier)
        hierarchy = setup.hierarchy
        # Pick a removable (cycle) sparsifier edge so connectivity survives.
        pair = next(iter(e for e in removable_edges(working, 1, seed=3)))
        level_index = hierarchy.first_common_level(*pair)
        assert level_index is not None
        weight = working.remove_edge(*pair)
        report = maintainer.note_removals([(pair[0], pair[1], weight)])
        assert report.spliced
        assert hierarchy.noted_removals == 1
        assert maintainer.stats.removals == 1
        assert maintainer.stats.diameter_recomputes >= 1

    def test_split_when_cluster_disconnects(self):
        # Two triangles joined by a single bridge-ish edge; decompose with a
        # huge threshold so everything lands in one level-0 cluster, then cut
        # the bridge: the cluster must split into the two triangles.
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                 (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 1.0)]
        sparsifier = Graph(6, edges)
        config = InGrassConfig(lrd=LRDConfig(resistance_method="exact",
                                             initial_diameter=100.0, seed=0))
        setup = run_setup(sparsifier, config)
        hierarchy = setup.hierarchy
        assert hierarchy.first_common_level(0, 5) == 0
        maintainer = HierarchyMaintainer(hierarchy, sparsifier, lrd_config=config.lrd)
        weight = sparsifier.remove_edge(2, 3)
        report = maintainer.note_removals([(2, 3, weight)])
        assert report.splits >= 1
        # The two triangles no longer share the finest cluster.
        assert hierarchy.cluster_of(0, 0) != hierarchy.cluster_of(5, 0)
        # Nodes within one triangle still do.
        assert hierarchy.cluster_of(0, 0) == hierarchy.cluster_of(1, 0)
        assert hierarchy.cluster_of(3, 0) == hierarchy.cluster_of(5, 0)

    def test_nesting_preserved_under_churn(self, grid_with_sparsifier):
        working, setup, maintainer = self._setup_pair(grid_with_sparsifier)
        hierarchy = setup.hierarchy
        for seed in range(3):
            pairs = [e for e in removable_edges(working, 3, seed=seed)]
            removed = []
            for u, v in pairs:
                removed.append((u, v, working.remove_edge(u, v)))
            maintainer.note_removals(removed)
        for fine, coarse in zip(hierarchy.levels, hierarchy.levels[1:]):
            mapping = {}
            for node in range(hierarchy.num_nodes):
                fine_label = int(fine.labels[node])
                coarse_label = int(coarse.labels[node])
                assert mapping.setdefault(fine_label, coarse_label) == coarse_label

    def test_merge_on_insertion(self):
        # Two 2-cliques at level 0; adding a heavy edge between them lets the
        # maintainer fuse the clusters (merged diameter fits the threshold).
        sparsifier = Graph(4, [(0, 1, 10.0), (2, 3, 10.0), (1, 2, 0.001)])
        config = InGrassConfig(lrd=LRDConfig(resistance_method="exact",
                                             initial_diameter=0.5, seed=0))
        setup = run_setup(sparsifier, config)
        hierarchy = setup.hierarchy
        assert hierarchy.cluster_of(1, 0) != hierarchy.cluster_of(2, 0)
        maintainer = HierarchyMaintainer(hierarchy, sparsifier, lrd_config=config.lrd)
        sparsifier.add_edge(1, 2, 100.0, merge="add")
        merges = maintainer.note_insertions([(1, 2, 100.0)])
        assert merges >= 1
        assert hierarchy.cluster_of(1, 0) == hierarchy.cluster_of(2, 0)

    def test_merge_respects_threshold(self):
        # The joining edge is too weak: merged diameter exceeds the level
        # threshold, so the clusters stay apart.
        sparsifier = Graph(4, [(0, 1, 10.0), (2, 3, 10.0), (1, 2, 0.001)])
        config = InGrassConfig(lrd=LRDConfig(resistance_method="exact",
                                             initial_diameter=0.5, seed=0))
        setup = run_setup(sparsifier, config)
        hierarchy = setup.hierarchy
        maintainer = HierarchyMaintainer(hierarchy, sparsifier, lrd_config=config.lrd)
        merges = maintainer.note_insertions([(1, 2, 0.001)])
        assert merges == 0
        assert hierarchy.cluster_of(1, 0) != hierarchy.cluster_of(2, 0)


class TestFilterRenameProtocol:
    def _build(self, grid_with_sparsifier, level=0):
        _, sparsifier = grid_with_sparsifier
        working = sparsifier.copy()
        setup = _exact_setup(working)
        similarity_filter = SimilarityFilter(working, setup.hierarchy, level)
        return working, setup, similarity_filter

    def test_rekeyed_map_matches_rebuild(self, grid_with_sparsifier):
        working, setup, similarity_filter = self._build(grid_with_sparsifier)
        maintainer = HierarchyMaintainer(setup.hierarchy, working,
                                         lrd_config=LRDConfig(resistance_method="exact", seed=0))
        for seed in range(3):
            pairs = [canonical_edge(u, v) for u, v in removable_edges(working, 2, seed=seed)]
            removed, _, _ = similarity_filter.drop_edges(pairs, [None] * len(pairs))
            maintainer.note_removals(removed, similarity_filter=similarity_filter)
        assert similarity_filter.in_sync_with_hierarchy()
        rebuilt = SimilarityFilter(working, setup.hierarchy, similarity_filter.filtering_level)
        assert similarity_filter._connectivity == rebuilt._connectivity
        assert dict(similarity_filter._intra_cluster_edges) == dict(rebuilt._intra_cluster_edges)

    def test_out_of_band_relabel_detected_and_resynced(self, grid_with_sparsifier):
        working, setup, similarity_filter = self._build(grid_with_sparsifier)
        hierarchy = setup.hierarchy
        level = similarity_filter.filtering_level
        labels = hierarchy.level(level).labels
        cluster = int(labels[0])
        nodes = np.flatnonzero(labels == cluster)
        fresh = hierarchy.append_cluster(level, 1.0)
        hierarchy.relabel_nodes(level, nodes, fresh)
        assert not similarity_filter.in_sync_with_hierarchy()
        similarity_filter.resync()
        assert similarity_filter.in_sync_with_hierarchy()
        rebuilt = SimilarityFilter(working, hierarchy, level)
        assert similarity_filter._connectivity == rebuilt._connectivity

    def test_unregister_register_roundtrip(self, grid_with_sparsifier):
        working, _, similarity_filter = self._build(grid_with_sparsifier)
        snapshot = {pair: dict(bucket) for pair, bucket in similarity_filter._connectivity.items()}
        nodes = np.arange(10)
        pending = similarity_filter.unregister_incident_edges(nodes)
        assert pending
        similarity_filter.register_edges(pending)
        assert similarity_filter._connectivity == snapshot


class TestWeightChangePath:
    def test_event_and_batch_plumbing(self):
        event = WeightChangeEvent(5, 2, 0.25)
        assert event.edge == (2, 5, 0.25)
        batch = MixedBatch.from_events([
            DeletionEvent(0, 1), WeightChangeEvent(2, 3, 1.0), InsertionEvent(4, 5, 2.0),
        ])
        assert batch.deletions == [(0, 1)]
        assert batch.weight_changes == [(2, 3, 1.0)]
        assert batch.insertions == [(4, 5, 2.0)]
        assert batch.num_events == 3
        kinds = [type(e).__name__ for e in batch.events()]
        assert kinds == ["DeletionEvent", "WeightChangeEvent", "InsertionEvent"]

    def test_from_events_rejects_reweight_after_delete(self):
        with pytest.raises(ValueError):
            MixedBatch.from_events([DeletionEvent(0, 1), WeightChangeEvent(0, 1, 1.0)])
        with pytest.raises(ValueError):
            MixedBatch.from_events([InsertionEvent(0, 1, 1.0), WeightChangeEvent(0, 1, 1.0)])

    def test_from_events_rejects_delete_after_reweight(self):
        # The batch order (deletions first) would silently reorder this into
        # a mid-batch crash — it must be rejected up front.
        with pytest.raises(ValueError):
            MixedBatch.from_events([WeightChangeEvent(1, 2, 0.5), DeletionEvent(1, 2)])

    def test_weight_change_edges_sampler(self, medium_grid):
        changes = weight_change_edges(medium_grid, 12, seed=5)
        assert len(changes) == 12
        seen = set()
        for u, v, delta in changes:
            assert medium_grid.has_edge(u, v)
            assert delta > 0
            assert (u, v) not in seen
            seen.add((u, v))

    def test_driver_reweight_no_round_trip(self, medium_grid):
        ingrass = InGrassSparsifier(InGrassConfig(seed=0))
        ingrass.setup(medium_grid, target_condition_number=64.0)
        kappa_before = ingrass.condition_number(dense_limit=400)
        changes = weight_change_edges(ingrass.graph, 15, seed=7)
        expected = {(u, v): ingrass.graph.weight(u, v) + d for u, v, d in changes}
        result = ingrass.apply_batch(MixedBatch(weight_changes=changes)).reweight
        assert result.direct + result.reassigned + result.admitted == 15
        for (u, v), weight in expected.items():
            assert ingrass.graph.weight(u, v) == pytest.approx(weight)
        # Reinforcing existing wires cannot degrade the sparsifier's quality
        # guarantees: the sparsifier still supports the graph and κ stays sane.
        assert is_connected(ingrass.sparsifier)
        for u, v in ingrass.sparsifier.edges():
            assert ingrass.graph.has_edge(u, v)
        assert ingrass.condition_number(dense_limit=400) <= 2.0 * kappa_before
        assert ingrass.history[-1].reweighted_edges == 15

    def test_mixed_batch_with_weight_changes(self, medium_grid):
        ingrass = InGrassSparsifier(InGrassConfig(seed=0, hierarchy_mode="maintain"))
        ingrass.setup(medium_grid, target_condition_number=64.0)
        deletions = [e for e in removable_edges(ingrass.graph, 2, seed=1)]
        protect = set(deletions)
        changes = [c for c in weight_change_edges(ingrass.graph, 8, seed=2)
                   if (c[0], c[1]) not in protect]
        from repro.streams import random_pair_edges

        insertions = random_pair_edges(ingrass.graph, 3, seed=3)
        batch = MixedBatch(insertions=insertions, deletions=deletions,
                           weight_changes=changes)
        result = ingrass.apply_batch(batch)
        assert result.reweight is not None
        assert len(result.reweight.applied) == len(changes)
        assert ingrass.history[-1].reweighted_edges == len(changes)
        assert is_connected(ingrass.sparsifier)

    def test_reweight_rejects_missing_edge_and_bad_delta(self, medium_grid):
        from repro.graphs.validation import GraphValidationError

        ingrass = InGrassSparsifier(InGrassConfig(seed=0))
        ingrass.setup(medium_grid, target_condition_number=64.0)
        missing = None
        n = medium_grid.num_nodes
        for u in range(n):
            for v in range(u + 1, n):
                if not medium_grid.has_edge(u, v):
                    missing = (u, v)
                    break
            if missing:
                break
        with pytest.raises(GraphValidationError):
            ingrass.apply_batch(MixedBatch(weight_changes=[(missing[0], missing[1], 1.0)]))
        edge = next(iter(medium_grid.edges()))
        with pytest.raises(GraphValidationError):
            ingrass.apply_batch(MixedBatch(weight_changes=[(edge[0], edge[1], -1.0)]))


class TestDriverModes:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            InGrassConfig(hierarchy_mode="bogus")

    def test_maintain_mode_skips_resetups(self, medium_grid):
        results = {}
        for mode in ("rebuild", "maintain"):
            ingrass = InGrassSparsifier(
                InGrassConfig(seed=0, hierarchy_mode=mode, resetup_after_removals=2))
            ingrass.setup(medium_grid, target_condition_number=64.0)
            removed = 0
            for seed in range(8):
                pairs = [edge for edge in removable_edges(ingrass.graph, 4, seed=seed)
                         if ingrass.sparsifier.has_edge(*edge)][:2]
                if not pairs:
                    continue
                ingrass.apply_batch(MixedBatch(deletions=pairs))
                removed += len(pairs)
                if removed >= 4:
                    break
            results[mode] = ingrass
        assert results["rebuild"].full_resetups >= 1
        assert results["maintain"].full_resetups == 0
        assert results["maintain"].maintenance_stats.removals > 0
        assert results["maintain"].maintainer is not None
        assert results["rebuild"].maintainer is None

    def test_refresh_rebuilds_maintainer(self, medium_grid):
        ingrass = InGrassSparsifier(InGrassConfig(seed=0, hierarchy_mode="maintain"))
        ingrass.setup(medium_grid, target_condition_number=64.0)
        pairs = [edge for edge in removable_edges(ingrass.graph, 4, seed=0)
                 if ingrass.sparsifier.has_edge(*edge)][:1]
        assert pairs, "expected a removable sparsifier edge"
        ingrass.apply_batch(MixedBatch(deletions=pairs))
        first = ingrass.maintainer
        assert first is not None
        ingrass.refresh_setup()
        assert ingrass.full_resetups == 1
        assert ingrass.resetup_seconds > 0.0
        ingrass.apply_batch(MixedBatch(deletions=[
            edge for edge in removable_edges(ingrass.graph, 4, seed=1)
            if ingrass.sparsifier.has_edge(*edge)][:1]))
        assert ingrass.maintainer is not first
