"""Tests for the fully dynamic update subsystem: deletion events, mixed
batches, the sparsifier repair path, cache invalidation hooks and the κ
guard."""

from __future__ import annotations

import pytest

from repro.core import (
    InGrassConfig,
    InGrassSparsifier,
    LRDConfig,
    MixedUpdateResult,
    SimilarityFilter,
    lrd_decompose,
    run_kappa_guard,
    run_removal,
    run_setup,
)
from repro.core.update import KAPPA_GUARD_MAX_ROUNDS
from repro.graphs import (
    Graph,
    GraphValidationError,
    bridge_edges,
    canonical_edge,
    cycle_graph,
    grid_circuit_2d,
    is_connected,
    non_bridge_edges,
    path_graph,
    removals_keep_connected,
    validate_removals,
)
from repro.spectral import relative_condition_number
from repro.streams import (
    DeletionEvent,
    DynamicScenarioConfig,
    InsertionEvent,
    MixedBatch,
    build_churn_scenario,
    build_deletion_scenario,
    removable_edges,
)


class TestBridges:
    def test_path_is_all_bridges(self):
        graph = path_graph(6)
        assert sorted(bridge_edges(graph)) == sorted(graph.edges())
        assert non_bridge_edges(graph) == []

    def test_cycle_has_no_bridges(self):
        graph = cycle_graph(6)
        assert bridge_edges(graph) == []
        assert sorted(non_bridge_edges(graph)) == sorted(graph.edges())

    def test_bridge_between_two_cycles(self):
        # Two triangles joined by one bridge edge (2, 3).
        graph = Graph(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                          (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 1.0)])
        assert bridge_edges(graph) == [(2, 3)]


class TestRemovalValidation:
    def test_validate_removals_cleans_and_dedupes(self, small_grid):
        edge = next(iter(small_grid.edges()))
        pairs = validate_removals(small_grid, [edge, (edge[1], edge[0]), edge])
        assert pairs == [edge]

    def test_validate_removals_missing_policies(self, small_grid):
        with pytest.raises(GraphValidationError):
            validate_removals(small_grid, [(0, 0)])
        with pytest.raises(GraphValidationError):
            validate_removals(small_grid, [(0, small_grid.num_nodes + 5)])
        missing = (0, small_grid.num_nodes - 1)
        if not small_grid.has_edge(*missing):
            with pytest.raises(GraphValidationError):
                validate_removals(small_grid, [missing])
            assert validate_removals(small_grid, [missing], missing="skip") == []

    def test_removals_keep_connected(self):
        graph = cycle_graph(5)
        one = [(0, 1)]
        assert removals_keep_connected(graph, one)
        # Removing two edges of a cycle always disconnects it.
        assert not removals_keep_connected(graph, [(0, 1), (2, 3)])


class TestRemovableEdges:
    def test_sequential_removal_keeps_connectivity(self, medium_grid):
        edges = removable_edges(medium_grid, 30, seed=0)
        assert len(edges) == 30
        working = medium_grid.copy()
        for u, v in edges:
            working.remove_edge(u, v)
            assert is_connected(working)

    def test_tree_offers_no_removable_edges(self):
        assert removable_edges(path_graph(8), 3, seed=0) == []

    def test_protect_is_honoured(self, small_grid):
        protect = set(list(small_grid.edges())[:20])
        edges = removable_edges(small_grid, 10, seed=1, protect=protect)
        assert not protect & set(edges)


class TestMixedBatchModel:
    def test_counts_and_fraction(self):
        batch = MixedBatch(insertions=[(0, 1, 1.0), (1, 2, 2.0)], deletions=[(3, 4)])
        assert batch.num_events == 3
        assert len(batch) == 3
        assert batch.deletion_fraction == pytest.approx(1 / 3)
        assert bool(batch)
        assert not MixedBatch()
        assert MixedBatch().deletion_fraction == 0.0

    def test_events_order_deletions_first(self):
        batch = MixedBatch(insertions=[(0, 1, 1.0)], deletions=[(3, 4)])
        events = list(batch.events())
        assert isinstance(events[0], DeletionEvent)
        assert isinstance(events[1], InsertionEvent)
        assert events[0].edge == (3, 4)
        assert events[1].edge == (0, 1, 1.0)

    def test_from_events_roundtrip(self):
        events = [InsertionEvent(5, 2, 1.5), DeletionEvent(7, 3)]
        batch = MixedBatch.from_events(events)
        assert batch.insertions == [(2, 5, 1.5)]
        assert batch.deletions == [(3, 7)]
        with pytest.raises(TypeError):
            MixedBatch.from_events([object()])

    def test_from_events_rejects_insert_then_delete(self):
        # Insert-then-delete of the same edge cannot be represented by one
        # batch (deletions apply first) — must be rejected, not reordered.
        events = [InsertionEvent(1, 2, 1.0), DeletionEvent(2, 1)]
        with pytest.raises(ValueError, match="inserted and then deleted"):
            MixedBatch.from_events(events)

    def test_from_events_allows_delete_then_insert(self):
        # A switch swap — delete the old strap, wire a replacement on the
        # same pair — matches the batch's deletions-first order exactly.
        batch = MixedBatch.from_events([DeletionEvent(1, 2), InsertionEvent(1, 2, 2.0)])
        assert batch.deletions == [(1, 2)]
        assert batch.insertions == [(1, 2, 2.0)]


class TestDynamicScenarios:
    def test_churn_scenario_structure(self):
        graph = grid_circuit_2d(12, seed=0)
        config = DynamicScenarioConfig(deletion_fraction=0.4, num_iterations=8,
                                       condition_dense_limit=400, seed=0)
        scenario = build_churn_scenario(graph, config)
        assert len(scenario.batches) == 8
        assert scenario.deletion_fraction == pytest.approx(0.4, abs=0.05)
        # Batch-by-batch application never disconnects the evolving graph.
        working = graph.copy()
        for batch in scenario.batches:
            for u, v in batch.deletions:
                working.remove_edge(u, v)
            working.add_edges(batch.insertions, merge="add")
            assert is_connected(working)
        assert working.num_edges == scenario.final_graph.num_edges

    def test_deletion_heavy_scenario(self):
        graph = grid_circuit_2d(10, seed=1)
        scenario = build_deletion_scenario(
            graph, DynamicScenarioConfig(deletion_fraction=0.75, num_iterations=5,
                                         condition_dense_limit=400, seed=1))
        assert scenario.deletion_fraction >= 0.6
        assert is_connected(scenario.final_graph)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DynamicScenarioConfig(deletion_fraction=1.5)
        with pytest.raises(ValueError):
            DynamicScenarioConfig(initial_offtree_density=0.4, final_offtree_density=0.3)


class TestFilterInvalidation:
    def _filter_at_level_zero(self, sparsifier):
        hierarchy = lrd_decompose(sparsifier, LRDConfig(seed=0))
        return SimilarityFilter(sparsifier, hierarchy, 0), hierarchy

    def test_removed_representative_keeps_map_consistent(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        working = sparsifier.copy()
        similarity_filter, hierarchy = self._filter_at_level_zero(working)
        labels = hierarchy.level(0).labels
        # Find a cluster pair connected by exactly one sparsifier edge.
        from collections import Counter

        pair_counts = Counter()
        pair_edge = {}
        for u, v in working.edges():
            if labels[u] != labels[v]:
                pair = tuple(sorted((int(labels[u]), int(labels[v]))))
                pair_counts[pair] += 1
                pair_edge[pair] = (u, v)
        single = next((pair for pair, count in pair_counts.items() if count == 1), None)
        if single is None:
            pytest.skip("no singly-connected cluster pair at level 0")
        u, v = pair_edge[single]
        assert similarity_filter.connects_clusters(u, v)
        removed, _, _ = similarity_filter.drop_edges([canonical_edge(u, v)], [None])
        assert [(a, b) for a, b, _ in removed] == [canonical_edge(u, v)]
        assert not working.has_edge(u, v)
        assert not similarity_filter.connects_clusters(u, v)
        # Re-adding restores the connection.
        working.add_edge(u, v, 1.0)
        similarity_filter.notify_edge_added(u, v)
        assert similarity_filter.connects_clusters(u, v)

    def test_multi_edge_pair_survives_one_removal(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        working = sparsifier.copy()
        similarity_filter, hierarchy = self._filter_at_level_zero(working)
        labels = hierarchy.level(0).labels
        from collections import Counter, defaultdict

        pair_edges = defaultdict(list)
        for u, v in working.edges():
            if labels[u] != labels[v]:
                pair = tuple(sorted((int(labels[u]), int(labels[v]))))
                pair_edges[pair].append((u, v))
        multi = next((edges for edges in pair_edges.values() if len(edges) >= 2), None)
        if multi is None:
            pytest.skip("no doubly-connected cluster pair at level 0")
        first, second = multi[0], multi[1]
        similarity_filter.drop_edges([canonical_edge(*first)], [None])
        assert not working.has_edge(*first)
        # The other edge still realises the connection.
        assert similarity_filter.connects_clusters(second[0], second[1])


class TestHierarchyInvalidation:
    def test_note_edge_removed_inflates_diameters(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        hierarchy = lrd_decompose(sparsifier, LRDConfig(seed=0))
        u, v = next(iter(sparsifier.edges()))
        level_index = hierarchy.first_common_level(u, v)
        assert level_index is not None
        cluster = hierarchy.cluster_of(u, level_index)
        before = float(hierarchy.level(level_index).cluster_diameters[cluster])
        touched = hierarchy.note_edge_removed(u, v, inflation_factor=1.5)
        assert touched >= 1
        after = float(hierarchy.level(level_index).cluster_diameters[cluster])
        assert after >= before * 1.5 - 1e-12 or after == pytest.approx(1e-12)
        assert hierarchy.noted_removals == 1
        assert hierarchy.needs_refresh(1)
        assert not hierarchy.needs_refresh(2)
        hierarchy.reset_staleness()
        assert hierarchy.noted_removals == 0

    def test_invalid_inflation_rejected(self, grid_with_sparsifier):
        _, sparsifier = grid_with_sparsifier
        hierarchy = lrd_decompose(sparsifier, LRDConfig(seed=0))
        with pytest.raises(ValueError):
            hierarchy.note_edge_removed(0, 1, inflation_factor=0.5)
        with pytest.raises(ValueError):
            hierarchy.needs_refresh(0)


class TestRunRemoval:
    @pytest.fixture
    def dynamic_pair(self, grid_with_sparsifier):
        graph, sparsifier = grid_with_sparsifier
        working_graph = graph.copy()
        working = sparsifier.copy()
        setup = run_setup(working, InGrassConfig(lrd=LRDConfig(seed=0)))
        return working_graph, working, setup

    @pytest.fixture
    def removal(self, stage_engine):
        """``run_removal`` with the filter and maintainer the driver would hand it."""

        def run(sparsifier, setup, removals, *, graph, config=InGrassConfig(), target=20.0):
            similarity_filter, maintainer = stage_engine(sparsifier, setup.hierarchy, config, target)
            return run_removal(sparsifier, removals, graph=graph, config=config,
                               similarity_filter=similarity_filter, maintainer=maintainer)

        return run

    def test_requires_graph_side_removal_first(self, dynamic_pair, removal):
        graph, sparsifier, setup = dynamic_pair
        edge = next(iter(sparsifier.edges()))
        with pytest.raises(GraphValidationError):
            removal(sparsifier, setup, [edge], graph=graph)

    def test_graph_only_removal_is_a_noop_for_sparsifier(self, dynamic_pair, removal):
        graph, sparsifier, setup = dynamic_pair
        only_graph = next(edge for edge in graph.edges() if not sparsifier.has_edge(*edge))
        graph.remove_edge(*only_graph)
        before = sparsifier.num_edges
        result = removal(sparsifier, setup, [only_graph], graph=graph)
        assert result.removed_from_sparsifier == []
        assert result.num_repairs == 0
        assert sparsifier.num_edges == before

    def test_sparsifier_removal_triggers_repair_and_stays_connected(self, dynamic_pair, removal):
        graph, sparsifier, setup = dynamic_pair
        shared = [edge for edge in removable_edges(graph, 12, seed=2)
                  if sparsifier.has_edge(*edge)]
        if not shared:
            pytest.skip("no removable edge shared between graph and sparsifier")
        pairs = shared[:4]
        for u, v in pairs:
            graph.remove_edge(u, v)
        # Pin rebuild mode: this test exercises the diameter-inflation
        # bookkeeping, which maintain mode (the default) replaces with
        # structural splices.
        result = removal(sparsifier, setup, pairs, graph=graph,
                         config=InGrassConfig(hierarchy_mode="rebuild"))
        assert len(result.removed_from_sparsifier) == len(pairs)
        assert is_connected(sparsifier)
        for u, v in pairs:
            assert not sparsifier.has_edge(u, v)
        # Repairs only re-use surviving graph edges.
        for u, v, _ in result.repaired_edges:
            assert graph.has_edge(u, v)
        assert result.inflated_levels >= len(pairs)

    def test_reconnection_after_cutting_a_sparsifier_bridge(self, removal):
        # A cycle graph sparsified down to a path: removing a path edge
        # disconnects the sparsifier and the repair must re-close it from
        # the surviving cycle edges.
        graph = cycle_graph(10)
        sparsifier = path_graph(10)  # spanning tree of the cycle
        setup = run_setup(sparsifier.copy(), InGrassConfig(lrd=LRDConfig(seed=0)))
        working = sparsifier.copy()
        working_graph = graph.copy()
        working_graph.remove_edge(4, 5)
        result = removal(working, setup, [(4, 5)], graph=working_graph, target=50.0)
        assert result.removed_from_sparsifier == [(4, 5, 1.0)]
        assert len(result.reconnection_edges) >= 1
        assert is_connected(working)

    def test_excess_weight_rehomed_on_removal(self, dynamic_pair, removal):
        """Weight parked on a removed sparsifier edge by earlier merges is
        re-homed onto surviving support instead of silently discarded."""
        graph, sparsifier, setup = dynamic_pair
        shared = [edge for edge in removable_edges(graph, 12, seed=7)
                  if sparsifier.has_edge(*edge)]
        if not shared:
            pytest.skip("no removable edge shared between graph and sparsifier")
        u, v = shared[0]
        sparsifier.increase_weight(u, v, 5.0)  # simulate earlier merge decisions
        carried = sparsifier.weight(u, v)
        physical = graph.remove_edge(u, v)
        result = removal(sparsifier, setup, [(u, v, physical)], graph=graph)
        excess = max(carried - physical, 0.0)
        assert result.reassigned_weight + result.discarded_weight == pytest.approx(excess)

    def test_pair_only_removals_skip_reassignment(self, dynamic_pair, removal):
        graph, sparsifier, setup = dynamic_pair
        shared = [edge for edge in removable_edges(graph, 12, seed=8)
                  if sparsifier.has_edge(*edge)]
        if not shared:
            pytest.skip("no removable edge shared between graph and sparsifier")
        u, v = shared[0]
        graph.remove_edge(u, v)
        result = removal(sparsifier, setup, [(u, v)], graph=graph)
        assert result.reassigned_weight == 0.0
        assert result.discarded_weight == 0.0

    def test_kappa_guard_restores_quality(self, dynamic_pair, stage_engine):
        graph, sparsifier, setup = dynamic_pair
        target = relative_condition_number(graph, sparsifier)
        config = InGrassConfig(kappa_guard_factor=1.5, kappa_guard_dense_limit=500,
                               lrd=LRDConfig(seed=0))
        # Damage the sparsifier: delete several carried edges from both views.
        shared = [edge for edge in removable_edges(graph, 20, seed=3)
                  if sparsifier.has_edge(*edge)][:6]
        if len(shared) < 2:
            pytest.skip("not enough shared removable edges")
        for u, v in shared:
            graph.remove_edge(u, v)
        similarity_filter, maintainer = stage_engine(sparsifier, setup.hierarchy, config, target)
        run_removal(sparsifier, shared, graph=graph, config=config,
                    similarity_filter=similarity_filter, maintainer=maintainer)
        report = run_kappa_guard(sparsifier, graph=graph, config=config,
                                 target_condition_number=target,
                                 similarity_filter=similarity_filter, maintainer=maintainer)
        assert report.kappa_after <= report.kappa_before + 1e-9
        assert report.satisfied or report.rounds == KAPPA_GUARD_MAX_ROUNDS

    def test_kappa_guard_requires_configuration(self, dynamic_pair, stage_engine):
        graph, sparsifier, setup = dynamic_pair
        config = InGrassConfig()
        similarity_filter, maintainer = stage_engine(sparsifier, setup.hierarchy, config, 10.0)
        with pytest.raises(ValueError):
            run_kappa_guard(sparsifier, graph=graph, config=config, target_condition_number=10.0,
                            similarity_filter=similarity_filter, maintainer=maintainer)


class TestDriverDynamics:
    def _driver(self, medium_grid, **config_kwargs):
        ingrass = InGrassSparsifier(InGrassConfig(seed=0, **config_kwargs))
        ingrass.setup(medium_grid, initial_offtree_density=0.15)
        return ingrass

    def test_update_accepts_generator(self, medium_grid):
        """Regression: a generator batch must be materialised exactly once."""
        from repro.streams import random_pair_edges

        ingrass = self._driver(medium_grid)
        edges = random_pair_edges(medium_grid, 9, seed=4)
        graph_edges_before = ingrass.graph.num_edges
        result = ingrass.apply_batch(edge for edge in edges)
        assert ingrass.graph.num_edges == graph_edges_before + 9
        assert result.insertion.summary.total == 9
        record = ingrass.history[-1]
        assert record.streamed_edges == 9

    def test_remove_updates_both_views(self, medium_grid):
        ingrass = self._driver(medium_grid)
        pairs = removable_edges(ingrass.graph, 5, seed=5)
        graph_before = ingrass.graph.num_edges
        result = ingrass.apply_batch(MixedBatch(deletions=pairs))
        assert ingrass.graph.num_edges == graph_before - len(pairs)
        assert is_connected(ingrass.sparsifier)
        record = ingrass.history[-1]
        assert record.removed_edges == len(pairs)
        assert record.streamed_edges == 0
        assert record.repair_edges == result.removal.num_repairs

    def test_remove_rejects_disconnecting_batch(self):
        graph = cycle_graph(8)
        ingrass = InGrassSparsifier(InGrassConfig(seed=0))
        ingrass.setup(graph, graph.copy())
        with pytest.raises(GraphValidationError):
            ingrass.apply_batch(MixedBatch(deletions=[(0, 1), (3, 4)]))
        # Nothing was mutated by the rejected batch.
        assert ingrass.graph.num_edges == graph.num_edges

    def test_remove_rejects_unknown_edge(self, medium_grid):
        ingrass = self._driver(medium_grid)
        missing = (0, medium_grid.num_nodes - 1)
        if ingrass.graph.has_edge(*missing):
            pytest.skip("edge unexpectedly present")
        with pytest.raises(GraphValidationError):
            ingrass.apply_batch(MixedBatch(deletions=[missing]))

    def test_mixed_batch_returns_mixed_result(self, medium_grid):
        from repro.streams import random_pair_edges

        ingrass = self._driver(medium_grid)
        deletions = removable_edges(ingrass.graph, 3, seed=6)
        insertions = random_pair_edges(ingrass.graph, 4, seed=6)
        batch = MixedBatch(insertions=insertions, deletions=deletions)
        result = ingrass.apply_batch(batch)
        assert isinstance(result, MixedUpdateResult)
        assert result.removal is not None and result.insertion is not None
        assert result.seconds >= 0.0
        record = ingrass.history[-1]
        assert record.streamed_edges == 4
        assert record.removed_edges == 3
        assert is_connected(ingrass.sparsifier)

    def test_empty_mixed_batch(self, medium_grid):
        ingrass = self._driver(medium_grid)
        result = ingrass.apply_batch(MixedBatch())
        assert result.removal is None and result.insertion is None
        assert ingrass.history[-1].streamed_edges == 0

    def test_resetup_after_removals_refreshes(self, medium_grid):
        # resetup_after_removals is only honoured in rebuild mode (maintain,
        # the default, keeps the hierarchy accurate structurally instead).
        ingrass = self._driver(medium_grid, resetup_after_removals=2,
                               hierarchy_mode="rebuild")
        setup_before = ingrass.setup_result
        removed = 0
        for _ in range(6):
            pairs = [edge for edge in removable_edges(ingrass.graph, 4, seed=removed)
                     if ingrass.sparsifier.has_edge(*edge)][:2]
            if not pairs:
                continue
            ingrass.apply_batch(MixedBatch(deletions=pairs))
            removed += len(pairs)
            if removed >= 2:
                break
        if removed < 2:
            pytest.skip("could not remove enough sparsifier edges")
        assert ingrass.setup_result is not setup_before
        assert ingrass.removals_since_setup == 0

    def test_churn_acceptance_protocol(self, medium_grid):
        """Acceptance: >=30% deletions over >=10 iterations, sparsifier stays
        connected and within 2x the target condition number throughout."""
        scenario = build_churn_scenario(
            medium_grid,
            DynamicScenarioConfig(deletion_fraction=0.35, num_iterations=10,
                                  condition_dense_limit=400, seed=0))
        assert scenario.deletion_fraction >= 0.30
        target = scenario.initial_condition_number
        ingrass = InGrassSparsifier(
            InGrassConfig(seed=0, kappa_guard_factor=1.8, kappa_guard_dense_limit=400))
        ingrass.setup(scenario.graph, scenario.initial_sparsifier,
                      target_condition_number=target)
        for batch in scenario.batches:
            ingrass.apply_batch(batch)
            assert is_connected(ingrass.sparsifier)
            kappa = ingrass.condition_number(dense_limit=400)
            assert kappa <= 2.0 * target
        assert len(ingrass.history) == 10
        # The sparsifier tracked the graph: every edge it carries survives in G.
        for u, v in ingrass.sparsifier.edges():
            assert ingrass.graph.has_edge(u, v)


class TestRejectedBatchLeavesNoTrace:
    """The whole batch is validated before the first mutation: a batch that
    is rejected for any event leaves G, H, the version and the history as
    they were — even when its deletions alone were valid."""

    @pytest.fixture
    def driver(self):
        ingrass = InGrassSparsifier(InGrassConfig(seed=0))
        ingrass.setup(grid_circuit_2d(8, seed=0))
        return ingrass

    @staticmethod
    def _state(ingrass):
        return (ingrass.graph.edge_list(), ingrass.sparsifier.edge_list(),
                ingrass.latest_version, ingrass.history)

    @pytest.mark.parametrize("kind", ["bad-insertion", "negative-delta", "nan-delta",
                                      "reweights-deleted-edge"])
    def test_rejection_is_atomic(self, driver, kind):
        graph = driver.graph
        victim = next(edge for edge in driver.sparsifier.edges()
                      if removals_keep_connected(graph, [edge]))
        other = next(edge for edge in graph.edges() if edge != victim)
        batch = {
            "bad-insertion": MixedBatch(deletions=[victim], insertions=[(0, 999, 1.0)]),
            "negative-delta": MixedBatch(deletions=[victim], weight_changes=[(*other, -1.0)]),
            "nan-delta": MixedBatch(deletions=[victim], weight_changes=[(*other, float("nan"))]),
            "reweights-deleted-edge": MixedBatch(deletions=[victim],
                                                 weight_changes=[(*victim, 1.0)]),
        }[kind]
        before = self._state(driver)
        with pytest.raises(GraphValidationError):
            driver.apply_batch(batch)
        assert self._state(driver) == before
        # The next accepted batch continues exactly as if the rejected one
        # had never been offered.
        reference = InGrassSparsifier(InGrassConfig(seed=0))
        reference.setup(grid_circuit_2d(8, seed=0))
        for ingrass in (driver, reference):
            ingrass.apply_batch(MixedBatch(deletions=[victim]))
        assert driver.graph.edge_list() == reference.graph.edge_list()
        assert driver.sparsifier.edge_list() == reference.sparsifier.edge_list()
        assert driver.latest_version == reference.latest_version == 2
