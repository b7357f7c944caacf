"""Driver invariants held against the single incremental driver.

Each test here states one property of :class:`InGrassSparsifier` on mixed
and deletion-heavy churn streams: plain insertion lists and ``MixedBatch``
packaging give the same trajectory, the relative distortion cut uses the
whole batch's median, a save/restore at any batch boundary does not change
the trajectory, removals conserve conductance and account for every
requested pair, threaded service writes match serial ones, every public
constructor builds the same driver, the filter map partitions the
sparsifier and matches a fresh scan after churn, and the maintenance layer
keeps its pinned filtering level and its cluster→members index consistent.
Class and test names are kept stable so the suite's test ids do not churn.
"""

from __future__ import annotations

import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Sparsifier
from repro.core import InGrassConfig, LRDConfig
from repro.core.filtering import FilterAction, SimilarityFilter
from repro.core.incremental import InGrassSparsifier
from repro.core.setup import run_setup
from repro.graphs.generators import grid_circuit_2d
from repro.graphs.graph import canonical_edge
from repro.graphs.validation import removals_keep_connected
from repro.service import SparsifierService
from repro.sparsify.grass import GrassConfig, GrassSparsifier
from repro.streams.edge_stream import MixedBatch
from repro.streams.scenarios import DynamicScenarioConfig, build_dynamic_scenario

DENSE_LIMIT = 600


def make_config(**kwargs):
    return InGrassConfig(
        lrd=LRDConfig(seed=0),
        kappa_guard_dense_limit=DENSE_LIMIT,
        seed=0,
        **kwargs,
    )


@pytest.fixture(scope="module")
def churn_scenario():
    graph = grid_circuit_2d(13, seed=3)
    return build_dynamic_scenario(
        graph,
        DynamicScenarioConfig(
            initial_offtree_density=0.10, final_offtree_density=0.40,
            num_iterations=5, deletion_fraction=0.3,
            condition_dense_limit=DENSE_LIMIT, seed=0,
        ),
    )


@pytest.fixture(scope="module")
def deletion_heavy_scenario():
    """A stream where most events delete edges — exercising weight re-homing
    and, in maintain mode, cluster splices."""
    graph = grid_circuit_2d(13, seed=3)
    return build_dynamic_scenario(
        graph,
        DynamicScenarioConfig(
            initial_offtree_density=0.10, final_offtree_density=0.45,
            num_iterations=6, deletion_fraction=0.6,
            condition_dense_limit=DENSE_LIMIT, seed=2,
        ),
    )


def start_driver(scenario, config):
    driver = InGrassSparsifier(config)
    driver.setup(scenario.graph, scenario.initial_sparsifier,
                 target_condition_number=scenario.initial_condition_number)
    return driver


def decision_log(result):
    if result.insertion is None:
        return []
    return [(decision.edge[:2], decision.action, decision.target_edge)
            for decision in result.insertion.decisions]


def history_fingerprint(driver):
    return [
        (r.streamed_edges, r.added_edges, r.merged_edges, r.redistributed_edges,
         r.dropped_edges, r.removed_edges, r.repair_edges, r.reweighted_edges,
         r.filtering_level, r.sparsifier_edges)
        for r in driver.history
    ]


def filter_buckets(similarity_filter):
    """The filter map content-wise: non-empty buckets as sets of edge keys."""
    connectivity = {pair: set(bucket) for pair, bucket
                    in similarity_filter._connectivity.items() if bucket}
    intra = {cluster: set(bucket) for cluster, bucket
             in similarity_filter._intra_cluster_edges.items() if bucket}
    return connectivity, intra


# --------------------------------------------------------------------------- #
# Trajectory invariance
# --------------------------------------------------------------------------- #
class TestShardParity:
    def test_insertion_only_batches_match(self, churn_scenario):
        """Plain insertion lists (the paper's protocol) and the same edges
        packaged as insertion-only ``MixedBatch`` es follow one trajectory."""
        config = make_config(kappa_guard_factor=1.8)
        plain = start_driver(churn_scenario, config)
        packaged = start_driver(churn_scenario, config)
        for batch in churn_scenario.batches:
            plain_result = plain.apply_batch(list(batch.insertions))
            packaged_result = packaged.apply_batch(MixedBatch(insertions=list(batch.insertions)))
            assert decision_log(plain_result) == decision_log(packaged_result)
        assert plain.sparsifier.edge_list() == packaged.sparsifier.edge_list()
        assert history_fingerprint(plain) == history_fingerprint(packaged)

    def test_distortion_threshold_uses_global_median(self, churn_scenario):
        """The relative cut is ``threshold × median`` over the whole batch."""
        insertions = [edge for batch in churn_scenario.batches for edge in batch.insertions]
        threshold = 0.8
        driver = start_driver(churn_scenario, make_config(distortion_threshold=threshold))
        result = driver.apply_batch(insertions).insertion
        assert result.dropped_low_distortion > 0
        distortions = np.array([decision.distortion for decision in result.decisions])
        cutoff = threshold * float(np.median(distortions))
        dropped = [decision.action is FilterAction.DROPPED_LOW_DISTORTION
                   for decision in result.decisions]
        assert sum(dropped) == result.dropped_low_distortion
        for is_dropped, distortion in zip(dropped, distortions.tolist()):
            assert (distortion < cutoff) == is_dropped

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           split=st.integers(min_value=0, max_value=3))
    def test_property_churn_invariance(self, seed, split):
        """Saving and restoring at any batch boundary of a random churn
        stream leaves decisions, edges, weights and history unchanged."""
        graph = grid_circuit_2d(9, seed=5)
        scenario = build_dynamic_scenario(
            graph,
            DynamicScenarioConfig(
                initial_offtree_density=0.12, final_offtree_density=0.45,
                num_iterations=3, deletion_fraction=0.35,
                condition_dense_limit=DENSE_LIMIT, seed=seed,
            ),
        )
        config = make_config(kappa_guard_factor=1.8)
        reference = start_driver(scenario, config)
        reference_decisions = [decision_log(reference.apply_batch(batch))
                               for batch in scenario.batches]

        interrupted = start_driver(scenario, config)
        decisions = [decision_log(interrupted.apply_batch(batch))
                     for batch in scenario.batches[:split]]
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "ckpt"
            interrupted.save_checkpoint(path)
            restored = InGrassSparsifier.load_checkpoint(path)
        decisions += [decision_log(restored.apply_batch(batch))
                      for batch in scenario.batches[split:]]

        assert decisions == reference_decisions
        assert restored.sparsifier.edge_list() == reference.sparsifier.edge_list()
        assert history_fingerprint(restored) == history_fingerprint(reference)


# --------------------------------------------------------------------------- #
# The removal pipeline on deletion-heavy streams
# --------------------------------------------------------------------------- #
class TestShardedRemoval:
    def test_pure_deletion_batch_routes_per_shard(self, deletion_heavy_scenario):
        """A deletion-only batch accounts for every requested pair: each
        leaves the graph, and exactly the pairs the sparsifier carried leave
        it."""
        driver = start_driver(deletion_heavy_scenario, make_config())
        deletions = deletion_heavy_scenario.batches[0].deletions
        assert deletions, "scenario batch must carry deletions"
        requested = {canonical_edge(u, v) for u, v in deletions}
        carried = {pair for pair in requested if driver.sparsifier.has_edge(*pair)}
        assert carried
        result = driver.apply_batch(MixedBatch(deletions=deletions)).removal
        assert set(result.requested) == requested
        assert len(result.requested) == len(requested)
        assert {(u, v) for u, v, _ in result.removed_from_sparsifier} == carried
        for pair in requested:
            assert not driver.graph.has_edge(*pair)
            assert not driver.sparsifier.has_edge(*pair)
        assert driver.history[-1].removed_edges == len(requested)

    def test_threaded_removal_stage_matches_serial(self, deletion_heavy_scenario):
        """Writing through the service from a worker thread, while this
        thread keeps taking snapshots, ends exactly where the serial driver
        does."""
        config = make_config(kappa_guard_factor=1.8)
        serial = start_driver(deletion_heavy_scenario, config)
        for batch in deletion_heavy_scenario.batches:
            serial.apply_batch(batch)

        service = SparsifierService(config)
        service.setup(deletion_heavy_scenario.graph,
                      deletion_heavy_scenario.initial_sparsifier,
                      target_condition_number=deletion_heavy_scenario.initial_condition_number)

        def write():
            for batch in deletion_heavy_scenario.batches:
                service.apply(batch)

        versions = set()
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(write)
            while not future.done():
                versions.add(service.snapshot().version)
            future.result()
        versions.add(service.snapshot().version)
        assert max(versions) == serial.latest_version
        driver = service.driver
        assert driver.maintenance_stats.splices > 0
        assert driver.sparsifier.edge_list() == serial.sparsifier.edge_list()
        assert history_fingerprint(driver) == history_fingerprint(serial)

    def test_removal_weight_rehoming_matches_oracle(self, deletion_heavy_scenario):
        """Removal conserves conductance: weight leaving the sparsifier is the
        physical share of a deleted edge, re-homed, or reported discarded."""
        driver = start_driver(deletion_heavy_scenario, make_config())

        def remove_and_balance(deletions):
            physical = {canonical_edge(u, v): driver.graph.weight(u, v)
                        for u, v in deletions}
            total_before = driver.sparsifier.total_weight()
            result = driver.apply_batch(MixedBatch(deletions=deletions)).removal
            excess = sum(max(0.0, weight - physical[(u, v)])
                         for u, v, weight in result.removed_from_sparsifier)
            assert result.reassigned_weight + result.discarded_weight == pytest.approx(excess)
            removed = sum(weight for _, _, weight in result.removed_from_sparsifier)
            repaired = sum(weight for _, _, weight in result.reconnection_edges + result.repair_edges)
            total_after = driver.sparsifier.total_weight()
            assert total_after == pytest.approx(
                total_before - removed + result.reassigned_weight + repaired)
            return excess

        moved = 0.0
        for batch in deletion_heavy_scenario.batches:
            moved += remove_and_balance(batch.deletions)
            driver.apply_batch(batch.insertions)
            # Delete sparsifier edges that absorbed merged weight, as long
            # as the graph stays connected.
            absorbing = []
            for u, v, weight in driver.sparsifier.edge_list():
                if (weight > driver.graph.weight(u, v) and len(absorbing) < 4
                        and removals_keep_connected(driver.graph, absorbing + [(u, v)])):
                    absorbing.append((u, v))
            if absorbing:
                moved += remove_and_balance(absorbing)
        assert moved > 0, "the stream must park merged weight on a deleted edge"


# --------------------------------------------------------------------------- #
# Constructors and the filter map
# --------------------------------------------------------------------------- #
class TestScopedFiltersAndEscrow:
    def test_views_partition_the_global_map(self, churn_scenario):
        """After churn every sparsifier edge sits in exactly one filter
        bucket: the one keyed by its endpoints' filtering-level clusters."""
        driver = start_driver(churn_scenario, make_config())
        for batch in churn_scenario.batches:
            driver.apply_batch(batch)
        similarity_filter = driver._filter
        labels = driver.setup_result.hierarchy.level(similarity_filter.filtering_level).labels
        owners = {}
        for pair, bucket in similarity_filter._connectivity.items():
            for key in bucket:
                assert key not in owners, "edge owned by two buckets"
                owners[key] = pair
        for cluster, bucket in similarity_filter._intra_cluster_edges.items():
            for key in bucket:
                assert key not in owners, "edge owned by two buckets"
                owners[key] = (cluster, cluster)
        assert set(owners) == set(driver.sparsifier.edges())
        for (u, v), pair in owners.items():
            p, q = int(labels[u]), int(labels[v])
            assert pair == (min(p, q), max(p, q))

    def test_factory_dispatches_on_num_shards(self, churn_scenario):
        """Every public constructor builds the one driver for its config."""
        config = make_config()
        drivers = [InGrassSparsifier(config), Sparsifier(config),
                   SparsifierService(config).driver]
        for driver in drivers:
            assert type(driver) is InGrassSparsifier
            assert driver.config is config
        assert InGrassSparsifier(None).config == InGrassConfig()
        assert Sparsifier().config == InGrassConfig()
        edge_maps = []
        for driver in drivers:
            driver.setup(churn_scenario.graph, churn_scenario.initial_sparsifier,
                         target_condition_number=churn_scenario.initial_condition_number)
            driver.apply_batch(churn_scenario.batches[0])
            edge_maps.append(driver.sparsifier.edge_list())
        assert edge_maps[0] == edge_maps[1] == edge_maps[2]


class TestFilteringLevelPinning:
    """The filtering level is a setup-time choice, frozen per setup epoch.

    Maintain-mode splices change cluster sizes, which would drift the
    level-for-target selection mid-stream; a drifted level silently orphans
    the level-keyed filter map, so the driver fixes the level at setup
    (regression test for the divergence a long soak found at seed 244).
    """

    def test_level_stays_pinned_under_splices(self, deletion_heavy_scenario):
        driver = start_driver(deletion_heavy_scenario, make_config())
        pinned = driver.filtering_level
        filter_object = driver._filter
        for batch in deletion_heavy_scenario.batches:
            driver.apply_batch(batch)
        assert driver.maintenance_stats.splices > 0
        assert driver.filtering_level == pinned
        # The persistent filter was never silently replaced by a throwaway
        # rebuilt at a drifted level.
        assert driver._filter is filter_object
        assert all(record.filtering_level == pinned for record in driver.history)

    def test_refresh_setup_repins(self, deletion_heavy_scenario):
        driver = start_driver(deletion_heavy_scenario, make_config())
        first_filter, first_maintainer = driver._filter, driver.maintainer
        driver.refresh_setup()
        # A fresh hierarchy gets a fresh level, filter and maintainer, bound
        # to it rather than to the replaced one.
        hierarchy = driver.setup_result.hierarchy
        assert driver.filtering_level == hierarchy.filtering_level_for_condition(
            driver.target_condition_number, driver.config.filtering_size_divisor)
        assert driver._filter is not first_filter
        assert driver.maintainer is not first_maintainer
        assert driver.maintainer.hierarchy is hierarchy
        assert driver._filter.in_sync_with_hierarchy()

    def test_sharded_views_tile_fresh_reference_after_churn(self, deletion_heavy_scenario):
        """After a splice-heavy stream the maintained filter map equals a
        fresh scan of the final sparsifier — the invariant that makes the
        evolved map interchangeable with a rebuilt one."""
        driver = start_driver(deletion_heavy_scenario, make_config())
        for batch in deletion_heavy_scenario.batches:
            driver.apply_batch(batch)
        assert driver.maintenance_stats.splices > 0
        live = driver._filter
        reference = SimilarityFilter(driver.sparsifier, driver.setup_result.hierarchy,
                                     live.filtering_level)
        assert filter_buckets(live) == filter_buckets(reference)


# --------------------------------------------------------------------------- #
# Incremental cluster→members index
# --------------------------------------------------------------------------- #
class TestClusterMembersIndex:
    def test_matches_label_scan_after_churn(self, churn_scenario):
        """After splices and merges the index equals a fresh label scan."""
        driver = start_driver(churn_scenario, make_config())
        hierarchy = driver.setup_result.hierarchy
        # Touch the index before the stream so it is maintained (not lazily
        # rebuilt) through every relabel/append of the maintenance layer.
        for level_index in range(hierarchy.num_levels):
            hierarchy.cluster_members(level_index, 0)
        for batch in churn_scenario.batches:
            driver.apply_batch(batch)
        assert driver.maintenance_stats.splices + driver.maintenance_stats.merges > 0
        for level_index in range(hierarchy.num_levels):
            labels = hierarchy.level(level_index).labels
            for cluster in range(hierarchy.level(level_index).num_clusters):
                expected = np.flatnonzero(labels == cluster)
                got = hierarchy.cluster_members(level_index, cluster)
                assert np.array_equal(got, expected), (level_index, cluster)

    def test_relabel_and_append_maintain_index(self):
        graph = grid_circuit_2d(8, seed=7)
        sparsifier = GrassSparsifier(GrassConfig(target_offtree_density=0.2, seed=1)).sparsify(
            graph, evaluate_condition=False).sparsifier
        hierarchy = run_setup(sparsifier, InGrassConfig(lrd=LRDConfig(seed=0))).hierarchy
        level_index = 0
        members_before = hierarchy.cluster_members(level_index, 0).copy()
        if members_before.size < 2:
            pytest.skip("level 0 cluster 0 too small to split")
        fresh = hierarchy.append_cluster(level_index, 0.5)
        moved = members_before[: members_before.size // 2]
        hierarchy.relabel_nodes(level_index, moved, fresh)
        labels = hierarchy.level(level_index).labels
        assert np.array_equal(hierarchy.cluster_members(level_index, fresh),
                              np.flatnonzero(labels == fresh))
        assert np.array_equal(hierarchy.cluster_members(level_index, 0),
                              np.flatnonzero(labels == 0))
