"""Version-epoch anchoring: every mutating op bumps the counters snapshots pin.

Two layers are covered:

* :class:`ClusterHierarchy` — ``version`` bumps on every mutation
  (diameter set, cluster append, relabel, removal-driven inflation) and
  ``labels_version`` bumps exactly on structural relabels;
* :class:`InGrassSparsifier` — ``latest_version`` bumps on every mutating
  public call (setup, apply_batch, refresh_setup) and never on reads or on a
  rejected batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InGrassConfig, InGrassSparsifier
from repro.core.hierarchy import ClusterHierarchy, LRDLevel
from repro.core.maintenance import HierarchyMaintainer
from repro.graphs import grid_circuit_2d
from repro.streams import DynamicScenarioConfig, MixedBatch, build_churn_scenario, mixed_edges


def _tiny_hierarchy() -> ClusterHierarchy:
    labels0 = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
    labels1 = np.array([0, 0, 0, 0, 1, 1], dtype=np.int64)
    return ClusterHierarchy([
        LRDLevel(labels0, np.array([0.5, 0.6, 0.7]), 1.0),
        LRDLevel(labels1, np.array([1.5, 1.7]), 2.0),
    ])


class TestHierarchyVersionCounters:
    def test_fresh_hierarchy_starts_at_zero(self):
        hierarchy = _tiny_hierarchy()
        assert hierarchy.version == 0
        assert hierarchy.labels_version == 0

    def test_set_cluster_diameter_bumps_version_only(self):
        hierarchy = _tiny_hierarchy()
        hierarchy.set_cluster_diameter(0, 1, 0.9)
        assert hierarchy.version == 1
        assert hierarchy.labels_version == 0

    def test_append_cluster_bumps_version_only(self):
        hierarchy = _tiny_hierarchy()
        new_cluster = hierarchy.append_cluster(0, 0.2)
        assert new_cluster == 3
        assert hierarchy.version == 1
        assert hierarchy.labels_version == 0

    def test_relabel_bumps_both_and_the_level_counter(self):
        hierarchy = _tiny_hierarchy()
        hierarchy.relabel_nodes(0, np.array([1]), 2)
        assert hierarchy.version == 1
        assert hierarchy.labels_version == 1
        assert hierarchy.level_labels_version(0) == 1
        assert hierarchy.level_labels_version(1) == 0

    def test_removal_inflation_bumps_version(self):
        hierarchy = _tiny_hierarchy()
        # Nodes 0 and 1 share cluster 0 at level 0: inflation must register.
        touched = hierarchy.note_edge_removed(0, 1)
        assert touched > 0
        # One bump per level whose cluster diameters inflated (both here).
        assert hierarchy.version >= 1
        assert hierarchy.labels_version == 0

    def test_reads_never_bump(self):
        hierarchy = _tiny_hierarchy()
        hierarchy.cluster_of(0, 0)
        hierarchy.embedding_matrix()
        hierarchy.cluster_members(0, 0)
        hierarchy.resistance_upper_bound(0, 5)
        hierarchy.checkpoint_state()
        assert hierarchy.version == 0
        assert hierarchy.labels_version == 0

    def test_maintainer_splice_and_merge_advance_the_epoch(self):
        """End-to-end: the PR-3 splice/merge path rides the same counters."""
        graph = grid_circuit_2d(8, seed=3)
        scenario = build_churn_scenario(
            graph, DynamicScenarioConfig(num_iterations=3, seed=3))
        driver = InGrassSparsifier(InGrassConfig(seed=3))
        driver.setup(scenario.graph, scenario.initial_sparsifier,
                     target_condition_number=scenario.initial_condition_number)
        hierarchy = driver.setup_result.hierarchy
        assert driver._maintainer is None or isinstance(
            driver._maintainer, HierarchyMaintainer)
        seen = [(hierarchy.version, hierarchy.labels_version)]
        for batch in scenario.batches:
            driver.apply_batch(batch)
            seen.append((hierarchy.version, hierarchy.labels_version))
        versions = [v for v, _ in seen]
        assert versions == sorted(versions)
        assert versions[-1] > versions[0]  # churn really touched the hierarchy


class TestDriverVersionEpochs:
    def _driver(self):
        graph = grid_circuit_2d(8, seed=7)
        scenario = build_churn_scenario(
            graph, DynamicScenarioConfig(num_iterations=4, seed=7))
        driver = InGrassSparsifier(InGrassConfig(seed=7))
        return driver, scenario

    def test_setup_moves_zero_to_one(self):
        driver, scenario = self._driver()
        assert driver.latest_version == 0
        driver.setup(scenario.graph, scenario.initial_sparsifier,
                     target_condition_number=scenario.initial_condition_number)
        assert driver.latest_version == 1

    def test_every_mutating_call_bumps(self):
        driver, scenario = self._driver()
        driver.setup(scenario.graph, scenario.initial_sparsifier,
                     target_condition_number=scenario.initial_condition_number)
        version = driver.latest_version
        driver.apply_batch(scenario.batches[0])          # mixed batch
        assert driver.latest_version == version + 1
        edges = list(mixed_edges(driver.graph, 4, seed=11))
        driver.apply_batch(edges)                        # plain insertion batch
        assert driver.latest_version == version + 2
        edge = next(iter(driver.sparsifier.edges()))
        driver.apply_batch(MixedBatch(weight_changes=[(edge[0], edge[1], 1.5)]))
        assert driver.latest_version == version + 3
        driver.refresh_setup()
        assert driver.latest_version == version + 4

    def test_remove_bumps_at_least_once(self):
        driver, scenario = self._driver()
        driver.setup(scenario.graph, scenario.initial_sparsifier,
                     target_condition_number=scenario.initial_condition_number)
        version = driver.latest_version
        deletions = scenario.batches[0].deletions[:2]
        if not deletions:
            pytest.skip("scenario produced no deletions in batch 0")
        driver.apply_batch(MixedBatch(deletions=[(e[0], e[1]) for e in deletions]))
        # An internal staleness-triggered re-setup may add a second bump;
        # both outcomes advance the epoch deterministically.
        assert driver.latest_version > version

    def test_reads_never_bump(self):
        driver, scenario = self._driver()
        driver.setup(scenario.graph, scenario.initial_sparsifier,
                     target_condition_number=scenario.initial_condition_number)
        version = driver.latest_version
        driver.snapshot()
        _ = driver.graph, driver.sparsifier, driver.setup_result
        _ = driver.target_condition_number
        _ = driver.filtering_level
        assert driver.latest_version == version

    def test_snapshot_version_tracks_driver(self):
        driver, scenario = self._driver()
        driver.setup(scenario.graph, scenario.initial_sparsifier,
                     target_condition_number=scenario.initial_condition_number)
        for batch in scenario.batches:
            driver.apply_batch(batch)
            assert driver.snapshot().version == driver.latest_version
