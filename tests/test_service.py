"""Tests for SparsifierService: retention, caching, and concurrent reads.

The centrepiece is the stress test the snapshot layer was built for: four
reader threads hammer :meth:`SparsifierService.snapshot` while the writer
streams a 50-batch mixed churn workload, and every recorded answer is then
replayed offline — same op sequence, batch by batch — and must match **bit
for bit** at the same version epoch.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.core import InGrassConfig
from repro.graphs import GraphValidationError, grid_circuit_2d
from repro.service import SparsifierService
from repro.spectral.solvers import GroundedSolver
from repro.streams import DynamicScenarioConfig, MixedBatch, build_churn_scenario

NUM_READERS = 4
NUM_BATCHES = 50


def _make_scenario(num_batches: int = 6, side: int = 8, seed: int = 5):
    graph = grid_circuit_2d(side, seed=seed)
    return build_churn_scenario(
        graph, DynamicScenarioConfig(num_iterations=num_batches, seed=seed))


def _service_for(scenario, **kwargs) -> SparsifierService:
    service = SparsifierService(InGrassConfig(seed=5), **kwargs)
    service.setup(scenario.graph, scenario.initial_sparsifier,
                  target_condition_number=scenario.initial_condition_number)
    return service


def _query_pairs(version: int, num_nodes: int):
    """Deterministic query pairs per epoch — replayable without shared RNG."""
    u = (version * 7) % num_nodes
    v = (version * 13 + 1) % num_nodes
    if u == v:
        v = (v + 1) % num_nodes
    return [(u, v), (0, num_nodes - 1)]


class TestServiceBasics:
    def test_rejects_bad_retention(self):
        with pytest.raises(ValueError):
            SparsifierService(InGrassConfig(), max_snapshots=0)

    def test_versions_and_counters(self):
        scenario = _make_scenario()
        service = _service_for(scenario)
        assert service.latest_version == 1
        assert service.applied_batches == 0
        for batch in scenario.batches:
            service.apply(batch)
        assert service.applied_batches == len(scenario.batches)
        assert service.latest_version == 1 + len(scenario.batches)

    def test_snapshot_handout_is_cached_per_epoch(self):
        scenario = _make_scenario()
        service = _service_for(scenario)
        first = service.snapshot()
        assert service.snapshot() is first          # O(1): same object
        service.apply(scenario.batches[0])
        second = service.snapshot()
        assert second is not first
        assert second.version == first.version + 1
        assert service.snapshot(first.version) is first

    def test_retention_is_bounded_lru(self):
        scenario = _make_scenario()
        service = _service_for(scenario, max_snapshots=2)
        evicted = service.snapshot()
        for batch in scenario.batches[:3]:
            service.apply(batch)
            service.snapshot()
        assert len(service.retained_versions) == 2
        assert evicted.version not in service.retained_versions
        with pytest.raises(KeyError):
            service.snapshot(evicted.version)
        # The evicted snapshot itself keeps answering (readers own it).
        assert evicted.effective_resistance(0, 5) > 0.0

    def test_remove_reweight_refresh_paths(self):
        scenario = _make_scenario()
        service = _service_for(scenario)
        edge = next(iter(service.driver.sparsifier.edges()))
        version = service.latest_version
        service.apply(MixedBatch(weight_changes=[(edge[0], edge[1], 2.0)]))
        assert service.latest_version == version + 1
        service.refresh()
        assert service.latest_version == version + 2
        assert service.applied_batches == 1

    def test_every_write_publishes_its_epoch(self):
        scenario = _make_scenario()
        service = _service_for(scenario, max_snapshots=3)
        for batch in scenario.batches[:4]:
            service.apply(batch)
        # Retained whether or not anyone read them: the last three written.
        assert service.retained_versions == [3, 4, 5]
        assert service.snapshot().version == 5
        assert service.snapshot(3).version == 3

    def test_rejected_batch_keeps_the_published_epoch(self):
        scenario = _make_scenario()
        service = _service_for(scenario)
        published = service.snapshot()
        with pytest.raises(GraphValidationError):
            service.apply(MixedBatch(insertions=[(0, 10**6, 1.0)]))
        assert service.snapshot() is published
        assert service.retained_versions == [published.version]

    def test_snapshot_before_setup_raises(self):
        with pytest.raises(RuntimeError):
            SparsifierService(InGrassConfig()).snapshot()

    def test_handout_does_not_wait_for_a_write_in_flight(self, monkeypatch):
        scenario = _make_scenario()
        service = _service_for(scenario)
        before = service.snapshot()
        entered, release = threading.Event(), threading.Event()
        apply_batch = service.driver.apply_batch

        def held(batch):
            entered.set()
            release.wait(timeout=60.0)
            return apply_batch(batch)

        monkeypatch.setattr(service.driver, "apply_batch", held)
        writer = threading.Thread(target=service.apply, args=(scenario.batches[0],))
        writer.start()
        try:
            assert entered.wait(timeout=10.0)
            # The writer holds the lock mid-apply: the handout is the last
            # published epoch, not a wait for this one.
            assert service.snapshot() is before
        finally:
            release.set()
            writer.join(timeout=60.0)
        assert not writer.is_alive()
        assert service.snapshot().version == before.version + 1

    def test_describe_round_trips(self):
        scenario = _make_scenario()
        service = _service_for(scenario)
        description = service.describe()
        assert description["latest_version"] == 1
        assert description["snapshot"]["version"] == 1
        assert description["retained_versions"] == [1]


class TestConcurrentStress:
    """Four readers vs a 50-batch churn writer, verified by offline replay."""

    @pytest.fixture(scope="class")
    def stress_run(self):
        scenario = _make_scenario(num_batches=NUM_BATCHES, side=10)
        service = _service_for(scenario, max_snapshots=4)
        num_nodes = scenario.graph.num_nodes

        records = [[] for _ in range(NUM_READERS)]
        handouts = [[] for _ in range(NUM_READERS)]
        errors = []
        stop = threading.Event()

        def reader(reader_id: int) -> None:
            try:
                while not stop.is_set():
                    snap = service.snapshot()
                    handouts[reader_id].append(snap)
                    for u, v in _query_pairs(snap.version, num_nodes):
                        records[reader_id].append(
                            (snap.version, u, v, snap.effective_resistance(u, v)))
            except Exception as exc:  # pragma: no cover - surfaced in asserts
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(NUM_READERS)]
        for thread in threads:
            thread.start()
        for batch in scenario.batches:
            service.apply(batch)
        stop.set()
        for thread in threads:
            thread.join(timeout=60.0)

        return {
            "scenario": scenario,
            "service": service,
            "records": records,
            "handouts": handouts,
            "errors": errors,
            "num_nodes": num_nodes,
        }

    def test_no_reader_errors_and_real_concurrency(self, stress_run):
        assert stress_run["errors"] == []
        total = sum(len(r) for r in stress_run["records"])
        assert total >= 2 * NUM_READERS  # every reader got answers
        versions = {v for reader in stress_run["records"] for v, *_ in reader}
        final = stress_run["service"].latest_version
        assert final == 1 + NUM_BATCHES
        assert versions <= set(range(1, final + 1))

    def test_every_concurrent_answer_is_bit_exact_vs_offline_replay(self, stress_run):
        scenario = stress_run["scenario"]
        num_nodes = stress_run["num_nodes"]
        # Offline replay: a fresh driver runs the identical op sequence with
        # no concurrency; after setup and after every batch we compute the
        # deterministic per-epoch queries.
        replay = SparsifierService(InGrassConfig(seed=5))
        replay.setup(scenario.graph.copy(), scenario.initial_sparsifier.copy(),
                     target_condition_number=scenario.initial_condition_number)
        truth = {}

        def record_epoch():
            snap = replay.snapshot()
            answers = {}
            for u, v in _query_pairs(snap.version, num_nodes):
                answers[(u, v)] = snap.effective_resistance(u, v)
            truth[snap.version] = answers

        record_epoch()
        for batch in scenario.batches:
            replay.apply(batch)
            record_epoch()

        checked = 0
        for reader in stress_run["records"]:
            for version, u, v, answer in reader:
                assert version in truth
                assert answer == truth[version][(u, v)], (
                    f"reader answer at version {version} for ({u},{v}) "
                    f"diverged from offline replay")
                checked += 1
        assert checked >= 2 * NUM_READERS

    def test_snapshot_handout_was_o1_shared_objects(self, stress_run):
        # Readers at the same epoch must have received the *same* snapshot
        # object — the service materialises one snapshot per epoch, ever.
        by_version = {}
        for handout in stress_run["handouts"]:
            for snap in handout:
                by_version.setdefault(snap.version, set()).add(id(snap))
        assert by_version  # readers actually observed epochs
        for version, identities in by_version.items():
            assert len(identities) == 1, f"epoch {version} was materialised twice"

    def test_hot_path_never_deep_copied_the_graph(self, stress_run):
        service = stress_run["service"]
        snap = service.snapshot()
        # The current epoch's snapshot shares the driver's cached edge
        # buffers — capture is reference handout, not a graph copy.
        for mine, live in zip(snap.graph_arrays(),
                              service.driver.graph.edge_arrays()):
            assert np.shares_memory(mine, live)


class TestSharedLineage:
    """Every snapshot the service captures solves through one lineage per
    graph: readers of the current and of retained older epochs share it
    while the writer advances it past the rank cap."""

    def test_concurrent_readers_of_three_epochs_share_one_lineage(self, monkeypatch):
        scenario = _make_scenario(num_batches=NUM_BATCHES, side=10)
        service = _service_for(scenario)
        num_nodes = scenario.graph.num_nodes
        factorisations = []
        splu = spla.splu

        def counting_splu(*args, **kwargs):
            factorisations.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting_splu)
        answers = [[] for _ in range(NUM_READERS)]
        older_reads = []
        errors = []
        stop = threading.Event()

        def reader(reader_id: int) -> None:
            try:
                while not stop.is_set():
                    snaps = [service.snapshot()]
                    for version in [v for v in service.retained_versions
                                    if v < snaps[0].version][-2:]:
                        try:
                            snaps.append(service.snapshot(version))
                            older_reads.append(version)
                        except KeyError:  # evicted since it was listed
                            pass
                    for snap in snaps:
                        for u, v in _query_pairs(snap.version, num_nodes):
                            answers[reader_id].append((snap, u, v, snap.effective_resistance(u, v)))
            except Exception as exc:  # pragma: no cover - surfaced in asserts
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(NUM_READERS)]
        for thread in threads:
            thread.start()
        for batch in scenario.batches:
            service.apply(batch)
        stop.set()
        for thread in threads:
            thread.join(timeout=60.0)
        factored = len(factorisations)

        assert errors == []
        assert older_reads, "readers never asked for an older epoch"
        snaps = {id(snap): snap for reader in answers for snap, *_ in reader}.values()
        bases = {id(solver if isinstance(solver, GroundedSolver) else solver._base)
                 for solver in (snap._solver("sparsifier") for snap in snaps)}
        # One splu per base the lineage factored, and it rebased at least once;
        # not one per epoch.
        assert factored == len(bases) >= 2
        assert factored < len(snaps)
        fresh = {}
        for reader in answers:
            for snap, u, v, answer in reader:
                if snap.version not in fresh:
                    fresh[snap.version] = GroundedSolver.from_graph(snap.sparsifier)
                b = np.zeros(num_nodes)
                b[u], b[v] = 1.0, -1.0
                x = fresh[snap.version].solve(b)
                assert answer == pytest.approx(float(x[u] - x[v]), rel=1e-12, abs=0.0)
