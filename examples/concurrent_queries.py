"""Serve effective-resistance queries concurrently with a live update stream.

The scenario behind :class:`repro.api.SparsifierService`: one writer thread
streams churn batches (insertions + deletions) through the incremental
sparsifier while several reader threads keep answering resistance queries and
PCG solves.  Readers never block the writer — each reader grabs the immutable
:class:`~repro.api.SparsifierSnapshot` of the current version epoch (an O(1)
handout) and runs every query lock-free against that frozen view, so answers
are consistent *within* an epoch even while the writer races ahead.

Run with::

    python examples/concurrent_queries.py

(``python -m repro serve`` serves the same service over HTTP.)
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.api import (
    DynamicScenarioConfig,
    InGrassConfig,
    SparsifierService,
    build_churn_scenario,
    grid_circuit_2d,
)

NUM_READERS = 4
SIDE = 16          # 256-node demo grid
NUM_BATCHES = 12


def main() -> None:
    # 1. A churn scenario: the graph gains and loses edges batch by batch.
    graph = grid_circuit_2d(SIDE, seed=0)
    scenario = build_churn_scenario(
        graph, DynamicScenarioConfig(num_iterations=NUM_BATCHES, seed=0))

    # 2. The service wraps the driver: writes serialise, reads never lock.
    service = SparsifierService(InGrassConfig(seed=0))
    service.setup(scenario.graph, scenario.initial_sparsifier,
                  target_condition_number=scenario.initial_condition_number)
    print(f"serving {graph.num_nodes}-node grid, "
          f"{len(scenario.batches)} churn batches, {NUM_READERS} readers")

    stop = threading.Event()
    totals = []

    # 3. Readers: query whatever epoch is current when they arrive.
    def reader(reader_id: int) -> None:
        rng = np.random.default_rng(100 + reader_id)
        queries, epochs = 0, set()
        while not stop.is_set():
            snap = service.snapshot()          # lock-free: the published epoch
            u, v = rng.choice(snap.num_nodes, size=2, replace=False)
            r = snap.effective_resistance(int(u), int(v))
            assert r > 0.0                     # sane on every epoch
            epochs.add(snap.version)
            queries += 1
        totals.append((reader_id, queries, len(epochs)))

    threads = [threading.Thread(target=reader, args=(i,), daemon=True)
               for i in range(NUM_READERS)]
    for thread in threads:
        thread.start()

    # 4. The writer streams churn; snapshots of past epochs stay valid.
    first_epoch = service.snapshot()
    reference = first_epoch.effective_resistance(0, graph.num_nodes - 1)
    for batch in scenario.batches:
        service.apply(batch)
        time.sleep(0.01)                       # let readers interleave
    stop.set()
    for thread in threads:
        thread.join()

    # 5. The old snapshot still answers with its own epoch's value.
    replay = first_epoch.effective_resistance(0, graph.num_nodes - 1)
    assert replay == reference, "epoch snapshot must be immutable"
    print(f"epoch {first_epoch.version} answer unchanged after "
          f"{len(scenario.batches)} batches: R_eff = {reference:.4f}")

    for reader_id, queries, epochs in sorted(totals):
        print(f"reader {reader_id}: {queries} queries across {epochs} epochs")
    final = service.snapshot()
    print(f"final epoch {final.version}: |E_H| = {final.num_sparsifier_edges}, "
          f"kappa = {final.condition_number():.1f}")


if __name__ == "__main__":
    main()
