"""CLI for the HTTP serving layer: sustained latency and restart parity.

Drives mixed churn through a **live**
:class:`~repro.server.app.SparsifierHTTPServer` over real sockets:

* **reader latency** — concurrent reader threads issue ``POST /resistance``
  queries over HTTP for the whole run; client-side p50/p90/p99 (the full
  parse-pin-solve-respond round trip) are recorded, with every reader error
  counted;
* **kill/restart drill** — after half the stream the server is shut down
  gracefully over HTTP (``POST /shutdown`` drains the ingest queue and saves
  a checkpoint), a second server restores from that checkpoint and
  serves the remaining batches;
* **epoch parity** — the survivor's final state, read back over HTTP
  (``GET /edges`` + ``/epoch``), must be **bit-exact** (edge set, weights,
  and version epoch) with an offline in-process replay of the same stream.

Run with::

    python -m repro bench serve-latency [--batches 12] [--readers 2]
                                        [--output BENCH_serve_latency.json]

It writes the JSON artifact, then exits 1 when :func:`gate_failures` finds a
violated check (CI's ``bench-perf`` job runs it as one step): the restart
resumed at the checkpointed epoch, the served G and H are bit-exact with the
offline replay, and the readers got answers (at least one query, at most
``max(2, queries // 10)`` errors).  The latency figures are reported, not
judged: timing verdicts come from ``python -m repro bench compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import threading
import time
from typing import Dict, List, Optional

import numpy as np

#: Schema tag of this benchmark's payload.
LATENCY_SCHEMA = "repro.serve_latency/v1"


def reader_latency_summary(reader_latencies: Dict[int, List[float]],
                           reader_errors: Optional[Dict[int, List[str]]] = None) -> Dict:
    """Summarise per-reader latency samples (seconds in, milliseconds out).

    The one shared schema for reader-latency numbers: total and per-reader
    query/error counts with p50/p90/p99/max/mean in milliseconds.  Errors are
    counted so a reader dying mid-run shrinks ``queries`` *visibly* instead of
    silently thinning the reported population.
    """
    reader_errors = reader_errors or {}
    merged: List[float] = []
    readers = []
    total_errors = 0
    for reader_id in sorted(reader_latencies):
        samples = np.asarray(reader_latencies[reader_id], dtype=np.float64) * 1e3
        merged.extend(samples.tolist())
        errors = list(reader_errors.get(reader_id, ()))
        total_errors += len(errors)
        entry: Dict = {"reader": int(reader_id), "queries": int(samples.size),
                       "errors": len(errors)}
        if errors:
            entry["last_error"] = errors[-1]
        if samples.size:
            entry["p50_ms"] = float(np.percentile(samples, 50))
            entry["p99_ms"] = float(np.percentile(samples, 99))
        readers.append(entry)
    combined = np.asarray(merged, dtype=np.float64)
    summary: Dict = {"queries": int(combined.size), "errors": total_errors,
                     "readers": readers}
    if combined.size:
        summary.update({
            "p50_ms": float(np.percentile(combined, 50)),
            "p90_ms": float(np.percentile(combined, 90)),
            "p99_ms": float(np.percentile(combined, 99)),
            "max_ms": float(np.max(combined)),
            "mean_ms": float(np.mean(combined)),
        })
    return summary


def _reader_loop(port: int, num_nodes: int, stop: threading.Event,
                 samples: List[float], errors: List[str], seed: int) -> None:
    """One reader thread: sample query latency until told to stop.

    A transient failure (connection reset in the kill/restart drill window,
    a 5xx) must not silently kill the thread and thin the latency population
    — every error is recorded and the reader reconnects and keeps sampling.
    """
    from repro.server import connect

    rng = np.random.default_rng(seed)
    while not stop.is_set():
        try:
            with connect(port=port) as client:
                while not stop.is_set():
                    u, v = rng.choice(num_nodes, size=2, replace=False)
                    begin = time.perf_counter()
                    client.resistance(int(u), int(v))
                    samples.append(time.perf_counter() - begin)
        except Exception as exc:  # noqa: BLE001 - count it, reconnect, go on
            errors.append(f"{type(exc).__name__}: {exc}")
            if not stop.is_set():
                time.sleep(0.05)


def _drive_phase(port: int, batches, *, readers: int, num_nodes: int,
                 latencies: Dict[int, List[float]],
                 reader_errors: Dict[int, List[str]], seed: int,
                 settle_seconds: float) -> float:
    """Post ``batches`` while ``readers`` threads hammer reads; return write seconds."""
    from repro.server import connect

    stop = threading.Event()
    threads = [threading.Thread(target=_reader_loop,
                                args=(port, num_nodes, stop, latencies[reader_id],
                                      reader_errors[reader_id],
                                      seed + 1000 + reader_id),
                                daemon=True)
               for reader_id in range(readers)]
    for thread in threads:
        thread.start()
    begin = time.perf_counter()
    with connect(port=port) as writer:
        for batch in batches:
            writer.update_batch(batch)
    write_seconds = time.perf_counter() - begin
    # Let the readers keep sampling the settled end state briefly, so short
    # write phases still produce a meaningful latency population.
    time.sleep(settle_seconds)
    stop.set()
    for thread in threads:
        thread.join(timeout=30.0)
    return write_seconds


def run_serve_latency_bench(*, side: int = 10, batches: int = 12, readers: int = 2,
                            deletion_fraction: float = 0.3, seed: int = 0,
                            queue_bound: int = 64,
                            settle_seconds: float = 0.5) -> Dict:
    """Run the live-server protocol; return the JSON-ready payload."""
    from repro.api import (
        DynamicScenarioConfig,
        InGrassConfig,
        SparsifierService,
        build_churn_scenario,
        grid_circuit_2d,
    )
    from repro.server import ServerConfig, SparsifierHTTPServer, connect

    graph = grid_circuit_2d(side, seed=seed)
    scenario = build_churn_scenario(
        graph, DynamicScenarioConfig(num_iterations=batches,
                                     deletion_fraction=deletion_fraction,
                                     seed=seed))

    def fresh_service() -> SparsifierService:
        service = SparsifierService(InGrassConfig(seed=seed))
        service.setup(scenario.graph, scenario.initial_sparsifier,
                      target_condition_number=scenario.initial_condition_number)
        return service

    # --- offline reference: the same stream replayed in-process.
    reference = fresh_service()
    for batch in scenario.batches:
        reference.apply(batch)
    reference_sparsifier = {(u, v): w for u, v, w in reference.driver.sparsifier.edge_list()}
    reference_graph = {(u, v): w for u, v, w in reference.driver.graph.edge_list()}
    reference_epoch = reference.latest_version

    half = len(scenario.batches) // 2
    latencies: Dict[int, List[float]] = {reader_id: [] for reader_id in range(readers)}
    reader_errors: Dict[int, List[str]] = {reader_id: [] for reader_id in range(readers)}
    num_nodes = scenario.graph.num_nodes

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint_dir = os.path.join(tmp, "serve-drill")

        def server_config() -> ServerConfig:
            return ServerConfig(port=0, queue_bound=queue_bound,
                                checkpoint_dir=checkpoint_dir)

        # --- phase 1: fresh server, first half of the stream.
        first = SparsifierHTTPServer(fresh_service(), server_config()).start()
        write_seconds = _drive_phase(
            first.port, scenario.batches[:half], readers=readers,
            num_nodes=num_nodes, latencies=latencies,
            reader_errors=reader_errors, seed=seed,
            settle_seconds=settle_seconds)
        with connect(port=first.port) as client:
            mid_epoch = client.epoch()["version"]
            client.shutdown()  # the kill: drains + saves the checkpoint
        first.stop()

        # --- phase 2: a restarted server resumes from the checkpoint.
        second = SparsifierHTTPServer(SparsifierService.restore(checkpoint_dir),
                                      server_config()).start()
        with connect(port=second.port) as client:
            resumed_epoch = client.epoch()["version"]
        write_seconds += _drive_phase(
            second.port, scenario.batches[half:], readers=readers,
            num_nodes=num_nodes, latencies=latencies,
            reader_errors=reader_errors, seed=seed + 1,
            settle_seconds=settle_seconds)

        # --- read the survivor's final state back over the wire.
        with connect(port=second.port) as client:
            final_epoch = client.epoch()["version"]
            served_sparsifier = {(u, v): w for u, v, w
                                 in client.edges(on="sparsifier")["edges"]}
            served_graph = {(u, v): w for u, v, w in client.edges(on="graph")["edges"]}
            server_metrics = client.metrics()
            client.shutdown()
        second.stop()

    payload = {
        "schema": LATENCY_SCHEMA,
        "meta": {
            "benchmark": "serve_latency",
            "side": side,
            "batches": batches,
            "readers": readers,
            "deletion_fraction": deletion_fraction,
            "seed": seed,
            "queue_bound": queue_bound,
            "num_nodes": num_nodes,
            "num_edges": scenario.graph.num_edges,
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "latency": reader_latency_summary(latencies, reader_errors),
        "write_seconds": write_seconds,
        "restart": {
            "mid_epoch": mid_epoch,
            "resumed_epoch": resumed_epoch,
            "resume_epoch_match": bool(mid_epoch == resumed_epoch),
        },
        "parity": {
            "final_epoch": final_epoch,
            "offline_epoch": reference_epoch,
            "epoch_match": bool(final_epoch == reference_epoch),
            "sparsifier_edges_match": set(served_sparsifier) == set(reference_sparsifier),
            "sparsifier_weights_match": served_sparsifier == reference_sparsifier,
            "graph_edges_match": served_graph == reference_graph,
        },
        "server_metrics": server_metrics,
    }
    return payload


def gate_failures(payload: Dict) -> List[str]:
    """Why a payload fails the benchmark's checks; empty when it passes.

    The restart drill resumed at the checkpointed epoch; the served final
    state is bit-exact (epoch, sparsifier edge set and weights, graph) with
    the offline replay; and the readers sustained queries, with at most
    ``max(2, queries // 10)`` errors.
    """
    failures: List[str] = []
    parity = payload["parity"]
    restart = payload["restart"]
    if not restart["resume_epoch_match"]:
        failures.append(
            f"restart drill: restored server resumed at epoch "
            f"{restart['resumed_epoch']} instead of {restart['mid_epoch']}")
    if not parity["epoch_match"]:
        failures.append(
            f"epoch parity: server finished at epoch {parity['final_epoch']} "
            f"but offline replay finished at {parity['offline_epoch']}")
    if not parity["sparsifier_edges_match"]:
        failures.append("served sparsifier edge set diverged from the offline replay")
    elif not parity["sparsifier_weights_match"]:
        failures.append("served sparsifier weights diverged from the offline replay")
    if not parity["graph_edges_match"]:
        failures.append("served tracked graph diverged from the offline replay")
    queries = int(payload["latency"]["queries"])
    errors = int(payload["latency"]["errors"])
    if queries <= 0:
        failures.append("no reader queries were recorded — the latency numbers are vacuous")
    if errors > max(2, queries // 10):
        failures.append(
            f"reader threads hit {errors} errors over {queries} queries — "
            "the latency population is under-sampled, not trustworthy")
    return failures


def print_results(payload: Dict) -> None:
    latency = payload.get("latency", {})
    parity = payload.get("parity", {})
    meta = payload.get("meta", {})
    print(f"serve-latency: {meta.get('batches')} churn batches over HTTP, "
          f"{meta.get('readers')} readers, {latency.get('queries', 0)} queries")
    if latency.get("queries"):
        print(f"  reader latency: p50 {latency['p50_ms']:.2f} ms, "
              f"p90 {latency['p90_ms']:.2f} ms, p99 {latency['p99_ms']:.2f} ms, "
              f"max {latency['max_ms']:.2f} ms")
    if latency.get("errors"):
        print(f"  reader errors: {latency['errors']} "
              "(readers reconnect and keep sampling)")
    for stats in latency.get("readers", []):
        if "p50_ms" in stats:
            suffix = f", {stats['errors']} errors" if stats.get("errors") else ""
            print(f"    reader {stats['reader']}: {stats['queries']} queries, "
                  f"p50 {stats['p50_ms']:.2f} ms, p99 {stats['p99_ms']:.2f} ms{suffix}")
    print(f"  kill/restart: resumed at epoch {payload['restart'].get('resumed_epoch')} "
          f"({'match' if payload['restart'].get('resume_epoch_match') else 'MISMATCH'})")
    exact = (parity.get("epoch_match") and parity.get("sparsifier_weights_match")
             and parity.get("graph_edges_match"))
    print(f"  final state vs offline replay: "
          f"{'bit-exact' if exact else 'DIVERGED'} at epoch {parity.get('final_epoch')}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="HTTP serving-layer latency benchmark")
    parser.add_argument("--side", type=int, default=10,
                        help="grid side of the served graph (default 10 -> 100 nodes)")
    parser.add_argument("--batches", type=int, default=12,
                        help="mixed churn batches streamed over HTTP (default 12)")
    parser.add_argument("--readers", type=int, default=2,
                        help="concurrent HTTP reader threads (default 2)")
    parser.add_argument("--deletion-fraction", type=float, default=0.3)
    parser.add_argument("--queue-bound", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="BENCH_serve_latency.json",
                        help="path of the JSON artifact (empty string disables writing)")
    args = parser.parse_args(argv)

    payload = run_serve_latency_bench(
        side=args.side, batches=args.batches, readers=args.readers,
        deletion_fraction=args.deletion_fraction, seed=args.seed,
        queue_bound=args.queue_bound)
    print_results(payload)
    payload["failures"] = gate_failures(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.output}")
    for failure in payload["failures"]:
        print(f"FAILED: {failure}")
    return 1 if payload["failures"] else 0
