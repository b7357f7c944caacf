"""CLI + CI gate for the HTTP serving layer: sustained latency + restart parity.

Sustained-readout front ends treat serving-layer tail latency and restart
behaviour as part of the *system contract* — measured and gated, not demoed.
This gate drives mixed churn through a **live**
:class:`~repro.server.app.SparsifierHTTPServer` over real sockets:

* **reader latency** — concurrent reader threads issue ``POST /resistance``
  queries over HTTP for the whole run; client-side p50/p99 (the full
  parse-pin-solve-respond round trip) are recorded against a committed
  baseline;
* **kill/restart drill** — after half the stream the server is shut down
  gracefully over HTTP (``POST /shutdown`` drains the ingest queue and saves
  a checkpoint), a second server restores from that checkpoint and
  serves the remaining batches;
* **epoch parity** — the survivor's final state, read back over HTTP
  (``GET /edges`` + ``/epoch``), must be **bit-exact** (edge set, weights,
  and version epoch) with an offline in-process replay of the same stream.

Parity is enforced unconditionally; the latency-regression arm follows the
repo's hardware-fingerprint convention — enforced when both the run and the
committed baseline come from multi-core hosts, deferred with a CI notice on
the 1-CPU bench host (where readers and the writer serialise through one
core and tail latency measures the scheduler, not the server).

Run with::

    python -m repro bench serve-latency [--batches 12] [--readers 2]

Gate mode (the CI ``bench-perf`` job, via ``repro bench gate``)::

    python -m repro bench serve-latency --check BENCH_serve_latency.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.bench import ci

#: Schema tag of this gate's latency block.
LATENCY_SCHEMA = "repro.serve_latency/v1"

#: Committed baseline consumed by the CI ``bench-perf`` job.
DEFAULT_BASELINE_PATH = Path("benchmarks") / "baselines" / "serve_latency_baseline.json"


def reader_latency_summary(reader_latencies: Dict[int, List[float]],
                           reader_errors: Optional[Dict[int, List[str]]] = None) -> Dict:
    """Summarise per-reader latency samples (seconds in, milliseconds out).

    The one shared schema for reader-latency numbers: total and per-reader
    query/error counts with p50/p90/p99/max/mean in milliseconds.  Errors are
    counted so a reader dying mid-run shrinks ``queries`` *visibly* instead of
    silently thinning the population the gate compares against the baseline.
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
    the gate reports — every error is recorded and the reader reconnects and
    keeps sampling.
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


def distil_baseline(payload: Dict) -> Dict:
    """Reduce a benchmark payload to the committed baseline schema."""
    meta = payload.get("meta", {})
    latency = payload.get("latency", {})
    return {
        "benchmark": "serve_latency",
        "side": meta.get("side"),
        "batches": meta.get("batches"),
        "readers": meta.get("readers"),
        "seed": meta.get("seed"),
        "cpu_count": meta.get("cpu_count"),
        "generated": meta.get("timestamp"),
        "queries": latency.get("queries"),
        "p50_ms": latency.get("p50_ms"),
        "p99_ms": latency.get("p99_ms"),
    }


def check_gate(payload: Dict, baseline: Optional[Dict], *,
               regression_tolerance: float = 1.0) -> List[str]:
    """Gate a benchmark payload; return failure messages (empty = pass).

    1. **Restart + epoch parity** (always): the kill/restart drill resumed at
       the checkpointed epoch and the served final state is bit-exact (edge
       set, weights, version epoch) with the offline replay.
    2. **Coverage** (always): the readers actually sustained queries.
    3. **Latency regression** (multi-core run *and* multi-core baseline):
       p50/p99 within ``(1 + regression_tolerance)`` of the committed
       baseline; deferred with a CI notice otherwise.  The tolerance is
       deliberately wide — wall-clock HTTP latency on shared runners is
       noisy — the gate exists to catch order-of-magnitude serving-layer
       regressions, not microsecond drift.
    """
    failures: List[str] = []
    parity = payload.get("parity", {})
    restart = payload.get("restart", {})
    if not restart.get("resume_epoch_match", False):
        failures.append(
            f"restart drill: restored server resumed at epoch "
            f"{restart.get('resumed_epoch')} instead of {restart.get('mid_epoch')}")
    if not parity.get("epoch_match", False):
        failures.append(
            f"epoch parity: server finished at epoch {parity.get('final_epoch')} "
            f"but offline replay finished at {parity.get('offline_epoch')}")
    if not parity.get("sparsifier_edges_match", False):
        failures.append("served sparsifier edge set diverged from the offline replay")
    elif not parity.get("sparsifier_weights_match", False):
        failures.append("served sparsifier weights diverged from the offline replay")
    if not parity.get("graph_edges_match", False):
        failures.append("served tracked graph diverged from the offline replay")

    latency = payload.get("latency", {})
    queries = int(latency.get("queries", 0))
    if queries <= 0:
        failures.append("no reader queries were recorded — the latency numbers are vacuous")
    errors = int(latency.get("errors", 0))
    if errors > max(2, queries // 10):
        failures.append(
            f"reader threads hit {errors} errors over {queries} queries — "
            "the latency population is under-sampled, not trustworthy")

    cpu_count = int(payload.get("meta", {}).get("cpu_count", 1))
    baseline_cpus = int(baseline.get("cpu_count", 1)) if baseline is not None else 0
    if baseline is None:
        failures.append(
            f"committed baseline missing: {DEFAULT_BASELINE_PATH} "
            "(generate with `python -m repro bench serve-latency --write-baseline`)")
    elif cpu_count >= 2 and baseline_cpus >= 2:
        for quantile in ("p50_ms", "p99_ms"):
            measured = latency.get(quantile)
            reference = baseline.get(quantile)
            if measured is None or reference is None:
                continue
            limit = float(reference) * (1.0 + regression_tolerance)
            if float(measured) > limit:
                failures.append(
                    f"reader {quantile} {float(measured):.2f} ms exceeds "
                    f"{limit:.2f} ms (baseline {float(reference):.2f} ms "
                    f"+ {regression_tolerance:.0%} tolerance)")
    else:
        reason = (f"host has {cpu_count} CPU" if cpu_count < 2
                  else f"baseline was generated on a {baseline_cpus}-CPU host")
        ci.notice(
            f"serve-latency regression arm deferred: {reason} "
            f"(measured p50 {latency.get('p50_ms', float('nan')):.2f} ms, "
            f"p99 {latency.get('p99_ms', float('nan')):.2f} ms over {queries} queries); "
            "parity and coverage criteria were enforced",
            title="serve-latency gate",
        )
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


def _load(path: str) -> Dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="HTTP serving-layer latency benchmark / CI gate")
    parser.add_argument("--check", metavar="BENCH_JSON", default=None,
                        help="gate mode: validate this benchmark result")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE_PATH),
                        help="baseline file to read (check) or write (--write-baseline)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="after running, distil the result into --baseline")
    parser.add_argument("--regression-tolerance", type=float, default=1.0,
                        help="allowed relative p50/p99 regression vs the baseline")
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

    if args.check is not None:
        payload = _load(args.check)
        baseline = _load(args.baseline) if Path(args.baseline).exists() else None
        failures = check_gate(payload, baseline,
                              regression_tolerance=args.regression_tolerance)
        if failures:
            print("SERVE LATENCY GATE FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            print(f"(baseline: {args.baseline}; refresh it with "
                  "`python -m repro bench serve-latency --write-baseline` if the "
                  "change is intentional)")
            return 1
        print("serve-latency gate OK: restart drill bit-exact, epoch parity with "
              "offline replay, reader latency recorded")
        return 0

    payload = run_serve_latency_bench(
        side=args.side, batches=args.batches, readers=args.readers,
        deletion_fraction=args.deletion_fraction, seed=args.seed,
        queue_bound=args.queue_bound)
    print_results(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.output}")
    if args.write_baseline:
        baseline = distil_baseline(payload)
        path = Path(args.baseline)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2)
            handle.write("\n")
        print(f"wrote baseline {path}")
    parity = payload["parity"]
    ok = (payload["restart"]["resume_epoch_match"] and parity["epoch_match"]
          and parity["sparsifier_weights_match"] and parity["graph_edges_match"])
    if not ok:
        print("ACCEPTANCE FAILED: the served state diverged from the offline replay")
        return 1
    return 0

