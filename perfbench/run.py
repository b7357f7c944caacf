"""Repo benchmark: two workloads against the public API, with correctness checks.

Run from the repository root::

    python3 perfbench/run.py --workload churn-guarded --seed 1 --trace 0
    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload churn-guarded --seed 1 --smoke   # tiny inputs

Inputs are generated here from ``--seed``, outside every timed region; the
program runs in a separate process (``worker.py``) so ``peak_rss_mb`` is the
program's own.  ``--trace 0`` prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` prints every per-layer metric.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import os

# Fixed BLAS threading, set before numpy loads here or in any worker.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: Whole-run budget; every wait below is bounded by what is left of it.
RUN_BUDGET_S = 170.0
#: Where the cross-run digest record lives (inside the checkout, git-ignored).
STATE_DIR = ROOT / ".perfbench_state"


class BenchmarkError(RuntimeError):
    """The run could not produce a result."""


def _deadline_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchmarkError("run budget exhausted")
    return left


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def fingerprint() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"cpu_count": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "blas": blas_name, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


# --------------------------------------------------------------------------- #
# The program's process
# --------------------------------------------------------------------------- #
def start_worker() -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=dict(os.environ))


def finish_worker(proc: subprocess.Popen, payload, timeout: float) -> dict:
    """Send ``payload`` (if any), wait for the pickled result, reap the process."""
    try:
        out, _ = proc.communicate(pickle.dumps(payload) if payload is not None else None,
                                  timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker did not finish within {timeout:.0f} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return pickle.loads(out)


# --------------------------------------------------------------------------- #
# Independent correctness checks (scipy only, no program code)
# --------------------------------------------------------------------------- #
def laplacian(num_nodes: int, arrays):
    import numpy as np
    import scipy.sparse as sp

    us, vs, ws = (np.asarray(a) for a in arrays)
    adjacency = sp.coo_matrix((np.concatenate([ws, ws]),
                               (np.concatenate([us, vs]), np.concatenate([vs, us]))),
                              shape=(num_nodes, num_nodes)).tocsr()
    return sp.diags(np.asarray(adjacency.sum(axis=1)).ravel()) - adjacency


def is_connected(num_nodes: int, arrays) -> bool:
    from scipy.sparse.csgraph import connected_components

    count, _ = connected_components(laplacian(num_nodes, arrays) != 0, directed=False)
    return count == 1


def is_subset(num_nodes: int, sub, full) -> bool:
    import numpy as np

    def keys(arrays):
        us, vs = np.asarray(arrays[0]), np.asarray(arrays[1])
        return np.minimum(us, vs) * num_nodes + np.maximum(us, vs)

    return bool(np.isin(keys(sub), keys(full)).all())


def condition_number(num_nodes: int, graph, sparsifier) -> float:
    """κ(L_G, L_H) of the grounded pencil: λ_max(G, H) / λ_min(G, H)."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    reduced = [sp.csc_matrix(laplacian(num_nodes, arrays)[1:, 1:]) for arrays in (graph, sparsifier)]

    def largest(a, b):
        lu = spla.splu(b)
        inverse = spla.LinearOperator(b.shape, matvec=lu.solve, dtype=float)
        return float(spla.eigsh(a, k=1, M=b, Minv=inverse, which="LM", tol=1e-6,
                                return_eigenvectors=False)[0])

    return largest(*reduced) * largest(reduced[1], reduced[0])


def offtree_density(num_nodes: int, sparsifier) -> float:
    return (len(sparsifier[0]) - (num_nodes - 1)) / num_nodes


def source_hash() -> str:
    """Hash of the program and benchmark source: a recorded digest only ever
    compares runs of the same code on the same generated inputs."""
    import hashlib

    sha = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "repro").rglob("*.py"), *HERE.glob("*.py")]):
        sha.update(path.relative_to(ROOT).as_posix().encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def record_digest(key: str, value: str) -> bool:
    """Remember ``value`` for ``key``; ``False`` if a different one was recorded."""
    key = f"{source_hash()}/{key}"
    path = STATE_DIR / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if known.setdefault(key, value) != value:
        return False
    STATE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def final_state_checks(spec, inputs, finals, digest_key: str, checks: dict) -> dict:
    """Checks on every final state; returns the quality notes (means over states)."""
    from workloads import digest

    n = inputs.num_nodes
    checks["sparsifier_connected"] = all(is_connected(n, f["sparsifier"]) for f in finals)
    checks["sparsifier_subset_of_graph"] = all(is_subset(n, f["sparsifier"], f["graph"])
                                               for f in finals)
    checks["digest_repeats_across_runs"] = all([
        record_digest(f"{digest_key}/{k}", digest(f["sparsifier"]))
        for k, f in enumerate(finals)])
    kappas = [condition_number(n, f["graph"], f["sparsifier"]) / inputs.target_kappa
              for f in finals]
    if spec.kappa_bound:
        checks[f"kappa_ratio_at_most_{spec.kappa_bound:g}"] = max(kappas) <= spec.kappa_bound
    return {"kappa_ratio": statistics.mean(kappas),
            "offtree_density": statistics.mean(offtree_density(n, f["sparsifier"])
                                               for f in finals)}


# --------------------------------------------------------------------------- #
# Metrics helpers
# --------------------------------------------------------------------------- #
def pct(samples, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(samples, dtype=float), q))


def layer_metrics(trace: dict, counts: dict) -> dict:
    """Per-layer metrics from a tracer summary (``*_s`` are self times)."""
    own, calls, counters = trace["self_seconds"], trace["calls"], trace["counters"]

    def s(name):
        return own.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    return {
        "spectral.condition.kappa_s": s("spectral.condition.kappa"),
        "spectral.condition.kappa_calls": c("spectral.condition.kappa"),
        "spectral.condition.eigvec_s": s("spectral.condition.eigvec"),
        "spectral.condition.eigvec_calls": c("spectral.condition.eigvec"),
        "core.update.guard_s": s("core.update.guard"),
        "core.update.guard_calls": c("core.update.guard"),
        "core.update.guard_rounds": counters.get("guard_rounds", 0),
        "core.update.guard_useful_ratio": (counters.get("guard_useful", 0)
                                           / max(c("core.update.guard"), 1)),
        "core.maintenance.splice_s": s("core.maintenance.splice"),
        "core.maintenance.splice_calls": c("core.maintenance.splice"),
        "core.maintenance.merge_s": s("core.maintenance.merge"),
        "core.maintenance.splices": counts["splices"],
        "core.maintenance.merges": counts["merges"],
        "core.update.removal_s": s("core.update.removal"),
        "core.update.drop_s": s("core.update.drop"),
        "core.update.repair_s": s("core.update.repair"),
        "core.update.repair_edges": counters.get("repair_edges", 0),
        "graphs.validation.self_s": s("graphs.validation"),
        "core.update.insert_s": s("core.update.insert"),
        "core.distortion.score_s": s("core.distortion.score"),
        "core.filtering.apply_s": s("core.filtering.apply"),
        "core.filtering.admit_ratio": (counters.get("filter_added", 0)
                                       / max(counters.get("filter_seen", 0), 1)),
        "graphs.graph.mutate_s": s("graphs.graph.mutate"),
        "core.setup.self_s": s("core.setup"),
        "snapshot.capture_s": s("snapshot.capture"),
        "snapshot.capture_calls": c("snapshot.capture"),
        "snapshot.resistance_s": s("snapshot.resistance"),
        "spectral.solvers.factor_s": s("spectral.solvers.factor"),
        "spectral.solvers.factor_calls": c("spectral.solvers.factor"),
        "service.apply_s": s("service.apply"),
        "service.snapshot_wait_s": s("service.snapshot"),
    }


# --------------------------------------------------------------------------- #
# Engine workloads
# --------------------------------------------------------------------------- #
def run_engine(spec, args, deadline: float):
    import numpy as np

    from workloads import generate

    inputs = generate(spec, args.seed, spec.streams, spec.batches_per_stream)
    job = {"kind": "engine", "inputs": inputs, "config": spec.config, "seed": args.seed,
           "trace": bool(args.trace), "repeats": spec.repeats, "probe_pairs": spec.probe_pairs}
    raw = finish_worker(start_worker(), job, _deadline_left(deadline))
    passes, probe = raw["passes"], raw["probe"]
    last = passes[-1]
    checks = {"digest_repeats_within_run": all(
        result["digest"] == last[k]["digest"] for one in passes for k, result in enumerate(one))}
    notes = final_state_checks(
        spec, inputs, [result["final"] for result in last],
        f"{spec.name}/{args.seed}/{spec.streams}x{spec.batches_per_stream}/{int(args.smoke)}",
        checks)
    attempted = (sum(len(result["batch_s"]) for one in passes for result in one)
                 + sum(len(row) for row in probe["read_s"]))

    if args.trace:
        untraced, traced = passes
        trace = raw["trace"]
        metrics = layer_metrics(trace, {name: sum(result[name] for result in traced)
                                        for name in ("splices", "merges")})
        metrics.update(NO_SERVER_LAYERS)
        roots = sum(trace["self_seconds"].get(name, 0.0)
                    for name in ("bench.setup", "bench.apply_batch", "bench.read"))

        def write_wall(results):
            return sum(result["setup_s"] + sum(result["batch_s"]) for result in results)

        metrics["trace.wall_s"] = trace["root_seconds"]
        metrics["trace.unattributed_frac"] = roots / trace["root_seconds"]
        metrics["trace.overhead_frac"] = write_wall(traced) / write_wall(untraced) - 1.0
        return checks, attempted, metrics, notes

    # Each batch's and each read's time is its best over the repeats: the
    # work is identical (the digests say so), the host's load is not.
    batch_ms = np.min([[t for result in one for t in result["batch_s"]] for one in passes],
                      axis=0) * 1e3
    read_ms = np.min(probe["read_s"], axis=0) * 1e3
    metrics = {
        "setup_s": statistics.median([result["setup_s"] for one in passes for result in one]
                                     + [probe["setup_s"]]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "batch_p50_ms": pct(batch_ms, 50),
        "batch_p90_ms": pct(batch_ms, 90),
        "events_per_s": (sum(inputs.num_events(k) for k in range(len(inputs.streams)))
                         / (batch_ms.sum() / 1e3)),
        "read_p50_ms": pct(read_ms, 50),
        "read_p99_ms": pct(read_ms, 99),
        "reads_per_s": len(read_ms) / (read_ms.sum() / 1e3),
        # In-process, a batch is visible to the caller the moment
        # apply_batch returns: write-to-visible is the batch latency.
        "visible_p50_ms": pct(batch_ms, 50),
        "visible_p90_ms": pct(batch_ms, 90),
    }
    notes.update({"streams": len(last), "repeats": len(passes), "batches": len(batch_ms),
                  "reads": len(read_ms)})
    return checks, attempted, metrics, notes


# --------------------------------------------------------------------------- #
# Serve workload
# --------------------------------------------------------------------------- #
#: The HTTP layers' metrics on workloads that run no server.
NO_SERVER_LAYERS = {"server.update.handler_ms_p50": 0.0, "server.resistance.handler_ms_p50": 0.0,
                    "server.transport_ms_p50": 0.0}
#: Untimed reads on the initial epoch before a session's first write.
SERVE_WARMUP_READS = 20


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_until_serving(proc: subprocess.Popen, port: int, deadline: float) -> None:
    from repro.api import connect

    while True:
        if proc.poll() is not None:
            raise BenchmarkError(f"server exited with code {proc.returncode} before serving")
        try:
            with connect(port=port, timeout=5.0) as client:
                client.health()
            return
        except OSError:
            _deadline_left(deadline)
            time.sleep(0.1)


def serve_session(spec, inputs, payloads, pairs, warmup, traced: bool,
                  deadline: float) -> dict:
    """One server process, one load run, the final state read back over HTTP."""
    from loadgen import drive
    from repro.api import connect

    port = free_port()
    proc = start_worker()
    job = {"kind": "serve", "inputs": inputs, "config": spec.config, "port": port,
           "trace": traced}
    try:
        # The worker unpickles exactly one object; stdin stays open until
        # finish_worker, whose communicate() closes it.
        proc.stdin.write(pickle.dumps(job))
        proc.stdin.flush()
        wait_until_serving(proc, port, deadline)
        cycles = drive(port, payloads, pairs, warmup)
        with connect(port=port, timeout=60.0) as client:
            epoch = client.epoch()
            final = {on: tuple(zip(*client.edges(on=on)["edges"]))
                     for on in ("graph", "sparsifier")}
            client.shutdown()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    raw = finish_worker(proc, None, _deadline_left(deadline))
    return {"cycles": cycles, "epoch": epoch, "final": final, "raw": raw}


def replay_offline(spec, inputs):
    """The same stream applied in-process: the reference the server must match."""
    from repro.api import InGrassConfig, Sparsifier
    from worker import _graph

    driver = Sparsifier(InGrassConfig(**spec.config))
    driver.setup(_graph(inputs.num_nodes, inputs.graph),
                 _graph(inputs.num_nodes, inputs.sparsifier),
                 target_condition_number=inputs.target_kappa)
    for batch in inputs.streams[0]:
        driver.apply_batch(batch)
    return driver.latest_version, driver.sparsifier.edge_arrays(), driver.graph.edge_arrays()


def session_times(session: dict) -> dict:
    """Per-request seconds of one session, in request order."""
    cycles = session["cycles"]
    return {"write": [c.write.seconds for c in cycles],
            "read": [r.seconds for c in cycles for r in c.reads],
            # Write sent until the first answer from its epoch: the write's
            # round trip plus the epoch's first read.
            "visible": [c.write.seconds + c.reads[0].seconds for c in cycles]}


def run_serve(spec, args, deadline: float):
    import numpy as np

    from workloads import digest, generate

    sessions = [False, True] if args.trace else [False] * spec.repeats
    num_cycles = max(2, int(round(spec.cycles_per_second * args.seconds / len(sessions))))
    inputs = generate(spec, args.seed, 1, num_cycles)
    payloads = [{"insertions": [[u, v, w] for u, v, w in batch.insertions],
                 "deletions": [[u, v] for u, v in batch.deletions]}
                for batch in inputs.streams[0]]
    rng = np.random.default_rng(args.seed)

    def draw_pairs(count: int) -> list:
        return [tuple(int(x) for x in rng.choice(inputs.num_nodes, size=2, replace=False))
                for _ in range(count)]

    warmup = draw_pairs(SERVE_WARMUP_READS)
    pairs = [draw_pairs(spec.reads_per_write) for _ in payloads]
    results = [serve_session(spec, inputs, payloads, pairs, warmup, traced, deadline)
               for traced in sessions]
    version, reference, reference_graph = replay_offline(spec, inputs)

    checks = {}
    for index, session in enumerate(results):
        final = {on: tuple(np.asarray(a) for a in arrays)
                 for on, arrays in session["final"].items()}
        session["final"] = final
        checks[f"session{index}_epoch_matches_offline_replay"] = (
            session["epoch"]["version"] == version)
        checks[f"session{index}_sparsifier_bit_exact_with_offline_replay"] = (
            digest(final["sparsifier"]) == digest(reference))
        checks[f"session{index}_graph_bit_exact_with_offline_replay"] = (
            digest(final["graph"]) == digest(reference_graph))
        checks[f"session{index}_reads_answer_from_their_write_epoch"] = all(
            r.version == c.write.version for c in session["cycles"] for r in c.reads)
    notes = final_state_checks(
        spec, inputs, [results[0]["final"]],
        f"{spec.name}/{args.seed}/{len(payloads)}/{int(args.smoke)}", checks)

    requests = [q for r in results for c in r["cycles"] for q in (c.write, *c.reads)]
    attempted = len(requests)
    failed = sum(q.status != 200 for q in requests)
    if args.trace:
        untraced, traced = results
        raw = traced["raw"]
        metrics = layer_metrics(raw["trace"], raw)
        handler = raw["server"]["handler_seconds"]
        resistance_p50 = pct(handler.get("POST /resistance", [0.0]), 50) * 1e3
        handler_total = sum(sum(samples) for samples in handler.values())
        client_s = [sum(q.seconds for c in r["cycles"] for q in (c.write, *c.reads))
                    for r in (untraced, traced)]
        metrics.update({
            "server.update.handler_ms_p50": pct(handler.get("POST /update", [0.0]), 50) * 1e3,
            "server.resistance.handler_ms_p50": resistance_p50,
            "server.transport_ms_p50": (pct(session_times(traced)["read"], 50) * 1e3
                                        - resistance_p50),
            "trace.wall_s": handler_total,
            "trace.unattributed_frac": 1.0 - raw["trace"]["root_seconds"] / handler_total,
            "trace.overhead_frac": client_s[1] / client_s[0] - 1.0,
        })
        return checks, attempted, failed, metrics, notes

    # Every session sends the same requests in the same order: a request's
    # time is its minimum over the sessions, as an engine batch's is its
    # minimum over the repeats.
    times = [session_times(session) for session in results]
    write_ms, read_ms, visible_ms = (np.min([t[kind] for t in times], axis=0) * 1e3
                                     for kind in ("write", "read", "visible"))
    metrics = {
        "setup_s": statistics.median(r["raw"]["setup_s"] for r in results),
        "peak_rss_mb": min(r["raw"]["peak_rss_mb"] for r in results),
        "batch_p50_ms": pct(write_ms, 50),
        "batch_p90_ms": pct(write_ms, 90),
        "events_per_s": (sum(c.events for c in results[0]["cycles"])
                         / (write_ms.sum() / 1e3)),
        "read_p50_ms": pct(read_ms, 50),
        "read_p99_ms": pct(read_ms, 99),
        "reads_per_s": len(read_ms) / (read_ms.sum() / 1e3),
        "visible_p50_ms": pct(visible_ms, 50),
        "visible_p90_ms": pct(visible_ms, 90),
    }
    # Each session's own medians and memory: how far the host's speed moved.
    notes.update({"writes": len(write_ms), "reads": len(read_ms),
                  "session_batch_p50_ms": [round(pct(t["write"], 50) * 1e3, 3) for t in times],
                  "session_read_p50_ms": [round(pct(t["read"], 50) * 1e3, 4) for t in times],
                  "session_peak_rss_mb": [round(r["raw"]["peak_rss_mb"], 1) for r in results]})
    return checks, attempted, failed, metrics, notes


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    bench = load_spec()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks the whole path in seconds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at src/repro next to perfbench/", file=sys.stderr)
        return 2
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    from workloads import workload

    spec = workload(args.workload, smoke=args.smoke)
    deadline = time.monotonic() + RUN_BUDGET_S
    print(json.dumps({"fingerprint": fingerprint()}))
    try:
        if spec.kind == "engine":
            checks, attempted, metrics, notes = run_engine(spec, args, deadline)
            failed = 0
        else:
            checks, attempted, failed, metrics, notes = run_serve(spec, args, deadline)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    mismatch = {m["name"] for m in declared} ^ set(metrics)
    if mismatch:
        print(f"perfbench: metrics do not match BENCHMARK.json: {sorted(mismatch)}",
              file=sys.stderr)
        return 1
    print(json.dumps({"checks": checks, "notes": notes}))
    for m in declared:
        print(f"{m['name']:34s} {metrics[m['name']]:>14.6g} {m['unit']:6s} "
              f"({m['better']} is better)")
    correct = all(checks.values()) and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
