"""Program side of the benchmark; runs in its own process.

Reads one pickled job from stdin (written by ``run.py``), runs the program on
the job's inputs and writes one pickled result to stdout.  Everything the
program prints goes to stderr.  Two job kinds:

* ``engine``: every stream is applied ``repeats`` times, each time from a
  fresh ``setup(G, H0, target_condition_number=κ0)``, timing each
  ``apply_batch``.  A read probe sets up once more and, after each pass,
  answers one round of closed-loop resistance queries on that epoch.  With
  tracing, every stream runs once untraced, then once traced, followed by a
  traced probe round.
* ``serve``: sets up a ``SparsifierService`` and serves it with
  ``repro.api.serve`` until the load generator posts ``/shutdown``.
"""

from __future__ import annotations

import os
import pickle
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from tracing import ServerProbe, Tracer  # noqa: E402
from workloads import digest  # noqa: E402


def _no_span(name):
    return nullcontext()


def _graph(num_nodes: int, arrays: tuple):
    from repro.api import Graph

    us, vs, ws = arrays
    return Graph(num_nodes, zip(us.tolist(), vs.tolist(), ws.tolist()))


class Program:
    """The inputs as graphs plus a timed ``setup`` of a fresh driver or service."""

    def __init__(self, job) -> None:
        from repro.api import InGrassConfig

        self.inputs = job["inputs"]
        self.config = InGrassConfig(**job["config"])
        self.graph = _graph(self.inputs.num_nodes, self.inputs.graph)
        self.sparsifier = _graph(self.inputs.num_nodes, self.inputs.sparsifier)

    def setup(self, factory, span=_no_span):
        target = factory(self.config)
        begin = perf_counter()
        with span("bench.setup"):
            target.setup(self.graph, self.sparsifier,
                         target_condition_number=self.inputs.target_kappa)
        return target, perf_counter() - begin


def _apply_stream(program, batches, span=_no_span):
    from repro.api import Sparsifier

    driver, setup_s = program.setup(Sparsifier, span)
    batch_s = []
    for batch in batches:
        begin = perf_counter()
        with span("bench.apply_batch"):
            driver.apply_batch(batch)
        batch_s.append(perf_counter() - begin)
    stats = driver.maintenance_stats
    return {"setup_s": setup_s, "batch_s": batch_s,
            "splices": stats.splices, "merges": stats.merges,
            "digest": digest(driver.sparsifier.edge_arrays()),
            "final": {"graph": tuple(np.array(a) for a in driver.graph.edge_arrays()),
                      "sparsifier": tuple(np.array(a) for a in driver.sparsifier.edge_arrays())}}


class ReadProbe:
    """Closed-loop resistance queries, back to back, on an epoch set up for
    the probe alone (its driver never sees a batch).  Every :meth:`round`
    asks the same pairs again, after a few untimed warm-up queries, and
    records one row of times.

    Asked a few at a time between batches instead, each query found the
    factorisation evicted by the batch before it, and the median read swung
    with the host's memory bandwidth.  Rounds asked back to back all fell in
    the same second of the host's load, so the engine loop asks one round
    after each stream instead.
    """

    WARMUP = 20

    def __init__(self, program, pairs: int, seed: int, span=_no_span) -> None:
        from repro.api import SparsifierService

        self.service, self.setup_s = program.setup(SparsifierService, span)
        rng = np.random.default_rng(seed)
        self.queries = [tuple(int(x) for x in rng.choice(program.inputs.num_nodes, size=2,
                                                         replace=False))
                        for _ in range(pairs)]
        self.read_s = []

    def round(self, span=_no_span) -> None:
        for u, v in self.queries[:self.WARMUP]:
            self.service.snapshot().effective_resistance(u, v)
        row = []
        for u, v in self.queries:
            begin = perf_counter()
            with span("bench.read"):
                self.service.snapshot().effective_resistance(u, v)
            row.append(perf_counter() - begin)
        self.read_s.append(row)

    def result(self) -> dict:
        return {"setup_s": self.setup_s, "read_s": self.read_s}


def _without_finals(result: dict) -> dict:
    return {key: value for key, value in result.items() if key != "final"}


def run_engine(job) -> dict:
    """Apply every stream ``repeats`` times, round robin, each from a fresh setup.

    Repeats of one stream are a whole pass apart, so each batch is timed in
    ``repeats`` different moments of the host's load.  A probe round follows
    every stream, so the reads are spread over the whole run too.  Only the
    last pass keeps its final states; the others keep their digests.
    """
    program = Program(job)
    streams, repeats = program.inputs.streams, job["repeats"]
    if job["trace"]:
        untraced = [_apply_stream(program, batches) for batches in streams]
        tracer = Tracer().install()
        try:
            traced = [_apply_stream(program, batches, tracer.span) for batches in streams]
            probe = ReadProbe(program, job["probe_pairs"], job["seed"], tracer.span)
            probe.round(tracer.span)
        finally:
            tracer.uninstall()
        return {"passes": [[_without_finals(r) for r in untraced], traced],
                "probe": probe.result(), "trace": tracer.summary()}
    probe = ReadProbe(program, job["probe_pairs"], job["seed"])
    passes = []
    for index in range(repeats):
        results = []
        for batches in streams:
            results.append(_apply_stream(program, batches))
            probe.round()
        passes.append(results if index == repeats - 1 else [_without_finals(r) for r in results])
    return {"passes": passes, "probe": probe.result()}


def run_server(job) -> dict:
    from repro.api import ServerConfig, SparsifierService, serve

    program = Program(job)
    service, setup_s = program.setup(SparsifierService)
    tracer = probe = None
    if job["trace"]:
        tracer = Tracer().install()
        probe = ServerProbe()
        probe.install(tracer)
    serve(service, ServerConfig(port=job["port"], queue_bound=64))
    stats = service.driver.maintenance_stats
    return {"setup_s": setup_s, "splices": stats.splices, "merges": stats.merges,
            "trace": tracer.summary() if tracer is not None else None,
            "server": probe.summary() if probe is not None else None}


def main() -> int:
    job = pickle.load(sys.stdin.buffer)
    result_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # anything the program prints lands on stderr
    result = run_engine(job) if job["kind"] == "engine" else run_server(job)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with result_out:
        pickle.dump(result, result_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
