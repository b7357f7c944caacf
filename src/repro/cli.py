"""The unified ``repro`` command-line entry point.

One console command (``python -m repro`` / the ``repro`` script) runs every
benchmark, the HTTP server and the checkpoint tools::

    python -m repro bench churn --quick            # churn benchmark
    python -m repro bench soak --output soak.json  # nightly soak
    python -m repro bench compare --base A --head B --workload serve-mixed  # paired A/B, CI's timing gate
    python -m repro serve --port 8752              # HTTP server
    python -m repro bench --list                   # every registered bench
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

#: Registry of bench subcommands → lazily imported module ``main`` functions.
#: Names mirror the module names (underscores become dashes).
_BENCH_MODULES: Dict[str, str] = {
    "churn": "repro.bench.churn",
    "soak": "repro.bench.soak",
    "batch": "repro.bench.batch",
    "churn-maintenance": "repro.bench.churn_maintenance",
    "compare": "repro.bench.compare",
    "serve-latency": "repro.bench.serve_latency",
    "table1": "repro.bench.table1",
    "table2": "repro.bench.table2",
    "table3": "repro.bench.table3",
    "figure4": "repro.bench.figure4",
}


def _bench_main(name: str) -> Callable[[Optional[List[str]]], int]:
    """Resolve (lazily import) the ``main`` of one registered bench module."""
    import importlib

    return importlib.import_module(_BENCH_MODULES[name]).main


def _run_bench(argv: List[str]) -> int:
    if argv and argv[0] in ("--list", "list"):
        width = max(len(name) for name in _BENCH_MODULES)
        for name in sorted(_BENCH_MODULES):
            print(f"{name.ljust(width)}  -> {_BENCH_MODULES[name]}")
        return 0
    if not argv or argv[0].startswith("-"):
        print("usage: repro bench <name> [args...]   (repro bench --list shows names)",
              file=sys.stderr)
        return 2
    name, rest = argv[0], argv[1:]
    if name not in _BENCH_MODULES:
        known = ", ".join(sorted(_BENCH_MODULES))
        print(f"unknown bench {name!r}; known: {known}", file=sys.stderr)
        return 2
    return int(_bench_main(name)(rest) or 0)


# --------------------------------------------------------------------------- #
# serve: the network front end (see repro.server)
# --------------------------------------------------------------------------- #
def _run_serve(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve a SparsifierService over HTTP (stdlib asyncio; "
                    "graceful SIGINT/SIGTERM shutdown drains writes and saves "
                    "a checkpoint when --checkpoint-dir is set).")
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8752,
                        help="bind port (default 8752; 0 picks an ephemeral port)")
    parser.add_argument("--queue-bound", type=int, default=64,
                        help="ingest-queue bound; writes beyond it get 429 (default 64)")
    parser.add_argument("--request-timeout", type=float, default=30.0,
                        help="per-request budget in seconds (default 30)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="resume from a checkpoint in this directory if one exists, "
                             "and save one there on graceful shutdown")
    parser.add_argument("--no-checkpoint-on-shutdown", action="store_true",
                        help="do not save a checkpoint when shutting down")
    parser.add_argument("--side", type=int, default=20,
                        help="bootstrap demo grid side when no checkpoint is resumed "
                             "(default 20 -> 400 nodes)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.api import (
        InGrassConfig,
        ServerConfig,
        SparsifierService,
        grid_circuit_2d,
        is_checkpoint,
        serve,
    )
    from repro.utils.logging import configure_logging

    configure_logging()
    # Validate the config before doing any setup work, so a bad value fails
    # in milliseconds.
    try:
        config = ServerConfig(host=args.host, port=args.port,
                              queue_bound=args.queue_bound,
                              request_timeout=args.request_timeout,
                              checkpoint_dir=args.checkpoint_dir,
                              checkpoint_on_shutdown=not args.no_checkpoint_on_shutdown)
    except ValueError as exc:
        parser.error(str(exc))
    if args.checkpoint_dir and is_checkpoint(args.checkpoint_dir):
        service = SparsifierService.restore(args.checkpoint_dir)
        print(f"resumed from checkpoint {args.checkpoint_dir} "
              f"(version epoch {service.latest_version})")
    else:
        graph = grid_circuit_2d(args.side, seed=args.seed)
        service = SparsifierService(InGrassConfig(seed=args.seed))
        service.setup(graph)
        print(f"bootstrapped demo grid: {graph.num_nodes} nodes, "
              f"{graph.num_edges} edges (version epoch {service.latest_version})")
    print(f"serving on http://{args.host}:{args.port} — endpoints: /health /epoch "
          "/report /edges /metrics /resistance /solve /update /checkpoint /shutdown",
          flush=True)
    server = serve(service, config)
    print(f"stopped at version epoch {server.service.latest_version} "
          f"after {server.service.applied_batches} applied batches")
    return 0


# --------------------------------------------------------------------------- #
# checkpoint: save / restore / inspect driver state
# --------------------------------------------------------------------------- #
#: Length, in batches, of the demo churn stream behind ``checkpoint save`` and
#: ``checkpoint restore --replay``.  The stream is always built at this length
#: and sliced by batch index: ``build_churn_scenario`` spreads one event budget
#: over its iteration count, so streams of different lengths share no prefix.
DEMO_STREAM_BATCHES = 10


def _run_checkpoint(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro checkpoint",
        description="Save, restore, or inspect sparsifier checkpoints "
                    "(versioned manifest.json + arrays-<digest>.npz directories).")
    sub = parser.add_subparsers(dest="action", required=True)

    info = sub.add_parser("info", help="summarise a checkpoint without loading it")
    info.add_argument("path", help="checkpoint directory")

    save = sub.add_parser(
        "save", help="run a demo churn stream and checkpoint the final state")
    save.add_argument("path", help="checkpoint directory to write")
    save.add_argument("--side", type=int, default=13,
                      help="grid side length of the demo graph (default 13)")
    save.add_argument("--batches", type=int, default=5,
                      help="churn batches to stream before saving (default 5, "
                           f"at most {DEMO_STREAM_BATCHES})")
    save.add_argument("--seed", type=int, default=0)

    restore = sub.add_parser(
        "restore", help="rebuild a driver from a checkpoint and report its state")
    restore.add_argument("path", help="checkpoint directory to read")
    restore.add_argument("--replay", type=int, default=0, metavar="M",
                         help="stream M more demo churn batches after restoring "
                              "(continues the save command's stream; saved plus "
                              f"replayed batches at most {DEMO_STREAM_BATCHES})")
    args = parser.parse_args(argv)

    import json

    from repro.checkpoint import describe_checkpoint

    if args.action == "info":
        print(json.dumps(describe_checkpoint(args.path), indent=2, sort_keys=True))
        return 0

    from repro.api import (
        DynamicScenarioConfig,
        InGrassConfig,
        Sparsifier,
        build_churn_scenario,
        grid_circuit_2d,
        load_checkpoint,
    )

    def demo_scenario(seed: int, side: int):
        graph = grid_circuit_2d(side, seed=seed)
        return build_churn_scenario(
            graph, DynamicScenarioConfig(num_iterations=DEMO_STREAM_BATCHES, seed=seed))

    def within_stream(first: int, count: int) -> bool:
        if count >= 0 and first + count <= DEMO_STREAM_BATCHES:
            return True
        print(f"the demo stream holds {DEMO_STREAM_BATCHES} batches; cannot stream "
              f"{count} starting at batch {first}", file=sys.stderr)
        return False

    if args.action == "save":
        if not within_stream(0, args.batches):
            return 2
        scenario = demo_scenario(args.seed, args.side)
        driver = Sparsifier(InGrassConfig(seed=args.seed))
        driver.setup(scenario.graph, scenario.initial_sparsifier,
                     target_condition_number=scenario.initial_condition_number)
        for batch in scenario.batches[:args.batches]:
            driver.apply_batch(batch)
        driver.save_checkpoint(args.path)
        print(f"streamed {args.batches} batches, checkpoint saved to "
              f"{args.path} (version epoch {driver.latest_version}, "
              f"|E_H| = {driver.sparsifier.num_edges})")
        return 0

    driver = load_checkpoint(args.path)
    print(f"restored {type(driver).__name__} from {args.path} "
          f"(version epoch {driver.latest_version}, "
          f"|E_H| = {driver.sparsifier.num_edges})")
    if args.replay:
        import math

        done = len(driver.history)
        if not within_stream(done, args.replay):
            return 2
        # The demo graph is a grid, so the side length round-trips through
        # the checkpoint's node count; seed comes from the saved config.
        side = math.isqrt(driver.graph.num_nodes)
        scenario = demo_scenario(driver.config.seed, side)
        for batch in scenario.batches[done:done + args.replay]:
            driver.apply_batch(batch)
        print(f"replayed {args.replay} more batches "
              f"(version epoch {driver.latest_version}, "
              f"|E_H| = {driver.sparsifier.num_edges})")
    return 0


# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    """The ``repro`` console entry point."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="inGRASS incremental spectral sparsification toolkit",
        epilog="run `repro bench --list` for the registered benchmarks")
    parser.add_argument("--version", action="store_true", help="print the package version")
    sub = parser.add_subparsers(dest="command")
    bench = sub.add_parser("bench", help="benchmarks and CI gates",
                           add_help=False)
    bench.add_argument("rest", nargs=argparse.REMAINDER)
    srv = sub.add_parser("serve", help="HTTP server over a SparsifierService",
                         add_help=False)
    srv.add_argument("rest", nargs=argparse.REMAINDER)
    ckpt = sub.add_parser("checkpoint", help="save/restore/inspect driver state",
                          add_help=False)
    ckpt.add_argument("rest", nargs=argparse.REMAINDER)

    # `repro bench compare --base A --head B` must forward its options
    # untouched, so anything after the subcommand name bypasses the
    # top-level parser.
    if argv and argv[0] == "bench":
        return _run_bench(argv[1:])
    if argv and argv[0] == "serve":
        return _run_serve(argv[1:])
    if argv and argv[0] == "checkpoint":
        return _run_checkpoint(argv[1:])
    args = parser.parse_args(argv)
    if args.version:
        from repro import __version__

        print(__version__)
        return 0
    parser.print_help()
    return 0 if not argv else 2


if __name__ == "__main__":  # pragma: no cover - module execution
    raise SystemExit(main())
