"""CLI for the batch-scaling benchmark: per-edge update cost vs batch size.

Measures the wall-clock cost per streamed edge of :func:`repro.core.run_update`
for both engines — the per-edge scalar reference path and the vectorised batch
engine (``InGrassConfig.batch_mode``) — across batch sizes spanning 10² to
10⁵, and writes the trajectory to ``BENCH_batch.json``.  The CI perf gate
(``python -m repro bench baseline --check``) compares that file against the
committed baseline under ``benchmarks/baselines/``.  Run with::

    python -m repro bench batch [--sizes 100,1000,10000,100000]
                                [--case g2_circuit] [--scale small]
                                [--output BENCH_batch.json]

Timing suspends the cyclic garbage collector (as :mod:`timeit` does): the
update path allocates one decision record per edge, and GC pauses at 10⁵
objects would otherwise dominate the signal being measured.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import platform
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.datasets import get_dataset
from repro.bench.tables import format_table
from repro.core.config import InGrassConfig, LRDConfig
from repro.core.filtering import SimilarityFilter
from repro.core.setup import run_setup
from repro.core.update import run_update
from repro.graphs.graph import Graph
from repro.sparsify.grass import GrassConfig, GrassSparsifier
from repro.streams.edge_stream import mixed_edges

#: Default batch-size sweep (the paper-scale end is 10⁵).
DEFAULT_SIZES = (100, 1000, 10000, 100000)

#: Target condition number handed to filtering-level selection; the cost per
#: edge is insensitive to the exact value, it only has to be fixed.
TARGET_CONDITION = 64.0


def _timed_update(sparsifier: Graph, setup, stream: Sequence, config: InGrassConfig,
                  filtering_level: int) -> tuple[float, Graph, object]:
    """One run_update call on a fresh sparsifier copy; returns (seconds, H, result).

    The setup is deep-copied so repeated timings start from identical state:
    in ``hierarchy_mode="maintain"`` the update mutates the hierarchy in
    place (cluster merges), which would otherwise leak between repetitions
    and between the engines being compared.
    """
    setup = copy.deepcopy(setup)
    working = sparsifier.copy()
    similarity_filter = SimilarityFilter(
        working, setup.hierarchy, filtering_level,
        redistribute_intra_cluster_weight=config.redistribute_intra_cluster_weight,
    )
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run_update(working, setup, stream, config,
                            target_condition_number=TARGET_CONDITION,
                            similarity_filter=similarity_filter)
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return elapsed, working, result


def run_batch_bench(sizes: Sequence[int] = DEFAULT_SIZES, *, case: str = "g2_circuit",
                    scale: str = "small", seed: int = 0, repeats: int = 3,
                    long_range_fraction: float = 0.5) -> Dict:
    """Run the batch-scaling protocol; return the JSON-ready payload.

    One fixed setup phase; for every batch size a fresh stream of half
    long-range / half locality-biased edges (the generators' realistic blend)
    is applied to a fresh copy of the initial sparsifier under each engine.
    ``repeats`` takes the best-of-N wall time (large batches use fewer
    repeats automatically).
    """
    spec = get_dataset(case)
    graph = spec.build(scale=scale, seed=seed)
    grass = GrassSparsifier(GrassConfig(target_offtree_density=0.10,
                                        tree_method="shortest_path", seed=seed))
    sparsifier = grass.sparsify(graph, evaluate_condition=False).sparsifier
    setup_config = InGrassConfig(lrd=LRDConfig(seed=seed), seed=seed)
    setup_host = sparsifier.copy()
    setup = run_setup(setup_host, setup_config)
    filtering_level = setup.filtering_level_for(TARGET_CONDITION,
                                                setup_config.filtering_size_divisor)

    results: List[Dict] = []
    for size in sizes:
        stream = mixed_edges(graph, int(size), long_range_fraction=long_range_fraction,
                             seed=seed + size)
        row: Dict = {"batch_size": int(size)}
        edge_sets: Dict[str, set] = {}
        for mode in ("scalar", "vectorized"):
            # Pinned to rebuild: this bench isolates the batch insertion
            # engine, and its committed baseline lineage was measured in
            # rebuild mode (maintain-mode splice costs are the churn
            # benchmark's subject, not this one's).
            config = InGrassConfig(lrd=LRDConfig(seed=seed), batch_mode=mode,
                                   hierarchy_mode="rebuild", seed=seed)
            mode_repeats = max(1, repeats if size <= 10_000 else 1)
            best = float("inf")
            summary = None
            for _ in range(mode_repeats):
                elapsed, working, result = _timed_update(sparsifier, setup, stream,
                                                         config, filtering_level)
                best = min(best, elapsed)
                summary = result.summary
                edge_sets[mode] = set(working.edges())
            row[f"{mode}_seconds"] = best
            row[f"{mode}_per_edge_us"] = best / size * 1e6
            assert summary is not None
            row[f"{mode}_added"] = summary.added
        row["speedup"] = row["scalar_per_edge_us"] / row["vectorized_per_edge_us"]
        row["edge_sets_match"] = edge_sets["scalar"] == edge_sets["vectorized"]
        results.append(row)

    payload = {
        "meta": {
            "benchmark": "batch_scaling",
            "case": case,
            "paper_case": spec.paper_name,
            "scale": scale,
            "seed": seed,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "long_range_fraction": long_range_fraction,
            "repeats": repeats,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "results": results,
    }
    at_10k = [row for row in results if row["batch_size"] == 10_000]
    if at_10k:
        payload["speedup_at_10000"] = at_10k[0]["speedup"]
    return payload


def print_results(payload: Dict) -> str:
    """Format the benchmark payload as a table."""
    rows = []
    for row in payload["results"]:
        rows.append(
            {
                "Batch": row["batch_size"],
                "Scalar us/edge": row["scalar_per_edge_us"],
                "Vectorized us/edge": row["vectorized_per_edge_us"],
                "Speedup": row["speedup"],
                "Added": row["vectorized_added"],
                "H identical": "yes" if row["edge_sets_match"] else "NO",
            }
        )
    return format_table(rows, list(rows[0].keys()) if rows else [], precision=2)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Batch-scaling benchmark (vectorised update engine)")
    parser.add_argument("--sizes", default=",".join(str(s) for s in DEFAULT_SIZES),
                        help="comma-separated batch sizes")
    parser.add_argument("--case", default="g2_circuit", help="dataset registry name")
    parser.add_argument("--scale", default="small", choices=["small", "medium", "large"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing repeats")
    parser.add_argument("--long-range-fraction", type=float, default=0.5,
                        help="fraction of spectrally disruptive long-range edges in the stream")
    parser.add_argument("--output", default="BENCH_batch.json",
                        help="path of the JSON artifact (empty string disables writing)")
    args = parser.parse_args(argv)

    sizes = [int(part) for part in args.sizes.split(",") if part]
    payload = run_batch_bench(sizes, case=args.case, scale=args.scale, seed=args.seed,
                              repeats=args.repeats,
                              long_range_fraction=args.long_range_fraction)
    print("Batch scaling — per-edge update cost, scalar reference vs vectorised engine")
    print(print_results(payload))
    if "speedup_at_10000" in payload:
        print(f"speedup at 10^4-edge batch: {payload['speedup_at_10000']:.2f}x")
    if not all(row["edge_sets_match"] for row in payload["results"]):
        print("ACCEPTANCE FAILED: engines produced different sparsifier edge sets")
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.output}")
    return 0

