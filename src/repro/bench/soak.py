"""Nightly soak: a long churn stream, uninterrupted and across a restore.

The per-commit CI benchmarks keep latency honest but only stream a handful
of batches; the failure modes that matter for a long-lived deployment —
hierarchy maintenance drifting structurally, full re-setups sneaking back
in, a checkpoint that does not resume exactly — only show up over hundreds
of batches.  This soak streams one long mixed insert/delete sequence (500
batches by default) through the default driver twice:

* the ``uninterrupted`` leg applies the whole stream;
* the ``restored`` leg saves a checkpoint at the halfway batch, restores it
  with :func:`repro.checkpoint.load_checkpoint` and finishes the stream on
  the restored driver.

With ``--kappa-guard-factor F`` both legs run the κ guard (bound ``F``
times κ(G(0), H(0)), the measured initial quality, on the Lanczos path), so
the soak also covers ``L_G``'s and ``L_H``'s factorisations kept and
corrected across hundreds of guard passes, and a restored driver whose guard
starts cold.

It asserts the long-run contract:

* the driver pays **zero** full re-setups in both legs;
* the restored leg ends with the uninterrupted leg's sparsifier — same
  edges, weights and insertion order — and the same κ;
* the sparsifier never disconnects.

Run with::

    python -m repro bench soak [--batches 500] [--events 25000]
                               [--kappa-guard-factor F] [--output BENCH_soak.json]

Exit status 0 iff every acceptance criterion holds; the JSON artifact
records the full outcome for the workflow run page.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
from typing import Dict, List, Optional

import numpy as np

from repro.bench.datasets import get_dataset
from repro.checkpoint import load_checkpoint
from repro.core.config import InGrassConfig, LRDConfig
from repro.core.incremental import InGrassSparsifier
from repro.graphs.components import is_connected
from repro.sparsify.grass import GrassConfig, GrassSparsifier
from repro.spectral.condition import DENSE_LIMIT_DEFAULT, relative_condition_number
from repro.streams.scenarios import simulate_event_stream

#: Target condition number handed to filtering-level selection.
TARGET_CONDITION = 128.0

#: Locality blend of the soak stream.
LONG_RANGE_FRACTION = 0.10

#: Guarded soak: node count up to which the guard's κ is dense.  Below
#: g2_circuit small's 1,296 nodes, so every guard estimate takes the Lanczos
#: path and its kept factorisations.
GUARD_DENSE_LIMIT = 200


def _soak_config(seed: int, kappa_guard_factor: Optional[float]) -> InGrassConfig:
    """The production-shaped soak configuration."""
    return InGrassConfig(
        lrd=LRDConfig(seed=seed),
        distortion_threshold=1.0,
        kappa_guard_factor=kappa_guard_factor,
        kappa_guard_dense_limit=GUARD_DENSE_LIMIT,
        seed=seed,
    )


def run_soak(*, batches: int = 500, events: int = 25_000,
             deletion_fraction: float = 0.35, case: str = "g2_circuit",
             scale: str = "small", seed: int = 0, dense_limit: int = DENSE_LIMIT_DEFAULT,
             kappa_guard_factor: Optional[float] = None) -> Dict:
    """Run the soak protocol; return the JSON-ready payload.

    ``kappa_guard_factor`` turns the κ guard on, with κ(G(0), H(0)) as the
    target instead of :data:`TARGET_CONDITION`.
    """
    spec = get_dataset(case)
    graph = spec.build(scale=scale, seed=seed)
    grass = GrassSparsifier(GrassConfig(target_offtree_density=0.10,
                                        tree_method="shortest_path", seed=seed))
    sparsifier = grass.sparsify(graph, evaluate_condition=False).sparsifier
    stream = simulate_event_stream(
        graph, int(events), int(batches), deletion_fraction=deletion_fraction,
        long_range_fraction=LONG_RANGE_FRACTION, locality_hops=3,
        protect_spanning_tree=True, seed=seed + events,
    )
    half = len(stream) // 2
    target = (TARGET_CONDITION if kappa_guard_factor is None
              else relative_condition_number(graph, sparsifier, dense_limit=dense_limit))

    runs: Dict[str, Dict] = {}
    drivers: Dict[str, InGrassSparsifier] = {}
    for name in ("uninterrupted", "restored"):
        driver = InGrassSparsifier(_soak_config(seed, kappa_guard_factor))
        driver.setup(graph, sparsifier, target_condition_number=target)
        start = time.perf_counter()
        if name == "restored":
            # Mid-soak restore drill: checkpoint at the halfway batch, drop
            # the driver, restore into a fresh one and let it finish the
            # stream.  The parity checks below then hold it to the
            # uninterrupted leg, so a restore that is anything less than
            # byte-identical fails the soak.
            for batch in stream[:half]:
                driver.apply_batch(batch)
            with tempfile.TemporaryDirectory() as tmp:
                checkpoint_dir = os.path.join(tmp, "soak-restore")
                driver.save_checkpoint(checkpoint_dir)
                driver = load_checkpoint(checkpoint_dir)
            for batch in stream[half:]:
                driver.apply_batch(batch)
        else:
            for batch in stream:
                driver.apply_batch(batch)
        elapsed = time.perf_counter() - start
        maintenance = driver.maintenance_stats
        runs[name] = {
            "seconds": elapsed,
            "per_event_us": elapsed / max(1, events) * 1e6,
            "full_resetups": driver.full_resetups,
            "sparsifier_edges": driver.sparsifier.num_edges,
            "hierarchy_splices": maintenance.splices,
            "hierarchy_merges": maintenance.merges,
            "connected": is_connected(driver.sparsifier),
            "kappa_final": driver.condition_number(dense_limit=dense_limit),
        }
        drivers[name] = driver

    uninterrupted, restored = runs["uninterrupted"], runs["restored"]
    kappa_delta = abs(restored["kappa_final"] - uninterrupted["kappa_final"])
    acceptance = {
        "zero_full_resetups": uninterrupted["full_resetups"] == 0
                              and restored["full_resetups"] == 0,
        "restore_parity_edges_weights":
            drivers["restored"].sparsifier.edge_list()
            == drivers["uninterrupted"].sparsifier.edge_list(),
        # Identical edge maps make the κ computations identical inputs; the
        # tiny slack only covers eigensolver non-determinism across calls.
        "kappa_parity": kappa_delta <= 1e-6 * max(1.0, uninterrupted["kappa_final"]),
        "stayed_connected": uninterrupted["connected"] and restored["connected"],
    }
    return {
        "meta": {
            "benchmark": "soak",
            "case": case,
            "paper_case": spec.paper_name,
            "scale": scale,
            "seed": seed,
            "batches": int(batches),
            "events": int(events),
            "deletion_fraction": deletion_fraction,
            "kappa_guard_factor": kappa_guard_factor,
            "target_condition_number": target,
            "restore_after_batch": half,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "results": runs,
        "kappa_delta": kappa_delta,
        "acceptance": acceptance,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Nightly soak: long churn stream, uninterrupted vs checkpoint-restored")
    parser.add_argument("--batches", type=int, default=500,
                        help="number of streamed mixed batches")
    parser.add_argument("--events", type=int, default=25_000,
                        help="total stream size (insertions + deletions)")
    parser.add_argument("--deletion-fraction", type=float, default=0.35)
    parser.add_argument("--case", default="g2_circuit", help="dataset registry name")
    parser.add_argument("--scale", default="small", choices=["small", "medium", "large"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kappa-guard-factor", type=float, default=None,
                        help="run the κ guard with bound F · κ(G(0), H(0)) (default: no guard)")
    parser.add_argument("--output", default="BENCH_soak.json",
                        help="path of the JSON artifact (empty string disables writing)")
    args = parser.parse_args(argv)

    payload = run_soak(batches=args.batches, events=args.events,
                       deletion_fraction=args.deletion_fraction, case=args.case,
                       scale=args.scale, seed=args.seed,
                       kappa_guard_factor=args.kappa_guard_factor)
    guard = ("" if args.kappa_guard_factor is None else
             f", κ guard {args.kappa_guard_factor:g} x {payload['meta']['target_condition_number']:.2f}")
    print(f"Soak — {args.batches}-batch mixed churn stream "
          f"({args.deletion_fraction:.0%} deletions{guard}, "
          f"checkpoint/restore at batch {payload['meta']['restore_after_batch']})")
    for name, run in payload["results"].items():
        print(f"  {name:<13} {run['seconds']:.2f}s  {run['per_event_us']:.1f} us/event  "
              f"resetups={run['full_resetups']}  splices={run['hierarchy_splices']}  "
              f"merges={run['hierarchy_merges']}  kappa={run['kappa_final']:.3f}")
    for key, value in payload["acceptance"].items():
        print(f"  {key}: {'ok' if value else 'FAILED'}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.output}")
    return 0 if all(payload["acceptance"].values()) else 1
