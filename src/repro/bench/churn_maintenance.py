"""CLI for the hierarchy-maintenance churn benchmark: maintain vs rebuild.

Runs one long mixed insert/delete stream (50 batches by default) in both
hierarchy modes — ``hierarchy_mode="rebuild"`` (diameter inflation + periodic
full re-setups) and ``hierarchy_mode="maintain"`` (in-place cluster
splices/merges) — and
records what the maintenance layer buys: zero full re-setups, comparable or
better end-state condition number, and its per-event cost.  Run with::

    python -m repro bench churn-maintenance [--case g2_circuit] [--batches 50]
                                            [--output BENCH_churn.json]

The two modes run in :data:`PARITY_PAIRS` interleaved pairs in one process,
the first mode alternating from pair to pair, so a slow stretch of the host
lands on both sides of a pair instead of on one mode's only run.  The JSON
artifact carries every pair; the exit status is 1 when :func:`gate_failures`
finds a violated check (CI's ``bench-perf`` job runs it as one step):
maintain mode pays zero full re-setups where rebuild mode pays at least two,
maintain's end-state κ is at most 1.10× rebuild's, both sparsifiers stay
connected, every pair repeats those deterministic readings, and the median
per-pair maintain/rebuild per-event ratio is at most
:data:`PER_EVENT_PARITY_LIMIT`.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from typing import Dict, List, Optional

import numpy as np

from repro.bench.harness import HarnessConfig, run_churn_case
from repro.bench.records import ChurnRecord
from repro.bench.tables import format_table

#: Rebuild-mode refresh threshold: low enough that the default 50-batch
#: stream pays several full re-setups (the cost the maintenance mode avoids).
DEFAULT_RESETUP_AFTER = 12

#: Maintain mode must stay within this factor of rebuild mode per event —
#: the parity bound backing the maintain-by-default configuration
#: (``InGrassConfig.hierarchy_mode="maintain"``).
PER_EVENT_PARITY_LIMIT = 1.10

#: Maintain's end-state κ may exceed rebuild's by this fraction: both
#: trajectories are guard-bounded, the check catches a structurally degraded
#: hierarchy, not numerical drift.
KAPPA_SLACK = 0.10

#: Interleaved maintain/rebuild pairs the parity check reads.
PARITY_PAIRS = 10

MODES = ("rebuild", "maintain")
#: Readings that do not depend on timing: every pair must repeat them.
DETERMINISTIC_KEYS = ("full_resetups", "kappa_final", "stayed_connected")
#: Timings; a mode's summary row reports their medians over the pairs.
TIMING_KEYS = ("update_seconds", "resetup_seconds", "maintenance_seconds", "splice_seconds",
               "diameter_seconds", "rekey_seconds", "guard_seconds", "per_event_us")


def _mode_payload(record: ChurnRecord) -> Dict:
    events = record.insertions + record.deletions
    seconds = record.ingrass_seconds + record.resetup_seconds
    return {
        "full_resetups": record.full_resetups,
        "update_seconds": record.ingrass_seconds,
        "resetup_seconds": record.resetup_seconds,
        "maintenance_seconds": record.maintenance_seconds,
        "splice_seconds": record.splice_seconds,
        "diameter_seconds": record.diameter_seconds,
        "rekey_seconds": record.rekey_seconds,
        "guard_seconds": record.guard_seconds,
        "per_event_us": (seconds / events * 1e6) if events else 0.0,
        "kappa_target": record.target_condition_number,
        "kappa_max": record.max_condition_number,
        "kappa_final": record.final_condition_number,
        "sparsifier_removals": record.sparsifier_removals,
        "hierarchy_splices": record.hierarchy_splices,
        "hierarchy_merges": record.hierarchy_merges,
        "stayed_connected": record.stayed_connected,
    }


def run_churn_maintenance_bench(*, case: str = "g2_circuit", scale: str = "small",
                                seed: int = 0, batches: int = 50,
                                deletion_fraction: float = 0.4,
                                resetup_after: int = DEFAULT_RESETUP_AFTER,
                                kappa_guard_factor: Optional[float] = 1.8) -> Dict:
    """Run the maintain-vs-rebuild churn comparison in interleaved pairs.

    Returns the JSON payload: ``pairs`` holds both modes' readings and the
    maintain/rebuild per-event ratio of every pair; ``results`` holds one
    summary row per mode (deterministic readings of the first pair, timings
    as medians over the pairs), and maintain's row the median per-pair ratio
    (``per_event_ratio``) and its interquartile range.
    """
    config = HarnessConfig(scale=scale, seed=seed, num_iterations=batches)
    pairs: List[Dict] = []
    for pair in range(PARITY_PAIRS):
        order = MODES if pair % 2 == 0 else MODES[::-1]
        row: Dict = {"first": order[0]}
        for mode in order:
            record = run_churn_case(case, config, deletion_fraction=deletion_fraction,
                                    kappa_guard_factor=kappa_guard_factor,
                                    hierarchy_mode=mode,
                                    resetup_after_removals=resetup_after)
            row[mode] = _mode_payload(record)
        rebuild_us = row["rebuild"]["per_event_us"]
        row["ratio"] = row["maintain"]["per_event_us"] / rebuild_us if rebuild_us else float("inf")
        pairs.append(row)

    results: Dict[str, Dict] = {}
    for mode in MODES:
        results[mode] = dict(pairs[0][mode])
        for key in TIMING_KEYS:
            results[mode][key] = float(np.median([row[mode][key] for row in pairs]))
    q1, median, q3 = np.percentile([row["ratio"] for row in pairs], [25, 50, 75])
    results["maintain"]["per_event_ratio"] = float(median)
    results["maintain"]["per_event_ratio_iqr"] = float(q3 - q1)
    return {
        "meta": {
            "benchmark": "churn_maintenance",
            "case": case,
            "scale": scale,
            "seed": seed,
            "batches": batches,
            "deletion_fraction": deletion_fraction,
            "resetup_after": resetup_after,
            "kappa_guard_factor": kappa_guard_factor,
            "pairs": PARITY_PAIRS,
            "num_nodes": record.num_nodes,
            "num_edges": record.num_edges,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "results": results,
        "pairs": pairs,
    }


def print_results(payload: Dict) -> str:
    """Format the comparison as a two-row table (timings are medians over the pairs)."""
    rows = []
    for mode in MODES:
        row = payload["results"][mode]
        rows.append(
            {
                "Mode": mode,
                "Resetups": row["full_resetups"],
                "us/event": row["per_event_us"],
                "Update (s)": row["update_seconds"],
                "Resetup (s)": row["resetup_seconds"],
                "Maint (s)": row["maintenance_seconds"],
                "Splice (s)": row["splice_seconds"],
                "Rekey (s)": row["rekey_seconds"],
                "Guard (s)": row["guard_seconds"],
                "kappa final": row["kappa_final"],
                "kappa max": row["kappa_max"],
                "Splices": row["hierarchy_splices"],
                "Merges": row["hierarchy_merges"],
            }
        )
    return format_table(rows, list(rows[0].keys()) if rows else [], precision=2)


def gate_failures(payload: Dict) -> List[str]:
    """Why a payload fails the benchmark's checks; empty when it passes."""
    maintain, rebuild = payload["results"]["maintain"], payload["results"]["rebuild"]
    failures: List[str] = []
    if maintain["full_resetups"] != 0:
        failures.append(
            f"maintain mode paid {maintain['full_resetups']} full re-setups; "
            "the maintenance layer must keep the hierarchy valid without any"
        )
    if rebuild["full_resetups"] < 2:
        failures.append(
            f"rebuild mode paid only {rebuild['full_resetups']} full re-setups — "
            "the stream no longer exercises the cost being compared; lengthen it "
            "or lower --resetup-after"
        )
    if not (maintain["stayed_connected"] and rebuild["stayed_connected"]):
        failures.append("a sparsifier disconnected during the stream")
    kappa_limit = rebuild["kappa_final"] * (1.0 + KAPPA_SLACK) + 1e-9
    if maintain["kappa_final"] > kappa_limit:
        failures.append(
            f"maintain-mode end-state kappa {maintain['kappa_final']:.3f} exceeds "
            f"rebuild's {rebuild['kappa_final']:.3f} by more than {KAPPA_SLACK:.0%}"
        )
    first = payload["pairs"][0]
    for index, row in enumerate(payload["pairs"][1:], start=1):
        for mode in MODES:
            for key in DETERMINISTIC_KEYS:
                if row[mode][key] != first[mode][key]:
                    failures.append(
                        f"pair {index}: {mode} {key} {row[mode][key]} differs from pair 0's "
                        f"{first[mode][key]}; every pair replays the same stream"
                    )
    if maintain["per_event_ratio"] > PER_EVENT_PARITY_LIMIT + 1e-9:
        failures.append(
            f"maintain/rebuild median per-pair per-event ratio {maintain['per_event_ratio']:.3f} "
            f"exceeds the parity limit {PER_EVENT_PARITY_LIMIT:.2f} backing the "
            "maintain-by-default configuration"
        )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Churn-maintenance benchmark (hierarchy maintain vs rebuild)")
    parser.add_argument("--case", default="g2_circuit", help="dataset registry name")
    parser.add_argument("--scale", default="small", choices=["small", "medium", "large"])
    parser.add_argument("--batches", type=int, default=50,
                        help="number of streamed mixed batches")
    parser.add_argument("--deletion-fraction", type=float, default=0.4)
    parser.add_argument("--resetup-after", type=int, default=DEFAULT_RESETUP_AFTER,
                        help="rebuild mode: full re-setup after this many sparsifier removals")
    parser.add_argument("--no-guard", action="store_true",
                        help="disable the kappa guard (pure O(log N) updates)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="BENCH_churn.json",
                        help="path of the JSON artifact (empty string disables writing)")
    args = parser.parse_args(argv)

    payload = run_churn_maintenance_bench(
        case=args.case, scale=args.scale, seed=args.seed, batches=args.batches,
        deletion_fraction=args.deletion_fraction, resetup_after=args.resetup_after,
        kappa_guard_factor=None if args.no_guard else 1.8,
    )
    print("Churn maintenance — in-place hierarchy splices vs inflate-and-rebuild "
          f"({args.batches} mixed batches, {args.deletion_fraction:.0%} deletions)")
    print(print_results(payload))
    maintain = payload["results"]["maintain"]
    print("maintain/rebuild per-event ratio per pair: "
          + " ".join(f"{row['ratio']:.3f}" for row in payload["pairs"]))
    print(f"median {maintain['per_event_ratio']:.3f}, IQR {maintain['per_event_ratio_iqr']:.3f} "
          f"over {PARITY_PAIRS} interleaved pairs (limit {PER_EVENT_PARITY_LIMIT:.2f})")
    payload["failures"] = gate_failures(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.output}")
    for failure in payload["failures"]:
        print(f"FAILED: {failure}")
    return 1 if payload["failures"] else 0
