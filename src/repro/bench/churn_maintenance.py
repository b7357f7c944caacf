"""CLI + CI gate for the hierarchy-maintenance churn benchmark.

Runs one long mixed insert/delete stream (50 batches by default) twice —
``hierarchy_mode="rebuild"`` (diameter inflation + periodic full re-setups)
and ``hierarchy_mode="maintain"`` (in-place cluster splices/merges) — and
records what the maintenance layer buys: zero full re-setups, comparable or
better end-state condition number, and bounded per-event cost.  Run with::

    python -m repro bench churn-maintenance [--case g2_circuit] [--batches 50]
                                            [--output BENCH_churn.json]

Gate mode (the CI ``bench-perf`` job)::

    python -m repro bench churn-maintenance --check BENCH_churn.json \
        --baseline benchmarks/baselines/churn_baseline.json

The gate enforces the structural acceptance criteria (maintain performs zero
full re-setups where rebuild performs at least two; maintain's end-state κ is
no worse than rebuild's within ``--kappa-slack``) and a perf criterion
(maintain's per-event time within ``--tolerance`` of the committed baseline).
Like the batch gate, the perf check uses the in-run rebuild time as a
hardware fingerprint: a wholesale slowdown moves both modes together and
passes, a regression in the maintenance layer moves only the maintain time
and fails.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.bench.harness import HarnessConfig, run_churn_case
from repro.bench.records import ChurnRecord
from repro.bench.tables import format_table

#: Committed baseline consumed by the CI ``bench-perf`` job.
DEFAULT_BASELINE_PATH = Path("benchmarks") / "baselines" / "churn_baseline.json"

#: Rebuild-mode refresh threshold: low enough that the default 50-batch
#: stream pays several full re-setups (the cost the maintenance mode avoids).
DEFAULT_RESETUP_AFTER = 12

#: Maintain mode must stay within this factor of rebuild mode per event —
#: the machine-independent parity bound backing the maintain-by-default
#: configuration (``InGrassConfig.hierarchy_mode="maintain"``).
PER_EVENT_PARITY_LIMIT = 1.10


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
    """Run the maintain-vs-rebuild churn comparison; return the JSON payload."""
    config = HarnessConfig(scale=scale, seed=seed, num_iterations=batches)
    results: Dict[str, Dict] = {}
    records: Dict[str, ChurnRecord] = {}
    for mode in ("rebuild", "maintain"):
        record = run_churn_case(case, config, deletion_fraction=deletion_fraction,
                                kappa_guard_factor=kappa_guard_factor,
                                hierarchy_mode=mode,
                                resetup_after_removals=resetup_after)
        records[mode] = record
        results[mode] = _mode_payload(record)

    maintain, rebuild = results["maintain"], results["rebuild"]
    per_event_ratio = (maintain["per_event_us"] / rebuild["per_event_us"]
                       if rebuild["per_event_us"] else float("inf"))
    maintain["per_event_ratio"] = per_event_ratio
    acceptance = {
        "maintain_zero_resetups": maintain["full_resetups"] == 0,
        "rebuild_resetups_ge_2": rebuild["full_resetups"] >= 2,
        # "No worse" with a 10% numerical slack: both trajectories are
        # guard-bounded, the check catches a structurally degraded hierarchy.
        "kappa_no_worse": maintain["kappa_final"] <= rebuild["kappa_final"] * 1.10 + 1e-9,
        "stayed_connected": maintain["stayed_connected"] and rebuild["stayed_connected"],
        # Per-event parity backing the maintain-by-default flip: the two
        # modes run on the same machine in one process, so the ratio is
        # machine-independent.
        "maintain_per_event_ratio": per_event_ratio <= PER_EVENT_PARITY_LIMIT + 1e-9,
    }
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
            "num_nodes": records["maintain"].num_nodes,
            "num_edges": records["maintain"].num_edges,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "results": results,
        "acceptance": acceptance,
    }


def print_results(payload: Dict) -> str:
    """Format the comparison as a two-row table."""
    rows = []
    for mode in ("rebuild", "maintain"):
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


def distil_baseline(payload: Dict) -> Dict:
    """Reduce a benchmark payload to the committed baseline schema."""
    maintain = payload["results"]["maintain"]
    rebuild = payload["results"]["rebuild"]
    meta = payload.get("meta", {})
    return {
        "benchmark": "churn_maintenance",
        "case": meta.get("case"),
        "scale": meta.get("scale"),
        "seed": meta.get("seed"),
        "batches": meta.get("batches"),
        "generated": meta.get("timestamp"),
        "maintain_per_event_us": maintain["per_event_us"],
        "rebuild_per_event_us": rebuild["per_event_us"],
        "maintain_per_event_ratio": (maintain["per_event_us"] / rebuild["per_event_us"]
                                     if rebuild["per_event_us"] else float("inf")),
        "kappa_final_maintain": maintain["kappa_final"],
        "kappa_final_rebuild": rebuild["kappa_final"],
    }


def check_regression(payload: Dict, baseline: Optional[Dict], *,
                     tolerance: float = 0.35, kappa_slack: float = 0.10) -> List[str]:
    """Gate a benchmark payload; return failure messages (empty = pass)."""
    failures: List[str] = []
    results = payload.get("results", {})
    maintain = results.get("maintain")
    rebuild = results.get("rebuild")
    if not maintain or not rebuild:
        return ["payload is missing the maintain/rebuild result pair"]

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
    if rebuild["per_event_us"]:
        measured_parity = maintain["per_event_us"] / rebuild["per_event_us"]
        if measured_parity > PER_EVENT_PARITY_LIMIT + 1e-9:
            failures.append(
                f"maintain/rebuild per-event ratio {measured_parity:.3f} exceeds the "
                f"parity limit {PER_EVENT_PARITY_LIMIT:.2f} backing the "
                "maintain-by-default configuration"
            )
    kappa_limit = rebuild["kappa_final"] * (1.0 + kappa_slack) + 1e-9
    if maintain["kappa_final"] > kappa_limit:
        failures.append(
            f"maintain-mode end-state kappa {maintain['kappa_final']:.3f} exceeds "
            f"rebuild's {rebuild['kappa_final']:.3f} by more than {kappa_slack:.0%}"
        )

    if baseline is not None:
        reference = float(baseline["maintain_per_event_us"])
        measured = float(maintain["per_event_us"])
        limit = reference * (1.0 + tolerance)
        reference_ratio = reference / float(baseline["rebuild_per_event_us"])
        measured_ratio = measured / float(rebuild["per_event_us"])
        ratio_limit = reference_ratio * (1.0 + tolerance)
        if measured > limit and measured_ratio > ratio_limit:
            failures.append(
                f"maintain mode {measured:.1f} us/event exceeds baseline "
                f"{reference:.1f} us/event by more than {tolerance:.0%} (limit {limit:.1f}), "
                f"and the maintain/rebuild ratio ({measured_ratio:.3f} vs baseline "
                f"{reference_ratio:.3f}) confirms the maintenance layer, not the "
                "machine, slowed down"
            )
    return failures


def _load(path: str) -> Dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Churn-maintenance benchmark (hierarchy maintain vs rebuild) / CI gate")
    parser.add_argument("--check", metavar="BENCH_JSON", default=None,
                        help="gate mode: validate this benchmark result")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE_PATH),
                        help="baseline file to read (check) or write (--write-baseline)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="after running, distil the result into --baseline")
    parser.add_argument("--tolerance", type=float, default=0.35,
                        help="allowed relative per-event slowdown before the gate fails")
    parser.add_argument("--kappa-slack", type=float, default=0.10,
                        help="allowed relative end-state kappa excess over rebuild mode")
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

    if args.check is not None:
        payload = _load(args.check)
        baseline = _load(args.baseline) if Path(args.baseline).exists() else None
        failures = check_regression(payload, baseline, tolerance=args.tolerance,
                                    kappa_slack=args.kappa_slack)
        if failures:
            print("CHURN MAINTENANCE GATE FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            print(f"(baseline: {args.baseline}; refresh it with "
                  "`python -m repro bench churn-maintenance --write-baseline` "
                  "if the change is intentional)")
            return 1
        print("churn maintenance gate OK: zero maintain-mode resetups, "
              f"kappa within {args.kappa_slack:.0%} of rebuild, "
              f"per-event time within {args.tolerance:.0%} of baseline")
        return 0

    payload = run_churn_maintenance_bench(
        case=args.case, scale=args.scale, seed=args.seed, batches=args.batches,
        deletion_fraction=args.deletion_fraction, resetup_after=args.resetup_after,
        kappa_guard_factor=None if args.no_guard else 1.8,
    )
    print("Churn maintenance — in-place hierarchy splices vs inflate-and-rebuild "
          f"({args.batches} mixed batches, {args.deletion_fraction:.0%} deletions)")
    print(print_results(payload))
    acceptance = payload["acceptance"]
    for key, value in acceptance.items():
        print(f"  {key}: {'ok' if value else 'FAILED'}")
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
    return 0 if all(acceptance.values()) else 1

