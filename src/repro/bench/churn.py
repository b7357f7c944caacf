"""CLI for the churn benchmark: fully dynamic insert/delete streams.

This protocol goes beyond the paper's insertion-only Table II: a configurable
fraction of the streamed events *delete* edges (power-grid reconfiguration,
FEM remeshing), and the maintained sparsifier must stay connected and within
a κ bound at every iteration.  Run with::

    python -m repro bench churn [--scale small|medium|large] [--cases a,b,c]
                                [--deletion-fraction 0.35] [--no-guard]

The exit status is 1 when κ exceeds twice the target after any batch or the
sparsifier disconnects after any batch, and 2 on a bad option value.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.bench.datasets import DATASETS, QUICK_CASES, TABLE_CASES
from repro.bench.harness import HarnessConfig, run_churn
from repro.bench.records import ChurnRecord
from repro.bench.tables import format_table, percent


def print_churn(records: Sequence[ChurnRecord]) -> str:
    """Format churn records as a table (one row per test case)."""
    rows = []
    for record in records:
        rows.append(
            {
                "Test case": f"{record.case} ({record.paper_case})",
                "Events": f"{record.insertions}+/{record.deletions}-",
                "Del %": percent(record.deletion_fraction),
                "H-removals": record.sparsifier_removals,
                "Repairs": record.repair_edges,
                "kappa target": record.target_condition_number,
                "kappa max": record.max_condition_number,
                "kappa final": record.final_condition_number,
                "kappa ratio": record.kappa_ratio,
                "Density": percent(record.final_offtree_density),
                "Connected": "yes" if record.stayed_connected else "NO",
                "T (s)": record.ingrass_seconds,
                "Guard (s)": record.guard_seconds,
                "Maint (s)": record.maintenance_seconds,
            }
        )
    return format_table(rows, list(rows[0].keys()) if rows else [], precision=2)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Churn benchmark (mixed insert/delete streams)")
    parser.add_argument("--scale", default="small", choices=["small", "medium", "large"])
    parser.add_argument("--cases", default=None, help="comma-separated dataset names")
    parser.add_argument("--quick", action="store_true", help="run the small CI subset of cases")
    parser.add_argument("--deletion-fraction", type=float, default=0.35,
                        help="fraction of streamed events that delete edges")
    parser.add_argument("--no-guard", action="store_true",
                        help="disable the kappa guard (pure O(log N) updates)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="override the number of streamed batches")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.cases:
        cases = args.cases.split(",")
    elif args.quick:
        cases = QUICK_CASES
    else:
        cases = TABLE_CASES
    unknown = [name for name in cases if name not in DATASETS]
    if unknown:
        parser.error(f"--cases: unknown dataset {unknown[0]!r}; "
                     f"available: {', '.join(sorted(DATASETS))}")
    if not 0.0 <= args.deletion_fraction <= 1.0:
        parser.error(f"--deletion-fraction must lie in [0, 1], got {args.deletion_fraction}")
    if args.iterations is not None and args.iterations < 1:
        parser.error(f"--iterations must be at least 1, got {args.iterations}")
    config = HarnessConfig(scale=args.scale, seed=args.seed)
    if args.iterations is not None:
        config.num_iterations = args.iterations
    records = run_churn(cases, config, deletion_fraction=args.deletion_fraction,
                        kappa_guard_factor=None if args.no_guard else 1.8)
    print("Churn — fully dynamic sparsification under mixed insert/delete streams "
          f"({percent(args.deletion_fraction)} deletions, per-iteration kappa tracking)")
    print(print_churn(records))
    worst = max((record.kappa_ratio for record in records), default=0.0)
    all_connected = all(record.stayed_connected for record in records)
    print(f"worst kappa ratio across cases: {worst:.2f} (acceptance bound: 2.00)")
    if worst > 2.0 or not all_connected:
        print("ACCEPTANCE FAILED: "
              + ("kappa ratio exceeded 2.0" if worst > 2.0 else "")
              + (" sparsifier disconnected" if not all_connected else ""))
        return 1
    return 0

