"""CLI reproduction of Table II: 10-iteration incremental comparison.

Run with::

    python -m repro bench table2 [--scale small|medium|large] [--cases a,b,c]
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.bench.datasets import QUICK_CASES, TABLE_CASES
from repro.bench.harness import HarnessConfig, run_table2
from repro.bench.records import Table2Record
from repro.bench.tables import format_table, percent


def print_table2(records: Sequence[Table2Record]) -> str:
    """Format Table II records in the paper's column layout."""
    rows = []
    for record in records:
        rows.append(
            {
                "Test case": f"{record.case} ({record.paper_case})",
                "Density D": f"{percent(record.initial_offtree_density)} -> "
                             f"{percent(record.final_offtree_density_all_edges)}",
                "kappa": f"{record.initial_condition_number:.0f} -> "
                         f"{record.degraded_condition_number:.0f}",
                "GRASS-D": percent(record.grass_density),
                "inGRASS-D": percent(record.ingrass_density),
                "Random-D": percent(record.random_density),
                "GRASS-k": record.grass_condition_number,
                "inGRASS-k": record.ingrass_condition_number,
                "GRASS-T (s)": record.grass_seconds,
                "inGRASS-T (s)": record.ingrass_seconds,
                "Speedup": record.speedup,
            }
        )
    return format_table(rows, list(rows[0].keys()) if rows else [], precision=2)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Reproduce Table II (incremental comparison)")
    parser.add_argument("--scale", default="small", choices=["small", "medium", "large"])
    parser.add_argument("--cases", default=None, help="comma-separated dataset names")
    parser.add_argument("--quick", action="store_true", help="run the small CI subset of cases")
    parser.add_argument("--no-random", action="store_true", help="skip the Random baseline")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.cases:
        cases = args.cases.split(",")
    elif args.quick:
        cases = QUICK_CASES
    else:
        cases = TABLE_CASES
    config = HarnessConfig(scale=args.scale, seed=args.seed)
    records = run_table2(cases, config, include_random=not args.no_random)
    print("Table II — incremental sparsification through 10 update iterations "
          "(GRASS vs inGRASS vs Random, synthetic analogues)")
    print(print_table2(records))
    return 0

