"""CLI reproduction of Table I: GRASS time vs inGRASS setup time.

Run with::

    python -m repro bench table1 [--scale small|medium|large] [--cases a,b,c]
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.bench.datasets import TABLE_CASES
from repro.bench.harness import HarnessConfig, run_table1
from repro.bench.records import Table1Record
from repro.bench.tables import format_table


def print_table1(records: Sequence[Table1Record]) -> str:
    """Format Table I records in the paper's column layout."""
    rows = []
    for record in records:
        rows.append(
            {
                "Test case": f"{record.case} ({record.paper_case})",
                "|V|": record.num_nodes,
                "|E|": record.num_edges,
                "GRASS (s)": record.grass_seconds,
                "Setup (s)": record.ingrass_setup_seconds,
                "Setup/GRASS": record.setup_ratio,
                "levels": record.num_levels,
            }
        )
    return format_table(rows, list(rows[0].keys()) if rows else [])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Reproduce Table I (GRASS vs inGRASS setup time)")
    parser.add_argument("--scale", default="small", choices=["small", "medium", "large"])
    parser.add_argument("--cases", default=None, help="comma-separated dataset names")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    cases = args.cases.split(",") if args.cases else TABLE_CASES
    config = HarnessConfig(scale=args.scale, seed=args.seed)
    records = run_table1(cases, config)
    print("Table I — GRASS time vs inGRASS setup time (synthetic analogues)")
    print(print_table1(records))
    return 0

