"""CLI reproduction of Table III: robustness across initial sparsifier densities.

Run with::

    python -m repro bench table3 [--scale small|medium|large]
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.bench.harness import HarnessConfig, run_table3
from repro.bench.records import Table3Record
from repro.bench.tables import format_table, percent


def print_table3(records: Sequence[Table3Record]) -> str:
    """Format Table III records in the paper's column layout."""
    rows = []
    for record in records:
        rows.append(
            {
                "Density D": f"{percent(record.initial_offtree_density)} -> "
                             f"{percent(record.final_offtree_density_all_edges)}",
                "kappa": f"{record.initial_condition_number:.0f} -> "
                         f"{record.degraded_condition_number:.0f}",
                "GRASS-D": percent(record.grass_density),
                "inGRASS-D": percent(record.ingrass_density),
            }
        )
    return format_table(rows, list(rows[0].keys()) if rows else [])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Reproduce Table III (robustness across initial densities, G2_circuit analogue)"
    )
    parser.add_argument("--scale", default="small", choices=["small", "medium", "large"])
    parser.add_argument("--case", default="g2_circuit")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--densities", default="0.127,0.118,0.09,0.076,0.066",
                        help="comma-separated initial off-tree densities")
    args = parser.parse_args(argv)

    densities = [float(value) for value in args.densities.split(",")]
    config = HarnessConfig(scale=args.scale, seed=args.seed)
    records = run_table3(densities, config, case=args.case)
    print("Table III — GRASS vs inGRASS densities across initial sparsifier densities "
          f"({args.case} analogue)")
    print(print_table3(records))
    return 0

