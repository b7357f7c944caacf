"""CLI reproduction of Figure 4: runtime scalability of GRASS vs inGRASS.

The paper plots, on a log scale, the total runtime of ten incremental update
iterations for (a) GRASS re-run from scratch, (b) the inGRASS update phase,
and (c) inGRASS updates plus its one-time setup, across growing graphs.  This
script prints the same series as a table and as a rudimentary ASCII log-scale
chart (no plotting dependencies are available offline).

Run with::

    python -m repro bench figure4 [--scale small|medium|large]
"""

from __future__ import annotations

import argparse
import math
from typing import List, Optional, Sequence

from repro.bench.datasets import SCALABILITY_CASES
from repro.bench.harness import HarnessConfig, run_figure4
from repro.bench.records import Figure4Record
from repro.bench.tables import format_table


def print_figure4(records: Sequence[Figure4Record]) -> str:
    """Format Figure 4 data points as a table."""
    rows = []
    for record in records:
        rows.append(
            {
                "Test case": record.case,
                "|V|": record.num_nodes,
                "|E|": record.num_edges,
                "GRASS (s)": record.grass_seconds,
                "inGRASS updates (s)": record.ingrass_update_seconds,
                "inGRASS + setup (s)": record.ingrass_total_seconds,
                "Speedup": record.speedup,
            }
        )
    return format_table(rows, list(rows[0].keys()) if rows else [], precision=4)


def ascii_log_chart(records: Sequence[Figure4Record], width: int = 50) -> str:
    """Rudimentary log-scale bar chart of the three runtime series."""
    if not records:
        return ""
    values = []
    for record in records:
        values.extend([record.grass_seconds, record.ingrass_update_seconds, record.ingrass_total_seconds])
    floor = max(min(v for v in values if v > 0), 1e-6)
    ceiling = max(values)
    span = math.log10(ceiling / floor) if ceiling > floor else 1.0

    def bar(value: float) -> str:
        if value <= 0:
            return ""
        length = int(round(width * math.log10(max(value, floor) / floor) / span)) if span else 1
        return "#" * max(length, 1)

    lines = ["runtime (log scale), 10 update iterations:"]
    for record in records:
        lines.append(f"{record.case:>14}  GRASS        {record.grass_seconds:10.3f}s  {bar(record.grass_seconds)}")
        lines.append(f"{'':>14}  inGRASS      {record.ingrass_update_seconds:10.3f}s  "
                     f"{bar(record.ingrass_update_seconds)}")
        lines.append(f"{'':>14}  inGRASS+setup{record.ingrass_total_seconds:10.3f}s  "
                     f"{bar(record.ingrass_total_seconds)}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Reproduce Figure 4 (runtime scalability)")
    parser.add_argument("--scale", default="small", choices=["small", "medium", "large"])
    parser.add_argument("--cases", default=None, help="comma-separated dataset names")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    cases = args.cases.split(",") if args.cases else SCALABILITY_CASES
    config = HarnessConfig(scale=args.scale, seed=args.seed)
    records = run_figure4(cases, config)
    print("Figure 4 — runtime scalability of GRASS vs inGRASS (synthetic analogues)")
    print(print_figure4(records))
    print()
    print(ascii_log_chart(records))
    return 0

