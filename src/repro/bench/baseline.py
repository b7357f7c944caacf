"""Perf-baseline helper for the batch-scaling benchmark.

Two jobs, one module:

* **regenerate** — distil a ``BENCH_batch.json`` run (or a fresh one) into
  the committed baseline ``benchmarks/baselines/batch_baseline.json``::

      python -m repro bench baseline --from BENCH_batch.json
      python -m repro bench baseline            # runs the benchmark itself

* **check** — the CI perf-regression gate: fail (exit 1) when the vectorised
  per-edge update time of any batch size regressed more than ``--tolerance``
  (default 30%) against the baseline::

      python -m repro bench baseline --check BENCH_batch.json

The gate protects the vectorised engine — the shipped hot path.  Because CI
runners and dev machines differ in absolute speed, an absolute per-edge
slowdown alone does not fail the gate: the in-run scalar reference time is
used as a hardware fingerprint, and the gate trips only when the absolute
time *and* the vectorized/scalar ratio both regress beyond the tolerance
(see :func:`check_regression`).  Refresh the baseline whenever an
intentional perf trade-off lands, and commit the result.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List, Optional

#: Committed baseline consumed by the CI ``bench-perf`` job.
DEFAULT_BASELINE_PATH = Path("benchmarks") / "baselines" / "batch_baseline.json"


def distil_baseline(payload: Dict) -> Dict:
    """Reduce a benchmark payload to the committed baseline schema."""
    entries = {
        str(row["batch_size"]): {
            "vectorized_per_edge_us": row["vectorized_per_edge_us"],
            "scalar_per_edge_us": row["scalar_per_edge_us"],
            "speedup": row["speedup"],
        }
        for row in payload["results"]
    }
    meta = payload.get("meta", {})
    return {
        "benchmark": "batch_scaling",
        "case": meta.get("case"),
        "scale": meta.get("scale"),
        "seed": meta.get("seed"),
        "generated": meta.get("timestamp"),
        "entries": entries,
    }


def check_regression(payload: Dict, baseline: Dict, *, tolerance: float = 0.30) -> List[str]:
    """Compare a benchmark payload against a baseline; return failure messages.

    A batch size regresses when its vectorised per-edge time exceeds the
    baseline by more than ``tolerance`` (relative) **and** the slowdown is
    not explained by the machine: the scalar reference engine runs in the
    same process on the same stream, so the vectorized/scalar time ratio is
    a hardware-independent fingerprint of the batch engine.  A wholesale
    slowdown (slower CI runner, CPU contention) moves both engines together
    and passes; a regression in the batch engine moves only the vectorised
    time and fails.  Sizes present on only one side are ignored — the sweep
    may legitimately grow or shrink — but zero overlap fails outright.
    """
    failures: List[str] = []
    entries = baseline.get("entries", {})
    overlap = 0
    for row in payload.get("results", []):
        key = str(row["batch_size"])
        if not row.get("edge_sets_match", True):
            failures.append(f"batch {key}: scalar and vectorized engines diverged")
        base = entries.get(key)
        if base is None:
            continue
        overlap += 1
        reference = float(base["vectorized_per_edge_us"])
        measured = float(row["vectorized_per_edge_us"])
        limit = reference * (1.0 + tolerance)
        reference_ratio = reference / float(base["scalar_per_edge_us"])
        measured_ratio = measured / float(row["scalar_per_edge_us"])
        ratio_limit = reference_ratio * (1.0 + tolerance)
        if measured > limit and measured_ratio > ratio_limit:
            failures.append(
                f"batch {key}: vectorized {measured:.2f} us/edge exceeds baseline "
                f"{reference:.2f} us/edge by more than {tolerance:.0%} (limit {limit:.2f}), "
                f"and the vectorized/scalar ratio ({measured_ratio:.3f} vs baseline "
                f"{reference_ratio:.3f}) confirms the engine, not the machine, slowed down"
            )
    if overlap == 0:
        failures.append(
            "no batch size overlaps the baseline — the gate would pass vacuously; "
            "align the benchmark --sizes with the baseline or refresh the baseline"
        )
    return failures


def _load(path: str) -> Dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Batch-benchmark baseline helper / CI perf gate")
    parser.add_argument("--check", metavar="BENCH_JSON", default=None,
                        help="gate mode: compare this benchmark result against the baseline")
    parser.add_argument("--from", dest="source", metavar="BENCH_JSON", default=None,
                        help="regenerate the baseline from an existing benchmark result "
                             "(default: run the benchmark first)")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE_PATH),
                        help="baseline file to write (regenerate) or read (check)")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed relative per-edge slowdown before the gate fails")
    parser.add_argument("--sizes", default=None,
                        help="batch sizes for a fresh benchmark run (regenerate mode only)")
    args = parser.parse_args(argv)

    if args.check is not None:
        payload = _load(args.check)
        baseline = _load(args.baseline)
        failures = check_regression(payload, baseline, tolerance=args.tolerance)
        if failures:
            print("PERF REGRESSION GATE FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            print(f"(baseline: {args.baseline}; refresh it with "
                  "`python -m repro bench baseline` if the change is intentional)")
            return 1
        checked = sum(1 for row in payload.get("results", [])
                      if str(row["batch_size"]) in baseline.get("entries", {}))
        print(f"perf gate OK: {checked} batch sizes within {args.tolerance:.0%} of baseline")
        return 0

    if args.source is not None:
        payload = _load(args.source)
    else:
        from repro.bench.batch import DEFAULT_SIZES, run_batch_bench

        sizes = ([int(part) for part in args.sizes.split(",") if part]
                 if args.sizes else list(DEFAULT_SIZES))
        payload = run_batch_bench(sizes)
    baseline = distil_baseline(payload)
    path = Path(args.baseline)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    print(f"wrote baseline {path} ({len(baseline['entries'])} batch sizes)")
    return 0

