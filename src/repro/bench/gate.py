"""Unified benchmark-gate runner: one CLI for every registered CI gate.

The ``bench-perf`` CI job used to be one copy-pasted run/upload/check step
triple per benchmark, each new gate making the workflow longer and flakier.
This module is the single entry point instead: it discovers the registered
gates, runs their benchmarks (writing the usual ``BENCH_*.json`` artifacts),
checks each against its committed baseline under ``benchmarks/baselines/``
and writes one machine-readable summary.

Run everything (what CI does, split into an artifact-producing run step and
a gating check step so artifacts survive failures)::

    python -m repro bench gate --no-check            # run benchmarks only
    python -m repro bench gate --check-only          # gate existing artifacts
    python -m repro bench gate                       # both in one go (local use)

Select and tune::

    python -m repro bench gate --only batch,serve-latency
    python -m repro bench gate --tolerance 0.5       # loosen every gate's main tolerance
    python -m repro bench gate --summary gate_summary.json
    python -m repro bench gate --list

Each gate keeps its own CLI (``python -m repro bench <name>``) for focused
runs and baseline refreshes; this runner only orchestrates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.bench import baseline as batch_baseline
from repro.bench import churn_maintenance, serve_latency
from repro.bench.batch import run_batch_bench


@dataclass(frozen=True)
class GateSpec:
    """One registered benchmark gate."""

    #: Registry name (what ``--only`` matches).
    name: str
    #: One-line description shown by ``--list``.
    description: str
    #: Benchmark artifact the run phase writes and the check phase reads.
    artifact: str
    #: Committed baseline path.
    baseline: Path
    #: Run the benchmark; returns the JSON-ready payload.
    run: Callable[[], Dict]
    #: Check a payload against a baseline; returns failure messages.
    #: Signature: ``check(payload, baseline_or_none, tolerance_or_none)``.
    check: Callable[[Dict, Optional[Dict], Optional[float]], List[str]]


def _check_batch(payload: Dict, base: Optional[Dict], tolerance: Optional[float]) -> List[str]:
    if base is None:
        return ["committed baseline missing: benchmarks/baselines/batch_baseline.json"]
    return batch_baseline.check_regression(payload, base,
                                           tolerance=tolerance if tolerance is not None else 0.30)


def _check_churn(payload: Dict, base: Optional[Dict], tolerance: Optional[float]) -> List[str]:
    return churn_maintenance.check_regression(
        payload, base, tolerance=tolerance if tolerance is not None else 0.35)


def _check_serve_latency(payload: Dict, base: Optional[Dict],
                         tolerance: Optional[float]) -> List[str]:
    kwargs = {}
    if tolerance is not None:
        kwargs["regression_tolerance"] = tolerance
    return serve_latency.check_gate(payload, base, **kwargs)


#: Registered gates, in CI execution order.
GATES: List[GateSpec] = [
    GateSpec(
        name="batch",
        description="batch-engine per-edge cost vs committed baseline (10^2-10^5 edges)",
        artifact="BENCH_batch.json",
        baseline=batch_baseline.DEFAULT_BASELINE_PATH,
        run=lambda: run_batch_bench(),
        check=_check_batch,
    ),
    GateSpec(
        name="churn-maintenance",
        description="hierarchy maintain vs rebuild on a 50-batch mixed stream "
                    "(zero re-setups, kappa parity, per-event time)",
        artifact="BENCH_churn.json",
        baseline=churn_maintenance.DEFAULT_BASELINE_PATH,
        run=lambda: churn_maintenance.run_churn_maintenance_bench(),
        check=_check_churn,
    ),
    GateSpec(
        name="serve-latency",
        description="HTTP front end under reader/writer churn (p50/p99 reader "
                    "latency, kill/restart bit-exact resume, offline epoch parity)",
        artifact="BENCH_serve_latency.json",
        baseline=serve_latency.DEFAULT_BASELINE_PATH,
        run=lambda: serve_latency.run_serve_latency_bench(),
        check=_check_serve_latency,
    ),
]


def _select(only: Optional[str]) -> List[GateSpec]:
    if not only:
        return list(GATES)
    wanted = [part.strip() for part in only.split(",") if part.strip()]
    by_name = {gate.name: gate for gate in GATES}
    unknown = [name for name in wanted if name not in by_name]
    if unknown:
        known = ", ".join(gate.name for gate in GATES)
        raise SystemExit(f"unknown gate(s) {', '.join(unknown)}; registered: {known}")
    return [by_name[name] for name in wanted]


def _load_json(path: Path) -> Optional[Dict]:
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_gates(selected: List[GateSpec], *, do_run: bool, do_check: bool,
              tolerance: Optional[float], artifacts_dir: Path) -> Dict:
    """Execute the run/check phases for ``selected``; return the summary."""
    summary: Dict = {
        "meta": {
            "runner": "repro.bench.gate",
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "phases": {"run": do_run, "check": do_check},
            "tolerance_override": tolerance,
        },
        "gates": {},
    }
    if do_run:
        # Before the first benchmark, so a missing directory cannot lose a run.
        artifacts_dir.mkdir(parents=True, exist_ok=True)
    for gate in selected:
        artifact_path = artifacts_dir / gate.artifact
        entry: Dict = {
            "artifact": str(artifact_path),
            "baseline": str(gate.baseline),
            "status": "pending",
            "failures": [],
        }
        summary["gates"][gate.name] = entry
        if do_run:
            print(f"=== [{gate.name}] running benchmark -> {artifact_path}")
            started = time.perf_counter()
            payload = gate.run()
            entry["run_seconds"] = time.perf_counter() - started
            with open(artifact_path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
        if not do_check:
            entry["status"] = "ran"
            continue
        payload = _load_json(artifact_path)
        if payload is None:
            entry["status"] = "missing-artifact"
            entry["failures"] = [f"benchmark artifact {artifact_path} not found; "
                                 "run the benchmark first (drop --check-only)"]
            continue
        base = _load_json(gate.baseline)
        print(f"=== [{gate.name}] checking {artifact_path} against {gate.baseline}")
        failures = gate.check(payload, base, tolerance)
        entry["failures"] = failures
        entry["status"] = "pass" if not failures else "fail"
    return summary


def print_summary(summary: Dict) -> bool:
    """Print the per-gate outcome table; return overall success."""
    ok = True
    print()
    print("gate summary:")
    for name, entry in summary["gates"].items():
        status = entry["status"]
        ok = ok and status in ("pass", "ran")
        line = f"  {name:<18} {status}"
        if "run_seconds" in entry:
            line += f"  ({entry['run_seconds']:.1f}s)"
        print(line)
        for failure in entry["failures"]:
            print(f"      - {failure}")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Unified benchmark-gate runner (discovers and runs all registered CI gates)")
    parser.add_argument("--only", default=None,
                        help="comma-separated gate names (default: all registered gates)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override every selected gate's main regression tolerance")
    parser.add_argument("--no-check", action="store_true",
                        help="run benchmarks and write artifacts, skip the gate checks")
    parser.add_argument("--check-only", action="store_true",
                        help="gate existing BENCH_*.json artifacts, skip the benchmark runs")
    parser.add_argument("--summary", default="gate_summary.json",
                        help="machine-readable summary path (empty string disables writing)")
    parser.add_argument("--artifacts-dir", default=".",
                        help="directory the BENCH_*.json artifacts are written to / read from")
    parser.add_argument("--list", action="store_true", help="list registered gates and exit")
    args = parser.parse_args(argv)

    if args.list:
        for gate in GATES:
            print(f"{gate.name:<18} {gate.description}")
            print(f"{'':<18} artifact {gate.artifact}  baseline {gate.baseline}")
        return 0
    if args.no_check and args.check_only:
        parser.error("--no-check and --check-only are mutually exclusive")

    selected = _select(args.only)
    summary = run_gates(selected, do_run=not args.check_only, do_check=not args.no_check,
                        tolerance=args.tolerance, artifacts_dir=Path(args.artifacts_dir))
    ok = print_summary(summary)
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.summary}")
    return 0 if ok else 1

