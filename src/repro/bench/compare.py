"""Paired A/B runs of the repo benchmark between two git revisions.

Run from inside the repository::

    python -m repro bench compare --base REV --head REV --workload serve-mixed \\
        --pairs 10 --seed 100

Both revisions are checked out into temporary git worktrees (removed
afterwards, also on failure); revisions whose ``perfbench/`` or
``BENCHMARK.json`` differ are refused, since they would not be measured by
the same benchmark.  ``perfbench/run.py`` then runs on the two sides in
turn, ``--pairs`` times: pair ``k`` uses seed ``--seed + k`` on both sides,
and the side that runs first alternates.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the head's wins over the pairs (ties count for
neither side) and a verdict by the paired-run rules:

* ``win``: the head wins at least nine tenths of the pairs and the medians
  differ by more than the base's interquartile range;
* ``regression``: the head's median is worse than the base's by more than
  the metric's bound;
* ``unresolved``: the base's own spread (IQR over median) exceeds the bound
  and not every head run is better than every base run;
* ``no change`` otherwise.

It also prints ``correct`` and failed/attempted per side, and whether the
final-state digests the two checkouts recorded agree.

The exit status is a gate's: 1 when a metric's verdict is ``regression``, a
side is not ``correct``, the digests disagree or the head failed more
operations than the base (``unresolved`` does not fail), 0 otherwise, and 2
when the runs themselves could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

SIDES = ("base", "head")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(median, q1, q3)``, linearly interpolated like perfbench's percentiles."""
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(median), float(q1), float(q3)


def head_wins(base: Sequence[float], head: Sequence[float], better: str) -> int:
    """Pairs whose head value is strictly better (ties count for neither side)."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (h - b) > 0 for b, h in zip(base, head))


def verdict(base: Sequence[float], head: Sequence[float], better: str, bound: float) -> str:
    """The paired-run verdict on one metric (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    base_median, base_q1, base_q3 = quartiles(base)
    head_median = quartiles(head)[0]
    iqr = base_q3 - base_q1
    gain = sign * (head_median - base_median)
    if head_wins(base, head, better) >= 0.9 * len(base) and gain > iqr:
        return "win"
    if -gain > bound * abs(base_median):
        return "regression"
    every_head_better = min(sign * h for h in head) > max(sign * b for b in base)
    if iqr > bound * abs(base_median) and not every_head_better:
        return "unresolved"
    return "no change"


def digests_agree(base: Dict[str, str], head: Dict[str, str]) -> Optional[bool]:
    """Whether the final-state digests both checkouts recorded agree.

    perfbench keys each digest ``<source hash>/<workload>/<seed>/...``; the
    source hash differs between revisions, so keys are compared without it.
    ``None`` when the two sides share no key.
    """
    def strip(record):
        return {key.split("/", 1)[1]: value for key, value in record.items()}

    base, head = strip(base), strip(head)
    common = set(base) & set(head)
    return all(base[key] == head[key] for key in common) if common else None


def _git(*args: str, cwd: Path) -> str:
    proc = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def _run_once(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
        record["metrics"]
    except (IndexError, ValueError, KeyError):
        raise RuntimeError(f"perfbench failed in {checkout} (exit {proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}") from None
    return record


def _read_digests(checkout: Path) -> Dict[str, str]:
    path = checkout / ".perfbench_state" / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


def run_pairs(repo: Path, base: str, head: str, workload: str, pairs: int, seed: int,
              workdir: Optional[str] = None):
    """Check both revisions out and run the alternating pairs; returns
    ``(records by side, digests by side, spec)``."""
    with tempfile.TemporaryDirectory(prefix="repro-compare-", dir=workdir) as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        added: List[Path] = []
        try:
            for side, rev in zip(SIDES, (base, head)):
                _git("worktree", "add", "--detach", str(checkouts[side]), rev, cwd=repo)
                added.append(checkouts[side])
            changed = _git("diff", "--name-only", base, head, "--", "perfbench", "BENCHMARK.json",
                           cwd=repo)
            if changed:
                raise RuntimeError("the revisions run different benchmarks; refusing to compare "
                                   f"(changed: {changed.split()})")
            spec = json.loads((checkouts["base"] / "BENCHMARK.json").read_text())
            records: Dict[str, List[dict]] = {side: [] for side in SIDES}
            for k in range(pairs):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                for side in order:
                    records[side].append(_run_once(checkouts[side], workload, seed + k))
                    print(f"pair {k + 1}/{pairs} {side}: correct={records[side][-1]['correct']}",
                          file=sys.stderr, flush=True)
            digests = {side: _read_digests(checkouts[side]) for side in SIDES}
            return records, digests, spec
        finally:
            for checkout in added:
                _git("worktree", "remove", "--force", str(checkout), cwd=repo)
            _git("worktree", "prune", cwd=repo)


def report(records: Dict[str, List[dict]], digests: Dict[str, Dict[str, str]], spec: dict) -> dict:
    """One row per end-to-end metric plus correctness and digest agreement."""
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in records[side]] for side in SIDES}
        rows.append({
            "metric": name, "unit": metric["unit"], "better": metric["better"],
            **{side: dict(zip(("median", "q1", "q3"), quartiles(values[side]))) for side in SIDES},
            "head_wins": head_wins(values["base"], values["head"], metric["better"]),
            "pairs": len(values["base"]),
            "verdict": verdict(values["base"], values["head"], metric["better"], metric["bound"]),
        })
    sides = {side: {"correct": all(r["correct"] for r in records[side]),
                    "failed": sum(r["failed"] for r in records[side]),
                    "attempted": sum(r["attempted"] for r in records[side])} for side in SIDES}
    return {"rows": rows, "sides": sides,
            "digests_agree": digests_agree(digests["base"], digests["head"])}


def gate_failures(summary: dict) -> List[str]:
    """Why a :func:`report` summary fails the gate; empty when it passes."""
    failures = [f"{row['metric']}: regression" for row in summary["rows"]
                if row["verdict"] == "regression"]
    failures += [f"{side}: correct=false" for side, info in summary["sides"].items()
                 if not info["correct"]]
    if summary["digests_agree"] is False:
        failures.append("final-state digests disagree")
    base_failed, head_failed = (summary["sides"][side]["failed"] for side in SIDES)
    if head_failed > base_failed:
        failures.append(f"head failed {head_failed} operations, base {base_failed}")
    return failures


def print_report(summary: dict) -> None:
    print(f"{'metric':16s} {'base median [q1, q3]':>30s} {'head median [q1, q3]':>30s} "
          f"{'wins':>6s}  verdict")
    for row in summary["rows"]:
        cells = [f"{row[s]['median']:.4g} [{row[s]['q1']:.4g}, {row[s]['q3']:.4g}]" for s in SIDES]
        print(f"{row['metric']:16s} {cells[0]:>30s} {cells[1]:>30s} "
              f"{row['head_wins']:>3d}/{row['pairs']:<2d}  {row['verdict']}")
    for side, info in summary["sides"].items():
        print(f"{side}: correct={info['correct']} failed/attempted="
              f"{info['failed']}/{info['attempted']}")
    print(f"final-state digests agree: {summary['digests_agree']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro bench compare", description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--head", required=True, help="head revision")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="pair k runs seed SEED + k")
    parser.add_argument("--workdir", default=None, help="where the temporary worktrees go")
    parser.add_argument("--json", dest="json_path", default=None, help="also write the summary here")
    args = parser.parse_args(argv)
    try:
        repo = Path(_git("rev-parse", "--show-toplevel", cwd=Path(os.getcwd())))
        records, digests, spec = run_pairs(repo, args.base, args.head, args.workload,
                                           args.pairs, args.seed, args.workdir)
    except RuntimeError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    summary = report(records, digests, spec)
    summary.update({"workload": args.workload, "base": args.base, "head": args.head,
                    "seed": args.seed, "records": records})
    print_report(summary)
    if args.json_path:
        Path(args.json_path).write_text(json.dumps(summary, indent=1))
    failures = gate_failures(summary)
    for failure in failures:
        print(f"gate: {failure}")
    return 1 if failures else 0
