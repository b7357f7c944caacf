"""Smoke test of the repo benchmark: tiny inputs, every metric, every check.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

ENGINE_CHECKS = {"digest_repeats_within_run", "sparsifier_connected",
                 "sparsifier_subset_of_graph", "digest_repeats_across_runs"}
SESSION_CHECKS = {"epoch_matches_offline_replay", "sparsifier_bit_exact_with_offline_replay",
                  "graph_bit_exact_with_offline_replay", "reads_answer_from_their_write_epoch"}


def expected_checks(workload: str, trace: int) -> set:
    if workload == "serve-mixed":
        from workloads import workload as spec

        sessions = range(2 if trace else spec(workload, smoke=True).repeats)
        return ({f"session{i}_{name}" for i in sessions for name in SESSION_CHECKS}
                | {"sparsifier_connected", "sparsifier_subset_of_graph",
                   "digest_repeats_across_runs"})
    return ENGINE_CHECKS | {"kappa_ratio_at_most_2"}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_and_check(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "2",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, m["name"]
    report = next(json.loads(line) for line in lines if line.startswith('{"checks"'))
    assert set(report["checks"]) == expected_checks(workload, trace)
    assert all(report["checks"].values())
    fingerprint = json.loads(lines[0])["fingerprint"]
    assert {"cpu_count", "blas_threads", "python", "numpy", "scipy"} <= set(fingerprint)


def test_run_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert 1 <= BENCH["run_seconds"] <= 60 and 2 <= len(WORKLOADS) <= 8
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = WORKLOADS + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and unit.match(m["unit"])
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and unit.match(m["unit"])


def test_tracer_self_times_add_up_to_the_root():
    import time

    from tracing import Tracer

    class Layer:
        @classmethod
        def outer(cls):
            time.sleep(0.01)
            return cls.inner()

        @staticmethod
        def inner():
            time.sleep(0.05)
            return 7

    original = Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.patch(Layer, "outer", lambda fn: tracer.wrap(fn, "outer"))
    tracer.patch(Layer, "inner", lambda fn: tracer.wrap(fn, "inner"))
    with tracer.span("root"):
        assert Layer.outer() == 7
    tracer.uninstall()
    assert Layer.__dict__["outer"] is original
    summary = tracer.summary()
    own = summary["self_seconds"]
    assert summary["calls"] == {"root": 1, "outer": 1, "inner": 1}
    # outer's self time excludes the nested inner span.
    assert 0.01 <= own["outer"] < 0.05 <= own["inner"]
    assert sum(own.values()) == pytest.approx(summary["root_seconds"], rel=1e-9)
