"""Tests for the benchmark CLI entry points (``python -m repro bench <name>``)."""

from __future__ import annotations

import json

import pytest

from repro.bench import churn, figure4, gate, serve_latency, soak, table1, table2, table3
from repro.bench.figure4 import ascii_log_chart
from repro.bench.records import Figure4Record, Table1Record, Table2Record, Table3Record
from repro.core import InGrassConfig


class TestRecordDerivedFields:
    def test_table1_setup_ratio(self):
        record = Table1Record(case="x", paper_case="X", num_nodes=10, num_edges=20,
                              grass_seconds=2.0, ingrass_setup_seconds=1.0, num_levels=5)
        assert record.setup_ratio == pytest.approx(0.5)
        assert record.as_dict()["setup_ratio"] == pytest.approx(0.5)
        zero = Table1Record(case="x", paper_case="X", num_nodes=10, num_edges=20,
                            grass_seconds=0.0, ingrass_setup_seconds=1.0, num_levels=5)
        assert zero.setup_ratio == float("inf")

    def test_table2_speedups(self):
        record = Table2Record(
            case="x", paper_case="X", num_nodes=10, num_edges=20,
            initial_offtree_density=0.1, final_offtree_density_all_edges=0.34,
            initial_condition_number=100.0, degraded_condition_number=300.0,
            grass_density=0.11, ingrass_density=0.12, random_density=0.3,
            grass_condition_number=95.0, ingrass_condition_number=105.0,
            random_condition_number=99.0,
            grass_seconds=10.0, ingrass_seconds=0.1, ingrass_setup_seconds=0.4,
        )
        assert record.speedup == pytest.approx(100.0)
        assert record.speedup_including_setup == pytest.approx(20.0)
        data = record.as_dict()
        assert data["speedup"] == pytest.approx(100.0)
        assert data["speedup_including_setup"] == pytest.approx(20.0)

    def test_figure4_speedup(self):
        record = Figure4Record(case="x", num_nodes=10, num_edges=20, grass_seconds=4.0,
                               ingrass_update_seconds=0.02, ingrass_total_seconds=0.1)
        assert record.speedup == pytest.approx(200.0)
        assert record.as_dict()["speedup"] == pytest.approx(200.0)

    def test_table3_as_dict(self):
        record = Table3Record(initial_offtree_density=0.1, final_offtree_density_all_edges=0.3,
                              initial_condition_number=50.0, degraded_condition_number=120.0,
                              grass_density=0.11, ingrass_density=0.13)
        assert record.as_dict()["grass_density"] == 0.11


class TestAsciiChart:
    def test_chart_handles_empty(self):
        assert ascii_log_chart([]) == ""

    def test_chart_scales_bars(self):
        records = [
            Figure4Record(case="a", num_nodes=10, num_edges=20, grass_seconds=10.0,
                          ingrass_update_seconds=0.01, ingrass_total_seconds=0.1),
        ]
        chart = ascii_log_chart(records, width=40)
        lines = [line for line in chart.splitlines() if "#" in line]
        assert len(lines) == 3
        # GRASS bar is the longest, the raw-update bar the shortest.
        assert lines[0].count("#") >= lines[2].count("#") >= lines[1].count("#")


@pytest.mark.slow
class TestCliMains:
    """End-to-end CLI runs on the smallest registered case."""

    def test_table1_main(self, capsys):
        assert table1.main(["--cases", "social_ws", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "social_ws" in out

    def test_table2_main(self, capsys):
        assert table2.main(["--cases", "social_ws", "--scale", "small", "--no-random"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "inGRASS-D" in out

    def test_table3_main(self, capsys):
        assert table3.main(["--case", "social_ws", "--densities", "0.12,0.08"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out

    def test_figure4_main(self, capsys):
        assert figure4.main(["--cases", "social_ws"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "#" in out

    def test_churn_main_follows_the_driver_hierarchy_mode(self, capsys):
        """Without ``--hierarchy-mode`` the churn bench drives the mode every
        server runs, the driver's default."""
        assert churn.main(["--cases", "social_ws", "--scale", "small", "--iterations", "3"]) == 0
        row = capsys.readouterr().out.splitlines()[-2]
        assert "social_ws" in row and f" {InGrassConfig().hierarchy_mode} " in row


class TestGateRunner:
    def test_list_registers_all_gates(self, capsys):
        assert gate.main(["--list"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()
                  if line and not line[0].isspace()]
        assert listed == ["batch", "churn-maintenance", "serve-latency"]

    def test_unknown_gate_rejected(self):
        with pytest.raises(SystemExit):
            gate.main(["--only", "nope"])

    def test_check_only_missing_artifact_fails(self, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        code = gate.main(["--only", "batch", "--check-only",
                          "--artifacts-dir", str(tmp_path),
                          "--summary", str(summary_path)])
        assert code == 1
        summary = json.loads(summary_path.read_text())
        assert summary["gates"]["batch"]["status"] == "missing-artifact"

    def test_check_only_passes_on_existing_artifact(self, tmp_path):
        # A payload consistent with the committed baseline passes the check
        # phase without re-running the benchmark.
        baseline = json.loads(gate.GATES[0].baseline.read_text())
        entries = baseline["entries"]
        payload = {"results": [
            {"batch_size": int(size),
             "vectorized_per_edge_us": values["vectorized_per_edge_us"],
             "scalar_per_edge_us": values["scalar_per_edge_us"],
             "edge_sets_match": True}
            for size, values in entries.items()
        ]}
        (tmp_path / "BENCH_batch.json").write_text(json.dumps(payload))
        summary_path = tmp_path / "summary.json"
        code = gate.main(["--only", "batch", "--check-only",
                          "--artifacts-dir", str(tmp_path),
                          "--summary", str(summary_path)])
        assert code == 0
        summary = json.loads(summary_path.read_text())
        assert summary["gates"]["batch"]["status"] == "pass"

    def test_run_creates_a_missing_artifacts_dir(self, tmp_path):
        stub = gate.GateSpec(name="stub", description="", artifact="BENCH_stub.json",
                             baseline=tmp_path / "no-baseline.json",
                             run=lambda: {"value": 1}, check=lambda payload, base, tol: [])
        artifacts_dir = tmp_path / "new" / "artifacts"
        summary = gate.run_gates([stub], do_run=True, do_check=True, tolerance=None,
                                 artifacts_dir=artifacts_dir)
        assert summary["gates"]["stub"]["status"] == "pass"
        assert json.loads((artifacts_dir / "BENCH_stub.json").read_text()) == {"value": 1}


class TestServeLatencyGate:
    def _payload(self, **overrides):
        payload = {
            "meta": {"cpu_count": 4, "side": 10, "batches": 12, "readers": 2,
                     "seed": 0},
            "latency": {"queries": 500, "p50_ms": 1.0, "p99_ms": 5.0},
            "restart": {"mid_epoch": 7, "resumed_epoch": 7,
                        "resume_epoch_match": True},
            "parity": {"final_epoch": 13, "offline_epoch": 13,
                       "epoch_match": True, "sparsifier_edges_match": True,
                       "sparsifier_weights_match": True,
                       "graph_edges_match": True},
        }
        payload.update(overrides)
        return payload

    def _baseline(self, **overrides):
        baseline = {"benchmark": "serve_latency", "cpu_count": 4,
                    "queries": 500, "p50_ms": 1.0, "p99_ms": 5.0}
        baseline.update(overrides)
        return baseline

    def test_passes_clean_payload(self):
        assert serve_latency.check_gate(self._payload(), self._baseline()) == []

    def test_missing_baseline_fails(self):
        failures = serve_latency.check_gate(self._payload(), None)
        assert any("baseline missing" in failure for failure in failures)

    def test_parity_violation_fails(self):
        payload = self._payload()
        payload["parity"]["sparsifier_weights_match"] = False
        failures = serve_latency.check_gate(payload, self._baseline())
        assert any("weights diverged" in failure for failure in failures)

    def test_restart_violation_fails(self):
        payload = self._payload()
        payload["restart"] = {"mid_epoch": 7, "resumed_epoch": 5,
                              "resume_epoch_match": False}
        failures = serve_latency.check_gate(payload, self._baseline())
        assert any("restart drill" in failure for failure in failures)

    def test_zero_queries_fails(self):
        payload = self._payload()
        payload["latency"]["queries"] = 0
        failures = serve_latency.check_gate(payload, self._baseline())
        assert any("vacuous" in failure for failure in failures)

    def test_latency_regression_fails_on_multicore(self):
        payload = self._payload()
        payload["latency"]["p99_ms"] = 50.0  # baseline 5.0 + 100% tolerance = 10.0
        failures = serve_latency.check_gate(payload, self._baseline())
        assert any("p99_ms" in failure for failure in failures)

    def test_latency_arm_deferred_on_single_cpu(self, capsys):
        payload = self._payload()
        payload["meta"]["cpu_count"] = 1
        payload["latency"]["p99_ms"] = 50.0
        assert serve_latency.check_gate(payload, self._baseline()) == []
        assert "deferred" in capsys.readouterr().out

    def test_latency_arm_deferred_on_single_cpu_baseline(self, capsys):
        payload = self._payload()
        payload["latency"]["p99_ms"] = 50.0
        baseline = self._baseline(cpu_count=1)
        assert serve_latency.check_gate(payload, baseline) == []
        assert "deferred" in capsys.readouterr().out

    def test_distil_baseline_matches_committed_schema(self):
        baseline = serve_latency.distil_baseline(self._payload())
        committed = json.loads(serve_latency.DEFAULT_BASELINE_PATH.read_text())
        assert set(baseline) == set(committed)


@pytest.mark.slow
class TestSoakAndRemovalMains:
    """A tiny end-to-end soak run (CI-speed parameters): churn with
    removals, uninterrupted and through a mid-stream checkpoint restore."""

    def test_soak_main(self, tmp_path, capsys):
        output = tmp_path / "BENCH_soak.json"
        code = soak.main([
            "--batches", "6", "--events", "400",
            "--scale", "small", "--output", str(output),
        ])
        assert code == 0
        payload = json.loads(output.read_text())
        assert set(payload["results"]) == {"uninterrupted", "restored"}
        assert all(payload["acceptance"].values())
