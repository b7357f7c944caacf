"""Tests for the benchmark CLI entry points (``python -m repro bench <name>``)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import (
    churn,
    churn_maintenance,
    figure4,
    soak,
    table1,
    table2,
    table3,
)
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


def _churn_payload():
    mode = {"full_resetups": 0, "kappa_final": 40.0, "stayed_connected": True}
    pair = {"maintain": dict(mode), "rebuild": {**mode, "full_resetups": 5}, "ratio": 1.05}
    return {"results": {"maintain": {**mode, "per_event_ratio": 1.05, "per_event_ratio_iqr": 0.02},
                        "rebuild": {**mode, "full_resetups": 5}},
            "pairs": [copy.deepcopy(pair) for _ in range(3)]}


class TestChurnMaintenanceGate:
    """``bench churn-maintenance``'s exit status: each check, violated alone, fails."""

    def test_passes_clean_payload(self):
        assert churn_maintenance.gate_failures(_churn_payload()) == []

    def test_limits_are_inclusive(self):
        payload = _churn_payload()
        payload["results"]["maintain"]["kappa_final"] = 44.0
        payload["results"]["maintain"]["per_event_ratio"] = churn_maintenance.PER_EVENT_PARITY_LIMIT
        assert churn_maintenance.gate_failures(payload) == []

    @pytest.mark.parametrize("mode, key, value, expected", [
        ("maintain", "full_resetups", 1, "maintain mode paid 1 full re-setups"),
        ("rebuild", "full_resetups", 1, "rebuild mode paid only 1"),
        ("maintain", "kappa_final", 44.01, "end-state kappa"),
        ("maintain", "stayed_connected", False, "disconnected"),
        ("rebuild", "stayed_connected", False, "disconnected"),
        ("maintain", "per_event_ratio", 1.11, "per-event ratio 1.110"),
    ])
    def test_each_violation_fails_alone(self, mode, key, value, expected):
        payload = _churn_payload()
        payload["results"][mode][key] = value
        failures = churn_maintenance.gate_failures(payload)
        assert len(failures) == 1 and expected in failures[0], failures

    @pytest.mark.parametrize("mode, key, value", [
        ("maintain", "full_resetups", 1),
        ("rebuild", "kappa_final", 40.5),
        ("maintain", "stayed_connected", False),
    ])
    def test_a_pair_that_does_not_repeat_the_stream_fails_alone(self, mode, key, value):
        payload = _churn_payload()
        payload["pairs"][2][mode][key] = value
        failures = churn_maintenance.gate_failures(payload)
        assert len(failures) == 1 and f"pair 2: {mode} {key}" in failures[0], failures


@pytest.mark.parametrize("module, runner, make_payload, plant", [
    (churn_maintenance, "run_churn_maintenance_bench", _churn_payload,
     lambda p: p["results"]["maintain"].update(full_resetups=3)),
])
def test_main_writes_its_artifact_before_it_fails(tmp_path, monkeypatch, module, runner,
                                                  make_payload, plant):
    """A failing run still leaves the evidence CI uploads."""
    payload = make_payload()
    plant(payload)
    monkeypatch.setattr(module, runner, lambda *args, **kwargs: copy.deepcopy(payload))
    monkeypatch.setattr(module, "print_results", lambda payload: "")
    output = tmp_path / "artifact.json"
    assert module.main(["--output", str(output)]) == 1
    written = json.loads(output.read_text())
    assert written["failures"] == module.gate_failures(payload) != []


@pytest.mark.slow
class TestSoakAndRemovalMains:
    """A tiny end-to-end soak run (CI-speed parameters): churn with
    removals, uninterrupted and through a mid-stream checkpoint restore."""

    @staticmethod
    def _soak(tmp_path, *options):
        output = tmp_path / "BENCH_soak.json"
        code = soak.main([
            "--batches", "6", "--events", "400",
            "--scale", "small", "--output", str(output), *options,
        ])
        assert code == 0
        payload = json.loads(output.read_text())
        assert set(payload["results"]) == {"uninterrupted", "restored"}
        assert all(payload["acceptance"].values())
        return payload

    def test_soak_main(self, tmp_path, capsys):
        self._soak(tmp_path)

    def test_guarded_soak_main(self, tmp_path, capsys):
        meta = self._soak(tmp_path, "--kappa-guard-factor", "1.8")["meta"]
        # The guard's target is the measured κ(G(0), H(0)), not the fixed one.
        assert meta["kappa_guard_factor"] == 1.8
        assert meta["target_condition_number"] != soak.TARGET_CONDITION
