"""Tests for the benchmark CLI entry points (``python -m repro bench <name>``)."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    churn,
    figure4,
    soak,
    table1,
    table2,
    table3,
)
from repro.bench.figure4 import ascii_log_chart
from repro.bench.records import ChurnRecord, Figure4Record, Table1Record, Table2Record, Table3Record


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

    def test_churn_main(self, capsys):
        assert churn.main(["--cases", "social_ws", "--scale", "small", "--iterations", "3"]) == 0
        row = capsys.readouterr().out.splitlines()[-2]
        assert "social_ws" in row and " yes " in row


def _churn_record(**overrides):
    fields = dict(case="g2_circuit", paper_case="G2_circuit", num_nodes=10, num_edges=20,
                  deletion_fraction=0.4, num_iterations=2, insertions=3, deletions=2,
                  sparsifier_removals=1, repair_edges=1, target_condition_number=10.0,
                  max_condition_number=15.0, final_condition_number=12.0,
                  final_offtree_density=0.2, stayed_connected=True,
                  ingrass_seconds=0.1, ingrass_setup_seconds=0.1)
    fields.update(overrides)
    return ChurnRecord(**fields)


@pytest.mark.parametrize("overrides, status", [
    ({}, 0),
    ({"max_condition_number": 20.0}, 0),
    ({"max_condition_number": 20.01}, 1),
    ({"stayed_connected": False}, 1),
])
def test_churn_main_fails_on_kappa_past_twice_the_target_or_a_disconnect(monkeypatch, capsys,
                                                                          overrides, status):
    """``bench churn``'s exit status, CI's churn check: each violation alone
    fails, and a worst κ of exactly twice the target passes."""
    monkeypatch.setattr(churn, "run_churn", lambda *args, **kwargs: [_churn_record(**overrides)])
    assert churn.main(["--cases", "g2_circuit"]) == status


@pytest.mark.parametrize("option, value", [
    ("--cases", "no_such_case"),
    ("--deletion-fraction", "1.5"),
    ("--deletion-fraction", "-0.1"),
    ("--iterations", "0"),
])
def test_churn_main_rejects_a_bad_value_before_building_a_dataset(monkeypatch, capsys, option, value):
    """A bad option value exits 2 with one error line naming the option, the
    status argparse gives a malformed command line, and the harness is never
    called; exit 1 stays the status of a failed kappa or connectivity check."""
    calls = []
    monkeypatch.setattr(churn, "run_churn", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(SystemExit) as exit_info:
        churn.main([f"{option}={value}"])
    assert exit_info.value.code == 2
    error = capsys.readouterr().err.strip().splitlines()[-1]
    assert "error:" in error and option in error
    assert calls == []


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
