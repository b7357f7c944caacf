"""Tests for the benchmark harness (datasets, runners, table formatting).

These keep the harness itself honest on tiny inputs; the actual paper-shape
numbers are produced by ``benchmarks/`` and the ``python -m repro bench <name>``
CLIs.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    DATASETS,
    QUICK_CASES,
    SCALABILITY_CASES,
    TABLE_CASES,
    HarnessConfig,
    build_dataset,
    format_table,
    format_value,
    get_dataset,
    percent,
    run_figure4,
    run_table1_case,
    run_table2_case,
    run_table3,
)
from repro.bench.table1 import print_table1
from repro.bench.table2 import print_table2
from repro.bench.table3 import print_table3
from repro.bench.figure4 import ascii_log_chart, print_figure4
from repro.graphs import is_connected

TINY = HarnessConfig(scale="small", seed=0, num_iterations=3, condition_dense_limit=400)


class TestDatasets:
    def test_registry_contents(self):
        assert set(QUICK_CASES) <= set(DATASETS)
        assert set(TABLE_CASES) <= set(DATASETS)
        assert set(SCALABILITY_CASES) <= set(DATASETS)

    @pytest.mark.parametrize("name", QUICK_CASES)
    def test_quick_cases_build_connected(self, name):
        graph = build_dataset(name, scale="small", seed=0)
        assert is_connected(graph)
        assert graph.num_nodes >= 64

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            get_dataset("nope")

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            get_dataset("g2_circuit").build(scale="huge")

    def test_scales_grow(self):
        small = build_dataset("delaunay_n10", scale="small", seed=0)
        medium = build_dataset("delaunay_n10", scale="medium", seed=0)
        assert medium.num_nodes > small.num_nodes

    def test_deterministic(self):
        assert build_dataset("fe_4elt2", seed=3) == build_dataset("fe_4elt2", seed=3)


class TestTableFormatting:
    def test_format_value(self):
        assert format_value(None) == "n/a"
        assert format_value(float("nan")) == "n/a"
        assert format_value(float("inf")) == "inf"
        assert format_value(3.14159, precision=2) == "3.14"
        assert format_value(123456.0) == "123456"
        assert format_value("text") == "text"

    def test_percent(self):
        assert percent(0.117) == "11.7%"
        assert percent(float("nan")) == "n/a"

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}]
        text = format_table(rows, ["a", "b"])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # aligned widths

    def test_format_table_header_mismatch(self):
        with pytest.raises(ValueError):
            format_table([], ["a"], headers=["x", "y"])


@pytest.mark.slow
class TestHarnessRunners:
    """End-to-end harness runs on the smallest quick case (slow-ish, ~30 s)."""

    def test_table1_record(self):
        record = run_table1_case("social_ws", TINY)
        assert record.num_nodes > 0
        assert record.grass_seconds > 0
        assert record.ingrass_setup_seconds > 0
        assert record.num_levels >= 1
        assert "Setup (s)" in print_table1([record])

    def test_table2_record_shape(self):
        record = run_table2_case("social_ws", TINY)
        # Timing shape: incremental updates are much cheaper than re-running
        # the from-scratch sparsifier at every iteration.
        assert record.ingrass_seconds < record.grass_seconds
        assert record.speedup > 1.0
        assert record.speedup_including_setup <= record.speedup
        # Density shape: the maintained sparsifier stays sparser than blindly
        # including every streamed edge.
        assert record.ingrass_density < record.final_offtree_density_all_edges
        assert record.grass_condition_number <= record.initial_condition_number * 1.5
        text = print_table2([record])
        assert "inGRASS-D" in text

    def test_table3_records(self):
        records = run_table3([0.12, 0.08], TINY, case="social_ws", final_density=0.3)
        assert len(records) == 2
        assert records[0].initial_offtree_density > records[1].initial_offtree_density
        # A sparser initial sparsifier has a (weakly) larger initial kappa.
        assert records[1].initial_condition_number >= records[0].initial_condition_number * 0.8
        assert "GRASS-D" in print_table3(records)

    def test_figure4_records(self):
        records = run_figure4(["social_ws"], TINY)
        assert len(records) == 1
        assert records[0].ingrass_total_seconds >= records[0].ingrass_update_seconds
        assert records[0].speedup > 1.0
        assert "GRASS" in print_figure4(records)
        assert "#" in ascii_log_chart(records)
