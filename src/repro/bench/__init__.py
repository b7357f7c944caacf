"""Benchmark harness: dataset registry, experiment runners, table formatting."""

from repro.bench.datasets import (
    DATASETS,
    QUICK_CASES,
    SCALABILITY_CASES,
    TABLE_CASES,
    DatasetSpec,
    build_dataset,
    get_dataset,
)
from repro.bench.harness import (
    HarnessConfig,
    run_churn,
    run_churn_case,
    run_figure4,
    run_table1,
    run_table1_case,
    run_table2,
    run_table2_case,
    run_table3,
)
from repro.bench.records import (
    ChurnRecord,
    Figure4Record,
    Table1Record,
    Table2Record,
    Table3Record,
)
from repro.bench.tables import format_table, format_value, percent

__all__ = [
    "DATASETS",
    "QUICK_CASES",
    "TABLE_CASES",
    "SCALABILITY_CASES",
    "DatasetSpec",
    "get_dataset",
    "build_dataset",
    "HarnessConfig",
    "run_table1",
    "run_table1_case",
    "run_table2",
    "run_table2_case",
    "run_table3",
    "run_figure4",
    "run_churn",
    "run_churn_case",
    "Table1Record",
    "Table2Record",
    "Table3Record",
    "Figure4Record",
    "ChurnRecord",
    "format_table",
    "format_value",
    "percent",
]
