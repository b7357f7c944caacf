"""repro — a reproduction of *inGRASS: Incremental Graph Spectral
Sparsification via Low-Resistance-Diameter Decomposition* (DAC 2024).

The package is organised as:

* :mod:`repro.core` — the inGRASS algorithm itself (LRD decomposition,
  cluster hierarchy, incremental update engine);
* :mod:`repro.graphs` — graph containers, Laplacians, generators, connectivity;
* :mod:`repro.spectral` — effective resistances, Krylov surrogates,
  condition numbers, Laplacian solvers;
* :mod:`repro.sparsify` — from-scratch baselines (GRASS-style, random) and
  quality metrics;
* :mod:`repro.streams` — edge-insertion streams and experiment scenarios;
* :mod:`repro.bench` — the harness regenerating the paper's tables/figures.

The most common entry points are re-exported here; the curated application
surface (service, snapshots, solvers, scenarios — everything downstream code
needs) lives in :mod:`repro.api`, and ``python -m repro`` is the console
entry point (see :mod:`repro.cli`).
"""

from repro.core import (
    InGrassConfig,
    InGrassSparsifier,
    LRDConfig,
    lrd_decompose,
    run_removal,
    run_setup,
    run_update,
)
from repro.graphs import FrozenGraph, FrozenGraphError, Graph
from repro.service import SparsifierService
from repro.snapshot import SparsifierSnapshot
from repro.sparsify import (
    GrassConfig,
    GrassSparsifier,
    evaluate_sparsifier,
    offtree_density,
    relative_density,
)
from repro.spectral import effective_resistance, relative_condition_number
from repro.streams import (
    DynamicScenarioConfig,
    MixedBatch,
    ScenarioConfig,
    build_churn_scenario,
    build_dynamic_scenario,
    build_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "FrozenGraph",
    "FrozenGraphError",
    "SparsifierService",
    "SparsifierSnapshot",
    "InGrassConfig",
    "InGrassSparsifier",
    "LRDConfig",
    "lrd_decompose",
    "run_setup",
    "run_update",
    "run_removal",
    "GrassConfig",
    "GrassSparsifier",
    "evaluate_sparsifier",
    "relative_density",
    "offtree_density",
    "effective_resistance",
    "relative_condition_number",
    "ScenarioConfig",
    "build_scenario",
    "MixedBatch",
    "DynamicScenarioConfig",
    "build_dynamic_scenario",
    "build_churn_scenario",
    "__version__",
]
