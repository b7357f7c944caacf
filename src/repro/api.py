"""The stable public API of the inGRASS reproduction — import from here.

One curated, flat surface over the package's layers::

    from repro.api import Sparsifier, SparsifierService, InGrassConfig

    driver = Sparsifier(InGrassConfig(kappa_guard_factor=1.8))  # None means defaults
    driver.setup(graph)
    driver.apply_batch(batch)                             # the one write path

    service = SparsifierService(InGrassConfig())          # concurrent-read deployment
    service.setup(graph)
    service.apply(batch)
    snap = service.snapshot()                             # immutable epoch view
    snap.effective_resistance(u, v)
    snap.solve(b)

The deeper module paths (``repro.core``, ``repro.spectral``, …) remain
importable — they are the implementation layers and keep their guarantees —
but anything a downstream application needs day-to-day is re-exported here,
and new code should prefer these names.  The table of old → new import paths
lives in the README ("API at a glance").
"""

from __future__ import annotations

from typing import Optional

# -- configuration ----------------------------------------------------------
from repro.core.config import InGrassConfig, LRDConfig

# -- drivers (write path) ---------------------------------------------------
from repro.core.incremental import InGrassSparsifier, IterationRecord, MixedUpdateResult

# -- persistence ------------------------------------------------------------
from repro.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    describe_checkpoint,
    is_checkpoint,
    load_checkpoint,
    save_checkpoint,
)

# -- service + snapshots (read path) ----------------------------------------
from repro.service import SparsifierService
from repro.snapshot import SparsifierSnapshot

# -- network front end (serving path) ---------------------------------------
from repro.server import (
    ServerConfig,
    ServerRequestError,
    SparsifierClient,
    SparsifierHTTPServer,
    connect,
    serve,
)

# -- graph substrate --------------------------------------------------------
from repro.graphs.graph import FrozenGraph, FrozenGraphError, Graph
from repro.graphs.components import is_connected
from repro.graphs.generators import (
    fe_mesh_2d,
    grid_circuit_2d,
    grid_circuit_3d,
)

# -- initial sparsifiers and quality metrics --------------------------------
from repro.sparsify.grass import GrassConfig, GrassSparsifier
from repro.sparsify.metrics import (
    SparsifierReport,
    evaluate_sparsifier,
    offtree_density,
    relative_density,
)

# -- spectral toolbox -------------------------------------------------------
from repro.spectral.condition import SpectralSolveError, relative_condition_number
from repro.spectral.effective_resistance import effective_resistance
from repro.spectral.solvers import (
    GroundedSolver,
    PCGSolver,
    SolveReport,
    conjugate_gradient,
    jacobi_preconditioner,
)

# -- streams and scenarios --------------------------------------------------
from repro.streams.edge_stream import (
    DeletionEvent,
    InsertionEvent,
    MixedBatch,
    WeightChangeEvent,
    mixed_edges,
    split_into_batches,
)
from repro.streams.scenarios import (
    DynamicScenario,
    DynamicScenarioConfig,
    ScenarioConfig,
    build_churn_scenario,
    build_deletion_scenario,
    build_dynamic_scenario,
    build_scenario,
    simulate_event_stream,
)


def Sparsifier(config: Optional[InGrassConfig] = None) -> InGrassSparsifier:
    """Build the incremental sparsifier driver for ``config``.

    The canonical constructor; ``None`` means defaults.
    """
    return InGrassSparsifier(config)


__all__ = [
    # configuration
    "InGrassConfig",
    "LRDConfig",
    # drivers
    "Sparsifier",
    "InGrassSparsifier",
    "IterationRecord",
    "MixedUpdateResult",
    # persistence
    "save_checkpoint",
    "load_checkpoint",
    "describe_checkpoint",
    "is_checkpoint",
    "CHECKPOINT_FORMAT_VERSION",
    # service / snapshots
    "SparsifierService",
    "SparsifierSnapshot",
    # network front end
    "serve",
    "connect",
    "ServerConfig",
    "SparsifierHTTPServer",
    "SparsifierClient",
    "ServerRequestError",
    # graphs
    "Graph",
    "FrozenGraph",
    "FrozenGraphError",
    "grid_circuit_2d",
    "grid_circuit_3d",
    "fe_mesh_2d",
    "is_connected",
    # initial sparsifiers + metrics
    "GrassConfig",
    "GrassSparsifier",
    "SparsifierReport",
    "evaluate_sparsifier",
    "offtree_density",
    "relative_density",
    # spectral
    "effective_resistance",
    "relative_condition_number",
    "SpectralSolveError",
    "GroundedSolver",
    "PCGSolver",
    "SolveReport",
    "conjugate_gradient",
    "jacobi_preconditioner",
    # streams / scenarios
    "MixedBatch",
    "InsertionEvent",
    "DeletionEvent",
    "WeightChangeEvent",
    "mixed_edges",
    "split_into_batches",
    "ScenarioConfig",
    "DynamicScenario",
    "DynamicScenarioConfig",
    "build_scenario",
    "build_churn_scenario",
    "build_deletion_scenario",
    "build_dynamic_scenario",
    "simulate_event_stream",
]
