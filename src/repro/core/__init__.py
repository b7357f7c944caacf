"""inGRASS core: LRD decomposition, cluster hierarchy, incremental updates."""

from repro.core.config import InGrassConfig, LRDConfig
from repro.core.distortion import DistortionBatch, score_edges
from repro.core.filtering import (
    FilterAction,
    FilterDecision,
    FilterSummary,
    SimilarityFilter,
)
from repro.core.hierarchy import ClusterHierarchy, LRDLevel
from repro.core.incremental import (
    InGrassSparsifier,
    IterationRecord,
    MixedUpdateResult,
    ReweightResult,
)
from repro.core.lrd import cluster_diameter_bound, decompose_node_subset, lrd_decompose
from repro.core.maintenance import HierarchyMaintainer, MaintenanceStats, SpliceReport
from repro.core.setup import SetupResult, run_setup
from repro.core.update import (
    KappaGuardReport,
    RemovalResult,
    UpdateResult,
    run_kappa_guard,
    run_removal,
    run_update,
)

__all__ = [
    "InGrassConfig",
    "LRDConfig",
    "InGrassSparsifier",
    "IterationRecord",
    "MixedUpdateResult",
    "lrd_decompose",
    "ClusterHierarchy",
    "LRDLevel",
    "DistortionBatch",
    "score_edges",
    "SimilarityFilter",
    "FilterAction",
    "FilterDecision",
    "FilterSummary",
    "HierarchyMaintainer",
    "MaintenanceStats",
    "SpliceReport",
    "ReweightResult",
    "cluster_diameter_bound",
    "decompose_node_subset",
    "SetupResult",
    "run_setup",
    "UpdateResult",
    "run_update",
    "RemovalResult",
    "run_removal",
    "KappaGuardReport",
    "run_kappa_guard",
]
