"""Baseline sparsifiers and sparsifier quality metrics."""

from repro.sparsify.grass import GrassConfig, GrassResult, GrassSparsifier
from repro.sparsify.metrics import (
    SparsifierReport,
    evaluate_sparsifier,
    offtree_density,
    relative_density,
)
from repro.sparsify.random_baseline import (
    RandomIncrementalUpdater,
    RandomSparsifier,
    RandomSparsifierResult,
    RandomUpdateResult,
    random_sparsify,
)
from repro.sparsify.spanning_tree import (
    maximum_weight_spanning_tree,
    off_tree_edges,
    shortest_path_tree,
)

__all__ = [
    "GrassConfig",
    "GrassResult",
    "GrassSparsifier",
    "RandomSparsifier",
    "RandomSparsifierResult",
    "RandomIncrementalUpdater",
    "RandomUpdateResult",
    "random_sparsify",
    "SparsifierReport",
    "evaluate_sparsifier",
    "relative_density",
    "offtree_density",
    "maximum_weight_spanning_tree",
    "shortest_path_tree",
    "off_tree_edges",
]
