"""Graph substrate: containers, Laplacians, generators and connectivity."""

from repro.graphs.components import (
    bridge_edges,
    connected_components,
    is_connected,
    non_bridge_edges,
    num_connected_components,
)
from repro.graphs.generators import (
    airfoil_mesh,
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    delaunay_graph,
    fe_mesh_2d,
    fe_mesh_3d,
    grid_circuit_2d,
    grid_circuit_3d,
    paper_figure2_graph,
    path_graph,
    sphere_mesh,
    watts_strogatz_graph,
)
from repro.graphs.graph import FrozenGraph, FrozenGraphError, Graph, canonical_edge
from repro.graphs.laplacian import (
    adjacency_matrix,
    grounded_laplacian,
    is_laplacian,
    laplacian_from_edges,
    laplacian_matrix,
)
from repro.graphs.unionfind import UnionFind
from repro.graphs.validation import (
    GraphValidationError,
    removals_keep_connected,
    validate_new_edges,
    validate_removals,
    validate_sparsifier_support,
)

__all__ = [
    "Graph",
    "FrozenGraph",
    "FrozenGraphError",
    "canonical_edge",
    "UnionFind",
    "connected_components",
    "num_connected_components",
    "is_connected",
    "bridge_edges",
    "non_bridge_edges",
    "adjacency_matrix",
    "laplacian_matrix",
    "grounded_laplacian",
    "laplacian_from_edges",
    "is_laplacian",
    "grid_circuit_2d",
    "grid_circuit_3d",
    "delaunay_graph",
    "fe_mesh_2d",
    "fe_mesh_3d",
    "sphere_mesh",
    "airfoil_mesh",
    "watts_strogatz_graph",
    "barabasi_albert_graph",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "paper_figure2_graph",
    "GraphValidationError",
    "validate_sparsifier_support",
    "validate_new_edges",
    "validate_removals",
    "removals_keep_connected",
]
