"""Sparsifier quality metrics: density, condition number, empirical similarity.

These are the quantities reported across Tables I-III of the paper, gathered
into a single :class:`SparsifierReport` so benchmark code and examples print a
consistent summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.graphs.components import is_connected
from repro.graphs.graph import Graph
from repro.spectral.condition import DENSE_LIMIT_DEFAULT, condition_estimate
from repro.spectral.quadratic import sample_similarity
from repro.utils.rng import SeedLike


@dataclass
class SparsifierReport:
    """Quality summary of a sparsifier ``H`` relative to a graph ``G``."""

    num_nodes: int
    graph_edges: int
    sparsifier_edges: int
    relative_density: float
    offtree_density: float
    density_over_nodes: float
    condition_number: Optional[float]
    lambda_max: Optional[float]
    lambda_min: Optional[float]
    empirical_condition_lower_bound: Optional[float]
    connected: bool

    def as_dict(self) -> dict:
        """Return the report as a plain dictionary (for table formatting)."""
        return {
            "num_nodes": self.num_nodes,
            "graph_edges": self.graph_edges,
            "sparsifier_edges": self.sparsifier_edges,
            "relative_density": self.relative_density,
            "offtree_density": self.offtree_density,
            "density_over_nodes": self.density_over_nodes,
            "condition_number": self.condition_number,
            "lambda_max": self.lambda_max,
            "lambda_min": self.lambda_min,
            "empirical_condition_lower_bound": self.empirical_condition_lower_bound,
            "connected": self.connected,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kappa = f"{self.condition_number:.2f}" if self.condition_number is not None else "n/a"
        return (
            f"SparsifierReport(nodes={self.num_nodes}, |E_G|={self.graph_edges}, "
            f"|E_H|={self.sparsifier_edges}, rel_density={self.relative_density:.3f}, "
            f"kappa={kappa}, connected={self.connected})"
        )


def relative_density(graph: Graph, sparsifier: Graph) -> float:
    """Return ``|E_H| / |E_G|`` — the sparsifier's share of the graph's edges."""
    if graph.num_edges == 0:
        raise ValueError("graph has no edges")
    return sparsifier.num_edges / graph.num_edges


def offtree_density(sparsifier: Graph) -> float:
    """Return ``(|E_H| - (|V| - 1)) / |V|`` — off-tree edges per node.

    This is the density measure the paper's tables report: a spanning tree has
    density 0 %, and "D = 10 %" means the sparsifier carries roughly one extra
    off-tree edge per ten nodes.
    """
    if sparsifier.num_nodes == 0:
        return 0.0
    return max(0, sparsifier.num_edges - (sparsifier.num_nodes - 1)) / sparsifier.num_nodes


def evaluate_sparsifier(graph: Graph, sparsifier: Graph, *, compute_condition: bool = True,
                        dense_limit: int = DENSE_LIMIT_DEFAULT, num_similarity_probes: int = 16,
                        seed: SeedLike = 0) -> SparsifierReport:
    """Compute the full quality report for ``sparsifier`` against ``graph``."""
    if graph.num_nodes != sparsifier.num_nodes:
        raise ValueError("graph and sparsifier must share the same node set")
    connected = is_connected(sparsifier) if sparsifier.num_nodes else True
    condition = lambda_max = lambda_min = None
    if compute_condition and connected and graph.num_edges and sparsifier.num_edges:
        estimate = condition_estimate(graph, sparsifier, dense_limit=dense_limit)
        condition = estimate.condition_number
        lambda_max = estimate.lambda_max
        lambda_min = estimate.lambda_min
    empirical = None
    if connected and graph.num_edges and sparsifier.num_edges and num_similarity_probes > 0:
        empirical = sample_similarity(graph, sparsifier, num_probes=num_similarity_probes,
                                      seed=seed).empirical_condition_number
    return SparsifierReport(
        num_nodes=graph.num_nodes,
        graph_edges=graph.num_edges,
        sparsifier_edges=sparsifier.num_edges,
        relative_density=relative_density(graph, sparsifier) if graph.num_edges else 0.0,
        offtree_density=offtree_density(sparsifier),
        density_over_nodes=sparsifier.density(),
        condition_number=condition,
        lambda_max=lambda_max,
        lambda_min=lambda_min,
        empirical_condition_lower_bound=empirical,
        connected=connected,
    )
