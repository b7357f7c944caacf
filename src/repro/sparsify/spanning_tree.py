"""Spanning-tree backbones for spectral sparsifiers.

GRASS-style sparsifiers start from a spanning tree of the input graph and
then recover a small number of spectrally-critical off-tree edges.  This
module provides:

* :func:`maximum_weight_spanning_tree` — Kruskal on descending weight; the
  natural backbone for conductance-weighted graphs (strong edges carry the
  most current, keeping them minimises off-tree distortions).
* :func:`shortest_path_tree` — Dijkstra tree on the resistance metric.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.unionfind import UnionFind

WeightedEdge = Tuple[int, int, float]


def _kruskal(graph: Graph, order: np.ndarray) -> Graph:
    """Kruskal spanning forest taking edges in the given index order."""
    us, vs, ws = graph.edge_arrays()
    uf = UnionFind(graph.num_nodes)
    tree = Graph(graph.num_nodes)
    for index in order:
        u, v, w = int(us[index]), int(vs[index]), float(ws[index])
        if uf.union(u, v):
            tree.add_edge(u, v, w)
        if uf.num_sets == 1:
            break
    return tree


def maximum_weight_spanning_tree(graph: Graph) -> Graph:
    """Return the maximum-weight spanning tree (forest if disconnected)."""
    if graph.num_nodes == 0:
        return Graph(0)
    _, _, ws = graph.edge_arrays()
    if ws.size == 0:
        return Graph(graph.num_nodes)
    order = np.argsort(-ws, kind="stable")
    return _kruskal(graph, order)


def shortest_path_tree(graph: Graph, root: int = 0, *, metric: str = "resistance") -> Graph:
    """Dijkstra shortest-path tree from ``root``.

    ``metric="resistance"`` uses edge length ``1/w`` (electrical distance);
    ``metric="unit"`` uses hop count.
    """
    n = graph.num_nodes
    if n == 0:
        return Graph(0)
    if metric not in ("resistance", "unit"):
        raise ValueError(f"unknown metric {metric!r}")
    distance = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    distance[root] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, root)]
    visited = np.zeros(n, dtype=bool)
    while heap:
        dist, node = heapq.heappop(heap)
        if visited[node]:
            continue
        visited[node] = True
        for neighbor, weight in graph.neighbors(node).items():
            length = 1.0 / weight if metric == "resistance" else 1.0
            candidate = dist + length
            if candidate < distance[neighbor]:
                distance[neighbor] = candidate
                parent[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    tree = Graph(n)
    for node in range(n):
        if parent[node] >= 0:
            tree.add_edge(node, int(parent[node]), graph.weight(node, int(parent[node])))
    return tree


def off_tree_edges(graph: Graph, tree: Graph) -> List[WeightedEdge]:
    """Return graph edges absent from the tree as ``(u, v, w)`` triples."""
    return [(u, v, w) for u, v, w in graph.weighted_edges() if not tree.has_edge(u, v)]
