"""Spanning-tree backbones for spectral sparsifiers.

GRASS-style sparsifiers start from a spanning tree of the input graph
(ideally a low-stretch spanning tree, LSST) and then recover a small number of
spectrally-critical off-tree edges.  This module provides:

* :func:`maximum_weight_spanning_tree` — Kruskal on descending weight; the
  natural backbone for conductance-weighted graphs (strong edges carry the
  most current, keeping them minimises off-tree distortions).
* :func:`low_stretch_spanning_tree` — a practical LSST heuristic in the
  spirit of AKPW/petal decompositions: randomised ball growing on the
  resistance metric, shortest-path trees inside the balls, and recursion on
  the cluster quotient graph.  It is not the theoretically optimal
  construction, but produces trees with much lower average stretch than
  arbitrary trees on the mesh-like graphs the paper targets.
* :func:`shortest_path_tree` — Dijkstra tree on the resistance metric.
* :func:`total_stretch` / :func:`edge_stretches` — stretch diagnostics used by
  tests and the ablation benches.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.unionfind import UnionFind
from repro.spectral.effective_resistance import tree_path_resistances
from repro.utils.rng import SeedLike, as_rng

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


def _ball_growing_clusters(graph: Graph, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Partition nodes into clusters of resistance radius at most ``radius``.

    Random-order ball growing on the resistance metric (truncated Dijkstra
    from each not-yet-assigned seed).
    """
    n = graph.num_nodes
    labels = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    next_label = 0
    for seed in order:
        seed = int(seed)
        if labels[seed] >= 0:
            continue
        labels[seed] = next_label
        local_distance = {seed: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, seed)]
        while heap:
            dist, node = heapq.heappop(heap)
            if dist > local_distance.get(node, np.inf):
                continue
            for neighbor, weight in graph.neighbors(node).items():
                if labels[neighbor] >= 0 and labels[neighbor] != next_label:
                    continue
                candidate = dist + 1.0 / weight
                if candidate <= radius and candidate < local_distance.get(neighbor, np.inf):
                    local_distance[neighbor] = candidate
                    labels[neighbor] = next_label
                    heapq.heappush(heap, (candidate, neighbor))
        next_label += 1
    return labels


def _in_cluster_tree_edges(graph: Graph, labels: np.ndarray) -> List[Tuple[int, int]]:
    """Shortest-path (resistance) tree edges inside every cluster."""
    clusters: Dict[int, List[int]] = {}
    for node in range(graph.num_nodes):
        clusters.setdefault(int(labels[node]), []).append(node)
    edges: List[Tuple[int, int]] = []
    for members in clusters.values():
        if len(members) <= 1:
            continue
        member_set = set(members)
        root = members[0]
        distance = {root: 0.0}
        parent: Dict[int, int] = {}
        heap: List[Tuple[float, int]] = [(0.0, root)]
        done: set[int] = set()
        while heap:
            dist, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for neighbor, weight in graph.neighbors(node).items():
                if neighbor not in member_set:
                    continue
                candidate = dist + 1.0 / weight
                if candidate < distance.get(neighbor, np.inf):
                    distance[neighbor] = candidate
                    parent[neighbor] = node
                    heapq.heappush(heap, (candidate, neighbor))
        edges.extend((child, par) for child, par in parent.items())
    return edges


def _cluster_quotient(graph: Graph, labels: np.ndarray) -> Tuple[Graph, Dict[Tuple[int, int], Tuple[int, int]]]:
    """Contract clusters into supernodes.

    Returns the quotient graph (parallel inter-cluster edges merged by summing
    weights) plus, for every quotient edge, the heaviest original edge it
    represents — used to expand quotient tree edges back to original nodes.
    """
    num_clusters = int(labels.max()) + 1 if labels.size else 0
    quotient = Graph(num_clusters)
    representative: Dict[Tuple[int, int], Tuple[int, int]] = {}
    best_weight: Dict[Tuple[int, int], float] = {}
    for u, v, w in graph.weighted_edges():
        cu, cv = int(labels[u]), int(labels[v])
        if cu == cv:
            continue
        key = (cu, cv) if cu < cv else (cv, cu)
        if key in best_weight:
            quotient.increase_weight(key[0], key[1], w)
            if w > best_weight[key]:
                best_weight[key] = w
                representative[key] = (u, v)
        else:
            quotient.add_edge(key[0], key[1], w)
            best_weight[key] = w
            representative[key] = (u, v)
    return quotient, representative


def low_stretch_spanning_tree(graph: Graph, *, seed: SeedLike = None,
                              radius_factor: float = 4.0, max_levels: int = 64) -> Graph:
    """Practical low-stretch spanning tree via multilevel ball growing.

    Each level clusters the current (contracted) graph into resistance balls
    of geometrically growing radius, keeps a resistance shortest-path tree
    inside every ball, and contracts the balls into supernodes.  Inter-cluster
    connections chosen at coarser levels are expanded back to their heaviest
    representative edge in the original graph.  A final Kruskal pass over the
    collected edges removes any redundancy and tops the forest up to a
    spanning tree if necessary.
    """
    n = graph.num_nodes
    if n <= 1:
        return Graph(n)
    rng = as_rng(seed)
    _, _, ws = graph.edge_arrays()
    if ws.size == 0:
        return Graph(n)
    radius = radius_factor * float(np.median(1.0 / ws))

    chosen_edges: List[Tuple[int, int]] = []
    current = graph
    # current_edge_to_original[(cu, cv)] expands a current-level edge back to an
    # original-graph edge.
    current_edge_to_original: Dict[Tuple[int, int], Tuple[int, int]] = {
        (u, v): (u, v) for u, v in graph.edges()
    }

    for _level in range(max_levels):
        if current.num_nodes <= 1:
            break
        labels = _ball_growing_clusters(current, radius, rng)
        if int(labels.max()) + 1 == current.num_nodes:
            # No contraction happened: enlarge the radius and retry this level.
            radius *= 2.0
            continue
        for u, v in _in_cluster_tree_edges(current, labels):
            key = (u, v) if u < v else (v, u)
            chosen_edges.append(current_edge_to_original[key])
        quotient, representative = _cluster_quotient(current, labels)
        # Compose representative maps so quotient edges expand to original edges.
        next_edge_to_original: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for key, (u, v) in representative.items():
            inner_key = (u, v) if u < v else (v, u)
            next_edge_to_original[key] = current_edge_to_original[inner_key]
        current = quotient
        current_edge_to_original = next_edge_to_original
        radius *= 2.0

    # Assemble a spanning tree from the chosen edges, topping up if needed.
    uf = UnionFind(n)
    tree = Graph(n)
    for u, v in chosen_edges:
        if u != v and uf.union(u, v):
            tree.add_edge(u, v, graph.weight(u, v), merge="replace")
    if uf.num_sets > 1:
        us, vs, ws = graph.edge_arrays()
        order = np.argsort(-ws, kind="stable")
        for index in order:
            u, v, w = int(us[index]), int(vs[index]), float(ws[index])
            if uf.union(u, v):
                tree.add_edge(u, v, w, merge="replace")
            if uf.num_sets == 1:
                break
    return tree


def edge_stretches(graph: Graph, tree: Graph) -> np.ndarray:
    """Stretch of every graph edge over ``tree``: ``w_e * R_tree(u, v)``.

    The stretch of a tree edge is exactly 1; off-tree edges have stretch >= 1
    when the tree is a subgraph of ``graph`` with the same weights.
    """
    pairs = list(graph.edges())
    resistances = tree_path_resistances(tree, pairs)
    _, _, weights = graph.edge_arrays()
    return weights * resistances


def total_stretch(graph: Graph, tree: Graph) -> float:
    """Total stretch of ``graph`` over ``tree`` (lower is better for LSSTs)."""
    return float(edge_stretches(graph, tree).sum())


def off_tree_edges(graph: Graph, tree: Graph) -> List[WeightedEdge]:
    """Return graph edges absent from the tree as ``(u, v, w)`` triples."""
    return [(u, v, w) for u, v, w in graph.weighted_edges() if not tree.has_edge(u, v)]
