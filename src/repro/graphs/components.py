"""Connectivity analysis: connected components and bridges."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.graphs.graph import Graph


def _compact_by_first_appearance(labels: np.ndarray) -> np.ndarray:
    """Renumber labels to ``0 .. k-1`` in order of first appearance.

    Normalises whatever labelling the underlying component sweep produced to
    the convention :meth:`UnionFind.labels` has always used, so callers that
    compare labellings across code paths see identical arrays.
    """
    _, first_index = np.unique(labels, return_index=True)
    order = np.argsort(first_index)
    remap = np.empty(order.shape[0], dtype=np.int64)
    remap[order] = np.arange(order.shape[0])
    return remap[labels]


def connected_components_arrays(num_nodes: int, us: np.ndarray,
                                vs: np.ndarray) -> np.ndarray:
    """Component labels of the graph given by parallel edge arrays.

    One :func:`scipy.sparse.csgraph.connected_components` sweep instead of a
    Python union-find loop per edge — the per-batch connectivity pre-flight
    of the deletion path runs through here, so 10⁵-edge graphs pay a numpy
    pass, not 10⁵ Python-level union calls.  Labels are compacted in order of
    first appearance (node 0's component is label 0).
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components as _cc

    if num_nodes == 0:
        return np.zeros(0, dtype=np.int64)
    if us.shape[0] == 0:
        return np.arange(num_nodes, dtype=np.int64)
    data = np.ones(us.shape[0])
    adjacency = sp.coo_matrix((data, (us, vs)), shape=(num_nodes, num_nodes))
    _, labels = _cc(adjacency.tocsr(), directed=False)
    return _compact_by_first_appearance(labels.astype(np.int64, copy=False))


def connected_components(graph: Graph) -> np.ndarray:
    """Label every node with its connected-component index (0-based, compact)."""
    us, vs, _ = graph.edge_arrays()
    return connected_components_arrays(graph.num_nodes, us, vs)


def num_connected_components(graph: Graph) -> int:
    """Return the number of connected components of ``graph``."""
    if graph.num_nodes == 0:
        return 0
    labels = connected_components(graph)
    return int(labels.max()) + 1


def is_connected(graph: Graph) -> bool:
    """Return ``True`` when the graph has a single connected component."""
    if graph.num_nodes == 0:
        return True
    return num_connected_components(graph) == 1


def bridge_edges(graph: Graph) -> List[tuple]:
    """Return the bridges of ``graph`` as canonical ``(u, v)`` pairs.

    A bridge is an edge whose removal increases the number of connected
    components; the deletion streams avoid them so that edge removals never
    disconnect the tracked graph.  Iterative Tarjan lowlink computation,
    ``O(V + E)``.
    """
    n = graph.num_nodes
    if n == 0:
        return []
    disc = np.full(n, -1, dtype=np.int64)
    low = np.full(n, -1, dtype=np.int64)
    bridges: List[tuple] = []
    counter = 0
    for start in range(n):
        if disc[start] != -1:
            continue
        # Each stack frame: (node, parent, iterator over neighbors, parent-edge-seen flag).
        stack = [(start, -1, iter(graph.neighbors(start).keys()), False)]
        disc[start] = low[start] = counter
        counter += 1
        while stack:
            node, parent, neighbors, parent_seen = stack.pop()
            advanced = False
            for neighbor in neighbors:
                if neighbor == parent and not parent_seen:
                    # Skip the tree edge back to the parent exactly once so
                    # that parallel logical edges are not misdetected (the
                    # Graph container merges parallel edges, so one skip is
                    # always correct).
                    stack.append((node, parent, neighbors, True))
                    advanced = True
                    break
                if disc[neighbor] == -1:
                    disc[neighbor] = low[neighbor] = counter
                    counter += 1
                    stack.append((node, parent, neighbors, parent_seen))
                    stack.append((neighbor, node, iter(graph.neighbors(neighbor).keys()), False))
                    advanced = True
                    break
                low[node] = min(low[node], disc[neighbor])
            if advanced:
                continue
            # Frame exhausted: propagate the lowlink to the parent.
            if parent != -1:
                low[parent] = min(low[parent], low[node])
                if low[node] > disc[parent]:
                    bridges.append((parent, node) if parent <= node else (node, parent))
    return bridges


def non_bridge_edges(graph: Graph) -> List[tuple]:
    """Return the canonical ``(u, v)`` pairs whose removal keeps components intact."""
    bridges = set(bridge_edges(graph))
    return [edge for edge in graph.edges() if edge not in bridges]
