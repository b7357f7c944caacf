"""Effective-resistance computation: exact and Krylov-approximated.

The effective resistance ``R(p, q)`` between two nodes of a weighted graph
(viewing each edge as a resistor of conductance ``w``) is

    R(p, q) = b_pq^T L^+ b_pq

where ``b_pq`` is the signed indicator vector of the pair and ``L^+`` the
Laplacian pseudo-inverse.  Exact values come from grounded direct solves
(:class:`ExactResistanceCalculator`); scalable estimates come from the Krylov
surrogate eigenvectors of :mod:`repro.spectral.krylov`
(:class:`ApproxResistanceCalculator`), which is what the inGRASS setup phase
uses (equation (3) of the paper).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.spectral.krylov import build_krylov_basis, krylov_resistance_matrix
from repro.spectral.solvers import GroundedSolver
from repro.utils.rng import SeedLike
from repro.utils.validation import check_node_index

NodePair = Tuple[int, int]


class ExactResistanceCalculator:
    """Exact effective resistances via direct Laplacian solves.

    Each distinct ``p`` requires one linear solve whose solution is cached, so
    querying many pairs sharing endpoints stays cheap.  Intended for graphs up
    to a few tens of thousands of nodes (tests, validation, small benches).
    The Laplacian is factorised at construction: build a new calculator after
    the graph changes.
    """

    def __init__(self, graph: Graph) -> None:
        if graph.num_nodes < 2:
            raise ValueError("effective resistance needs at least two nodes")
        self._graph = graph
        self._solver = GroundedSolver.from_graph(graph)
        self._potential_cache: dict[int, np.ndarray] = {}

    def _potentials(self, node: int) -> np.ndarray:
        """Return ``L^+ e_node`` (cached)."""
        if node not in self._potential_cache:
            rhs = np.zeros(self._graph.num_nodes)
            rhs[node] = 1.0
            self._potential_cache[node] = self._solver.solve(rhs)
        return self._potential_cache[node]

    def resistance(self, p: int, q: int) -> float:
        """Exact effective resistance between nodes ``p`` and ``q``."""
        n = self._graph.num_nodes
        p = check_node_index(p, n, "p")
        q = check_node_index(q, n, "q")
        if p == q:
            return 0.0
        x_p = self._potentials(p)
        x_q = self._potentials(q)
        value = (x_p[p] - x_p[q]) - (x_q[p] - x_q[q])
        return float(max(value, 0.0))

    def resistances(self, pairs: Iterable[NodePair]) -> np.ndarray:
        """Exact resistances for an iterable of node pairs."""
        return np.array([self.resistance(p, q) for p, q in pairs], dtype=float)

    def edge_resistances(self, graph: Optional[Graph] = None) -> np.ndarray:
        """Exact resistances of every edge of ``graph`` (default: own graph)."""
        target = self._graph if graph is None else graph
        return self.resistances(target.edges())


class _EmbeddedResistances:
    """Resistance queries answered from an ``(n, m)`` node embedding whose
    squared Euclidean row distances approximate effective resistances.

    The embedding is built once, at construction, from the graph as it was
    then: build a new calculator after the graph changes.
    """

    def __init__(self, graph: Graph, embedding: np.ndarray) -> None:
        self._graph = graph
        self._embedding = embedding

    @property
    def embedding(self) -> np.ndarray:
        """The ``(n, m)`` node embedding matrix."""
        return self._embedding

    @property
    def order(self) -> int:
        """Embedding dimension ``m``."""
        return int(self._embedding.shape[1])

    def resistance(self, p: int, q: int) -> float:
        """Approximate effective resistance between ``p`` and ``q``."""
        n = self._graph.num_nodes
        p = check_node_index(p, n, "p")
        q = check_node_index(q, n, "q")
        if p == q:
            return 0.0
        diff = self._embedding[p] - self._embedding[q]
        return float(diff @ diff)

    def resistances(self, pairs: Iterable[NodePair]) -> np.ndarray:
        """Approximate resistances for many pairs at once (vectorised)."""
        pair_list = list(pairs)
        if not pair_list:
            return np.zeros(0)
        ps = np.fromiter((p for p, _ in pair_list), dtype=np.int64, count=len(pair_list))
        qs = np.fromiter((q for _, q in pair_list), dtype=np.int64, count=len(pair_list))
        diff = self._embedding[ps] - self._embedding[qs]
        return np.einsum("ij,ij->i", diff, diff)

    def edge_resistances(self, graph: Optional[Graph] = None) -> np.ndarray:
        """Approximate resistances of every edge of ``graph`` (default: own graph)."""
        target = self._graph if graph is None else graph
        us, vs, _ = target.edge_arrays()
        diff = self._embedding[us] - self._embedding[vs]
        return np.einsum("ij,ij->i", diff, diff)


class ApproxResistanceCalculator(_EmbeddedResistances):
    """Krylov-subspace approximation of effective resistances (paper eq. (3)).

    The calculator embeds every node into ``R^m`` (``m = O(log N)``) such that
    the squared Euclidean distance between two node embeddings approximates
    their effective resistance; batch queries then reduce to vectorised row
    arithmetic.
    """

    def __init__(self, graph: Graph, order: Optional[int] = None, *, seed: SeedLike = None) -> None:
        if graph.num_nodes < 2:
            raise ValueError("effective resistance needs at least two nodes")
        basis = build_krylov_basis(graph, order, seed=seed)
        super().__init__(graph, krylov_resistance_matrix(basis))


class JLResistanceCalculator(_EmbeddedResistances):
    """Johnson–Lindenstrauss resistance embedding via Laplacian solves.

    Following Spielman & Srivastava, the effective resistance satisfies
    ``R(p, q) = ||W^{1/2} B L^+ b_pq||²`` where ``B`` is the incidence matrix
    and ``W`` the edge-weight diagonal.  Projecting the ``|E|``-dimensional
    embedding onto ``k = O(log N)`` random ±1 directions preserves all pairwise
    distances within ``1 ± ε``, so each node receives a ``k``-dimensional
    vector whose squared Euclidean distances are accurate resistance
    estimates.  Building the embedding costs ``k`` Laplacian solves — cheap on
    the near-tree sparsifiers the inGRASS setup phase works on — and this is
    the high-accuracy alternative to the solver-free Krylov surrogate.
    """

    def __init__(self, graph: Graph, dimensions: Optional[int] = None, *, seed: SeedLike = None) -> None:
        if graph.num_nodes < 2:
            raise ValueError("effective resistance needs at least two nodes")
        from repro.utils.rng import as_rng

        rng = as_rng(seed)
        n = graph.num_nodes
        if dimensions is None:
            dimensions = max(8, 4 * int(np.ceil(np.log2(max(n, 2)))))
        dimensions = min(dimensions, max(2, graph.num_edges))
        solver = GroundedSolver.from_graph(graph)
        incidence = graph.incidence_matrix()
        _, _, weights = graph.edge_arrays()
        sqrt_weights = np.sqrt(weights)
        # Random ±1/sqrt(k) projection applied to the weighted incidence matrix.
        projection = rng.choice([-1.0, 1.0], size=(dimensions, graph.num_edges)) / np.sqrt(dimensions)
        projected_incidence = (projection * sqrt_weights[np.newaxis, :]) @ incidence  # (k, n) dense
        embedding = np.empty((n, dimensions))
        for row in range(dimensions):
            embedding[:, row] = solver.solve(np.asarray(projected_incidence[row]).ravel())
        super().__init__(graph, embedding)


def make_resistance_calculator(graph: Graph, method: str = "jl", *, seed: SeedLike = None):
    """Factory for resistance calculators.

    Parameters
    ----------
    method:
        ``"exact"`` (direct solves per pair), ``"jl"`` (Johnson–Lindenstrauss
        embedding, accurate, needs ``O(log N)`` solves) or ``"krylov"``
        (solver-free surrogate of the paper's equation (3)).  The embeddings
        take ``O(log N)`` dimensions.
    """
    if method == "exact":
        return ExactResistanceCalculator(graph)
    if method == "jl":
        return JLResistanceCalculator(graph, seed=seed)
    if method == "krylov":
        return ApproxResistanceCalculator(graph, seed=seed)
    raise ValueError(f"unknown resistance method {method!r}; expected 'exact', 'jl' or 'krylov'")


def effective_resistance(graph: Graph, p: int, q: int) -> float:
    """One-shot exact effective resistance (convenience wrapper)."""
    return ExactResistanceCalculator(graph).resistance(p, q)


def tree_path_resistances(tree: Graph, pairs: Iterable[NodePair]) -> np.ndarray:
    """Resistance of tree paths: sum of ``1/w`` along the unique tree path.

    For a spanning tree the effective resistance between two nodes equals the
    series resistance of the unique path connecting them; this is the quantity
    GRASS-style methods use to rank off-tree edges (the "stretch").  The
    implementation roots the tree once and answers pair queries through
    lowest-common-ancestor style prefix sums.
    """
    n = tree.num_nodes
    if n == 0:
        return np.zeros(0)
    # Root the tree at node 0 with a BFS, recording parent and prefix resistance.
    parent = np.full(n, -1, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    prefix = np.zeros(n, dtype=float)
    visited = np.zeros(n, dtype=bool)
    from collections import deque

    queue = deque([0])
    visited[0] = True
    order: List[int] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for neighbor, weight in tree.neighbors(node).items():
            if not visited[neighbor]:
                visited[neighbor] = True
                parent[neighbor] = node
                depth[neighbor] = depth[node] + 1
                prefix[neighbor] = prefix[node] + 1.0 / weight
                queue.append(neighbor)
    if not visited.all():
        raise ValueError("tree_path_resistances requires a connected (spanning) tree")

    def lca_resistance(p: int, q: int) -> float:
        # Walk the deeper node up until depths match, then walk both up.
        resistance = 0.0
        a, b = p, q
        while depth[a] > depth[b]:
            a = parent[a]
        while depth[b] > depth[a]:
            b = parent[b]
        while a != b:
            a = parent[a]
            b = parent[b]
        ancestor = a
        return prefix[p] + prefix[q] - 2.0 * prefix[ancestor]

    return np.array([0.0 if p == q else lca_resistance(int(p), int(q)) for p, q in pairs], dtype=float)
