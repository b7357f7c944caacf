"""Low-resistance-diameter (LRD) decomposition (Section III-B-2 of the paper).

The decomposition iteratively contracts the initial sparsifier into node
clusters whose effective-resistance diameter stays below a per-level
threshold:

* **(S1)** estimate the effective resistance of every edge of the current
  (contracted) sparsifier with the scalable embedding of Section III-B-1;
* **(S2)** contract edges in order of increasing resistance, merging two
  clusters only when the merged resistance diameter stays below the level's
  threshold (cluster diameters start at 0 for all singleton nodes);
* **(S3)** replace each contracted cluster with a supernode, aggregate
  parallel edges, carry the accumulated cluster diameters over, double the
  diameter threshold and move on to the next level.

After ``O(log N)`` levels every node carries one cluster index per level —
its resistance embedding vector — and the per-level cluster diameters give
the resistance upper bounds used by the update phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import LRDConfig
from repro.core.hierarchy import ClusterHierarchy, LRDLevel
from repro.graphs.components import _compact_by_first_appearance, num_connected_components
from repro.graphs.graph import Graph
from repro.graphs.unionfind import UnionFind
from repro.spectral.effective_resistance import make_resistance_calculator

#: Hard cap on the number of levels (and therefore on the embedding dimension).
MAX_LEVELS = 40
#: Cluster size up to which diameters are exact all-pairs resistances (one
#: dense pseudo-inverse); larger clusters get the spanning-tree path bound.
EXACT_DIAMETER_LIMIT = 64


@dataclass
class _ContractionState:
    """Working state carried between levels of the decomposition."""

    graph: Graph                 # current contracted sparsifier
    node_labels: np.ndarray      # original node -> current supernode
    diameters: np.ndarray        # resistance diameter carried by each supernode


def _estimate_edge_resistances(graph: Graph, config: LRDConfig) -> np.ndarray:
    """Resistance estimate of every edge of ``graph`` (S1)."""
    if graph.num_edges == 0:
        return np.zeros(0)
    if graph.num_nodes < 3:
        # Tiny contracted graphs: series formula is exact enough.
        _, _, weights = graph.edge_arrays()
        return 1.0 / weights
    calculator = make_resistance_calculator(graph, config.resistance_method, seed=config.seed)
    resistances = calculator.edge_resistances()
    # Effective resistance of an edge can never exceed the edge's own
    # resistance (1/w); clamping repairs approximation overshoot.
    _, _, weights = graph.edge_arrays()
    return np.minimum(np.maximum(resistances, 0.0), 1.0 / weights)


def _greedy_merge(state: _ContractionState, edge_resistances: np.ndarray,
                  threshold: float) -> Tuple[np.ndarray, List[float], int]:
    """Greedy bounded-diameter merging (S2) over a union-find forest.

    Edges are visited in order of increasing resistance (stable, so ties keep
    edge order); two clusters merge when ``d1 + d2 + r`` stays within
    ``threshold``, and the larger one's root absorbs the smaller (ties keep
    the first endpoint's root).  Plain lists and an inline path-halving find
    keep NumPy scalars out of the per-edge loop.  Returns ``(roots,
    diameters, merges)``: every node's final root, the diameter carried by
    each root, and the number of merges.
    """
    us, vs, _ = state.graph.edge_arrays()
    us, vs = us.tolist(), vs.tolist()
    resistances = edge_resistances.tolist()
    diameters = state.diameters.tolist()
    parent = list(range(len(diameters)))
    size = [1] * len(diameters)
    merges = 0
    for index in np.argsort(edge_resistances, kind="stable").tolist():
        u, v = us[index], vs[index]
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            continue
        merged_diameter = diameters[u] + diameters[v] + resistances[index]
        if merged_diameter > threshold:
            continue
        if size[u] < size[v]:
            u, v = v, u
        parent[v] = u
        size[u] += size[v]
        diameters[u] = merged_diameter
        merges += 1
    roots = np.array(parent, dtype=np.int64)
    while True:
        hop = roots[roots]
        if np.array_equal(hop, roots):
            return roots, diameters, merges
        roots = hop


def _contract_level(state: _ContractionState, edge_resistances: np.ndarray,
                    threshold: float) -> Tuple[np.ndarray, np.ndarray, int]:
    """Greedy bounded-diameter contraction (S2).

    Returns ``(new_labels_for_current_nodes, new_cluster_diameters, merges)``;
    clusters are numbered in order of first appearance.
    """
    roots, diameters, merges = _greedy_merge(state, edge_resistances, threshold)
    labels = _compact_by_first_appearance(roots)
    cluster_diameters = np.zeros(int(labels.max()) + 1 if labels.size else 0)
    cluster_diameters[labels] = np.array(diameters)[roots]
    return labels, cluster_diameters, merges


def _quotient(graph: Graph, labels: np.ndarray, num_clusters: int) -> Graph:
    """Contract clusters into supernodes, merging parallel edges by weight sum (S3).

    Parallel edges are merged with ``np.add.at`` — its unbuffered sequential
    adds reproduce an ``add_edge(merge="add")`` loop's accumulation order
    exactly — and the quotient's edges are laid out in first-occurrence
    order, so the stable contraction argsort sees that loop's tie-break
    order too.
    """
    us, vs, ws = graph.edge_arrays()
    cluster_us = labels[us]
    cluster_vs = labels[vs]
    cross = cluster_us != cluster_vs
    lo = np.minimum(cluster_us[cross], cluster_vs[cross])
    hi = np.maximum(cluster_us[cross], cluster_vs[cross])
    _, first_positions, inverse = np.unique(lo * np.int64(num_clusters) + hi,
                                            return_index=True, return_inverse=True)
    merged = np.zeros(first_positions.shape[0])
    np.add.at(merged, inverse, ws[cross])
    order = np.argsort(first_positions, kind="stable")
    firsts = first_positions[order]
    return Graph.from_arrays(num_clusters, lo[firsts], hi[firsts], merged[order])


def _initial_threshold(graph: Graph, config: LRDConfig) -> float:
    """Level-0 diameter threshold (median edge resistance unless configured)."""
    if config.initial_diameter is not None:
        return config.initial_diameter
    _, _, weights = graph.edge_arrays()
    if weights.size == 0:
        return 1.0
    return float(np.median(1.0 / weights))


# --------------------------------------------------------------------------- #
# Localized re-decomposition (maintenance support)
# --------------------------------------------------------------------------- #
def _tree_diameter_bound_csr(adjacency) -> float:
    """Resistance-diameter upper bound via a minimum-resistance spanning tree.

    For any spanning tree ``T`` of the (connected) subgraph, the effective
    resistance between two nodes is at most the series resistance of their
    tree path, so the longest tree path under ``1/w`` edge lengths bounds the
    resistance diameter.  The tree minimising total resistance keeps the
    bound reasonably tight; MST and the classic double-sweep diameter both
    run in scipy's C layer, which is what makes this the cheap path for
    clusters too large for exact all-pairs resistances.

    ``adjacency`` is the symmetric weighted CSR adjacency of the subgraph; it
    is not modified.
    """
    from scipy.sparse.csgraph import dijkstra, minimum_spanning_tree

    if adjacency.nnz == 0:
        return 0.0
    lengths = adjacency.copy()
    lengths.data = 1.0 / lengths.data
    tree = minimum_spanning_tree(lengths)
    # Double sweep: the farthest node from an arbitrary root, then the
    # farthest node from *that* one — their distance is the tree diameter.
    first = dijkstra(tree, directed=False, indices=0)
    turn = int(np.argmax(np.where(np.isfinite(first), first, -1.0)))
    second = dijkstra(tree, directed=False, indices=turn)
    return float(np.max(second[np.isfinite(second)]))


def _dense_adjacency(graph: Graph) -> np.ndarray:
    """Dense symmetric adjacency of a small graph (its CSR's ``toarray()``)."""
    us, vs, ws = graph.edge_arrays()
    adjacency = np.zeros((graph.num_nodes, graph.num_nodes))
    adjacency[us, vs] = ws
    adjacency[vs, us] = ws
    return adjacency


def _dense_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Dense Laplacian of a dense symmetric adjacency block.

    The degrees are ``np.add.reduceat`` over each row's nonzeros in column
    order, the very sum a CSR row sum makes over its (sorted) stored entries;
    a dense ``sum(axis=1)`` would pairwise-sum over interleaved zeros and
    round differently.  ``0.0 - A`` leaves the off-diagonal zeros ``+0.0``
    (LAPACK's SVD is bit-sensitive to the sign of zero), so the result equals
    ``(diags(deg) - A).toarray()`` of the CSR adjacency to the bit.
    """
    rows, cols = np.nonzero(adjacency)
    degrees = np.zeros(adjacency.shape[0])
    if rows.size:
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        degrees[rows[starts]] = np.add.reduceat(adjacency[rows, cols], starts)
    laplacian = 0.0 - adjacency
    np.fill_diagonal(laplacian, degrees)
    return laplacian


def _exact_diameter_dense(adjacency: np.ndarray) -> float:
    """Exact resistance diameter of a small, connected dense adjacency block.

    One dense pseudo-inverse of the Laplacian gives all pairwise resistances
    at once (``R[p, q] = L⁺[p, p] + L⁺[q, q] - 2 L⁺[p, q]``) — for the
    cluster sizes this is used on, orders of magnitude cheaper than per-pair
    grounded solves.  Rows must list their neighbours in the order of the
    CSR they came from (ascending ids), see :func:`_dense_laplacian`.
    """
    if adjacency.shape[0] < 2:
        return 0.0
    pseudo = np.linalg.pinv(_dense_laplacian(adjacency))
    diagonal = np.diag(pseudo)
    resistances = diagonal[:, None] + diagonal[None, :] - 2.0 * pseudo
    return float(max(resistances.max(), 0.0))


def cluster_diameter_bound(graph: Graph, nodes: np.ndarray, *, exact_limit: int = EXACT_DIAMETER_LIMIT) -> float:
    """Upper bound on the resistance diameter of ``nodes`` within ``graph``.

    Works on the induced subgraph (a restriction, hence conservative for the
    full graph): exact all-pairs resistances up to ``exact_limit`` nodes, the
    max-weight spanning-tree path bound beyond.  The bound is only meaningful
    when the induced subgraph is connected — disconnected inputs raise, since
    an infinite-resistance "cluster" should have been split by the caller.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.shape[0] <= 1:
        return 0.0
    subgraph = graph.induced_subgraph(nodes)
    components = num_connected_components(subgraph)
    if components != 1:
        raise ValueError(
            f"cluster of {nodes.shape[0]} nodes is not internally connected "
            f"({components} components); split it before bounding its diameter"
        )
    return fragment_diameters(subgraph, [np.arange(nodes.shape[0])], exact_limit)[0]


def fragment_diameters(subgraph: Graph, local_fragments: List[np.ndarray],
                       exact_limit: int) -> List[float]:
    """Diameter bound for each (connected) fragment of an induced subgraph.

    ``local_fragments`` hold ascending local node ids of ``subgraph``.  A
    subgraph of at most ``exact_limit`` nodes is densified once and every
    fragment's block sliced out of it; a larger one slices its CSR per
    fragment, for the exact diameter up to the limit and the spanning-tree
    bound beyond.  Ascending ids keep each block's rows in the column order
    of the subgraph's own CSR, so the exact diameters match it to the bit.
    """
    dense = _dense_adjacency(subgraph) if subgraph.num_nodes <= exact_limit else None
    diameters: List[float] = []
    for fragment in local_fragments:
        if fragment.shape[0] <= 1:
            diameters.append(0.0)
        elif dense is not None:
            diameters.append(_exact_diameter_dense(dense[np.ix_(fragment, fragment)]))
        else:
            block = subgraph.csr_view()[fragment][:, fragment]
            diameters.append(_exact_diameter_dense(block.toarray())
                             if fragment.shape[0] <= exact_limit
                             else _tree_diameter_bound_csr(block))
    return diameters


def decompose_node_subset(sparsifier: Graph, nodes: np.ndarray, threshold: float,
                          config: Optional[LRDConfig] = None, *,
                          atoms: Optional[np.ndarray] = None,
                          atom_diameters: Optional[np.ndarray] = None) -> Tuple[List[np.ndarray], List[float]]:
    """Re-run the bounded-diameter contraction (S2) on one node subset.

    This is the localized counterpart of one :func:`lrd_decompose` level: the
    induced subgraph of ``nodes`` is contracted greedily (cheapest estimated
    resistance first) subject to ``threshold``, and the resulting fragments
    are returned with *freshly computed* diameter bounds — the primitive the
    maintenance layer uses to splice a cluster whose interior lost edges.

    Parameters
    ----------
    sparsifier:
        The current sparsifier the subset lives in.
    nodes:
        Original node ids of the cluster being re-decomposed.
    threshold:
        Resistance-diameter budget of the cluster's level.
    config:
        LRD parameters (resistance estimation method); defaults to
        :class:`LRDConfig()`.
    atoms:
        Optional array (aligned with ``nodes``) grouping nodes into atomic
        units that must never be separated — the finer-level cluster labels.
        Honouring them preserves the hierarchy's nesting invariant.
    atom_diameters:
        Diameter carried by each atom label (mapping ``atom label -> bound``
        is positional over ``np.unique(atoms)``); zero when omitted.

    Returns
    -------
    (fragments, diameters):
        Original-node-id arrays (largest fragment first) and a valid
        resistance-diameter upper bound for each.
    """
    config = config if config is not None else LRDConfig()
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.shape[0] == 0:
        return [], []
    if nodes.shape[0] == 1:
        return [nodes], [0.0]
    subgraph = sparsifier.induced_subgraph(nodes)

    if atoms is None:
        atom_labels = np.arange(nodes.shape[0], dtype=np.int64)
        base_diameters = np.zeros(nodes.shape[0])
    else:
        atom_values, atom_labels = np.unique(np.asarray(atoms), return_inverse=True)
        if atom_diameters is None:
            base_diameters = np.zeros(atom_values.shape[0])
        else:
            base_diameters = np.asarray(atom_diameters, dtype=float)
            if base_diameters.shape[0] != atom_values.shape[0]:
                raise ValueError("atom_diameters must align with the unique atom labels")

    # Quotient of the induced subgraph by the atoms (S3 of the fresh
    # decomposition), so contraction happens between atomic units.
    num_atoms = int(atom_labels.max()) + 1
    quotient = _quotient(subgraph, atom_labels, num_atoms)

    # The quotient is disconnected exactly when the cluster interior was torn
    # apart — the solver-backed estimators need connectivity, so fall back to
    # the per-edge series bound (1/w >= true resistance, hence conservative
    # for the threshold test) whenever the subset is no longer whole.
    uf_probe = UnionFind(num_atoms)
    for u, v in quotient.edges():
        uf_probe.union(u, v)
    if uf_probe.num_sets == 1:
        if num_atoms <= 2 * EXACT_DIAMETER_LIMIT:
            # Small connected quotient: one dense pseudo-inverse gives exact
            # edge resistances — cheaper and tighter than the sampled
            # estimators at this size.
            pseudo = np.linalg.pinv(_dense_laplacian(_dense_adjacency(quotient)))
            qu, qv, quotient_weights = quotient.edge_arrays()
            diagonal = np.diag(pseudo)
            edge_resistances = np.maximum(diagonal[qu] + diagonal[qv] - 2.0 * pseudo[qu, qv], 0.0)
            edge_resistances = np.minimum(edge_resistances, 1.0 / quotient_weights)
        else:
            edge_resistances = _estimate_edge_resistances(quotient, config)
    elif quotient.num_edges:
        _, _, quotient_weights = quotient.edge_arrays()
        edge_resistances = 1.0 / quotient_weights
    else:
        edge_resistances = np.zeros(0)
    state = _ContractionState(
        graph=quotient,
        node_labels=np.arange(num_atoms, dtype=np.int64),
        diameters=base_diameters,
    )
    group_labels, _, _ = _contract_level(state, edge_resistances, threshold)

    node_groups = group_labels[atom_labels]
    num_groups = int(group_labels.max()) + 1 if group_labels.size else 0
    local_fragments = [np.flatnonzero(node_groups == group) for group in range(num_groups)]
    fragments = [np.sort(nodes[members]) for members in local_fragments]
    diameters = fragment_diameters(subgraph, local_fragments, EXACT_DIAMETER_LIMIT)
    order = sorted(range(len(fragments)), key=lambda index: len(fragments[index]), reverse=True)
    return [fragments[index] for index in order], [diameters[index] for index in order]


def lrd_decompose(sparsifier: Graph, config: Optional[LRDConfig] = None) -> ClusterHierarchy:
    """Run the multilevel LRD decomposition of ``sparsifier``.

    Parameters
    ----------
    sparsifier:
        The initial graph sparsifier ``H(0)`` (connected, weighted).
    config:
        Decomposition parameters; defaults to :class:`LRDConfig()`.

    Returns
    -------
    ClusterHierarchy
        Finest-to-coarsest stack of levels; the number of levels is
        ``O(log N)`` thanks to the geometric growth of the diameter threshold.
    """
    config = config if config is not None else LRDConfig()
    n = sparsifier.num_nodes
    if n == 0:
        raise ValueError("cannot decompose an empty graph")
    if n == 1 or sparsifier.num_edges == 0:
        level = LRDLevel(labels=np.zeros(n, dtype=np.int64), cluster_diameters=np.zeros(max(n, 1)),
                         diameter_threshold=0.0)
        return ClusterHierarchy([level])

    state = _ContractionState(
        graph=sparsifier,
        node_labels=np.arange(n, dtype=np.int64),
        diameters=np.zeros(n),
    )
    threshold = _initial_threshold(sparsifier, config)
    levels: List[LRDLevel] = []

    for _ in range(MAX_LEVELS):
        if state.graph.num_nodes <= 1 or state.graph.num_edges == 0:
            break
        edge_resistances = _estimate_edge_resistances(state.graph, config)
        labels, cluster_diameters, merges = _contract_level(state, edge_resistances, threshold)
        threshold *= config.growth_factor
        if merges == 0:
            # Nothing contracted at this threshold: grow it and retry without
            # recording a duplicate level (which would waste an embedding
            # dimension on information identical to the previous level).
            continue
        num_clusters = cluster_diameters.shape[0]
        # Compose with the original-node labelling of the previous level.
        original_labels = labels[state.node_labels]
        levels.append(
            LRDLevel(
                labels=original_labels.astype(np.int64),
                cluster_diameters=cluster_diameters.copy(),
                diameter_threshold=threshold / config.growth_factor,
            )
        )
        quotient = _quotient(state.graph, labels, num_clusters)
        state = _ContractionState(
            graph=quotient,
            node_labels=original_labels.astype(np.int64),
            diameters=cluster_diameters,
        )

    if not levels:
        # Degenerate case (e.g. two nodes whose single edge exceeds every
        # threshold tried): record the identity level so the hierarchy is
        # still usable.
        levels.append(
            LRDLevel(
                labels=np.arange(n, dtype=np.int64),
                cluster_diameters=np.zeros(n),
                diameter_threshold=threshold,
            )
        )
    # Always top the hierarchy with a single-cluster level so any two nodes
    # share a cluster at the coarsest level (needed for the resistance upper
    # bounds of the update phase).  Its diameter is the accumulated bound of
    # the last contraction state plus the resistances of the remaining edges.
    coarsest = levels[-1]
    if coarsest.num_clusters > 1:
        remaining = state.graph
        if remaining.num_edges:
            extra = float(np.sum(1.0 / remaining.edge_arrays()[2]))
        else:
            extra = 0.0
        top_diameter = float(coarsest.cluster_diameters.sum() + extra)
        levels.append(
            LRDLevel(
                labels=np.zeros(n, dtype=np.int64),
                cluster_diameters=np.array([max(top_diameter, 1e-12)]),
                diameter_threshold=max(top_diameter, threshold),
            )
        )
    return ClusterHierarchy(levels)
