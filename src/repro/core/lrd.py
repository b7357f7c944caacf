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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import LRDConfig
from repro.core.hierarchy import ClusterHierarchy, LRDLevel
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


def _estimate_edge_resistances(graph: Graph, config: LRDConfig, level_index: int) -> np.ndarray:
    """Resistance estimate of every edge of ``graph`` (S1)."""
    if graph.num_edges == 0:
        return np.zeros(0)
    if graph.num_nodes < 3:
        # Tiny contracted graphs: series formula is exact enough.
        _, _, weights = graph.edge_arrays()
        return 1.0 / weights
    calculator = make_resistance_calculator(
        graph,
        config.resistance_method,
        seed=(config.seed if not isinstance(config.seed, np.random.Generator) else config.seed),
    )
    resistances = calculator.edge_resistances()
    # Effective resistance of an edge can never exceed the edge's own
    # resistance (1/w); clamping repairs approximation overshoot.
    _, _, weights = graph.edge_arrays()
    return np.minimum(np.maximum(resistances, 0.0), 1.0 / weights)


def _contract_level(state: _ContractionState, edge_resistances: np.ndarray,
                    threshold: float) -> Tuple[np.ndarray, np.ndarray, int]:
    """Greedy bounded-diameter contraction (S2).

    Returns ``(new_labels_for_current_nodes, new_cluster_diameters, merges)``.
    """
    current = state.graph
    us, vs, _ = current.edge_arrays()
    order = np.argsort(edge_resistances, kind="stable")
    uf = UnionFind(current.num_nodes)
    diameters: Dict[int, float] = {node: float(state.diameters[node]) for node in range(current.num_nodes)}
    merges = 0
    for index in order:
        u, v = int(us[index]), int(vs[index])
        root_u, root_v = uf.find(u), uf.find(v)
        if root_u == root_v:
            continue
        merged_diameter = diameters[root_u] + diameters[root_v] + float(edge_resistances[index])
        if merged_diameter > threshold:
            continue
        uf.union(root_u, root_v)
        new_root = uf.find(root_u)
        diameters[new_root] = merged_diameter
        merges += 1
    labels = uf.labels(compact=True)
    num_clusters = int(labels.max()) + 1 if labels.size else 0
    cluster_diameters = np.zeros(num_clusters)
    for node in range(current.num_nodes):
        cluster = int(labels[node])
        cluster_diameters[cluster] = max(cluster_diameters[cluster], diameters[uf.find(node)])
    return labels, cluster_diameters, merges


def _build_quotient(current: Graph, labels: np.ndarray, num_clusters: int) -> Graph:
    """Contract clusters into supernodes, merging parallel edges by weight sum (S3)."""
    quotient = Graph(num_clusters)
    for u, v, w in current.weighted_edges():
        cu, cv = int(labels[u]), int(labels[v])
        if cu != cv:
            quotient.add_edge(cu, cv, w, merge="add")
    return quotient


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
def induced_subgraph(graph: Graph, nodes: np.ndarray) -> Tuple[Graph, np.ndarray]:
    """Return the subgraph induced by ``nodes`` plus the original-id mapping.

    The subgraph relabels ``nodes`` to ``0 .. k-1`` (in input order); the
    returned array maps local ids back to the original ones.  Only edges with
    *both* endpoints inside ``nodes`` are kept, so by Rayleigh monotonicity
    every effective resistance measured on the subgraph upper-bounds the
    resistance between the same nodes in the full graph.

    The adjacency structures are filled directly (the inputs come from a
    validated :class:`Graph`, re-validating every edge would dominate the
    maintenance layer's splice cost).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    local = {int(node): index for index, node in enumerate(nodes.tolist())}
    sub = Graph(nodes.shape[0])
    edge_map = sub._edges
    adjacency = sub._adjacency
    source_adjacency = graph._adjacency
    for node, index in local.items():
        for neighbor, weight in source_adjacency[node].items():
            other = local.get(int(neighbor))
            if other is not None and index < other:
                edge_map[(index, other)] = weight
                adjacency[index][other] = weight
                adjacency[other][index] = weight
    sub._invalidate_views()
    return sub, nodes


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


def _dense_laplacian(adjacency) -> np.ndarray:
    """Dense Laplacian of a CSR adjacency without sparse intermediates.

    Negating the dense adjacency and writing the row sums on the (empty)
    diagonal produces exactly the floats of ``(diags(deg) - A).toarray()`` —
    negation and assignment are exact, and the degrees come from the sparse
    row sum so the accumulation order over stored entries is unchanged
    (a dense ``sum(axis=1)`` would pairwise-sum over interleaved zeros and
    round differently) — while skipping the sparse construction overhead
    that dominates at the small sizes the exact diameter path runs on.
    """
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    laplacian = -adjacency.toarray()
    # Negating the implicit zeros produced ``-0.0``; adding ``+0.0``
    # canonicalises them back (LAPACK's SVD is bit-sensitive to the sign of
    # zero) while leaving every other entry untouched.
    laplacian += 0.0
    np.fill_diagonal(laplacian, degrees)
    return laplacian


def _exact_diameter_csr(adjacency) -> float:
    """Exact resistance diameter of a (small, connected) subgraph.

    One dense pseudo-inverse of the Laplacian gives all pairwise resistances
    at once (``R[p, q] = L⁺[p, p] + L⁺[q, q] - 2 L⁺[p, q]``) — for the
    cluster sizes this is used on, orders of magnitude cheaper than per-pair
    grounded solves.  ``adjacency`` is the symmetric weighted CSR adjacency.
    """
    n = adjacency.shape[0]
    if n < 2 or adjacency.nnz == 0:
        return 0.0
    pseudo = np.linalg.pinv(_dense_laplacian(adjacency))
    diagonal = np.diag(pseudo)
    resistances = diagonal[:, None] + diagonal[None, :] - 2.0 * pseudo
    return float(max(resistances.max(), 0.0))


def _subgraph_diameter_bound_csr(adjacency, exact_limit: int) -> float:
    """Diameter bound of an already-extracted, connected CSR adjacency."""
    if adjacency.shape[0] <= exact_limit:
        return _exact_diameter_csr(adjacency)
    return _tree_diameter_bound_csr(adjacency)


def _tree_diameter_bound(subgraph: Graph) -> float:
    """Graph-object wrapper over :func:`_tree_diameter_bound_csr`."""
    if subgraph.num_edges == 0:
        return 0.0
    return _tree_diameter_bound_csr(subgraph.csr_view())


def _exact_diameter(subgraph: Graph) -> float:
    """Graph-object wrapper over :func:`_exact_diameter_csr`."""
    if subgraph.num_nodes < 2 or subgraph.num_edges == 0:
        return 0.0
    return _exact_diameter_csr(subgraph.csr_view())


def _subgraph_diameter_bound(subgraph: Graph, exact_limit: int) -> float:
    """Diameter bound of an already-built, connected subgraph (no re-checks)."""
    if subgraph.num_nodes <= exact_limit:
        return _exact_diameter(subgraph)
    return _tree_diameter_bound(subgraph)


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
    subgraph, _ = induced_subgraph(graph, nodes)
    components = _local_components(subgraph)
    if len(components) != 1:
        raise ValueError(
            f"cluster of {nodes.shape[0]} nodes is not internally connected "
            f"({len(components)} components); split it before bounding its diameter"
        )
    return _subgraph_diameter_bound(subgraph, exact_limit)


def fragment_diameters_csr(adjacency, local_fragments: List[np.ndarray],
                           exact_limit: int) -> List[float]:
    """Diameter bound for each (connected) fragment of a CSR adjacency.

    ``local_fragments`` hold row/column indices of ``adjacency``; a fragment
    that covers the whole matrix is bounded without re-slicing, others get a
    ``adjacency[f][:, f]`` submatrix — bit-identical to rebuilding the induced
    subgraph's own adjacency because CSR content depends only on the edge set.
    """
    diameters: List[float] = []
    for fragment in local_fragments:
        if fragment.shape[0] <= 1:
            diameters.append(0.0)
        elif len(local_fragments) == 1:
            diameters.append(_subgraph_diameter_bound_csr(adjacency, exact_limit))
        else:
            block = adjacency[fragment][:, fragment]
            diameters.append(_subgraph_diameter_bound_csr(block, exact_limit))
    return diameters


def fragment_diameters(subgraph: Graph, local_fragments: List[np.ndarray],
                       exact_limit: int) -> List[float]:
    """Diameter bound for each (connected) fragment of an induced subgraph.

    ``local_fragments`` hold local node ids of ``subgraph``.  Shared by the
    contraction-based and the connectivity-based splitting paths so the
    single-fragment special case lives in exactly one place; delegates to the
    CSR kernel so both call styles share one implementation.
    """
    return fragment_diameters_csr(subgraph.csr_view(), local_fragments, exact_limit)


def _local_components_csr(adjacency) -> List[np.ndarray]:
    """Connected components of a CSR adjacency as index arrays (largest first).

    ``scipy.sparse.csgraph.connected_components`` labels components in
    ascending order of their smallest member, and a stable argsort over the
    labels keeps each component's members ascending — exactly the ordering
    the original python BFS produced (scan from node 0, ``sorted`` members,
    stable largest-first sort).
    """
    from scipy.sparse.csgraph import connected_components

    n = adjacency.shape[0]
    if n == 0:
        return []
    num_components, labels = connected_components(adjacency, directed=False)
    if num_components == 1:
        return [np.arange(n, dtype=np.int64)]
    order = np.argsort(labels, kind="stable")
    boundaries = np.flatnonzero(np.diff(labels[order])) + 1
    components = [members.astype(np.int64, copy=False)
                  for members in np.split(order, boundaries)]
    components.sort(key=len, reverse=True)
    return components


def _local_components(subgraph: Graph) -> List[np.ndarray]:
    """Connected components of a small graph as local-id arrays (largest first)."""
    return _local_components_csr(subgraph.csr_view())


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
    subgraph, mapping = induced_subgraph(sparsifier, nodes)

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
    # decomposition), so contraction happens between atomic units.  Parallel
    # edges are merged with ``np.add.at`` — its unbuffered sequential adds
    # reproduce the scalar ``merge="add"`` accumulation order exactly — and
    # the quotient's edge dict is filled in first-occurrence order so the
    # stable contraction argsort sees the same tie-break order as before.
    num_atoms = int(atom_labels.max()) + 1
    quotient = Graph(num_atoms)
    sub_us, sub_vs, sub_ws = subgraph.edge_arrays()
    atom_us = atom_labels[sub_us]
    atom_vs = atom_labels[sub_vs]
    cross = atom_us != atom_vs
    if np.any(cross):
        lo = np.minimum(atom_us[cross], atom_vs[cross])
        hi = np.maximum(atom_us[cross], atom_vs[cross])
        cross_ws = sub_ws[cross]
        keys = lo * np.int64(num_atoms) + hi
        _, first_positions, inverse = np.unique(keys, return_index=True, return_inverse=True)
        merged = np.zeros(first_positions.shape[0])
        np.add.at(merged, inverse, cross_ws)
        order = np.argsort(first_positions, kind="stable")
        edge_map = quotient._edges
        adjacency = quotient._adjacency
        for position in order.tolist():
            edge_position = int(first_positions[position])
            qu, qv = int(lo[edge_position]), int(hi[edge_position])
            weight = float(merged[position])
            edge_map[(qu, qv)] = weight
            adjacency[qu][qv] = weight
            adjacency[qv][qu] = weight
        quotient._invalidate_views()

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
            pseudo = np.linalg.pinv(_dense_laplacian(quotient.csr_view()))
            qu, qv, quotient_weights = quotient.edge_arrays()
            diagonal = np.diag(pseudo)
            edge_resistances = np.maximum(diagonal[qu] + diagonal[qv] - 2.0 * pseudo[qu, qv], 0.0)
            edge_resistances = np.minimum(edge_resistances, 1.0 / quotient_weights)
        else:
            edge_resistances = _estimate_edge_resistances(quotient, config, 0)
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
    fragments = [np.sort(mapping[members]) for members in local_fragments]
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

    for level_index in range(MAX_LEVELS):
        if state.graph.num_nodes <= 1 or state.graph.num_edges == 0:
            break
        edge_resistances = _estimate_edge_resistances(state.graph, config, level_index)
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
        quotient = _build_quotient(state.graph, labels, num_clusters)
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
            extra = float(np.sum(1.0 / np.array([w for _, _, w in remaining.weighted_edges()])))
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
