"""Synthetic graph generators.

The paper evaluates on SuiteSparse matrices (circuit simulation grids,
finite-element meshes, Delaunay triangulations and large 2-D meshes).  Those
files are not available offline, so the benchmark harness substitutes
structurally analogous synthetic graphs produced here:

* :func:`grid_circuit_2d` / :func:`grid_circuit_3d` — resistor-grid power
  networks with randomised conductances and a sprinkling of long-range "via"
  connections (analogues of ``G2_circuit`` / ``G3_circuit``).
* :func:`delaunay_graph` — Delaunay triangulation of uniform random points
  (analogues of ``delaunay_n18`` … ``delaunay_n22``).
* :func:`fe_mesh_2d`, :func:`fe_mesh_3d`, :func:`sphere_mesh`,
  :func:`airfoil_mesh` — finite-element style meshes (analogues of
  ``fe_4elt2``, ``fe_ocean``, ``fe_sphere``, ``NACA15`` / ``M6`` / ``AS365`` /
  ``333SP``).
* :func:`watts_strogatz_graph`, :func:`barabasi_albert_graph` — the "social
  networks" family mentioned in the abstract.

All generators return connected :class:`repro.graphs.Graph` instances with
strictly positive weights, and every one accepts a ``seed`` for
reproducibility.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
import scipy.spatial

from repro.graphs.components import is_connected
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_positive, check_positive_int, check_probability


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def _random_weights(rng: np.random.Generator, count: int, low: float, high: float) -> np.ndarray:
    """Draw ``count`` log-uniform weights in ``[low, high]``.

    Circuit conductances span orders of magnitude, which log-uniform sampling
    mimics better than uniform sampling.
    """
    if low <= 0 or high < low:
        raise ValueError(f"invalid weight range [{low}, {high}]")
    if count == 0:
        return np.empty(0)
    return np.exp(rng.uniform(math.log(low), math.log(high), size=count))


def _ensure_connected(graph: Graph, rng: np.random.Generator, weight: float = 1.0) -> Graph:
    """Stitch connected components together with random bridge edges."""
    if is_connected(graph):
        return graph
    from repro.graphs.components import connected_components

    labels = connected_components(graph)
    num_components = int(labels.max()) + 1
    representatives = [int(np.flatnonzero(labels == c)[0]) for c in range(num_components)]
    for first, second in zip(representatives[:-1], representatives[1:]):
        graph.add_edge(first, second, weight, merge="add")
    return graph


def _grid_index_2d(row: int, col: int, cols: int) -> int:
    return row * cols + col


# --------------------------------------------------------------------------- #
# Circuit-style grids
# --------------------------------------------------------------------------- #
def grid_circuit_2d(
    rows: int,
    cols: Optional[int] = None,
    *,
    via_fraction: float = 0.02,
    weight_range: Tuple[float, float] = (0.1, 10.0),
    seed: SeedLike = None,
) -> Graph:
    """2-D resistor-grid circuit analogue of ``G2_circuit``.

    Nodes form a ``rows x cols`` lattice connected by nearest-neighbour
    resistors with log-uniform conductances; ``via_fraction * |E|`` extra
    random long-range edges model vias/straps that make power grids slightly
    non-planar.
    """
    rows = check_positive_int(rows, "rows")
    cols = rows if cols is None else check_positive_int(cols, "cols")
    check_probability(via_fraction, "via_fraction")
    rng = as_rng(seed)
    num_nodes = rows * cols
    graph = Graph(num_nodes)

    horizontal = [
        (_grid_index_2d(r, c, cols), _grid_index_2d(r, c + 1, cols))
        for r in range(rows)
        for c in range(cols - 1)
    ]
    vertical = [
        (_grid_index_2d(r, c, cols), _grid_index_2d(r + 1, c, cols))
        for r in range(rows - 1)
        for c in range(cols)
    ]
    lattice_edges = horizontal + vertical
    weights = _random_weights(rng, len(lattice_edges), *weight_range)
    for (u, v), w in zip(lattice_edges, weights):
        graph.add_edge(u, v, float(w))

    num_vias = int(round(via_fraction * len(lattice_edges)))
    via_weights = _random_weights(rng, num_vias, *weight_range)
    added = 0
    attempts = 0
    while added < num_vias and attempts < 20 * max(1, num_vias):
        attempts += 1
        u, v = rng.integers(0, num_nodes, size=2)
        if u == v or graph.has_edge(int(u), int(v)):
            continue
        graph.add_edge(int(u), int(v), float(via_weights[added]))
        added += 1
    return _ensure_connected(graph, rng)


def grid_circuit_3d(
    nx: int,
    ny: Optional[int] = None,
    nz: int = 3,
    *,
    weight_range: Tuple[float, float] = (0.1, 10.0),
    seed: SeedLike = None,
) -> Graph:
    """3-D (multi-layer) resistor grid — analogue of ``G3_circuit``.

    Models a power delivery network with ``nz`` metal layers; in-layer wires
    follow a 2-D lattice and inter-layer vias connect vertically adjacent
    nodes.
    """
    nx = check_positive_int(nx, "nx")
    ny = nx if ny is None else check_positive_int(ny, "ny")
    nz = check_positive_int(nz, "nz")
    rng = as_rng(seed)
    num_nodes = nx * ny * nz
    graph = Graph(num_nodes)

    def index(x: int, y: int, z: int) -> int:
        return (z * ny + y) * nx + x

    edges = []
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if x + 1 < nx:
                    edges.append((index(x, y, z), index(x + 1, y, z)))
                if y + 1 < ny:
                    edges.append((index(x, y, z), index(x, y + 1, z)))
                if z + 1 < nz:
                    edges.append((index(x, y, z), index(x, y, z + 1)))
    weights = _random_weights(rng, len(edges), *weight_range)
    for (u, v), w in zip(edges, weights):
        graph.add_edge(u, v, float(w))
    return _ensure_connected(graph, rng)


# --------------------------------------------------------------------------- #
# Delaunay / finite element meshes
# --------------------------------------------------------------------------- #
def _graph_from_simplices(points: np.ndarray, simplices: np.ndarray, rng: np.random.Generator,
                          weight_mode: str = "inverse_distance") -> Graph:
    """Build a graph from triangulation simplices.

    Edge weights follow ``weight_mode``:

    * ``"inverse_distance"`` — ``1 / (distance + eps)``, the natural FEM
      stiffness-like weighting where short edges are strong.
    * ``"unit"`` — all weights 1.
    * ``"random"`` — log-uniform in ``[0.1, 10]``.
    """
    num_nodes = points.shape[0]
    graph = Graph(num_nodes)
    edge_set = set()
    dim = simplices.shape[1]
    for simplex in simplices:
        for i in range(dim):
            for j in range(i + 1, dim):
                u, v = int(simplex[i]), int(simplex[j])
                if u == v:
                    continue
                key = (u, v) if u < v else (v, u)
                edge_set.add(key)
    edges = sorted(edge_set)
    if weight_mode == "inverse_distance":
        lengths = np.array([np.linalg.norm(points[u] - points[v]) for u, v in edges])
        scale = np.median(lengths) if lengths.size else 1.0
        weights = scale / (lengths + 1e-12)
    elif weight_mode == "unit":
        weights = np.ones(len(edges))
    elif weight_mode == "random":
        weights = _random_weights(rng, len(edges), 0.1, 10.0)
    else:
        raise ValueError(f"unknown weight_mode {weight_mode!r}")
    for (u, v), w in zip(edges, weights):
        graph.add_edge(u, v, float(w))
    return graph


def delaunay_graph(num_nodes: int, *, weight_mode: str = "unit",
                   seed: SeedLike = None) -> Graph:
    """Delaunay triangulation of uniform random points in the unit square.

    Structural analogue of the ``delaunay_nXX`` SuiteSparse family.  The
    SuiteSparse originals are unweighted patterns, so weights default to 1;
    pass ``weight_mode="inverse_distance"`` for a geometric weighting.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    if num_nodes < 4:
        raise ValueError("delaunay_graph needs at least 4 nodes")
    rng = as_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(num_nodes, 2))
    triangulation = scipy.spatial.Delaunay(points)
    graph = _graph_from_simplices(points, triangulation.simplices, rng, weight_mode)
    return _ensure_connected(graph, rng)


def fe_mesh_2d(num_nodes: int, *, irregularity: float = 0.3, weight_mode: str = "unit",
               seed: SeedLike = None) -> Graph:
    """2-D finite-element style mesh (analogue of ``fe_4elt2`` / ``NACA15``).

    Points are laid out on a jittered lattice (so element quality resembles a
    real mesh rather than a uniform random cloud) and triangulated.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    check_probability(irregularity, "irregularity")
    rng = as_rng(seed)
    side = max(2, int(round(math.sqrt(num_nodes))))
    xs, ys = np.meshgrid(np.linspace(0.0, 1.0, side), np.linspace(0.0, 1.0, side))
    points = np.column_stack([xs.ravel(), ys.ravel()])
    jitter = irregularity / side
    points = points + rng.uniform(-jitter, jitter, size=points.shape)
    points = points[:num_nodes] if points.shape[0] >= num_nodes else points
    triangulation = scipy.spatial.Delaunay(points)
    graph = _graph_from_simplices(points, triangulation.simplices, rng, weight_mode)
    return _ensure_connected(graph, rng)


def fe_mesh_3d(num_nodes: int, *, weight_mode: str = "unit", seed: SeedLike = None) -> Graph:
    """3-D tetrahedral mesh (analogue of ``fe_ocean``)."""
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    if num_nodes < 5:
        raise ValueError("fe_mesh_3d needs at least 5 nodes")
    rng = as_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(num_nodes, 3))
    triangulation = scipy.spatial.Delaunay(points)
    graph = _graph_from_simplices(points, triangulation.simplices, rng, weight_mode)
    return _ensure_connected(graph, rng)


def sphere_mesh(num_nodes: int, *, weight_mode: str = "unit", seed: SeedLike = None) -> Graph:
    """Triangulated mesh on the unit sphere (analogue of ``fe_sphere``).

    Points are sampled uniformly on the sphere and connected through the
    convex-hull triangulation, which for points on a sphere is exactly the
    spherical Delaunay triangulation.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    if num_nodes < 5:
        raise ValueError("sphere_mesh needs at least 5 nodes")
    rng = as_rng(seed)
    points = rng.standard_normal(size=(num_nodes, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    hull = scipy.spatial.ConvexHull(points)
    graph = _graph_from_simplices(points, hull.simplices, rng, weight_mode)
    return _ensure_connected(graph, rng)


def airfoil_mesh(num_nodes: int, *, weight_mode: str = "unit", seed: SeedLike = None) -> Graph:
    """Anisotropic mesh refined around an airfoil-like profile (``NACA15`` analogue).

    Half of the points are concentrated in a thin band around a camber line so
    that element sizes vary by orders of magnitude, reproducing the strongly
    graded meshes used for aerodynamic simulation.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    if num_nodes < 16:
        raise ValueError("airfoil_mesh needs at least 16 nodes")
    rng = as_rng(seed)
    num_near = num_nodes // 2
    num_far = num_nodes - num_near
    # Thin band of points hugging a parabolic camber line.
    x_near = rng.uniform(0.2, 0.8, size=num_near)
    camber = 0.5 + 0.1 * np.sin(math.pi * (x_near - 0.2) / 0.6)
    y_near = camber + rng.normal(scale=0.01, size=num_near)
    near = np.column_stack([x_near, y_near])
    far = rng.uniform(0.0, 1.0, size=(num_far, 2))
    points = np.vstack([near, far])
    triangulation = scipy.spatial.Delaunay(points)
    graph = _graph_from_simplices(points, triangulation.simplices, rng, weight_mode)
    return _ensure_connected(graph, rng)


# --------------------------------------------------------------------------- #
# Social-network style graphs
# --------------------------------------------------------------------------- #
def watts_strogatz_graph(num_nodes: int, k: int = 6, rewire_probability: float = 0.1,
                         *, seed: SeedLike = None) -> Graph:
    """Small-world graph (Watts–Strogatz), unit weights."""
    import networkx as nx

    num_nodes = check_positive_int(num_nodes, "num_nodes")
    k = check_positive_int(k, "k")
    check_probability(rewire_probability, "rewire_probability")
    rng = as_rng(seed)
    nx_seed = int(rng.integers(0, 2**31 - 1))
    nx_graph = nx.connected_watts_strogatz_graph(num_nodes, k, rewire_probability, seed=nx_seed)
    return Graph.from_networkx(nx_graph, default_weight=1.0)


def barabasi_albert_graph(num_nodes: int, attachment: int = 3, *, seed: SeedLike = None) -> Graph:
    """Preferential-attachment graph (Barabási–Albert), unit weights."""
    import networkx as nx

    num_nodes = check_positive_int(num_nodes, "num_nodes")
    attachment = check_positive_int(attachment, "attachment")
    rng = as_rng(seed)
    nx_seed = int(rng.integers(0, 2**31 - 1))
    nx_graph = nx.barabasi_albert_graph(num_nodes, attachment, seed=nx_seed)
    graph = Graph.from_networkx(nx_graph, default_weight=1.0)
    return _ensure_connected(graph, rng)


def path_graph(num_nodes: int, weight: float = 1.0) -> Graph:
    """Simple path ``0 - 1 - ... - n-1`` (handy in unit tests)."""
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    check_positive(weight, "weight")
    graph = Graph(num_nodes)
    for i in range(num_nodes - 1):
        graph.add_edge(i, i + 1, weight)
    return graph


def cycle_graph(num_nodes: int, weight: float = 1.0) -> Graph:
    """Simple cycle on ``num_nodes`` nodes."""
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    if num_nodes < 3:
        raise ValueError("cycle_graph needs at least 3 nodes")
    graph = path_graph(num_nodes, weight)
    graph.add_edge(num_nodes - 1, 0, weight)
    return graph


def complete_graph(num_nodes: int, weight: float = 1.0) -> Graph:
    """Complete graph (small sizes only; used to sanity-check resistances)."""
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    graph = Graph(num_nodes)
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            graph.add_edge(u, v, weight)
    return graph


def paper_figure2_graph() -> Graph:
    """The 14-node example sketched in Fig. 2/3 of the paper.

    The exact instance in the paper is only drawn, not listed, so this builds
    a comparable 14-node mesh-like sparsifier: two loosely connected clusters
    of 7 nodes each, used by the walkthrough examples and the filtering unit
    tests.
    """
    edges = [
        # Cluster A: nodes 0-6 (paper nodes 1-7)
        (0, 1, 2.0), (1, 2, 1.5), (2, 3, 1.0), (3, 4, 2.0),
        (4, 5, 1.0), (5, 6, 1.5), (6, 0, 1.0), (1, 4, 0.5),
        # Cluster B: nodes 7-13 (paper nodes 8-14)
        (7, 8, 2.0), (8, 9, 1.5), (9, 10, 1.0), (10, 11, 2.0),
        (11, 12, 1.0), (12, 13, 1.5), (13, 7, 1.0), (8, 11, 0.5),
        # Weak bridge between the clusters
        (3, 9, 0.2),
    ]
    return Graph(14, edges)
