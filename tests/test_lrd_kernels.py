"""Oracle tests for the LRD kernels setup and the small-cluster splice share.

The greedy contraction (``_contract_level``) and the exact-diameter kernel
(``fragment_diameters`` and the dense Laplacian under it) run on plain lists
and dense blocks; the oracles below are the earlier implementations they
replaced — a ``UnionFind`` with a diameter dict, and CSR blocks with a
sparse row sum — kept here so every label, root and float can be compared to
the bit.  Both sides run in one process, so the comparison holds whatever
NumPy, SciPy or BLAS is installed.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InGrassConfig, InGrassSparsifier, lrd
from repro.graphs import Graph, fe_mesh_2d
from repro.spectral.effective_resistance import _EmbeddedResistances
from repro.streams import DynamicScenarioConfig, build_churn_scenario


# --------------------------------------------------------------------------- #
# Oracles: the union-find contraction and the CSR exact-diameter path
# --------------------------------------------------------------------------- #
class _OracleUnionFind:
    """Disjoint-set forest with union by size and full path compression."""

    def __init__(self, n: int) -> None:
        self._parent = np.arange(n, dtype=np.int64)
        self._size = np.ones(n, dtype=np.int64)

    def find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return int(root)

    def union(self, a: int, b: int) -> bool:
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return False
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        return True

    def labels(self) -> np.ndarray:
        """Compact labels, numbered in order of first appearance."""
        n = self._parent.shape[0]
        raw = np.fromiter((self.find(i) for i in range(n)), dtype=np.int64, count=n)
        remap: Dict[int, int] = {}
        labels = np.empty(n, dtype=np.int64)
        for i, root in enumerate(raw):
            key = int(root)
            if key not in remap:
                remap[key] = len(remap)
            labels[i] = remap[key]
        return labels


def _oracle_contraction(state, edge_resistances, threshold):
    """``(labels, cluster_diameters, merges, roots)`` of the union-find loop."""
    current = state.graph
    us, vs, _ = current.edge_arrays()
    order = np.argsort(edge_resistances, kind="stable")
    uf = _OracleUnionFind(current.num_nodes)
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
    labels = uf.labels()
    num_clusters = int(labels.max()) + 1 if labels.size else 0
    cluster_diameters = np.zeros(num_clusters)
    for node in range(current.num_nodes):
        cluster = int(labels[node])
        cluster_diameters[cluster] = max(cluster_diameters[cluster], diameters[uf.find(node)])
    roots = np.array([uf.find(node) for node in range(current.num_nodes)], dtype=np.int64)
    return labels, cluster_diameters, merges, roots


def _oracle_contract_level(state, edge_resistances, threshold):
    return _oracle_contraction(state, edge_resistances, threshold)[:3]


def _oracle_dense_laplacian(adjacency) -> np.ndarray:
    """Dense Laplacian of a CSR adjacency, degrees from the sparse row sum."""
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    laplacian = -adjacency.toarray()
    laplacian += 0.0
    np.fill_diagonal(laplacian, degrees)
    return laplacian


def _oracle_exact_diameter_csr(adjacency) -> float:
    n = adjacency.shape[0]
    if n < 2 or adjacency.nnz == 0:
        return 0.0
    pseudo = np.linalg.pinv(_oracle_dense_laplacian(adjacency))
    diagonal = np.diag(pseudo)
    resistances = diagonal[:, None] + diagonal[None, :] - 2.0 * pseudo
    return float(max(resistances.max(), 0.0))


def _oracle_fragment_diameters(subgraph: Graph, local_fragments: List[np.ndarray],
                               exact_limit: int) -> List[float]:
    """One CSR block per fragment (``adjacency[f][:, f]``), sparse row sums."""
    adjacency = subgraph.csr_view()
    diameters: List[float] = []
    for fragment in local_fragments:
        if fragment.shape[0] <= 1:
            diameters.append(0.0)
            continue
        block = adjacency if len(local_fragments) == 1 else adjacency[fragment][:, fragment]
        if block.shape[0] <= exact_limit:
            diameters.append(_oracle_exact_diameter_csr(block))
        else:
            diameters.append(lrd._tree_diameter_bound_csr(block))
    return diameters


def _oracle_edge_resistances(self, graph=None):
    """Embedded edge resistances read through a Python list of pairs."""
    target = self._graph if graph is None else graph
    return self.resistances(target.edges())


def _hex(values) -> List[str]:
    return [float(value).hex() for value in np.asarray(values).tolist()]


# --------------------------------------------------------------------------- #
# Random inputs
# --------------------------------------------------------------------------- #
TIED_WEIGHTS = (0.5, 1.0, 2.0)


@st.composite
def connected_graphs(draw, min_nodes: int = 2, max_nodes: int = 80):
    """A connected weighted graph: a random spanning tree plus extra edges,
    in a drawn edge order, weights tied or continuous."""
    n = draw(st.integers(min_nodes, max_nodes))
    tied = draw(st.booleans())
    edges = {(draw(st.integers(0, child - 1)), child) for child in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    edges = draw(st.permutations(sorted(edges)))
    if tied:
        weights = draw(st.lists(st.sampled_from(TIED_WEIGHTS), min_size=len(edges), max_size=len(edges)))
    else:
        weights = draw(st.lists(st.floats(0.05, 20.0), min_size=len(edges), max_size=len(edges)))
    us = np.array([u for u, _ in edges], dtype=np.int64)
    vs = np.array([v for _, v in edges], dtype=np.int64)
    return Graph.from_arrays(n, us, vs, np.array(weights, dtype=float))


class TestContraction:
    @given(graph=connected_graphs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_union_find_oracle(self, graph, data):
        n = graph.num_nodes
        carried = data.draw(st.one_of(
            st.just([0.0] * n),
            st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n),
        ))
        _, _, weights = graph.edge_arrays()
        resistances = 1.0 / weights
        total = float(sum(carried)) + float(resistances.sum())
        threshold = total * data.draw(st.floats(0.0, 1.1))
        state = lrd._ContractionState(graph=graph, node_labels=np.arange(n, dtype=np.int64),
                                      diameters=np.array(carried, dtype=float))

        labels, diameters, merges = lrd._contract_level(state, resistances, threshold)
        oracle_labels, oracle_diameters, oracle_merges, oracle_roots = \
            _oracle_contraction(state, resistances, threshold)

        assert labels.dtype == np.int64
        assert np.array_equal(labels, oracle_labels)
        assert merges == oracle_merges
        assert _hex(diameters) == _hex(oracle_diameters)
        # Same forest, not just the same partition: union by size hangs the
        # same root under the same root, ties included.
        roots, _, _ = lrd._greedy_merge(state, resistances, threshold)
        assert np.array_equal(roots, oracle_roots)


class TestExactDiameterKernel:
    @given(graph=connected_graphs(max_nodes=lrd.EXACT_DIAMETER_LIMIT), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_csr_oracle(self, graph, data):
        n = graph.num_nodes
        parts = data.draw(st.integers(1, min(4, n)))
        rest = data.draw(st.lists(st.integers(0, parts - 1), min_size=n - parts, max_size=n - parts))
        owner = np.array(data.draw(st.permutations(list(range(parts)) + rest)))
        local_fragments = [np.flatnonzero(owner == part) for part in range(parts)]
        limit = lrd.EXACT_DIAMETER_LIMIT

        laplacian = lrd._dense_laplacian(lrd._dense_adjacency(graph))
        assert laplacian.tobytes() == _oracle_dense_laplacian(graph.csr_view()).tobytes()
        diameters = lrd.fragment_diameters(graph, local_fragments, limit)
        oracle = _oracle_fragment_diameters(graph, local_fragments, limit)
        assert _hex(diameters) == _hex(oracle)

    def test_large_subgraph_slices_its_csr(self):
        # Above the exact limit the kernel bounds big fragments by the tree
        # path and still takes exact diameters of the small ones.
        n = 12
        us = np.array([i for i in range(n - 1)] + [0])
        vs = np.array([i + 1 for i in range(n - 1)] + [n - 1])
        graph = Graph.from_arrays(n, np.minimum(us, vs), np.maximum(us, vs), np.linspace(0.5, 3.0, n))
        fragments = [np.arange(0, 9), np.arange(9, 12)]
        assert _hex(lrd.fragment_diameters(graph, fragments, 4)) == \
            _hex(_oracle_fragment_diameters(graph, fragments, 4))


# --------------------------------------------------------------------------- #
# Replay: whole streams with production kernels against the oracles
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tie_stream():
    """A unit-weight mesh (every resistance ties) and a 10-batch churn stream."""
    return build_churn_scenario(fe_mesh_2d(300, seed=0), DynamicScenarioConfig(
        num_iterations=10, deletion_fraction=0.4, condition_dense_limit=400, seed=0))


def _replay(scenario, guard) -> List[tuple]:
    driver = InGrassSparsifier(InGrassConfig(kappa_guard_factor=guard, kappa_guard_dense_limit=400))
    driver.setup(scenario.graph, scenario.initial_sparsifier,
                 target_condition_number=scenario.initial_condition_number)
    trace = []
    for batch in [None, *scenario.batches]:
        if batch is not None:
            driver.apply_batch(batch)
        levels = driver.setup_result.hierarchy.levels
        trace.append((
            tuple(array.tobytes() for array in driver.sparsifier.edge_arrays()),
            tuple(level.labels.tobytes() for level in levels),
            tuple(tuple(_hex(level.cluster_diameters)) for level in levels),
        ))
    return trace


@pytest.mark.parametrize("guard", [None, 1.2])
def test_stream_replay_matches_oracle_kernels(tie_stream, monkeypatch, guard):
    production = _replay(tie_stream, guard)
    with monkeypatch.context() as patch:
        patch.setattr(lrd, "_contract_level", _oracle_contract_level)
        patch.setattr(lrd, "fragment_diameters", _oracle_fragment_diameters)
        patch.setattr(lrd, "_dense_laplacian",
                      lambda dense: _oracle_dense_laplacian(sp.csr_matrix(dense)))
        patch.setattr(_EmbeddedResistances, "edge_resistances", _oracle_edge_resistances)
        oracle = _replay(tie_stream, guard)
    assert len(production) == len(oracle) == len(tie_stream.batches) + 1
    for batch, (ours, theirs) in enumerate(zip(production, oracle)):
        assert ours == theirs, f"diverged after batch {batch}"
