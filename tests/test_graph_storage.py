"""Tests of :class:`repro.graphs.graph.Graph`'s slot-array edge storage.

* A model test replays random mutation sequences against a plain-dict
  reference with the old dictionary semantics (edge order = dict insertion
  order) and compares every view after every step, with compaction forced
  often.
* The Laplacian builder and the grounded, shifted factorisation input are
  compared bit for bit with the scipy chain they replaced
  (``diags(deg) - A``, fancy-index grounding, ``+ 1e-12 * I``, CSC).
* Snapshot queries never build the frozen views' dictionaries.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.graph as graph_module
import repro.spectral.solvers as solvers
from repro.core import InGrassConfig, LRDConfig
from repro.core.incremental import InGrassSparsifier
from repro.graphs import grid_circuit_2d
from repro.graphs.graph import FrozenGraph, Graph
from repro.graphs.laplacian import laplacian_from_edges
from repro.spectral.solvers import GroundedSolver
from repro.streams.scenarios import DynamicScenarioConfig, build_dynamic_scenario

NODES = 9


# --------------------------------------------------------------------------- #
# Plain-dict reference: the storage semantics the slot arrays must reproduce
# --------------------------------------------------------------------------- #
class DictGraph:
    def __init__(self, num_nodes):
        self.edges = {}
        self.adjacency = [dict() for _ in range(num_nodes)]

    def _put(self, key, weight):
        self.edges[key] = weight
        self.adjacency[key[0]][key[1]] = weight
        self.adjacency[key[1]][key[0]] = weight

    def add_edge(self, u, v, weight, merge="add"):
        key = (min(u, v), max(u, v))
        if key in self.edges:
            if merge == "add":
                weight = self.edges[key] + weight
            elif merge == "max":
                weight = max(self.edges[key], weight)
            elif merge == "error":
                raise ValueError("exists")
        self._put(key, weight)

    def add_edges(self, edges, merge="add"):
        for u, v, weight in edges:
            self.add_edge(u, v, weight, merge)

    def remove_edge(self, u, v):
        key = (min(u, v), max(u, v))
        weight = self.edges.pop(key)
        del self.adjacency[key[0]][key[1]]
        del self.adjacency[key[1]][key[0]]
        return weight

    def remove_edges(self, pairs):
        return [(min(u, v), max(u, v), self.remove_edge(u, v)) for u, v in pairs]

    def set_weight(self, u, v, weight):
        key = (min(u, v), max(u, v))
        if key not in self.edges:
            raise KeyError(key)
        self._put(key, weight)

    def increase_weights(self, pairs, deltas):
        for (u, v), delta in zip(pairs, deltas):
            key = (min(u, v), max(u, v))
            if key not in self.edges:
                raise KeyError(key)
            self._put(key, self.edges[key] + delta)


def run_both(graph, reference, name, *args):
    """Apply one operation to both; they must fail alike and keep the same partial state."""
    outcomes = []
    for target in (graph, reference):
        try:
            outcomes.append(("ok", getattr(target, name)(*args)))
        except (KeyError, ValueError) as exc:
            outcomes.append(("raise", type(exc)))
    assert outcomes[0] == outcomes[1], (name, args)


def assert_same(graph, reference):
    us, vs, ws = graph.edge_arrays()
    assert graph.edge_arrays() is graph.edge_arrays()
    keys = list(reference.edges)
    assert list(zip(us.tolist(), vs.tolist())) == keys
    assert ws.tolist() == list(reference.edges.values())
    assert graph.edge_list() == [(u, v, w) for (u, v), w in reference.edges.items()]
    assert list(graph.weighted_edges()) == graph.edge_list()
    assert list(graph.edges()) == keys
    assert graph.num_edges == len(keys)
    for node in range(NODES):
        assert list(graph.neighbors(node).items()) == list(reference.adjacency[node].items())
    for u in range(NODES):
        for v in range(u + 1, NODES):
            assert graph.has_edge(v, u) == ((u, v) in reference.edges)
            assert graph.weight(u, v, default=-1.0) == reference.edges.get((u, v), -1.0)


nodes = st.integers(min_value=0, max_value=NODES - 1)
pairs = st.tuples(nodes, nodes).filter(lambda pair: pair[0] != pair[1])
weights = st.sampled_from([0.5, 1.0, 1.5, 2.0, 0.1, 3.0])
triples = st.builds(lambda pair, w: (pair[0], pair[1], w), pairs, weights)
merges = st.sampled_from(["add", "max", "replace", "error"])
operations = st.one_of(
    st.tuples(st.just("add_edge"), triples, merges),
    st.tuples(st.just("add_edges"), st.lists(triples, max_size=25), merges),
    st.tuples(st.just("add_edge_unchecked"), triples),
    st.tuples(st.just("remove_edge"), pairs),
    st.tuples(st.just("remove_edges"), st.lists(pairs, max_size=25)),
    st.tuples(st.just("set_weight"), triples),
    st.tuples(st.just("increase_weights"), st.lists(st.tuples(pairs, weights), max_size=10)),
    st.tuples(st.just("copy")),
    st.tuples(st.just("from_arrays")),
    st.tuples(st.just("thaw")),
)


class TestSlotStorageModel:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(operations, min_size=10, max_size=60))
    def test_every_view_matches_a_dict_graph(self, steps):
        with mock.patch.object(graph_module, "_COMPACT_MIN_TOMBSTONES", 4):
            graph, reference = Graph(NODES), DictGraph(NODES)
            for step in steps:
                kind = step[0]
                before = graph.edge_arrays()
                frozen = tuple(array.copy() for array in before)
                if kind == "add_edge":
                    (u, v, w), merge = step[1], step[2]
                    run_both(graph, reference, "add_edge", u, v, w, merge)
                elif kind == "add_edges":
                    run_both(graph, reference, "add_edges", step[1], step[2])
                elif kind == "add_edge_unchecked":
                    u, v, w = step[1]
                    graph.add_edge_unchecked(u, v, w)
                    reference.add_edge(u, v, w)
                elif kind == "remove_edge":
                    run_both(graph, reference, "remove_edge", *step[1])
                elif kind == "remove_edges":
                    run_both(graph, reference, "remove_edges", step[1])
                elif kind == "set_weight":
                    run_both(graph, reference, "set_weight", *step[1])
                elif kind == "increase_weights":
                    changes = step[1]
                    run_both(graph, reference, "increase_weights",
                              [pair for pair, _ in changes], [delta for _, delta in changes])
                elif kind == "copy":
                    graph = graph.copy()
                elif kind == "from_arrays":
                    graph = Graph.from_arrays(NODES, *graph.edge_arrays())
                else:  # a frozen view of the arrays, thawed by copy()
                    graph = FrozenGraph.from_arrays(NODES, *graph.edge_arrays()).copy()
                # Arrays handed out earlier never change under later mutations.
                for array, copy in zip(before, frozen):
                    assert np.array_equal(array, copy)
                assert_same(graph, reference)

    def test_compaction_keeps_order_and_content(self):
        graph, reference = Graph(40), DictGraph(40)
        edges = [(u, v, float(u + v + 1)) for u in range(40) for v in range(u + 1, min(u + 6, 40))]
        graph.add_edges(edges)
        reference.add_edges(edges)
        compactions = []
        real_compact = Graph._compact
        with mock.patch.object(Graph, "_compact",
                               lambda graph: compactions.append(1) or real_compact(graph)):
            for u, v, _ in edges[::2] + edges[1:40:2]:
                assert graph.remove_edge(u, v) == reference.remove_edge(u, v)
        graph.add_edges(edges[:10])
        reference.add_edges(edges[:10])
        assert compactions
        assert graph.edge_list() == [(u, v, w) for (u, v), w in reference.edges.items()]
        for node in range(40):
            assert list(graph.neighbors(node).items()) == list(reference.adjacency[node].items())


# --------------------------------------------------------------------------- #
# Laplacian builder and factorisation input, bit for bit
# --------------------------------------------------------------------------- #
def reference_system(num_nodes, us, vs, ws):
    """The scipy chain the builder replaced."""
    adjacency = sp.csr_matrix((np.concatenate([ws, ws]), (np.concatenate([us, vs]),
                                                          np.concatenate([vs, us]))),
                              shape=(num_nodes, num_nodes))
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    laplacian = (sp.diags(degrees) - adjacency).tocsr()
    keep = np.array([i for i in range(num_nodes) if i != 0], dtype=np.int64)
    reduced = sp.csr_matrix(laplacian)[keep][:, keep].tocsr()
    shifted = sp.csc_matrix(reduced + 1e-12 * sp.identity(reduced.shape[0]))
    return laplacian, reduced, shifted


def assert_bitwise(actual, expected):
    assert actual.format == expected.format and actual.shape == expected.shape
    assert actual.data.dtype == expected.data.dtype
    assert np.array_equal(actual.data.view(np.uint64), expected.data.view(np.uint64))
    assert actual.indices.dtype == expected.indices.dtype
    assert np.array_equal(actual.indices, expected.indices)
    assert np.array_equal(actual.indptr, expected.indptr)


def check_graph(graph, monkeypatch):
    us, vs, ws = graph.edge_arrays()
    laplacian, reduced, shifted = reference_system(graph.num_nodes, us, vs, ws)
    assert_bitwise(graph.laplacian_matrix(), laplacian)
    assert_bitwise(laplacian_from_edges(graph.num_nodes, us, vs, ws), laplacian)
    factored = []
    real_splu = solvers.spla.splu

    def recording_splu(matrix, **kwargs):
        factored.append(matrix)
        return real_splu(matrix, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(solvers.spla, "splu", recording_splu)
        solver = GroundedSolver.from_graph(graph)
    assert_bitwise(solver.reduced, reduced)
    (matrix,) = factored
    assert_bitwise(sp.csc_matrix(matrix), shifted)


class TestLaplacianBuilder:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.floats(min_value=0.0, max_value=0.9))
    def test_random_graphs(self, num_nodes, seed, isolated_fraction):
        rng = np.random.default_rng(seed)
        graph = Graph(num_nodes)
        # Some nodes stay isolated: their rows lack a diagonal entry.
        active = rng.permutation(num_nodes)[:max(2, int(num_nodes * (1 - isolated_fraction)))]
        for _ in range(3 * num_nodes):
            u, v = rng.choice(active, size=2, replace=False)
            graph.add_edge(int(u), int(v), float(rng.lognormal()))
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_graph(graph, monkeypatch)

    def test_graph_and_sparsifier_along_a_churn_stream(self, monkeypatch):
        graph = grid_circuit_2d(12, seed=3)
        stream = build_dynamic_scenario(graph, DynamicScenarioConfig(
            initial_offtree_density=0.10, final_offtree_density=0.30, num_iterations=5,
            deletion_fraction=0.4, condition_dense_limit=400, seed=1))
        driver = InGrassSparsifier(InGrassConfig(lrd=LRDConfig(seed=0), seed=0))
        driver.setup(stream.graph, stream.initial_sparsifier,
                     target_condition_number=stream.initial_condition_number)
        for batch in stream.batches:
            driver.apply_batch(batch)
            check_graph(driver.graph, monkeypatch)
            check_graph(driver.sparsifier, monkeypatch)


# --------------------------------------------------------------------------- #
# Snapshots read their captured arrays
# --------------------------------------------------------------------------- #
def test_snapshot_queries_never_build_the_frozen_views_dicts(monkeypatch):
    graph = grid_circuit_2d(10, seed=2)
    stream = build_dynamic_scenario(graph, DynamicScenarioConfig(
        initial_offtree_density=0.10, final_offtree_density=0.30, num_iterations=3,
        deletion_fraction=0.3, condition_dense_limit=400, seed=2))
    driver = InGrassSparsifier(InGrassConfig(lrd=LRDConfig(seed=0), seed=0))
    driver.setup(stream.graph, stream.initial_sparsifier,
                 target_condition_number=stream.initial_condition_number)
    driver.apply_batch(stream.batches[0])
    snap = driver.snapshot()

    def refuse(self):
        raise AssertionError("a snapshot query built a frozen view's dictionaries")

    monkeypatch.setattr(FrozenGraph, "_maps", refuse)
    assert snap.effective_resistance(0, 5) > 0
    assert snap.effective_resistance(0, 5, on="graph") > 0
    b = np.zeros(snap.num_nodes)
    b[0], b[-1] = 1.0, -1.0
    assert snap.solve(b).converged
    assert snap.condition_number(dense_limit=1) >= 1.0
    assert snap.condition_number() >= 1.0
    monkeypatch.undo()
    # The views still answer dictionary queries, built on first use.
    assert snap.sparsifier.edge_list() == driver.sparsifier.edge_list()
    u, v, w = snap.graph.edge_list()[0]
    assert snap.graph.weight(u, v) == w
