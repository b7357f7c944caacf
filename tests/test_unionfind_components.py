"""Tests for union-find and connectivity analysis."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, UnionFind, connected_components, is_connected, num_connected_components
from repro.graphs.generators import path_graph


class TestUnionFind:
    def test_initial_state(self):
        uf = UnionFind(5)
        assert len(uf) == 5
        assert uf.num_sets == 5
        assert not uf.connected(0, 1)

    def test_union_and_find(self):
        uf = UnionFind(5)
        assert uf.union(0, 1)
        assert uf.connected(0, 1)
        assert not uf.union(1, 0)
        assert uf.num_sets == 4

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_partition(self, unions):
        uf = UnionFind(20)
        naive = {i: {i} for i in range(20)}

        def naive_find(x):
            for root, members in naive.items():
                if x in members:
                    return root
            raise AssertionError

        for a, b in unions:
            uf.union(a, b)
            ra, rb = naive_find(a), naive_find(b)
            if ra != rb:
                naive[ra] |= naive.pop(rb)
        for a in range(20):
            for b in range(20):
                assert uf.connected(a, b) == (naive_find(a) == naive_find(b))


class TestComponents:
    def test_connected_path(self):
        assert is_connected(path_graph(10))
        assert num_connected_components(path_graph(10)) == 1

    def test_disconnected(self):
        graph = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert not is_connected(graph)
        assert num_connected_components(graph) == 2
        labels = connected_components(graph)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_empty_graph_connected(self):
        assert is_connected(Graph(0))
        assert num_connected_components(Graph(0)) == 0

    def test_isolated_nodes(self):
        graph = Graph(3, [(0, 1, 1.0)])
        assert num_connected_components(graph) == 2
