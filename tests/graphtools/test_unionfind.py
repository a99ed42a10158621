"""Tests for repro.graphtools.unionfind."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.graphtools.unionfind import UnionFind


class TestBasics:
    def test_initial_state(self):
        uf = UnionFind(5)
        assert uf.num_components == 5
        for v in range(5):
            assert uf.find(v) == v
            assert uf.component_size(v) == 1
            assert uf.component_edges(v) == 0

    def test_union_merges(self):
        uf = UnionFind(4)
        assert uf.add_edge(0, 1) is True
        assert uf.connected(0, 1)
        assert uf.num_components == 3
        assert uf.component_size(0) == 2
        assert uf.component_edges(1) == 1

    def test_cycle_edge(self):
        uf = UnionFind(3)
        uf.add_edge(0, 1)
        assert uf.add_edge(0, 1) is False  # parallel edge
        assert uf.component_edges(0) == 2
        assert uf.component_size(0) == 2

    def test_self_loop(self):
        uf = UnionFind(3)
        assert uf.add_edge(1, 1) is False
        assert uf.component_edges(1) == 1
        assert uf.component_size(1) == 1

    def test_orientability_criterion(self):
        uf = UnionFind(4)
        uf.add_edge(0, 1)
        uf.add_edge(1, 2)
        assert uf.component_is_orientable(0)  # tree: e=2, v=3
        uf.add_edge(0, 2)
        assert uf.component_is_orientable(0)  # unicyclic: e=3, v=3
        uf.add_edge(0, 1)
        assert not uf.component_is_orientable(0)  # e=4 > v=3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            UnionFind(0)


class TestComponentTable:
    def test_table_totals(self):
        uf = UnionFind(10)
        edges = [(0, 1), (1, 2), (3, 4), (5, 5)]
        for u, v in edges:
            uf.add_edge(u, v)
        sizes, counts = uf.component_table()
        assert sizes.sum() == 10
        assert counts.sum() == len(edges)
        assert uf.num_components == len(sizes)

    @given(
        st.integers(2, 30),
        st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
    )
    @settings(max_examples=40)
    def test_property_matches_networkx(self, n, raw_edges):
        import networkx as nx

        edges = [(u % n, v % n) for u, v in raw_edges]
        uf = UnionFind(n)
        for u, v in edges:
            uf.add_edge(u, v)
        g = nx.MultiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        nx_components = list(nx.connected_components(g))
        assert uf.num_components == len(nx_components)
        for comp in nx_components:
            rep = next(iter(comp))
            assert uf.component_size(rep) == len(comp)
            assert uf.component_edges(rep) == g.subgraph(comp).number_of_edges()
            for other in comp:
                assert uf.connected(rep, other)
