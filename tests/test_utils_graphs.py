"""Tests for repro.utils.graphs."""

import random

import pytest

from repro.utils.graphs import (
    enumerate_simple_cycles,
    reachable_from,
    strongly_connected_components,
    topological_order,
)


class TestEnumerateSimpleCycles:
    def test_single_cycle(self):
        cycles = enumerate_simple_cycles([("a", "b"), ("b", "c"), ("c", "a")])
        assert len(cycles) == 1
        assert set(cycles[0]) == {"a", "b", "c"}

    def test_acyclic_graph_has_no_cycles(self):
        assert enumerate_simple_cycles([("a", "b"), ("b", "c")]) == []

    def test_two_cycles(self):
        edges = [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]
        cycles = enumerate_simple_cycles(edges)
        assert len(cycles) == 2

    def test_limit_caps_enumeration(self):
        edges = [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]
        assert len(enumerate_simple_cycles(edges, limit=1)) == 1


class TestStronglyConnectedComponents:
    def test_cycle_forms_single_component(self):
        components = strongly_connected_components([("a", "b"), ("b", "a"), ("b", "c")])
        assert {"a", "b"} in components
        assert {"c"} in components

    def test_isolated_nodes_included(self):
        components = strongly_connected_components([], nodes=["x", "y"])
        assert {"x"} in components and {"y"} in components


class TestReachableFrom:
    def test_simple_chain(self):
        edges = [("a", "b"), ("b", "c"), ("d", "e")]
        assert reachable_from(edges, ["a"]) == {"a", "b", "c"}

    def test_multiple_sources(self):
        edges = [("a", "b"), ("d", "e")]
        assert reachable_from(edges, ["a", "d"]) == {"a", "b", "d", "e"}

    def test_unknown_source_ignored(self):
        assert reachable_from([("a", "b")], ["zzz"]) == set()


class TestTopologicalOrder:
    def test_orders_a_dag(self):
        order = topological_order([("a", "b"), ("b", "c")])
        assert order.index("a") < order.index("b") < order.index("c")

    def test_returns_none_for_cycle(self):
        assert topological_order([("a", "b"), ("b", "a")]) is None

    def test_includes_isolated_nodes(self):
        order = topological_order([("a", "b")], nodes=["a", "b", "z"])
        assert set(order) == {"a", "b", "z"}


class TestCanonicalOrder:
    def test_cycles_ignore_edge_iteration_order(self):
        edges = [("c", "a"), ("a", "b"), ("b", "c"), ("b", "a")]
        expected = enumerate_simple_cycles(edges)
        assert enumerate_simple_cycles(edges[::-1]) == expected
        assert all(cycle[0] == min(cycle) for cycle in expected)

    def test_self_loop_is_a_one_node_cycle(self):
        assert enumerate_simple_cycles([("a", "a"), ("a", "b")]) == [["a"]]

    def test_mixed_node_types(self):
        cycles = enumerate_simple_cycles([(1, "x"), ("x", 1)])
        assert [sorted(map(str, cycle)) for cycle in cycles] == [["1", "x"]]


def _random_digraph(seed, size=7):
    """A seeded digraph with self-loops, isolated nodes and several SCCs."""
    rng = random.Random(seed)
    nodes = list(range(2 * size + 3))  # the last three are isolated
    edges = set()
    for block in (range(size), range(size, 2 * size)):  # dense, then one-way
        for _ in range(rng.randint(size, 2 * size)):
            edges.add((rng.choice(block), rng.choice(block)))
    edges.add((rng.randrange(size), rng.randrange(size, 2 * size)))
    for _ in range(rng.randint(0, 2)):
        node = rng.randrange(2 * size)
        edges.add((node, node))
    return nodes, sorted(edges)


def _rotated(cycle):
    start = cycle.index(min(cycle))
    return tuple(cycle[start:] + cycle[:start])


class TestAgainstNetworkx:
    """Differential check of the stdlib algorithms against networkx."""

    SEEDS = range(40)

    @pytest.fixture(autouse=True)
    def _nx(self):
        self.nx = pytest.importorskip("networkx")

    def _graph(self, nodes, edges):
        graph = self.nx.DiGraph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        return graph

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cycles(self, seed):
        nodes, edges = _random_digraph(seed)
        ours = [_rotated(cycle) for cycle in enumerate_simple_cycles(edges, nodes=nodes)]
        assert len(ours) == len(set(ours))
        theirs = {_rotated(list(c)) for c in self.nx.simple_cycles(self._graph(nodes, edges))}
        assert set(ours) == theirs

    @pytest.mark.parametrize("seed", SEEDS)
    def test_limit_returns_distinct_cycles_of_the_full_set(self, seed):
        nodes, edges = _random_digraph(seed)
        full = {_rotated(cycle) for cycle in enumerate_simple_cycles(edges, nodes=nodes)}
        for limit in (1, 2, 5):
            capped = [_rotated(c) for c in enumerate_simple_cycles(edges, nodes, limit=limit)]
            assert len(capped) == len(set(capped)) == min(limit, len(full))
            assert set(capped) <= full

    @pytest.mark.parametrize("seed", SEEDS)
    def test_components(self, seed):
        nodes, edges = _random_digraph(seed)
        ours = strongly_connected_components(edges, nodes=nodes)
        theirs = self.nx.strongly_connected_components(self._graph(nodes, edges))
        assert {frozenset(c) for c in ours} == {frozenset(c) for c in theirs}
        assert len(ours) == len({frozenset(c) for c in ours})

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reachable_from(self, seed):
        nodes, edges = _random_digraph(seed)
        graph = self._graph(nodes, edges)
        sources = random.Random(seed).sample(nodes, 2) + ["absent"]
        theirs = set()
        for source in sources[:2]:
            theirs |= {source} | self.nx.descendants(graph, source)
        assert reachable_from(edges, sources, nodes=nodes) == theirs

    @pytest.mark.parametrize("seed", SEEDS)
    def test_topological_order(self, seed):
        nodes, edges = _random_digraph(seed)
        # Half the seeds drop back edges, so both outcomes are exercised.
        if seed % 2:
            edges = [(s, t) for s, t in edges if s < t]
        order = topological_order(edges, nodes=nodes)
        if not self.nx.is_directed_acyclic_graph(self._graph(nodes, edges)):
            assert order is None
            return
        assert sorted(order) == nodes
        position = {node: index for index, node in enumerate(order)}
        assert all(position[s] < position[t] for s, t in edges)
