"""Tests for the property graph store."""

import pytest

from repro.errors import QueryError, StorageError
from repro.storage.graph import GraphStore


@pytest.fixture
def graph():
    g = GraphStore("g")
    for node_id, name in [("a", "Alpha"), ("b", "Beta"), ("c", "Gamma"), ("d", "Delta")]:
        g.add_node(node_id, "title", name=name)
    g.add_edge("a", "b", "related", weight=1)
    g.add_edge("b", "c", "related")
    g.add_edge("c", "d", "specializes")
    return g


class TestGraphMutation:
    def test_duplicate_node_rejected(self, graph):
        with pytest.raises(StorageError):
            graph.add_node("a", "title")

    def test_edge_requires_nodes(self, graph):
        with pytest.raises(StorageError):
            graph.add_edge("a", "zzz", "related")

    def test_counts(self, graph):
        assert graph.node_count() == 4
        assert graph.edge_count() == 3


class TestGraphLookup:
    def test_node_access(self, graph):
        assert graph.node("a").get("name") == "Alpha"
        assert graph.has_node("a")
        assert not graph.has_node("zzz")

    def test_unknown_node_raises(self, graph):
        with pytest.raises(QueryError):
            graph.node("zzz")

    def test_nodes_by_label(self, graph):
        graph.add_node("x", "other")
        assert len(graph.nodes("title")) == 4
        assert len(graph.nodes()) == 5

    def test_find_nodes_by_property(self, graph):
        found = graph.find_nodes(name="Beta")
        assert [n.node_id for n in found] == ["b"]

    def test_find_nodes_with_predicate(self, graph):
        found = graph.find_nodes(predicate=lambda n: n.get("name", "").startswith("G"))
        assert [n.node_id for n in found] == ["c"]


class TestTraversal:
    def test_out_and_in_edges(self, graph):
        assert [e.target for e in graph.out_edges("a")] == ["b"]
        assert [e.source for e in graph.in_edges("b")] == ["a"]

    def test_edge_label_filter(self, graph):
        assert graph.out_edges("c", "related") == []
        assert len(graph.out_edges("c", "specializes")) == 1

    def test_neighbors_directions(self, graph):
        assert [n.node_id for n in graph.neighbors("b", direction="out")] == ["c"]
        assert [n.node_id for n in graph.neighbors("b", direction="in")] == ["a"]
        assert sorted(n.node_id for n in graph.neighbors("b", direction="both")) == ["a", "c"]

    def test_neighbors_bad_direction(self, graph):
        with pytest.raises(QueryError):
            graph.neighbors("a", direction="sideways")

    def test_traverse_bfs(self, graph):
        reached = [n.node_id for n in graph.traverse("a")]
        assert reached == ["b", "c", "d"]

    def test_traverse_max_depth(self, graph):
        reached = [n.node_id for n in graph.traverse("a", max_depth=2)]
        assert reached == ["b", "c"]

    def test_traverse_edge_label(self, graph):
        reached = [n.node_id for n in graph.traverse("a", edge_label="related")]
        assert reached == ["b", "c"]

    def test_traverse_handles_cycles(self, graph):
        graph.add_edge("c", "a", "related")
        reached = [n.node_id for n in graph.traverse("a", edge_label="related")]
        assert reached == ["b", "c"]

    def test_describe(self, graph):
        described = graph.describe()
        assert described["nodes"] == 4
        assert described["labels"] == {"title": 4}
