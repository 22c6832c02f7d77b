"""Property graph store.

Backs taxonomies and knowledge structures the data planner needs — in the
paper's running example, the job-title taxonomy that expands "data
scientist" into related titles.  Nodes and edges carry labels and free-form
properties; traversal helpers cover the query shapes the planners issue.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ...errors import QueryError, StorageError


@dataclass(frozen=True)
class Node:
    node_id: str
    label: str
    properties: dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.properties.get(key, default)


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    label: str
    properties: dict[str, Any] = field(default_factory=dict)


class GraphStore:
    """A directed property graph with label- and property-based lookups."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._nodes: dict[str, Node] = {}
        self._out: dict[str, list[Edge]] = {}
        self._in: dict[str, list[Edge]] = {}
        self._by_label: dict[str, set[str]] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node_id: str, label: str, **properties: Any) -> Node:
        with self._lock:
            if node_id in self._nodes:
                raise StorageError(f"duplicate node id: {node_id!r}")
            node = Node(node_id, label, dict(properties))
            self._nodes[node_id] = node
            self._out.setdefault(node_id, [])
            self._in.setdefault(node_id, [])
            self._by_label.setdefault(label, set()).add(node_id)
            return node

    def add_edge(self, source: str, target: str, label: str, **properties: Any) -> Edge:
        with self._lock:
            for node_id in (source, target):
                if node_id not in self._nodes:
                    raise StorageError(f"unknown node: {node_id!r}")
            edge = Edge(source, target, label, dict(properties))
            self._out[source].append(edge)
            self._in[target].append(edge)
            return edge

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> Node:
        with self._lock:
            node = self._nodes.get(node_id)
        if node is None:
            raise QueryError(f"unknown node: {node_id!r}")
        return node

    def has_node(self, node_id: str) -> bool:
        with self._lock:
            return node_id in self._nodes

    def nodes(self, label: str | None = None) -> list[Node]:
        with self._lock:
            if label is None:
                return list(self._nodes.values())
            return [self._nodes[i] for i in sorted(self._by_label.get(label, ()))]

    def find_nodes(
        self, label: str | None = None, predicate: Callable[[Node], bool] | None = None, **props: Any
    ) -> list[Node]:
        """Nodes matching label, exact properties, and an optional predicate."""
        found = []
        for node in self.nodes(label):
            if any(node.get(key) != value for key, value in props.items()):
                continue
            if predicate is not None and not predicate(node):
                continue
            found.append(node)
        return found

    def node_count(self) -> int:
        with self._lock:
            return len(self._nodes)

    def edge_count(self) -> int:
        with self._lock:
            return sum(len(edges) for edges in self._out.values())

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def out_edges(self, node_id: str, label: str | None = None) -> list[Edge]:
        self.node(node_id)
        with self._lock:
            edges = list(self._out.get(node_id, ()))
        return [e for e in edges if label is None or e.label == label]

    def in_edges(self, node_id: str, label: str | None = None) -> list[Edge]:
        self.node(node_id)
        with self._lock:
            edges = list(self._in.get(node_id, ()))
        return [e for e in edges if label is None or e.label == label]

    def neighbors(
        self, node_id: str, edge_label: str | None = None, direction: str = "out"
    ) -> list[Node]:
        """Adjacent nodes (directions: out, in, both)."""
        if direction not in {"out", "in", "both"}:
            raise QueryError(f"unknown direction: {direction!r}")
        ids: list[str] = []
        if direction in {"out", "both"}:
            ids.extend(edge.target for edge in self.out_edges(node_id, edge_label))
        if direction in {"in", "both"}:
            ids.extend(edge.source for edge in self.in_edges(node_id, edge_label))
        seen: set[str] = set()
        unique = []
        for neighbor_id in ids:
            if neighbor_id not in seen:
                seen.add(neighbor_id)
                unique.append(self.node(neighbor_id))
        return unique

    def traverse(
        self,
        start: str,
        edge_label: str | None = None,
        direction: str = "out",
        max_depth: int | None = None,
    ) -> list[Node]:
        """BFS from *start* (excluded) following matching edges."""
        self.node(start)
        visited = {start}
        frontier = deque([(start, 0)])
        result: list[Node] = []
        while frontier:
            current, depth = frontier.popleft()
            if max_depth is not None and depth >= max_depth:
                continue
            for neighbor in self.neighbors(current, edge_label, direction):
                if neighbor.node_id in visited:
                    continue
                visited.add(neighbor.node_id)
                result.append(neighbor)
                frontier.append((neighbor.node_id, depth + 1))
        return result

    def describe(self) -> dict[str, Any]:
        with self._lock:
            labels = {label: len(ids) for label, ids in sorted(self._by_label.items())}
        return {
            "graph": self.name,
            "description": self.description,
            "nodes": self.node_count(),
            "edges": self.edge_count(),
            "labels": labels,
        }
