"""Flow graphs: the architecture's communication structure as a graph.

Builds a directed graph over the trace — producers, streams, and the
subscribers that consumed from them — for observability tooling (who talks
to whom over which streams).  Uses :mod:`networkx` so standard graph
analyses (reachability, centrality, cycles) apply directly; the heaviest
import of the program is paid by the first graph built, not by the package.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .store import StreamStore

if TYPE_CHECKING:
    import networkx as nx


def build_flow_graph(store: StreamStore) -> "nx.DiGraph":
    """A graph with component and stream nodes from the store's history.

    Edges: ``component -> stream`` for each produced message and
    ``stream -> component`` for each subscription that matched at least
    one message on it.  Edge weights count messages.
    """
    import networkx as nx
    graph = nx.DiGraph()
    messages = store.trace()
    for message in messages:
        producer = message.producer or "?"
        graph.add_node(producer, kind="component")
        graph.add_node(message.stream_id, kind="stream")
        if graph.has_edge(producer, message.stream_id):
            graph[producer][message.stream_id]["weight"] += 1
        else:
            graph.add_edge(producer, message.stream_id, weight=1)
    for subscription in store.subscriptions():
        for message in messages:
            if not subscription.wants(message):
                continue
            graph.add_node(subscription.subscriber, kind="component")
            if graph.has_edge(message.stream_id, subscription.subscriber):
                graph[message.stream_id][subscription.subscriber]["weight"] += 1
            else:
                graph.add_edge(message.stream_id, subscription.subscriber, weight=1)
    return graph


def component_graph(store: StreamStore) -> "nx.DiGraph":
    """Collapse streams away: direct component-to-component message flow."""
    import networkx as nx
    full = build_flow_graph(store)
    collapsed = nx.DiGraph()
    for node, data in full.nodes(data=True):
        if data.get("kind") == "component":
            collapsed.add_node(node)
    for stream, data in full.nodes(data=True):
        if data.get("kind") != "stream":
            continue
        producers = list(full.predecessors(stream))
        consumers = list(full.successors(stream))
        for producer in producers:
            for consumer in consumers:
                if producer == consumer:
                    continue
                weight = min(
                    full[producer][stream]["weight"], full[stream][consumer]["weight"]
                )
                if collapsed.has_edge(producer, consumer):
                    collapsed[producer][consumer]["weight"] += weight
                else:
                    collapsed.add_edge(producer, consumer, weight=weight)
    return collapsed


def render_component_graph(store: StreamStore) -> str:
    """Text adjacency view of the component graph (for consoles/logs)."""
    graph = component_graph(store)
    lines = []
    for node in sorted(graph.nodes):
        targets = sorted(graph.successors(node))
        if targets:
            rendered = ", ".join(
                f"{t} (x{graph[node][t]['weight']})" for t in targets
            )
            lines.append(f"{node} -> {rendered}")
    return "\n".join(lines)
