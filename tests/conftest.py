"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from typing import Any, Mapping

import networkx as nx
import pytest

from repro.network import Network, Protocol, Topology, topologies
from repro.network.spanning import Tree, tree_from_parent
from repro.sim import FixedDelays


def limiting_net(graph: Topology | nx.Graph, **kwargs: Any) -> Network:
    """A network under the Sections 3–4 limiting model (C=0, P=1)."""
    kwargs.setdefault("delays", FixedDelays(0.0, 1.0))
    return Network(graph, **kwargs)


class Recorder(Protocol):
    """Minimal protocol that records everything it is handed."""

    def __init__(self, api) -> None:
        super().__init__(api)
        self.started: list[Any] = []
        self.packets: list[Any] = []
        self.timers: list[tuple[str, Any]] = []
        self.link_events: list[Any] = []

    def on_start(self, payload):
        self.started.append(payload)

    def on_packet(self, packet):
        self.packets.append(packet)

    def on_timer(self, tag, payload):
        self.timers.append((tag, payload))

    def on_link_change(self, info):
        self.link_events.append(info)


def attach_recorders(net: Network) -> dict[Any, Recorder]:
    """Attach a Recorder to every node; returns them keyed by node id."""
    recorders: dict[Any, Recorder] = {}

    def factory(api):
        recorder = Recorder(api)
        recorders[api.node_id] = recorder
        return recorder

    net.attach(factory)
    return recorders


def random_tree(n: int, seed: int) -> Tree:
    """A uniform-ish random rooted tree on nodes 0..n-1 (root 0).

    Built by attaching node i to a random earlier node — every labelled
    rooted tree shape is reachable.
    """
    rng = random.Random(seed)
    parent: dict[int, int | None] = {0: None}
    for i in range(1, n):
        parent[i] = rng.randrange(i)
    return tree_from_parent(0, parent)


def tree_to_graph(tree: Tree) -> nx.Graph:
    """The underlying undirected graph of a rooted tree."""
    g = nx.Graph()
    g.add_nodes_from(tree.parent)
    g.add_edges_from(tree.edges())
    return g


def graph_adjacency(graph: Topology | nx.Graph) -> Mapping[Any, tuple[Any, ...]]:
    """Deterministic adjacency mapping of a topology or networkx graph:
    nodes and each node's neighbours in repr order, as ``net.adjacency()``."""
    adjacency = Topology(graph.nodes, graph.edges).adjacency()
    return {
        node: tuple(sorted(adjacency[node], key=repr))
        for node in sorted(adjacency, key=repr)
    }


@pytest.fixture
def small_graphs() -> list[Topology]:
    """A spread of small topologies used by several protocol tests."""
    return [
        topologies.line(2),
        topologies.line(7),
        topologies.ring(5),
        topologies.star(6),
        topologies.complete(5),
        topologies.grid(3, 3),
        topologies.complete_binary_tree(3),
        topologies.random_connected(12, 0.3, seed=4),
    ]
