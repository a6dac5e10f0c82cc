"""Convenience constructors for :class:`~repro.network.network.Network`.

Accepts the graph descriptions that turn up in practice — edge lists,
adjacency mappings, compact text specs — and hands each to ``Network``
as a :class:`~repro.network.topologies.Topology` (plain node and edge
sequences), so neither scripts nor the CLI build :class:`networkx.Graph`
objects by hand, and the datacenter fabric specs never import networkx.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping

from . import topologies
from .network import Network
from .topologies import Topology

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


def from_edges(
    edges: Iterable[tuple[Any, Any]],
    *,
    nodes: Iterable[Any] = (),
    **network_kwargs: Any,
) -> Network:
    """Build a network from an edge list (plus optional isolated nodes)."""
    return Network(Topology(nodes, edges), **network_kwargs)


def from_edge_arrays(
    num_nodes: int,
    edges: Iterable[tuple[int, int]],
    **network_kwargs: Any,
) -> Network:
    """Bulk-build a network over nodes ``0..num_nodes-1`` from edge pairs.

    The resulting network is identical (including traces) to
    ``from_edges`` over the same pairs with ``nodes=range(num_nodes)``.
    """
    if num_nodes < 0:
        raise ValueError("num_nodes must be >= 0")
    return Network(Topology(range(num_nodes), edges), **network_kwargs)


def from_adjacency(
    adjacency: Mapping[Any, Iterable[Any]], **network_kwargs: Any
) -> Network:
    """Build a network from a node -> neighbours mapping.

    The mapping may be one-sided (each edge listed at either endpoint).
    Nodes are ordered as first seen: each key, then its new neighbours.
    """
    nodes: list[Any] = []
    edges: list[tuple[Any, Any]] = []
    for node, neighbors in adjacency.items():
        nodes.append(node)
        for neighbor in neighbors:
            nodes.append(neighbor)
            edges.append((node, neighbor))
    return Network(Topology(nodes, edges), **network_kwargs)


#: Named topology factories usable from specs and the CLI.  Each value
#: maps the spec's integer arguments to a graph: an ``nx.Graph``, or a
#: :class:`Topology` for the datacenter fabrics, made without networkx.
TOPOLOGY_FACTORIES = {
    "line": lambda n: topologies.line(n),
    "ring": lambda n: topologies.ring(n),
    "star": lambda n: topologies.star(n),
    "complete": lambda n: topologies.complete(n),
    "grid": lambda rows, cols: topologies.grid(rows, cols),
    "hypercube": lambda dim: topologies.hypercube(dim),
    "tree": lambda depth: topologies.complete_binary_tree(depth),
    "caterpillar": lambda spine, legs: topologies.caterpillar(spine, legs),
    "broom": lambda handle, bristles: topologies.broom(handle, bristles),
    "random": lambda n, seed=0: topologies.random_connected(
        n, min(0.5, 2.5 * __import__("math").log(max(n, 2)) / n), seed=seed
    ),
    "geometric": lambda n, seed=0: topologies.random_geometric_connected(
        n, 0.3, seed=seed
    ),
    "clos": topologies.clos_topology,
    "fat_tree": topologies.fat_tree_topology,
    "torus": topologies.torus_topology,
    "dragonfly": topologies.dragonfly_topology,
}


def topology_from_spec(spec: str) -> Topology:
    """The node and edge sequences a compact text spec describes.

    Format: ``name:arg1,arg2`` — e.g. ``ring:64``, ``grid:6,8``,
    ``fat_tree:32``, ``random:128,7`` (size, seed).  The names are the
    keys of :data:`TOPOLOGY_FACTORIES`.
    """
    name, _, argstr = spec.partition(":")
    name = name.strip().lower()
    if name not in TOPOLOGY_FACTORIES:
        raise ValueError(
            f"unknown topology {name!r}; choose from "
            f"{sorted(TOPOLOGY_FACTORIES)}"
        )
    args = [int(a) for a in argstr.split(",") if a.strip()] if argstr else []
    try:
        graph = TOPOLOGY_FACTORIES[name](*args)
    except TypeError as exc:
        raise ValueError(f"bad arguments {args} for topology {name!r}") from exc
    return Topology(graph.nodes, graph.edges)


def graph_from_spec(spec: str) -> nx.Graph:
    """The ``nx.Graph`` a compact text spec describes, without a
    substrate (see :func:`topology_from_spec` for the format).  The
    graph is a new object, private to the caller."""
    return topology_from_spec(spec).to_graph()


def from_spec(spec: str, **network_kwargs: Any) -> Network:
    """Build a network from a compact text spec (see
    :func:`topology_from_spec` for the format)."""
    return Network(topology_from_spec(spec), **network_kwargs)
