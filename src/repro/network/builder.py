"""Convenience constructors for :class:`~repro.network.network.Network`.

Accepts the graph descriptions that turn up in practice — edge lists,
adjacency mappings, compact text specs — and hands each to ``Network``
as a :class:`~repro.network.topologies.Topology` (plain node and edge
sequences), so neither scripts nor the CLI build :class:`networkx.Graph`
objects, and no spec imports networkx.
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
#: maps the spec's integer arguments to a :class:`Topology`.
TOPOLOGY_FACTORIES = {
    "line": topologies.line,
    "ring": topologies.ring,
    "star": topologies.star,
    "complete": topologies.complete,
    "grid": topologies.grid,
    "hypercube": topologies.hypercube,
    "tree": topologies.complete_binary_tree,
    "caterpillar": topologies.caterpillar,
    "broom": topologies.broom,
    "random": lambda n, seed=0: topologies.random_connected(
        n, min(0.5, 2.5 * __import__("math").log(max(n, 2)) / max(n, 1)), seed=seed
    ),
    "geometric": lambda n, seed=0: topologies.random_geometric_connected(
        n, 0.3, seed=seed
    ),
    "clos": topologies.clos,
    "fat_tree": topologies.fat_tree,
    "torus": topologies.torus,
    "dragonfly": topologies.dragonfly,
}


class TopologySpecError(ValueError):
    """A topology spec that names no buildable topology; the message
    names the spec."""


def topology_from_spec(spec: str) -> Topology:
    """The node and edge sequences a compact text spec describes.

    Format: ``name:arg1,arg2`` — e.g. ``ring:64``, ``grid:6,8``,
    ``fat_tree:32``, ``random:128,7`` (size, seed).  The names are the
    keys of :data:`TOPOLOGY_FACTORIES`.  Every bad spec — an unknown
    name, a non-integer argument, the wrong number of arguments, or
    arguments the generator rejects — raises :class:`TopologySpecError`.
    """
    name, _, argstr = spec.partition(":")
    name = name.strip().lower()
    if name not in TOPOLOGY_FACTORIES:
        raise TopologySpecError(
            f"topology spec {spec!r}: unknown topology {name!r}; choose from "
            f"{sorted(TOPOLOGY_FACTORIES)}"
        )
    try:
        args = [int(a) for a in argstr.split(",") if a.strip()]
    except ValueError:
        raise TopologySpecError(
            f"topology spec {spec!r}: arguments must be integers"
        ) from None
    try:
        return TOPOLOGY_FACTORIES[name](*args)
    except TypeError as exc:
        raise TopologySpecError(
            f"topology spec {spec!r}: bad arguments {args} for topology {name!r}"
        ) from exc
    except ValueError as exc:
        raise TopologySpecError(f"topology spec {spec!r}: {exc}") from exc


def graph_from_spec(spec: str) -> nx.Graph:
    """The ``nx.Graph`` a compact text spec describes, without a
    substrate (see :func:`topology_from_spec` for the format).  The
    graph is a new object, private to the caller."""
    return topology_from_spec(spec).to_graph()


def from_spec(spec: str, **network_kwargs: Any) -> Network:
    """Build a network from a compact text spec (see
    :func:`topology_from_spec` for the format)."""
    return Network(topology_from_spec(spec), **network_kwargs)
