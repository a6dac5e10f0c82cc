"""Network assembly, topology generators and spanning trees."""

from . import topologies
from .builder import (
    TopologySpecError,
    from_adjacency,
    from_edges,
    from_spec,
    graph_from_spec,
    topology_from_spec,
)
from .network import Network, UnknownNodeError
from .protocol import Protocol, ProtocolFactory
from .spanning import Tree, bfs_tree, tree_from_parent
from .topologies import Topology

__all__ = [
    "Network",
    "from_adjacency",
    "from_edges",
    "from_spec",
    "graph_from_spec",
    "Protocol",
    "ProtocolFactory",
    "Topology",
    "TopologySpecError",
    "Tree",
    "UnknownNodeError",
    "bfs_tree",
    "topologies",
    "topology_from_spec",
    "tree_from_parent",
]
