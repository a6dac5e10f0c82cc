"""Network assembly, topology generators, spanning trees and failures."""

from . import topologies
from .failures import (
    FailureAction,
    FailureKind,
    FailureSchedule,
    flapping_link,
    random_link_failures,
)
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
    "FailureAction",
    "FailureKind",
    "FailureSchedule",
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
    "flapping_link",
    "random_link_failures",
    "topologies",
    "topology_from_spec",
    "tree_from_parent",
]
