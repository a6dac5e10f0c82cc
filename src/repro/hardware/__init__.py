"""The SS/NCU hardware substrate of the paper's model (Section 2)."""

from .anr import (
    IdLookup,
    build_anr,
    concat_anr,
    one_hop_anr,
    path_broadcast_anr,
    reply_route,
)
from .ids import (
    NCU_ID,
    LinkIdSpace,
    copy_flag,
    header_from_bits,
    header_to_bits,
    id_bits,
)
from .link import Link, LinkInfo
from .ncu import NCU, Job, JobKind, NodeApi
from .node import Node
from .packet import Packet
from .switch import SwitchingSubsystem

__all__ = [
    "IdLookup",
    "Job",
    "JobKind",
    "Link",
    "LinkIdSpace",
    "LinkInfo",
    "NCU",
    "NCU_ID",
    "Node",
    "NodeApi",
    "Packet",
    "SwitchingSubsystem",
    "build_anr",
    "concat_anr",
    "copy_flag",
    "header_from_bits",
    "header_to_bits",
    "id_bits",
    "one_hop_anr",
    "path_broadcast_anr",
    "reply_route",
]
