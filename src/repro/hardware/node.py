"""A node: one switching subsystem plus one NCU (the paper's Figure 1)."""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping

from ..sim.errors import PathTooLongError, ProtocolError, RoutingError
from ..sim.trace import TraceKind
from .ids import LinkIdSpace
from .link import Link, LinkInfo
from .ncu import NCU
from .packet import Packet
from .switch import SwitchingSubsystem

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network


class Node(SwitchingSubsystem):
    """One network node: its switching subsystem, plus one NCU.

    The node *is* its SS (the port table and multicast groups are its
    own slots) and holds its NCU, which is also the API its protocol
    sees; it owns no protocol logic.  Packet injection — the NCU
    handing a packet to its own SS — lives here because it is where the
    ``dmax`` path-length restriction of Section 2 is enforced.
    """

    __slots__ = ("node_id", "net", "ncu", "protocol")

    def __init__(self, node_id: Any, net: "Network", id_space: LinkIdSpace) -> None:
        super().__init__(id_space)
        self.node_id = node_id
        self.net = net
        self.ncu = NCU(self)
        #: The protocol instance attached to this node, or ``None``: the
        #: node's one reference to it.  The NCU dispatches each job to
        #: ``protocol.dispatch`` and checks this slot for "attached".
        self.protocol: Any = None

    @property
    def links(self) -> Mapping[Any, Link]:
        """Adjacent links keyed by neighbour ID, in local-ID order.

        A read-only mapping derived from the port table on each read:
        the node stores no neighbour dict of its own.
        """
        me = self.node_id
        return MappingProxyType({link.other(me).node_id: link for link in self.ports[1:]})

    def reset(self) -> None:
        """Restore the pristine pre-``attach()`` state.

        Detaches the protocol and resets the NCU and SS run-time state;
        the port table is a build product and stays.
        Part of the substrate-reuse contract (see
        :meth:`repro.network.network.Network.reset`).
        """
        self.protocol = None
        self.ncu.reset()
        super().reset()

    def crash(self) -> None:
        """Crash the node's software with total state loss.

        The NCU goes down (queue, in-service job and protocol state are
        lost) and the SS forgets installed multicast groups — hardware
        state provisioned by software does not survive the software that
        provisioned it.  The port table is a build product and stays.
        The network records the node in ``crashed_nodes``.
        """
        self.protocol = None
        self.ncu.crash()
        super().reset()
        self.net.crashed_nodes.add(self.node_id)

    def restart(self, factory: Any) -> None:
        """Restart a crashed node with a fresh protocol instance.

        The new instance starts from its constructor state — nothing
        from before the crash survives.
        """
        self.protocol = factory(self.ncu)
        self.ncu.restart()
        self.net.crashed_nodes.discard(self.node_id)

    def link_to(self, neighbor_id: Any) -> Link:
        """The link toward a neighbour (KeyError if not adjacent).

        Scans this node's port table, so the cost is bounded by its
        degree and no network-wide link dict is built.
        """
        neighbor = self.net.nodes.get(neighbor_id)
        if neighbor is not self:
            for link in self.ports[1:]:
                if link.node_u is neighbor or link.node_v is neighbor:
                    return link
        raise KeyError(f"node {neighbor_id!r} is not adjacent to node {self.node_id!r}")

    def local_topology(self) -> tuple[LinkInfo, ...]:
        """This node's local topology: one snapshot per adjacent link.

        Sorted by the repr of the neighbour ID, ties in local-ID order,
        for determinism.  This is the unit of information a
        topology-maintenance broadcast disseminates.
        """
        me = self.node_id
        infos = [link.info_at(me) for link in self.ports[1:]]
        infos.sort(key=_neighbor_repr)
        return tuple(infos)

    def inject(self, header: tuple[int, ...], payload: Any) -> Packet:
        """Create a packet and push it into the local SS.

        The send path behind ``NodeApi.send``, and the driver hook for
        raw hardware traffic: called outside a handler it injects at
        the SS directly, which is never counted as a system call.
        Enforces the ``dmax`` restriction on header length: source
        routes longer than the network's configured maximum raise
        :class:`PathTooLongError` rather than being silently truncated.
        """
        header = tuple(header)
        if len(header) > self.net.dmax:
            raise PathTooLongError(
                f"ANR header of {len(header)} IDs exceeds dmax={self.net.dmax}"
            )
        if not header:
            raise RoutingError("cannot inject a packet with an empty ANR header")
        ports = self.ncu.ports_used_this_call
        if ports is not None:
            # A normal or copy ID keys its port index, any other ID
            # (the group range, say) keys itself.
            port = header[0]
            flag = self._copy_flag
            if flag <= port < flag << 1:
                port -= flag
            if port in ports:
                raise ProtocolError(
                    f"node {self.node_id} sent two packets through port or "
                    f"group {port} in one system call; the multicast "
                    "primitive covers distinct outgoing links only"
                )
            ports.add(port)
        packet = Packet(
            seq=self.net.next_packet_seq(),
            origin=self.node_id,
            header=header,
            payload=payload,
        )
        self.net.metrics.count_injection(self.node_id, len(header))
        trace = self.net.trace
        if trace.enabled:
            trace.record(
                self.net.scheduler.now,
                TraceKind.PACKET_INJECTED,
                self.node_id,
                packet=packet.seq,
                header_len=len(header),
            )
        self.receive(packet, None)
        return packet

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id!r}, degree={len(self.ports) - 1})"


def _neighbor_repr(info: LinkInfo) -> str:
    return repr(info.v)
