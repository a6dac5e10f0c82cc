"""The switching subsystem (SS): the paper's "hardware".

An SS receives a packet ``xy`` over one of its incident links (or from
its own NCU), strips the leading ID ``x`` and outputs ``y`` over every
incident link whose ID set contains ``x``:

* a **normal** link ID matches exactly one outgoing link;
* a **copy** link ID matches that link *and* the NCU link (the NCU link
  holds all copy IDs), realising the selective copy;
* the **NCU ID** (0) matches only the NCU link — the packet terminates
  here.

Everything in this module runs at hardware speed: the only delays are
the per-hop hardware delay ``C`` charged when a packet is forwarded
over a link.  No system calls are counted here.

Hot path
--------
``receive`` → ``_forward`` → (scheduler) → ``_deliver`` → ``receive`` is
the per-hop cycle and must be allocation-free in steady state:

* the header is consumed by advancing ``packet.header_pos``, never by
  slicing (O(1) per hop instead of O(remaining header));
* the ID-set match is one bounds-checked index into the **port
  table** :attr:`SwitchingSubsystem.ports`: the node's links in
  local-ID order, so entry ``i`` is the link with normal ID ``i`` and
  copy ID ``flag | i`` (entry 0, the NCU ID, holds no link).  Each
  link end is stored once, as a reference to the shared ``Link``;
* the hop reads the far node and the receiving side's normal ID off
  the link's endpoints (as ``Link.fifo_arrival`` does), and schedules
  ``_deliver`` with the far node as a plain function plus ``args`` —
  no per-hop closure, no per-port tuple;
* trace records are guarded on ``trace.enabled`` so a disabled trace
  costs one attribute load, not a kwargs dict;
* the hop is counted once, on the link (``Link.hops``, through the
  metrics layer): ``PerfCounters`` and live stats read that count
  instead of hooking the hop themselves;
* a zero hardware delay (the limiting model, and the CLI's ``--C 0``)
  proposes ``now`` itself as the arrival, so a free hop allocates no
  time of its own;
* capacity limits are opt-in: the free-hardware path pays one
  ``link.fc is not None`` check per hop, and flow-controlled links
  divert to :meth:`repro.hardware.link.Link.fc_forward`, which reports
  each change of a direction's queue once (to the probe and as a QUEUE
  trace record) and nothing to ``PerfCounters``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..sim.trace import TraceKind
from .ids import NCU_ID, LinkIdSpace
from .link import Link
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network
    from .ncu import NCU


#: Shared empty multicast-group table.  Almost no node ever installs a
#: group, so a per-SS empty dict is pure waste at 10⁴–10⁵ nodes; the
#: hot path's ``next_id in self._groups`` works identically on the
#: shared sentinel, and :meth:`SwitchingSubsystem.install_group` swaps
#: in a private dict on first use (copy-on-write).
_NO_GROUPS: dict[int, tuple[tuple[Link, ...], bool]] = {}


class SwitchingSubsystem:
    """Per-node hardware switch with the paper's ID-set semantics.

    The base class of :class:`repro.hardware.node.Node`: a node *is*
    its switch, so the switch reads the node's ``net``, ``node_id`` and
    ``ncu`` off ``self``.
    """

    __slots__ = ("ports", "_copy_flag", "_groups")

    # Slots of the node subclass.
    node_id: Any
    net: "Network"
    ncu: "NCU"

    def __init__(self, id_space: LinkIdSpace) -> None:
        #: The port table: the node's links in local-ID order.  Entry
        #: ``i`` is the link with normal ID ``i`` and copy ID
        #: ``flag | i``; entry 0 is the NCU ID, which names no link.
        #: A build product, set once by the network builder.
        self.ports: tuple[Link | None, ...] = (None,)
        #: The copy-ID bit, cached as a plain int: it maps a copy ID to
        #: its port index and decides NCU delivery.
        self._copy_flag = id_space.flag
        #: Installed multicast groups: id -> (member links, copy to NCU).
        #: Part of the "more powerful hardware" extension; the shared
        #: empty sentinel until software installs one (``install_group``).
        self._groups = _NO_GROUPS

    def reset(self) -> None:
        """Drop run-time hardware state (installed multicast groups).

        The port table survives: it is pure build product, derived only
        from the topology and the ID assignment.  Part of the
        substrate-reuse contract (see
        :meth:`repro.network.network.Network.reset`).
        """
        self._groups = _NO_GROUPS

    # ------------------------------------------------------------------
    # Multicast groups (hardware extension)
    # ------------------------------------------------------------------
    def install_group(
        self, group_id: int, links: tuple[Link, ...], *, to_ncu: bool = True
    ) -> None:
        """Install a multicast group ID at this SS.

        A packet whose next ID is ``group_id`` is replicated in hardware
        over every member link — with the group ID *re-prepended* (the
        branch's cursor steps back onto it), so the tree forwards
        itself — and, when ``to_ncu`` is set, a copy of the remainder
        is delivered to the local NCU.  Installing is a
        software action (the setup protocol pays system calls for it);
        once installed, a network-wide multicast costs the sender one
        injection.

        Group IDs must come from the group range (above all normal and
        copy IDs) so they can never shadow point-to-point routing.
        """
        group_base = self.net.id_space.group_base
        if group_id < group_base:
            raise ValueError(
                f"{group_id} is not a group ID (group range starts at {group_base})"
            )
        if self._groups is _NO_GROUPS:
            self._groups = {}
        self._groups[group_id] = (tuple(links), to_ncu)

    def uninstall_group(self, group_id: int) -> None:
        """Remove a previously installed group (idempotent)."""
        self._groups.pop(group_id, None)

    def _receive_group(self, packet: Packet, group_id: int) -> None:
        net = self.net
        me = self.node_id
        links, to_ncu = self._groups[group_id]
        if to_ncu:
            copy = packet.delivery_copy()
            net.metrics.count_copy(me)
            trace = net.trace
            if trace.enabled:
                trace.record(
                    net.scheduler.now,
                    TraceKind.PACKET_COPIED,
                    me,
                    packet=packet.seq,
                    group=group_id,
                )
            self.ncu.enqueue_packet(copy)
        # The dmax guard doubles as cycle protection: a mis-installed
        # cyclic group drops its packets instead of replicating forever.
        if packet.hops >= net.dmax:
            if links:
                self.drop(packet, "group_hop_limit")
            return
        # Each branch carries the injected header with its cursor back
        # on the group ID (``receive`` has just consumed it), so the
        # next SS re-reads the group ID and the tree forwards itself.
        group_pos = packet.header_pos - 1
        for link in links:
            # A branch keeps moving: its reverse route is its own list.
            branch = packet.delivery_copy()
            branch.header_pos = group_pos
            branch._reverse = list(branch._reverse)
            self._forward(branch, link)

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, via_link: Link | None) -> None:
        """Process a packet arriving over ``via_link`` (None = local NCU).

        Consumes the leading header ID and dispatches according to the
        ID-set matching rule.  Unroutable or header-exhausted packets
        are dropped (and traced) — the hardware has no error channel.
        """
        net = self.net
        me = self.node_id
        header = packet.header
        pos = packet.header_pos
        if pos >= len(header):
            self.drop(packet, "header_exhausted")
            return

        next_id = header[pos]
        packet.header_pos = pos + 1

        if next_id in self._groups:
            self._receive_group(packet, next_id)
            return

        # Normal ID ``i`` and copy ID ``flag | i`` both index entry
        # ``i``; anything outside ``1..degree`` after the copy bit is
        # taken off (negative, 0, ``flag``, group range) names no link.
        flag = self._copy_flag
        ports = self.ports
        index = next_id - flag if next_id >= flag else next_id
        link = ports[index] if 0 <= index < len(ports) else None
        # A copy ID is a port's ID with the copy bit set.
        to_ncu = next_id == NCU_ID or (link is not None and next_id & flag)

        if to_ncu:
            copy = packet.delivery_copy()
            net.metrics.count_copy(me)
            trace = net.trace
            if trace.enabled:
                trace.record(
                    net.scheduler.now,
                    TraceKind.PACKET_COPIED,
                    me,
                    packet=packet.seq,
                    final=link is None,
                )
            self.ncu.enqueue_packet(copy)

        if link is not None:
            self._forward(packet, link)
        elif not to_ncu:
            self.drop(packet, "unroutable_id", id=next_id)

    def _forward(self, packet: Packet, link: Link) -> None:
        """Send the packet onward over one link, charging the C delay."""
        net = self.net
        me = self.node_id
        if not link.active:
            self.drop(packet, "inactive_link", link=link.key)
            return

        fc = link.fc
        if fc is not None:
            link.fc_forward(me, packet)
            return

        now = net.scheduler.now
        delay = net.delays.hardware_delay(link.key, packet.seq)
        # A free hop arrives at ``now`` itself: the same value as
        # ``now + 0.0``, without a fresh float for the heap entry and
        # the link's watermark to keep.
        arrival = link.fifo_arrival(me, now + delay if delay else now)
        if link.node_u is self:
            far, receiving_normal = link.node_v, link._normal_v
        else:
            far, receiving_normal = link.node_u, link._normal_u
        packet._reverse.append(receiving_normal)
        net.metrics.count_hop(link)
        trace = net.trace
        if trace.enabled:
            trace.record(
                now,
                TraceKind.PACKET_HOP,
                me,
                packet=packet.seq,
                link=link.key,
                to=far.node_id,
            )
        net.scheduler.schedule_at(arrival, _deliver, 0, "hop", (far, packet, link))

    def _deliver(self, packet: Packet, link: Link) -> None:
        """Arrival at this side of ``link``; the scheduled hop payload.

        A link that went down while the packet was in flight loses it.
        """
        if not link.active:
            self.drop(packet, "inactive_link", link=link.key)
            return
        self.receive(packet, link)

    def drop(self, packet: Packet, reason: str, **detail: Any) -> None:
        """Lose ``packet`` here: count the drop and trace it.

        The record's detail is ``packet``, ``reason``, then ``detail``
        (the dead ``link`` or the unroutable ``id``), in that order.
        """
        net = self.net
        net.metrics.count_drop(reason)
        trace = net.trace
        if trace.enabled:
            trace.record(
                net.scheduler.now,
                TraceKind.PACKET_DROPPED,
                self.node_id,
                packet=packet.seq,
                reason=reason,
                **detail,
            )


#: The hop payload, scheduled with the far node as its first argument,
#: so no node keeps a bound method around for its neighbours to schedule.
_deliver = SwitchingSubsystem._deliver
