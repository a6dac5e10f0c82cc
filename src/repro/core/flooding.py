"""ARPANET-style flooding broadcast — the paper's baseline (Section 3).

Every node that receives the message for the first time records it and
forwards it over all its links except the one it arrived on.  Each
arrival is an NCU involvement, so the per-broadcast system-call
complexity is the number of message arrivals, which is Θ(m): every
link carries the message at least once (in at least one direction) and
at most twice.  Time is O(n) — information spreads one software delay
per hop along shortest paths, plus queueing.

Flooding needs no routing knowledge at all, which is its enduring
virtue; the branching-paths broadcast of :mod:`repro.core.broadcast`
beats it by a Θ(m/n) factor in system calls and exponentially in time
*given* a (possibly stale) topology view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..hardware.anr import one_hop_anr
from ..hardware.ncu import NodeApi
from ..hardware.packet import Packet
from ..network.protocol import Protocol


@dataclass(frozen=True)
class FloodMessage:
    """Payload of one flooded broadcast."""

    origin: Any
    seq: int
    body: Any
    kind: str = "flood"


class FloodingBroadcast(Protocol):
    """Standalone single-shot flooding from a designated root.

    One flood per run: the root floods ``(root, 0)``, the only
    :class:`FloodMessage` this protocol makes, so a node keeps one
    ``_received`` flag (as ``BranchingPathsBroadcast`` does) instead of
    a set of ``(origin, seq)`` keys.  A second flood key is ignored: a
    message arriving after the first, under any key, is a duplicate
    like any other, which costs its system call and is not forwarded.
    """

    __slots__ = ("_root", "_body", "_received")

    def __init__(self, api: NodeApi, *, root: Any, body: Any = None) -> None:
        super().__init__(api)
        self._root = root
        self._body = body
        self._received = False

    def on_start(self, payload: Any) -> None:
        if self.api.node_id != self._root:
            return
        message = FloodMessage(origin=self._root, seq=0, body=self._body)
        self._received = True
        self.api.report("received_at", self.api.now)
        self._forward(message, arrived_on=None)

    def on_packet(self, packet: Packet) -> None:
        message = packet.payload
        if not isinstance(message, FloodMessage):
            return
        if self._received:
            return  # duplicate arrival: one system call, no forwarding
        self._received = True
        self.api.report("received_at", self.api.now)
        self.api.report("body", message.body)
        arrived_on = packet.reverse_anr[0] if packet.reverse_anr else None
        self._forward(message, arrived_on=arrived_on)

    def _forward(self, message: FloodMessage, *, arrived_on: int | None) -> None:
        """Send over every active link except the arrival link.

        All transmissions happen in this single system call — one packet
        per distinct outgoing link, which the multicast primitive
        permits.  Every packet sent over one port carries that port's
        shared one-hop header (:func:`~repro.hardware.anr.one_hop_anr`).
        """
        for info in self.api.active_links():
            if info.normal_at_u == arrived_on:
                continue
            self.api.send(one_hop_anr(info.normal_at_u), message)
