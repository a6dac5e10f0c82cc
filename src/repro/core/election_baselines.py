"""Traditional ring election algorithms, costed under the new measure.

The paper notes (Section 4) that the message complexity of traditional
election algorithms is Ω(n log n) *under the new measure as well*: the
classic algorithms move tokens hop by hop, and every hop is processed
in software, so every traditional "message" is a system call.

Two classics are implemented on rings:

* :class:`ChangRoberts` — unidirectional priority-chasing; O(n log n)
  system calls on average over priority arrangements, Θ(n²) worst case.
* :class:`HirschbergSinclair` — bidirectional doubling probes;
  O(n log n) system calls worst case.

Both assume the ring ordering 0, 1, ..., n-1 (as produced by
:func:`repro.network.topologies.ring`) for *routing*; the quantity
being compared is a per-node **priority**, by default the node id.
Passing a priority permutation decouples the election order from the
ring geometry — that is how the Θ(n²) Chang–Roberts worst case and the
Θ(n log n) average case are exhibited (with identity priorities an
ascending ring is the best case for both classics).  After electing,
the winner circulates one final lap so every node learns the result,
mirroring the announcement step of the new algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..hardware.anr import one_hop_anr
from ..hardware.ncu import NodeApi
from ..hardware.packet import Packet
from ..network.protocol import Protocol


def _ring_headers(api: NodeApi) -> dict[Any, tuple[int, ...]]:
    """Single-hop headers to each ring neighbour, keyed by neighbour id."""
    return {
        info.v: one_hop_anr(info.normal_at_u) for info in api.active_links()
    }


@dataclass(frozen=True)
class CRToken:
    """Chang–Roberts circulating candidate priority."""

    candidate: Any
    priority: Any
    kind: str = "cr"


@dataclass(frozen=True)
class CRElected:
    """Chang–Roberts announcement lap."""

    leader: Any
    kind: str = "cr_elected"


class ChangRoberts(Protocol):
    """Unidirectional Chang–Roberts election on a ring of ints 0..n-1.

    ``direction=+1`` sends along ascending ids — CR's best case when all
    nodes start (every losing token dies after one hop; Θ(n) messages).
    ``direction=-1`` sends along descending ids — the Θ(n²) worst case
    (token k travels k+1 hops before meeting a larger id).
    """

    __slots__ = ("_direction", "_priority", "_participating", "_done")

    def __init__(
        self,
        api: NodeApi,
        *,
        direction: int = +1,
        priority: Any = None,
    ) -> None:
        super().__init__(api)
        if direction not in (+1, -1):
            raise ValueError("direction must be +1 or -1")
        self._direction = direction
        self._priority = api.node_id if priority is None else priority
        self._participating = False
        self._done = False

    def _next_hop(self) -> tuple[int, ...]:
        """Header toward the ring successor in the chosen direction."""
        headers = _ring_headers(self.api)
        me = self.api.node_id
        if self._direction == +1:
            successor = me + 1 if me + 1 in headers else min(headers)
        else:
            successor = me - 1 if me - 1 in headers else max(headers)
        return headers[successor]

    def on_start(self, payload: Any) -> None:
        if self._participating or self._done:
            return
        self._participating = True
        self.api.send(
            self._next_hop(),
            CRToken(candidate=self.api.node_id, priority=self._priority),
        )

    def on_packet(self, packet: Packet) -> None:
        message = packet.payload
        me = self.api.node_id
        if isinstance(message, CRToken):
            if message.candidate == me:
                self._done = True
                self.api.report("leader", me)
                self.api.report("is_leader", True)
                self.api.send(self._next_hop(), CRElected(leader=me))
            elif message.priority > self._priority:
                self._participating = True
                self.api.send(self._next_hop(), message)
            elif not self._participating:
                # Swallow the weaker token but enter the race ourselves.
                self._participating = True
                self.api.send(
                    self._next_hop(),
                    CRToken(candidate=me, priority=self._priority),
                )
            # else: swallow silently.
        elif isinstance(message, CRElected):
            if message.leader != me:
                self._done = True
                self.api.report("leader", message.leader)
                self.api.report("is_leader", False)
                self.api.send(self._next_hop(), message)


@dataclass(frozen=True)
class HSProbe:
    """Hirschberg–Sinclair outbound probe."""

    candidate: Any
    priority: Any
    phase: int
    hops_left: int
    direction: int  # +1 clockwise, -1 counter-clockwise
    kind: str = "hs_probe"


@dataclass(frozen=True)
class HSReply:
    """Hirschberg–Sinclair inbound acknowledgement."""

    candidate: Any
    phase: int
    direction: int  # direction the reply travels
    kind: str = "hs_reply"


@dataclass(frozen=True)
class HSElected:
    """Announcement lap."""

    leader: Any
    kind: str = "hs_elected"


class HirschbergSinclair(Protocol):
    """Bidirectional doubling election on a ring of ints 0..n-1."""

    __slots__ = ("_priority", "_candidate", "_phase", "_replies", "_done")

    def __init__(self, api: NodeApi, *, priority: Any = None) -> None:
        super().__init__(api)
        self._priority = api.node_id if priority is None else priority
        self._candidate = False
        self._phase = 0
        self._replies: set[int] = set()
        self._done = False

    # -- ring geometry ---------------------------------------------------
    def _neighbor(self, direction: int) -> Any:
        neighbors = set(self.api.neighbors())
        me = self.api.node_id
        if direction == +1:
            return me + 1 if me + 1 in neighbors else min(neighbors)
        return me - 1 if me - 1 in neighbors else max(neighbors)

    def _header_to(self, neighbor: Any) -> tuple[int, ...]:
        return _ring_headers(self.api)[neighbor]

    # -- protocol ----------------------------------------------------------
    def on_start(self, payload: Any) -> None:
        if self._candidate or self._done:
            return
        self._candidate = True
        self._phase = 0
        self._send_probes()

    def _send_probes(self) -> None:
        self._replies = set()
        for direction in (+1, -1):
            probe = HSProbe(
                candidate=self.api.node_id,
                priority=self._priority,
                phase=self._phase,
                hops_left=2**self._phase,
                direction=direction,
            )
            self.api.send(self._header_to(self._neighbor(direction)), probe)

    def on_packet(self, packet: Packet) -> None:
        message = packet.payload
        me = self.api.node_id
        if isinstance(message, HSProbe):
            self._on_probe(message)
        elif isinstance(message, HSReply):
            if message.candidate != me:
                self.api.send(
                    self._header_to(self._neighbor(message.direction)), message
                )
                return
            self._replies.add(message.direction)
            if self._replies == {+1, -1} and self._candidate and not self._done:
                self._phase += 1
                self._send_probes()
        elif isinstance(message, HSElected):
            if message.leader != me:
                self._done = True
                self.api.report("leader", message.leader)
                self.api.report("is_leader", False)
                self.api.send(self._header_to(self._neighbor(+1)), message)

    def _on_probe(self, probe: HSProbe) -> None:
        me = self.api.node_id
        if probe.candidate == me:
            # The probe lapped the whole ring: we win.
            if not self._done:
                self._done = True
                self._candidate = False
                self.api.report("leader", me)
                self.api.report("is_leader", True)
                self.api.send(self._header_to(self._neighbor(+1)), HSElected(leader=me))
            return
        if probe.priority < self._priority:
            # Swallow; make sure we are racing too (late starters).
            if not self._candidate and not self._done:
                self._candidate = True
                self._phase = 0
                self._send_probes()
            return
        if probe.hops_left > 1:
            self.api.send(
                self._header_to(self._neighbor(probe.direction)),
                replace(probe, hops_left=probe.hops_left - 1),
            )
        else:
            # Turn the probe around as a reply.
            reply = HSReply(
                candidate=probe.candidate,
                phase=probe.phase,
                direction=-probe.direction,
            )
            self.api.send(self._header_to(self._neighbor(-probe.direction)), reply)
