"""Call setup and take-down over selective copies (the PARIS use case).

Section 2 notes that the copy mechanism's canonical application is
"setup and take-down of calls" [CG88]: user connections are
source-routed, and the one packet that establishes a call drops a copy
at every NCU along the route so each node can install per-call state
(bandwidth reservation, accounting) — the data packets that follow then
fly through pure hardware.

This module implements that connection management layer:

* **SETUP** — one packet along the route, copy at every node; each NCU
  installs a :class:`CallRecord` (direction-aware: previous/next hop)
  and the destination replies **CONNECT** over the accumulated reverse
  path (a pure-hardware direct message);
* **TEARDOWN** — the same copied walk, removing state;
* failures — a SETUP that dies mid-route leaves *partial* state, which
  the originator clears with a teardown after a timeout, exactly the
  failure mode real signalling protocols handle.

Costs in the paper's measures: a call over an h-hop route costs
``h + 1`` system calls to set up (one copy per node plus the
originator's CONNECT receipt) and 1 more per teardown node — while the
subsequent data packets cost **zero** system calls at intermediate
nodes, which is the entire point of the architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..hardware.anr import IdLookup, build_anr, reply_route
from ..hardware.ncu import NodeApi
from ..hardware.packet import Packet
from ..metrics.accounting import MetricsSnapshot
from ..network.network import Network
from ..network.protocol import Protocol
from ..sim.errors import ProtocolError


@dataclass(frozen=True)
class SetupMessage:
    """Establishes per-node state along the route."""

    call_id: int
    route: tuple[Any, ...]
    kind: str = "call_setup"


@dataclass(frozen=True)
class ConnectMessage:
    """Destination's acceptance, returned over the reverse path."""

    call_id: int
    kind: str = "call_connect"


@dataclass(frozen=True)
class TeardownMessage:
    """Clears per-node state along the route."""

    call_id: int
    route: tuple[Any, ...]
    kind: str = "call_teardown"


@dataclass(frozen=True)
class DataMessage:
    """User data on an established call (hardware-only in transit)."""

    call_id: int
    body: Any
    kind: str = "call_data"


@dataclass
class CallRecord:
    """Per-node call state installed by a SETUP copy."""

    call_id: int
    previous_hop: Any
    next_hop: Any
    established: bool = False


class CallManager(Protocol):
    """Connection management at one node.

    The originator drives calls via START payloads:
    ``("setup", call_id, route)``, ``("teardown", call_id)`` and
    ``("send", call_id, body)``.  All state changes at other nodes ride
    on selective copies.
    """

    __slots__ = ("_ids", "calls", "_originated")

    def __init__(self, api: NodeApi, *, ids: IdLookup) -> None:
        super().__init__(api)
        self._ids = ids
        #: call_id -> record (at every node on an installed route).
        self.calls: dict[int, CallRecord] = {}
        #: Originator-side bookkeeping: call_id -> route.
        self._originated: dict[int, tuple[Any, ...]] = {}

    # ------------------------------------------------------------------
    # Driving (originator side)
    # ------------------------------------------------------------------
    def on_start(self, payload: Any) -> None:
        if payload is None:
            return
        action = payload[0]
        if action == "setup":
            _, call_id, route = payload
            self._setup(call_id, tuple(route))
        elif action == "teardown":
            _, call_id = payload
            self._teardown(call_id)
        elif action == "send":
            _, call_id, body = payload
            self._send_data(call_id, body)
        else:
            raise ProtocolError(f"unknown call action {action!r}")

    def _setup(self, call_id: int, route: tuple[Any, ...]) -> None:
        if route[0] != self.api.node_id:
            raise ProtocolError("setup must start at the originator")
        self._originated[call_id] = route
        self.calls[call_id] = CallRecord(
            call_id=call_id,
            previous_hop=None,
            next_hop=route[1] if len(route) > 1 else None,
        )
        header = build_anr(route, self._ids, copy_at=route[1:-1], deliver=True)
        self.api.send(header, SetupMessage(call_id=call_id, route=route))

    def _teardown(self, call_id: int) -> None:
        route = self._originated.get(call_id)
        if route is None:
            raise ProtocolError(f"not the originator of call {call_id}")
        self.calls.pop(call_id, None)
        header = build_anr(route, self._ids, copy_at=route[1:-1], deliver=True)
        self.api.send(header, TeardownMessage(call_id=call_id, route=route))

    def _send_data(self, call_id: int, body: Any) -> None:
        record = self.calls.get(call_id)
        if record is None or not record.established:
            raise ProtocolError(f"call {call_id} is not established")
        route = self._originated[call_id]
        # Pure hardware transit: no copies at intermediates.
        header = build_anr(route, self._ids, deliver=True)
        self.api.send(header, DataMessage(call_id=call_id, body=body))

    # ------------------------------------------------------------------
    # Signalling (all nodes)
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        message = packet.payload
        me = self.api.node_id
        if isinstance(message, SetupMessage):
            position = message.route.index(me)
            self.calls[message.call_id] = CallRecord(
                call_id=message.call_id,
                previous_hop=message.route[position - 1],
                next_hop=(
                    message.route[position + 1]
                    if position + 1 < len(message.route)
                    else None
                ),
            )
            if me == message.route[-1]:
                # Accept: reply over the hardware-accumulated reverse path.
                self.calls[message.call_id].established = True
                self.api.send(
                    reply_route(packet), ConnectMessage(call_id=message.call_id)
                )
        elif isinstance(message, ConnectMessage):
            record = self.calls.get(message.call_id)
            if record is not None:
                record.established = True
                self.api.report(f"established:{message.call_id}", self.api.now)
        elif isinstance(message, TeardownMessage):
            self.calls.pop(message.call_id, None)
        elif isinstance(message, DataMessage):
            self.api.report(f"data:{message.call_id}", message.body)


@dataclass(frozen=True)
class CallTrace:
    """Outcome of a scripted call lifecycle."""

    established: bool
    setup_metrics: MetricsSnapshot
    data_metrics: MetricsSnapshot


def run_call(
    net: Network,
    route: Sequence[Any],
    *,
    call_id: int = 1,
    payloads: Sequence[Any] = ("hello",),
) -> CallTrace:
    """Set up a call over ``route``, send data, and report phase costs."""
    ids = net.id_lookup
    net.attach(lambda api: CallManager(api, ids=ids))
    originator = route[0]

    before = net.metrics.snapshot()
    net.start([originator], payload=("setup", call_id, tuple(route)))
    net.run_to_quiescence()
    setup_delta = net.metrics.since(before)
    established = net.output(originator, f"established:{call_id}") is not None

    data_delta = net.metrics.since(net.metrics.snapshot())
    if established:
        before = net.metrics.snapshot()
        for body in payloads:
            net.start([originator], payload=("send", call_id, body))
            net.run_to_quiescence()
        data_delta = net.metrics.since(before)
    return CallTrace(
        established=established,
        setup_metrics=setup_delta,
        data_metrics=data_delta,
    )
