"""Causal-message analysis: the paper's appendix, executable.

Theorem 6's proof defines **causal messages** recursively: a message is
causal if it is received by node 1 (the output node) before the
algorithm terminates, or if it is received by some node before that
node sends a causal message.  Lemma A.1 says non-causal messages can be
delayed arbitrarily without changing anything; Lemma A.3 observes that
each node's *last* causal message defines a spanning tree rooted at
node 1, and the tree-based algorithm over that tree is at least as fast
as the original algorithm.

This module makes the construction executable against *any* protocol:

* :class:`CausalityRecorder` wraps a protocol factory and logs one
  :class:`CausalEvent` per NCU involvement — what was received, what
  was sent, what was reported;
* :func:`compute_causal_messages` runs the recursive definition
  backwards over the log;
* :func:`last_causal_tree` extracts the Lemma A.3 spanning tree.

The tests verify that for the tree-based algorithm the extracted tree
is exactly the aggregation tree, and that for a chattier algorithm the
extraction prunes all the noise — reproducing the appendix's argument
as a computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..hardware.ncu import Job, NodeApi
from ..hardware.packet import Packet
from ..network.protocol import Protocol, ProtocolFactory
from ..network.spanning import Tree
from ..sim.errors import ProtocolError


@dataclass(slots=True)
class CausalEvent:
    """One NCU involvement, as seen by the causality recorder."""

    index: int
    time: float
    node: Any
    kind: str
    received: int | None  # packet seq delivered to this involvement
    sent: list[int] = field(default_factory=list)  # packet seqs injected
    reported: list[str] = field(default_factory=list)  # output keys


class CausalLog:
    """Shared, append-only event log for one simulation run."""

    def __init__(self) -> None:
        self.events: list[CausalEvent] = []
        #: packet seq -> (sender event index, receiver event index|None)
        self.send_event: dict[int, int] = {}
        self.receive_event: dict[int, int] = {}

    def new_event(self, time: float, node: Any, kind: str,
                  received: int | None) -> CausalEvent:
        event = CausalEvent(
            index=len(self.events), time=time, node=node, kind=kind,
            received=received,
        )
        self.events.append(event)
        if received is not None:
            self.receive_event[received] = event.index
        return event

    def record_send(self, event: CausalEvent, packet_seq: int) -> None:
        event.sent.append(packet_seq)
        self.send_event[packet_seq] = event.index


class _RecordingApi:
    """NodeApi proxy that logs sends and reports into the current event."""

    def __init__(self, inner: NodeApi, log: CausalLog) -> None:
        self._inner = inner
        self._log = log
        self.current_event: CausalEvent | None = None

    # -- intercepted -----------------------------------------------------
    def send(self, header: tuple[int, ...], payload: Any) -> Packet:
        packet = self._inner.send(header, payload)
        if self.current_event is not None:
            self._log.record_send(self.current_event, packet.seq)
        return packet

    def report(self, key: str, value: Any) -> None:
        if self.current_event is not None:
            self.current_event.reported.append(key)
        self._inner.report(key, value)

    # -- delegated -------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class _RecordingProtocol(Protocol):
    """Wraps an inner protocol, logging one event per involvement."""

    __slots__ = ("_log", "_proxy", "_inner")

    def __init__(self, api: NodeApi, inner_factory: ProtocolFactory,
                 log: CausalLog) -> None:
        super().__init__(api)
        self._log = log
        self._proxy = _RecordingApi(api, log)
        self._inner = inner_factory(self._proxy)  # type: ignore[arg-type]

    def dispatch(self, api: NodeApi, job: Job) -> None:
        received = None
        if isinstance(job.payload, Packet):
            received = job.payload.seq
        event = self._log.new_event(
            time=api.now, node=api.node_id, kind=job.accounting_kind,
            received=received,
        )
        self._proxy.current_event = event
        try:
            self._inner.dispatch(self._proxy, job)  # type: ignore[arg-type]
        finally:
            self._proxy.current_event = None

    @property
    def inner(self) -> Protocol:
        """The wrapped protocol instance (for state inspection)."""
        return self._inner


class CausalityRecorder:
    """Factory wrapper: ``net.attach(recorder.wrap(factory))``."""

    def __init__(self) -> None:
        self.log = CausalLog()

    def wrap(self, factory: ProtocolFactory) -> ProtocolFactory:
        """A factory producing recording wrappers around ``factory``."""
        return lambda api: _RecordingProtocol(api, factory, self.log)


# ----------------------------------------------------------------------
# The appendix's definitions
# ----------------------------------------------------------------------
def termination_event(log: CausalLog, root: Any, *, key: str = "result") -> CausalEvent:
    """The event at which the output node reported its result."""
    for event in log.events:
        if event.node == root and key in event.reported:
            return event
    raise ProtocolError(f"no event at {root!r} reported {key!r}")


def compute_causal_messages(
    log: CausalLog, root: Any, *, key: str = "result"
) -> set[int]:
    """Packet seqs of all causal messages (the appendix's definition).

    A message is causal iff it was received by ``root`` at or before
    the termination event, or received at a node at an event no later
    than one of that node's causal-send events (a message sent inside
    the receiving involvement counts: the receipt "happened before" the
    send).
    """
    final = termination_event(log, root, key=key)
    causal: set[int] = set()
    # Receipts per node in event order, for the backward sweep.
    receipts_by_node: dict[Any, list[tuple[int, int]]] = {}
    for seq, event_index in log.receive_event.items():
        node = log.events[event_index].node
        receipts_by_node.setdefault(node, []).append((event_index, seq))
    for receipts in receipts_by_node.values():
        receipts.sort()

    worklist: list[int] = []

    def mark(seq: int) -> None:
        if seq not in causal:
            causal.add(seq)
            worklist.append(seq)

    # Base case: received by the output node by termination time.
    for event_index, seq in receipts_by_node.get(root, []):
        if event_index <= final.index:
            mark(seq)

    # Recursive case: anything received at the sender's node at or
    # before a causal send becomes causal.
    while worklist:
        seq = worklist.pop()
        send_index = log.send_event.get(seq)
        if send_index is None:
            continue  # injected by a driver, not a protocol event
        sender = log.events[send_index].node
        for event_index, earlier_seq in receipts_by_node.get(sender, []):
            if event_index <= send_index:
                mark(earlier_seq)
            else:
                break
    return causal


def last_causal_tree(
    log: CausalLog, root: Any, *, key: str = "result"
) -> Tree:
    """The Lemma A.3 construction: each node's last causal send.

    For every node that ever sent a causal message, take the *last* one
    and draw an edge to the node that received it.  The appendix proves
    these edges form a spanning tree rooted at the output node; the
    function validates that claim while building the tree and raises
    :class:`ProtocolError` if it fails (which would falsify the lemma).
    """
    causal = compute_causal_messages(log, root, key=key)
    last_send: dict[Any, tuple[int, int]] = {}  # node -> (event idx, seq)
    for seq in causal:
        send_index = log.send_event.get(seq)
        if send_index is None:
            continue
        sender = log.events[send_index].node
        current = last_send.get(sender)
        if current is None or send_index > current[0]:
            last_send[sender] = (send_index, seq)

    parent: dict[Any, Any] = {root: None}
    for sender, (_, seq) in last_send.items():
        if sender == root:
            continue
        receive_index = log.receive_event.get(seq)
        if receive_index is None:
            raise ProtocolError(f"causal message {seq} was never received")
        parent[sender] = log.events[receive_index].node

    tree = Tree(root=root, parent=parent)  # validates parent consistency
    # Spanning check: every parent chain must reach the root (Tree's
    # construction already guarantees acyclicity via the children map).
    for node in parent:
        cur = node
        hops = 0
        while parent[cur] is not None:
            cur = parent[cur]
            hops += 1
            if hops > len(parent):
                raise ProtocolError("last-causal edges contain a cycle")
        if cur != root:
            raise ProtocolError(
                f"last-causal chain from {node!r} ends at {cur!r}, not the root"
            )
    return tree


def message_counts(log: CausalLog, root: Any, *, key: str = "result") -> tuple[int, int]:
    """(total protocol-sent messages, causal messages) for a run."""
    causal = compute_causal_messages(log, root, key=key)
    return len(log.send_event), len(causal)
