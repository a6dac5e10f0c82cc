"""Pipelined multi-message broadcast — streaming over branching paths.

The paper's broadcast delivers one message in ≤ log₂ n time units.  A
topology-maintenance source, however, emits a *stream* of broadcasts
(one per period), and the natural question — pursued by the authors'
follow-up work on broadcast in fast networks [GGK90] — is the stream's
throughput.  The branching-path structure pipelines beautifully:

* the root injects message ``i`` one software slot after message
  ``i−1`` (distinct messages through the same ports need distinct
  involvements — the port discipline);
* every path-start relays message ``i`` within the same involvement
  that received it, so consecutive messages ride the path chain one
  slot apart without interfering.

Total time for ``k`` messages is therefore ``(k − 1) + O(log n)``
software slots — latency log n, throughput one broadcast per slot —
instead of the ``k · O(log n)`` a stop-and-wait sender pays.  The E15
bench measures both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from ..hardware.anr import IdLookup
from ..hardware.ids import NCU_ID
from ..hardware.ncu import NodeApi
from ..hardware.packet import Packet
from ..metrics.accounting import MetricsSnapshot
from ..network.network import Network
from ..network.protocol import Protocol
from ..network.spanning import bfs_tree
from .broadcast import BroadcastPlan, plan_broadcast


@dataclass(frozen=True)
class StreamMessage:
    """One element of the broadcast stream."""

    index: int
    body: Any
    plan: BroadcastPlan
    total: int
    kind: str = "stream"


@dataclass(frozen=True)
class StreamNudge:
    """Root-side continuation: inject the next stream element."""

    kind: str = "stream_nudge"


class PipelinedBroadcast(Protocol):
    """Stream ``bodies`` from the root over one branching-path plan.

    Every node reports ``stream_done`` (the time it held all k
    messages); the run driver below aggregates the stream's makespan.
    """

    __slots__ = (
        "_root", "_adjacency", "_ids", "_bodies", "_plan", "_next_index",
        "_received",
    )

    def __init__(
        self,
        api: NodeApi,
        *,
        root: Any,
        adjacency: Mapping[Any, Iterable[Any]],
        ids: IdLookup,
        bodies: Sequence[Any],
    ) -> None:
        super().__init__(api)
        self._root = root
        self._adjacency = adjacency
        self._ids = ids
        self._bodies = list(bodies)
        self._plan: BroadcastPlan | None = None
        self._next_index = 0
        self._received = 0

    # -- root side ---------------------------------------------------------
    def on_start(self, payload: Any) -> None:
        if self.api.node_id != self._root or not self._bodies:
            return
        tree = bfs_tree(self._adjacency, self._root)
        self._plan = plan_broadcast(tree, self._ids)
        self._emit_next()

    def _emit_next(self) -> None:
        assert self._plan is not None
        message = StreamMessage(
            index=self._next_index,
            body=self._bodies[self._next_index],
            plan=self._plan,
            total=len(self._bodies),
        )
        self._next_index += 1
        for directive in self._plan.starting_at(self._root):
            self.api.send(directive.header, message)
        if self._next_index == len(self._bodies):
            self.api.report("stream_done", self.api.now)
        else:
            # Next message, next involvement: the port discipline only
            # lets *identical* messages share a slot.
            self.api.send((NCU_ID,), StreamNudge())

    # -- every node ----------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        message = packet.payload
        if isinstance(message, StreamNudge):
            self._emit_next()
            return
        if not isinstance(message, StreamMessage):
            return
        self._received += 1
        self.api.report(f"got:{message.index}", self.api.now)
        if self._received == message.total:
            self.api.report("stream_done", self.api.now)
        for directive in message.plan.starting_at(self.api.node_id):
            self.api.send(directive.header, message)


@dataclass(frozen=True)
class StreamRun:
    """Outcome of one streamed broadcast."""

    makespan: float
    metrics: MetricsSnapshot
    complete: bool


def run_pipelined_broadcast(
    net: Network, root: Any, bodies: Sequence[Any], *, max_events: int = 5_000_000
) -> StreamRun:
    """Stream ``bodies`` from ``root``; return makespan and costs."""
    adjacency = net.adjacency()
    ids = net.id_lookup
    net.attach(
        lambda api: PipelinedBroadcast(
            api, root=root, adjacency=adjacency, ids=ids, bodies=bodies
        )
    )
    before = net.metrics.snapshot()
    t0 = net.scheduler.now
    net.start([root])
    net.run_to_quiescence(max_events=max_events)
    done = net.outputs_for_key("stream_done")
    return StreamRun(
        makespan=(max(done.values()) - t0) if done else float("nan"),
        metrics=net.metrics.since(before),
        complete=len(done) == net.n,
    )


def run_stop_and_wait(
    net: Network, root: Any, bodies: Sequence[Any], *, max_events: int = 5_000_000
) -> StreamRun:
    """Baseline: broadcast each body separately, waiting for quiescence."""
    from .broadcast import BranchingPathsBroadcast

    adjacency = net.adjacency()
    ids = net.id_lookup
    before = net.metrics.snapshot()
    t0 = net.scheduler.now
    for body in bodies:
        net.attach(
            lambda api: BranchingPathsBroadcast(
                api, root=root, adjacency=adjacency, ids=ids, body=body
            )
        )
        net.start([root])
        net.run_to_quiescence(max_events=max_events)
    return StreamRun(
        makespan=net.scheduler.now - t0,
        metrics=net.metrics.since(before),
        complete=True,
    )
