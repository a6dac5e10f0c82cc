"""The network control unit (NCU): the paper's "software".

Each node has a single NCU — a sequential processor.  Every involvement
of the NCU (handling a received packet, a start signal, a timer, or a
link-state notification) is one **system call**: it is counted in the
metrics and it occupies the processor for one software delay (≤ P).

Jobs are served FIFO, one at a time; a burst of arrivals queues up and
is charged P each, which is exactly the sequential-processing assumption
behind the Section 5 recursion ``S(t) = S(t-P) + S(t-C-P)``.

Whatever a handler *sends* departs at the end of its service slot, and a
single handler invocation may inject any number of packets — the model's
"transmission of the same message over multiple outgoing links at no
extra processing cost" (Section 2), which the branching-paths broadcast
exploits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any

from ..sim.errors import ProtocolError
from ..sim.events import Event
from ..sim.trace import TraceKind
from .link import LinkInfo
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node


class JobKind(Enum):
    """What triggered an NCU involvement."""

    START = "start"
    PACKET = "packet"
    TIMER = "timer"
    LINK_EVENT = "link_event"


@dataclass(slots=True)
class Job:
    """One unit of NCU work (= one system call once served).

    A delivered packet waits in the NCU queue, and is served, as itself:
    it gets its ``Job`` only when its handler runs (see
    :meth:`NCU._complete`).
    """

    kind: JobKind
    payload: Any = None
    tag: str = ""

    @property
    def accounting_kind(self) -> str:
        """Label under which this job is counted in the metrics.

        Packet jobs use the payload's ``kind`` attribute when present so
        protocols get per-message-type system-call counts for free.
        """
        if self.kind is JobKind.PACKET:
            payload = self.payload.payload if isinstance(self.payload, Packet) else None
            return getattr(payload, "kind", JobKind.PACKET.value)
        if self.kind is JobKind.TIMER and self.tag:
            return f"timer:{self.tag}"
        return self.kind.value


class NodeApi:
    """The protocol-facing interface of a node's NCU.

    :class:`NCU` implements it: the API a protocol holds, and is handed
    at every ``dispatch``, is its node's NCU.  Deliberately narrow: a
    protocol can inspect its local topology, send packets with explicit
    ANR headers, set timers and report outputs — nothing else.  Global
    knowledge must arrive through messages, as in the paper's model.
    """

    __slots__ = ()

    # Slots of the NCU subclass.
    _node: "Node"
    ports_used_this_call: set[int] | None
    incarnation: int

    # -- identity and time ---------------------------------------------
    @property
    def node_id(self) -> Any:
        """This node's identity."""
        return self._node.node_id

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._node.net.scheduler.now

    # -- local topology -------------------------------------------------
    def local_links(self) -> tuple[LinkInfo, ...]:
        """Snapshots of all adjacent links (active and inactive)."""
        return self._node.local_topology()

    def active_links(self) -> tuple[LinkInfo, ...]:
        """Snapshots of the currently active adjacent links."""
        return tuple(info for info in self._node.local_topology() if info.active)

    def neighbors(self) -> tuple[Any, ...]:
        """IDs of neighbours across active links, in sorted order."""
        return tuple(info.v for info in self.active_links())

    @property
    def degree(self) -> int:
        """Number of adjacent links (active or not)."""
        return len(self._node.ports) - 1

    # -- actions ----------------------------------------------------------
    def send(self, header: tuple[int, ...], payload: Any) -> Packet:
        """Inject one packet at the local SS with the given ANR header.

        May be called any number of times inside a single handler
        invocation at no extra software cost (the multicast primitive).
        Outside a handler the NCU is not in a system call, so the send
        would go uncharged: it raises :class:`ProtocolError` instead.
        Drivers put raw traffic on the hardware with ``Node.inject``.
        """
        node = self._node
        if self.ports_used_this_call is None:
            raise ProtocolError(
                f"node {node.node_id} sent a packet outside a system call; "
                "an NCU sends only from its handler (a driver injects raw "
                "hardware traffic with Node.inject)"
            )
        return node.inject(header, payload)

    def install_group(
        self,
        group_id: int,
        child_neighbors: tuple[Any, ...],
        *,
        to_ncu: bool = True,
    ) -> None:
        """Install a multicast group at the local SS (hardware extension).

        ``child_neighbors`` are adjacent node IDs whose links become the
        group's member links here.  Installing happens inside the
        current system call — it is the software action that provisions
        hardware state, so it costs nothing extra beyond the call that
        makes it.
        """
        node = self._node
        links = tuple(node.link_to(v) for v in child_neighbors)
        node.install_group(group_id, links, to_ncu=to_ncu)

    def uninstall_group(self, group_id: int) -> None:
        """Remove a multicast group from the local SS."""
        self._node.uninstall_group(group_id)

    def set_timer(self, delay: float, tag: str = "", payload: Any = None) -> Event:
        """Schedule an ``on_timer`` involvement ``delay`` from now.

        Returns the underlying event; cancelling it prevents the job
        from being enqueued (an already-enqueued job cannot be recalled).
        """
        return self._node.net.scheduler.schedule(
            delay,
            self._timer_fire,
            2,
            f"timer:{tag}",
            (tag, payload, self.incarnation),
        )

    def _timer_fire(self, tag: str, payload: Any, incarnation: int = 0) -> None:
        if self.incarnation != incarnation:
            # Set before a crash; the restarted software never armed it.
            return
        node = self._node
        net = node.net
        trace = net.trace
        if trace.enabled:
            trace.record(net.scheduler.now, TraceKind.TIMER_FIRED, node.node_id, tag=tag)
        self.enqueue(Job(JobKind.TIMER, payload, tag))

    def report(self, key: str, value: Any) -> None:
        """Publish a named output (read by drivers and tests)."""
        self._node.net.record_output(self._node.node_id, key, value)

    def log(self, **detail: Any) -> None:
        """Leave a protocol note in the trace."""
        self._node.net.trace.record(
            self.now, TraceKind.PROTOCOL_NOTE, self._node.node_id, **detail
        )


class NCU(NodeApi):
    """Single-server FIFO job queue with software-delay service times.

    Also the node's :class:`NodeApi`: the node's protocol holds its NCU
    as ``api``, and each job is dispatched with the NCU as the API.
    """

    __slots__ = (
        "_node",
        "_queue",
        "_busy",
        "_job_seq",
        "crashed",
        "incarnation",
        "_service_event",
        "ports_used_this_call",
        "queue_peak",
        "system_calls",
    )

    def __init__(self, node: "Node") -> None:
        self._node = node
        #: Waiting work: jobs, and delivered packets waiting as
        #: themselves.  ``None`` whenever no job has to wait: a deque
        #: is ~600 bytes, and at 10⁴–10⁵ nodes most NCUs never queue
        #: (the idle fast path serves directly), so eager allocation
        #: was one of the larger per-node build costs.  ``_complete``
        #: drops the deque again once it drains.
        self._queue: deque[Job | Packet] | None = None
        self._busy = False
        self._job_seq = 0
        #: Whether this NCU is down after a :meth:`crash` (churn
        #: scenarios).  While crashed, arriving jobs are *dropped* —
        #: a down processor loses work — instead of raising the
        #: no-protocol error an NCU whose node has no ``protocol``
        #: raises.
        self.crashed = False
        #: Restart generation.  Timers capture the incarnation they
        #: were set in and are discarded on fire when it no longer
        #: matches, so state lost in a crash cannot leak back in
        #: through the event queue.
        self.incarnation = 0
        #: The scheduled completion event of the job in service, kept
        #: so :meth:`crash` can cancel it (state loss includes the job
        #: on the processor).
        self._service_event: Event | None = None
        #: While a handler runs, the ports (and groups) already used by
        #: sends in this invocation; ``None`` outside handler context.
        #: Enforces the model's multicast primitive: one system call may
        #: transmit over several *distinct* outgoing links at no extra
        #: cost, but pushing two packets through the same port needs two
        #: involvements.  The set itself is the network's ``call_ports``.
        self.ports_used_this_call: set[int] | None = None
        #: High watermark of the software queue depth (jobs waiting plus
        #: the one in service), read by the congestion observability
        #: layer.  One compare per enqueue; never read on the hot path.
        self.queue_peak = 0
        #: System calls this NCU has served: its share of the
        #: system-call complexity, counted by
        #: :meth:`repro.metrics.accounting.MetricsCollector.count_system_call`.
        #: A crash keeps it (the churn monitor reads it while the node
        #: is down); :meth:`reset` zeroes it.
        self.system_calls = 0

    def reset(self) -> None:
        """Restore the pristine pre-``attach()`` state.

        Drops queued jobs, zeroes the system-call count and restarts
        the job sequence so a reused substrate draws the same software
        delays as a freshly built one.  Part of the substrate-reuse
        contract (see :meth:`repro.network.network.Network.reset`).
        """
        self._queue = None
        self._busy = False
        self._job_seq = 0
        self.crashed = False
        self.incarnation = 0
        self._service_event = None
        self.ports_used_this_call = None
        self.queue_peak = 0
        self.system_calls = 0

    def crash(self) -> None:
        """Take the NCU down with total state loss.

        The job in service is abandoned (its completion event is
        cancelled) and the queue is emptied; :meth:`Node.crash` drops
        the protocol instance, which holds all protocol state.  Pending
        timers die lazily: their stored incarnation no longer matches
        after the next :meth:`restart`.
        """
        if self._service_event is not None:
            self._service_event.cancel()
            self._service_event = None
        self._queue = None
        self._busy = False
        self._job_seq = 0
        self.ports_used_this_call = None
        self.crashed = True

    def restart(self) -> None:
        """Bring a crashed NCU back up (:meth:`Node.restart` attaches
        the fresh protocol instance first).

        Bumps the incarnation so timers armed before the crash are
        discarded when they fire — the restarted protocol starts from
        blank state, exactly as a rebooted node would.
        """
        self.crashed = False
        self.incarnation += 1

    @property
    def busy(self) -> bool:
        """Whether a job is currently in service."""
        return self._busy

    @property
    def queued(self) -> int:
        """Jobs waiting behind the one in service."""
        queue = self._queue
        return len(queue) if queue is not None else 0

    # ------------------------------------------------------------------
    # Enqueueing
    # ------------------------------------------------------------------
    def enqueue_packet(self, packet: Packet) -> None:
        """A copy has been delivered by the SS toward this NCU.

        The packet waits and is served as itself; :meth:`_complete`
        wraps it in its :class:`Job` when its handler runs.
        """
        self.enqueue(packet)

    def enqueue(self, job: Job | Packet) -> None:
        """Queue one job or delivered packet; begins service at once if the NCU is idle."""
        if self._node.protocol is None:
            if self.crashed:
                # A down processor loses arriving work silently.
                self._node.net.metrics.count_drop("ncu_crashed")
                return
            kind = JobKind.PACKET if isinstance(job, Packet) else job.kind
            raise ProtocolError(
                f"node {self._node.node_id} received a {kind.value} job "
                "but no protocol is attached"
            )
        queue = self._queue
        if self._busy or queue:
            if queue is None:
                queue = self._queue = deque()
            queue.append(job)
            depth = len(queue) + self._busy
            if depth > self.queue_peak:
                self.queue_peak = depth
            return
        # Idle fast path: skip the append/popleft round-trip through the
        # deque — in a quiescent-ish network this is the common case.
        if not self.queue_peak:
            self.queue_peak = 1
        self._serve(job)

    # ------------------------------------------------------------------
    # Service
    # ------------------------------------------------------------------
    def _begin_next(self) -> None:
        self._serve(self._queue.popleft())

    def _serve(self, job: Job | Packet) -> None:
        node = self._node
        net = node.net
        self._busy = True
        seq = self._job_seq + 1
        self._job_seq = seq
        if isinstance(job, Packet):
            # A delivered packet is counted by its payload's kind, as
            # ``Job.accounting_kind`` would, and is served as itself.
            kind = getattr(job.payload, "kind", "packet")
            packet = job
        else:
            kind = job.accounting_kind
            packet = job.payload
        net.metrics.count_system_call(self, kind)
        trace = net.trace
        if trace.enabled:
            trace.record(
                net.scheduler.now,
                TraceKind.NCU_JOB_START,
                node.node_id,
                job=kind,
                packet=packet.seq if isinstance(packet, Packet) else None,
            )
        service = net.delays.software_delay(node.node_id, seq)
        probe = net.probe
        if probe is not None:
            probe.ncu_job_start(node.node_id, kind, net.scheduler.now, service)
        # The class's function with the NCU as an argument: no NCU
        # keeps a bound method, and ``_complete`` is looked up on the
        # class at each schedule, so a replacement there takes effect.
        self._service_event = net.scheduler.schedule(
            service, NCU._complete, 1, "ncu", (self, job)
        )

    def _complete(self, job: Job | Packet) -> None:
        node = self._node
        net = node.net
        if isinstance(job, Packet):
            # A delivered packet gets its job as its handler runs, so an
            # in-service delivery holds none.  Hand-rolled: the
            # generated dataclass __init__ is measurable at one job per
            # delivery.
            packet = job
            job = Job.__new__(Job)
            job.kind = JobKind.PACKET
            job.payload = packet
            job.tag = ""
        ports = net.call_ports
        ports.clear()
        self.ports_used_this_call = ports
        try:
            # Looked up on the attached instance at every job: no NCU
            # keeps a bound method, and a ``dispatch`` replaced on the
            # class (the handler timer of an active ``PerfCounters``)
            # takes effect at once.
            node.protocol.dispatch(self, job)
        finally:
            self.ports_used_this_call = None
            trace = net.trace
            if trace.enabled:
                trace.record(
                    net.scheduler.now,
                    TraceKind.NCU_JOB_END,
                    node.node_id,
                    job=job.accounting_kind,
                )
            self._busy = False
            self._service_event = None
            if self._queue:
                self._begin_next()
            else:
                # Let a drained deque go: the next burst makes a fresh
                # one, as the first did.
                self._queue = None
