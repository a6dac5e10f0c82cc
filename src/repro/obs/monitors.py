"""Online conformance monitors: the paper's bounds, checked mid-run.

Everything measured so far compared totals to the closed forms *after*
a run finished.  Monitors turn the theorems into live tripwires: a
:class:`MonitorHost` subscribes once to the scheduler observer hook
(keeping the dormant path exactly as cheap as E16 requires — nothing
here runs unless a host is installed) and gives each attached monitor
one check per fired event.  A breach becomes a structured
:class:`Alert` at the *first* event that crosses the bound, while the
run is still in flight — not a post-hoc diff.

Built-in monitors:

* :class:`BudgetMonitor` — streams the metrics counters against
  closed-form :class:`Budget`\\s (Theorem 2's ``n`` system calls and
  ``1 + log2 n`` time for branching-paths broadcast, flooding's ``2m``
  calls, Theorem 5's ``6n`` tour/return calls for election).
* :class:`InvariantMonitor` — adapts
  :class:`~repro.analysis.invariants.ElectionInvariantChecker` into the
  framework with a configurable check cadence.
* :class:`ProgressWatchdog` — quiescence / no-progress detection via
  the scheduler's O(1) ``pending_live``: a simulated-time deadline, an
  event-queue depth limit, and a stall detector for event churn that
  makes no measurable progress.
* :class:`NetCalcMonitor` — network-calculus conformance on
  flow-controlled links (:mod:`repro.analysis.netcalc`): per-direction
  token-bucket arrival conformance, and — while traffic conforms —
  the closed-form backlog and delay bounds of the link's rate-latency
  service curve.

Alerts are recorded into the network's :class:`~repro.sim.trace.Trace`
as :attr:`~repro.sim.trace.TraceKind.ALERT` records, so they flow
through the existing JSONL / Chrome-trace exporters and render in the
text timeline (``!`` marks) with no extra plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..metrics.report import format_table
from ..sim.errors import ProtocolError
from ..sim.trace import TraceKind

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network
    from ..sim.events import Event

#: The monitor names the CLI's ``--monitor`` flag accepts.
MONITOR_NAMES = ("budgets", "invariants", "watchdog", "netcalc", "churn")


@dataclass(frozen=True)
class Alert:
    """One structured conformance violation (or warning).

    ``observed`` / ``bound`` are filled when the alert is a numeric
    budget breach; ``event_index`` is the 1-based count of events the
    host had seen when the alert fired (the breaching event).
    """

    time: float
    monitor: str
    message: str
    severity: str = "violation"
    measure: str | None = None
    observed: float | None = None
    bound: float | None = None
    event_index: int | None = None


class Monitor:
    """Base class: one dormant-cheap check per fired event.

    Subclasses override :meth:`check` (called by the host after every
    event; return an iterable of alerts, empty when all is well) and
    optionally :meth:`finish` (end-of-run checks).
    """

    name = "monitor"

    def check(self, event: "Event") -> Iterable[Alert]:
        """Inspect the network after one fired event."""
        return ()

    def finish(self) -> Iterable[Alert]:
        """Final checks once the run is over."""
        return ()


class MonitorHost:
    """Install monitors on a network; collect their alerts.

    One host registers one scheduler observer for all its monitors, so
    the per-event cost is one call plus each monitor's own check.
    Alerts are appended to :attr:`alerts`, recorded into ``net.trace``
    (a no-op when tracing is off), and forwarded to ``on_alert`` —
    which is how the CLI prints breaches the moment they happen.
    """

    def __init__(
        self,
        net: "Network",
        monitors: Iterable[Monitor],
        *,
        on_alert: Callable[[Alert], None] | None = None,
    ) -> None:
        self.net = net
        self.monitors = list(monitors)
        self.alerts: list[Alert] = []
        self.on_alert = on_alert
        self._installed = False
        self._events = 0

    def install(self) -> "MonitorHost":
        """Subscribe to the scheduler; returns self (idempotent)."""
        if not self._installed:
            self.net.scheduler.add_observer(self._on_event)
            self._installed = True
        return self

    def uninstall(self) -> None:
        """Unsubscribe from the scheduler (idempotent)."""
        if self._installed:
            self.net.scheduler.remove_observer(self._on_event)
            self._installed = False

    def _on_event(self, event: "Event") -> None:
        self._events += 1
        for monitor in self.monitors:
            found = monitor.check(event)
            if found:
                for alert in found:
                    self.emit(alert)

    def emit(self, alert: Alert) -> None:
        """Record one alert (also usable by custom out-of-band checks)."""
        if alert.event_index is None:
            alert = replace(alert, event_index=self._events)
        self.alerts.append(alert)
        self.net.trace.record(
            alert.time,
            TraceKind.ALERT,
            None,
            monitor=alert.monitor,
            severity=alert.severity,
            message=alert.message,
            measure=alert.measure,
            observed=alert.observed,
            bound=alert.bound,
        )
        if self.on_alert is not None:
            self.on_alert(alert)

    def finish(self) -> list[Alert]:
        """Run end-of-run checks, uninstall, return all alerts."""
        for monitor in self.monitors:
            for alert in monitor.finish():
                self.emit(alert)
        self.uninstall()
        return list(self.alerts)

    @property
    def violations(self) -> list[Alert]:
        """Alerts with severity ``"violation"`` (warnings excluded)."""
        return [a for a in self.alerts if a.severity == "violation"]


# ----------------------------------------------------------------------
# Budget monitoring
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Budget:
    """One closed-form bound a run must stay under.

    ``value`` is a zero-argument callable read once per event — keep it
    to counter lookups (the built-in factories do).
    """

    measure: str
    bound: float
    claim: str
    value: Callable[[], float]


class BudgetMonitor(Monitor):
    """Stream live counters against closed-form budgets.

    Each budget alerts exactly once, at the first event after which its
    observed value exceeds the bound; other budgets stay armed.
    """

    name = "budgets"

    def __init__(self, net: "Network", budgets: Sequence[Budget]) -> None:
        self.net = net
        self.budgets = list(budgets)
        self._armed = [True] * len(self.budgets)

    def check(self, event: "Event") -> Iterable[Alert]:
        alerts: list[Alert] = []
        for i, budget in enumerate(self.budgets):
            if not self._armed[i]:
                continue
            observed = budget.value()
            if observed > budget.bound:
                self._armed[i] = False
                alerts.append(
                    Alert(
                        time=self.net.scheduler.now,
                        monitor=self.name,
                        message=(
                            f"{budget.claim}: {budget.measure} reached "
                            f"{observed:g} (bound {budget.bound:g})"
                        ),
                        measure=budget.measure,
                        observed=float(observed),
                        bound=float(budget.bound),
                    )
                )
        return alerts


def broadcast_budgets(net: "Network", scheme: str = "bpaths") -> list[Budget]:
    """The paper's budgets for a standalone broadcast on ``net``.

    ``bpaths`` gets Theorem 2's two bounds (``n`` message system calls,
    ``(1 + log2 n) P + (n-1) C`` elapsed time); ``flood`` gets the
    ``2m``-calls bound.  Schemes without a closed-form claim (direct,
    dfs) return an empty list.  The START trigger is excluded from the
    call counts, matching the benchmarks' per-broadcast accounting.
    """
    from ..analysis.closed_forms import (
        broadcast_system_calls,
        broadcast_time_bound_general,
        flooding_system_calls_bounds,
    )

    metrics = net.metrics

    def message_calls() -> float:
        return metrics.system_calls - metrics.system_calls_of_kind("start")

    if scheme == "bpaths":
        calls = broadcast_system_calls(net.n)
        time_bound = broadcast_time_bound_general(
            net.n, P=net.delays.software_bound, C=net.delays.hardware_bound
        )
        return [
            Budget(
                measure="message system calls",
                bound=calls,
                claim=f"Theorem 2: <= n = {calls} system calls",
                value=message_calls,
            ),
            Budget(
                measure="elapsed time",
                bound=time_bound,
                claim=f"Theorem 2: completion <= (1+log2 n)P + (n-1)C = {time_bound:g}",
                value=lambda: net.scheduler.now,
            ),
        ]
    if scheme == "flood":
        _, hi = flooding_system_calls_bounds(net.m)
        return [
            Budget(
                measure="message system calls",
                bound=hi,
                claim=f"flooding: <= 2m = {hi} system calls",
                value=message_calls,
            )
        ]
    return []


def election_budgets(net: "Network") -> list[Budget]:
    """Theorem 5's budget: at most ``6n`` tour + return system calls."""
    from ..analysis.closed_forms import election_message_bound

    bound = election_message_bound(net.n)
    metrics = net.metrics
    return [
        Budget(
            measure="tour+return system calls",
            bound=bound,
            claim=f"Theorem 5: tour + return <= 6n = {bound}",
            value=lambda: (
                metrics.system_calls_of_kind("tour")
                + metrics.system_calls_of_kind("return")
            ),
        )
    ]


def budgets_for(
    net: "Network", *, command: str, scheme: str | None = None
) -> list[Budget]:
    """Closed-form budgets for one CLI command (empty when none apply)."""
    if command == "broadcast":
        return broadcast_budgets(net, scheme or "bpaths")
    if command == "election":
        return election_budgets(net)
    return []


# ----------------------------------------------------------------------
# Invariant monitoring
# ----------------------------------------------------------------------
class InvariantMonitor(Monitor):
    """Check the Section 4 election invariants every ``every`` events.

    Wraps :class:`~repro.analysis.invariants.ElectionInvariantChecker`;
    on non-election networks the checker skips every node (no
    ``domain``), so attaching this monitor everywhere is harmless.  It
    disarms after its first violation — once the global state is bad,
    every later check would re-report the same corruption.
    """

    name = "invariants"

    def __init__(self, net: "Network", *, every: int = 64) -> None:
        if every < 1:
            raise ValueError("check cadence must be >= 1")
        from ..analysis.invariants import ElectionInvariantChecker

        self.net = net
        self.every = every
        self.checker = ElectionInvariantChecker(net)
        self._count = 0
        self._armed = True

    def check(self, event: "Event") -> Iterable[Alert]:
        self._count += 1
        if not self._armed or self._count % self.every:
            return ()
        try:
            self.checker.check()
        except ProtocolError as exc:
            self._armed = False
            return (
                Alert(
                    time=self.net.scheduler.now,
                    monitor=self.name,
                    message=f"Section 4 invariant violated: {exc}",
                    measure="election invariants",
                ),
            )
        return ()


# ----------------------------------------------------------------------
# Progress watchdog
# ----------------------------------------------------------------------
class ProgressWatchdog(Monitor):
    """Quiescence and no-progress detection via ``pending_live``.

    Three independent guards, each alerting once:

    * ``deadline`` — live events still queued after this simulated
      time: the run should have gone quiescent by now.
    * ``queue_limit`` — ``pending_live`` exceeded the limit: the event
      queue is exploding (a protocol is spawning faster than it
      retires).
    * ``stall_events`` — that many consecutive events fired without the
      progress function changing while live events remain: pure
      scheduler churn (severity ``"warning"``; re-arms when progress
      resumes).  The default progress function is the sum of system
      calls, hops and drops — every *useful* event moves one of them.
    """

    name = "watchdog"

    def __init__(
        self,
        net: "Network",
        *,
        stall_events: int = 10_000,
        deadline: float | None = None,
        queue_limit: int | None = None,
        progress: Callable[[], float] | None = None,
    ) -> None:
        if stall_events < 1:
            raise ValueError("stall_events must be >= 1")
        self.net = net
        self.stall_events = stall_events
        self.deadline = deadline
        self.queue_limit = queue_limit
        metrics = net.metrics
        self._progress = progress or (
            lambda: metrics.system_calls + metrics.hops + metrics.drops
        )
        self._last = self._progress()
        self._stalled = 0
        self._stall_armed = True
        self._deadline_armed = deadline is not None
        self._queue_armed = queue_limit is not None
        self._partition_noted = False

    def _partitioned(self) -> bool:
        """Whether the active topology is disconnected.

        :meth:`Network.components` is memoised on the topology version,
        so a stalled-but-stable network pays one tuple compare per event
        that reaches the stall threshold.
        """
        return len(self.net.components()) > 1

    def check(self, event: "Event") -> Iterable[Alert]:
        alerts: list[Alert] = []
        scheduler = self.net.scheduler
        current = self._progress()
        if current != self._last:
            self._last = current
            self._stalled = 0
            self._stall_armed = True
            self._partition_noted = False
        else:
            self._stalled += 1
            if (
                self._stall_armed
                and self._stalled >= self.stall_events
                and scheduler.pending_live > 0
            ):
                if self._partitioned():
                    # A partitioned network legitimately idles (e.g. a
                    # retry timer waiting out the cut): no stall alert.
                    # One informational annotation per partition episode
                    # keeps the condition visible in the alert stream.
                    if not self._partition_noted:
                        self._partition_noted = True
                        alerts.append(
                            Alert(
                                time=scheduler.now,
                                monitor=self.name,
                                severity="info",
                                message=(
                                    f"no progress for {self._stalled} events, "
                                    "but the network is partitioned — stall "
                                    "alert suppressed until it reconnects"
                                ),
                                measure="stalled events",
                                observed=float(self._stalled),
                                bound=float(self.stall_events),
                            )
                        )
                else:
                    self._partition_noted = False
                    self._stall_armed = False
                    alerts.append(
                        Alert(
                            time=scheduler.now,
                            monitor=self.name,
                            severity="warning",
                            message=(
                                f"no progress for {self._stalled} events with "
                                f"{scheduler.pending_live} live events queued"
                            ),
                            measure="stalled events",
                            observed=float(self._stalled),
                            bound=float(self.stall_events),
                        )
                    )
        if self._deadline_armed and scheduler.now > self.deadline:
            if scheduler.pending_live > 0:
                self._deadline_armed = False
                alerts.append(
                    Alert(
                        time=scheduler.now,
                        monitor=self.name,
                        message=(
                            f"not quiescent by t={self.deadline:g}: "
                            f"{scheduler.pending_live} live events queued"
                        ),
                        measure="quiescence deadline",
                        observed=scheduler.now,
                        bound=float(self.deadline),
                    )
                )
        if self._queue_armed and scheduler.pending_live > self.queue_limit:
            self._queue_armed = False
            alerts.append(
                Alert(
                    time=scheduler.now,
                    monitor=self.name,
                    message=(
                        f"event queue depth {scheduler.pending_live} exceeds "
                        f"limit {self.queue_limit}"
                    ),
                    measure="pending_live",
                    observed=float(scheduler.pending_live),
                    bound=float(self.queue_limit),
                )
            )
        return alerts


# ----------------------------------------------------------------------
# Network-calculus conformance
# ----------------------------------------------------------------------
class _LinkTracker:
    """Online state for one flow-controlled link direction."""

    __slots__ = (
        "link", "state", "arrival", "service",
        "delay_bound", "backlog_bound",
        "tokens", "last_time", "seen_arrivals", "conforming",
        "backlog_armed", "delay_armed",
    )

    def __init__(self, link: Any, state: Any, arrival: Any, service: Any,
                 delay: float, backlog: float) -> None:
        self.link = link
        self.state = state
        self.arrival = arrival
        self.service = service
        self.delay_bound = delay
        self.backlog_bound = backlog
        self.tokens = arrival.burst
        self.last_time = 0.0
        self.seen_arrivals = 0
        self.conforming = True
        self.backlog_armed = backlog != float("inf")
        self.delay_armed = delay != float("inf")


class NetCalcMonitor(Monitor):
    """Cross-check flow-controlled links against network-calculus bounds.

    For every link direction with flow control enabled this monitor
    keeps a token bucket ``(rate, burst)`` as the direction's declared
    arrival curve and the link's rate-latency service curve
    (:func:`repro.analysis.netcalc.link_service_curve`, built from the
    configured rate, the delay model's worst-case hardware delay and
    the credit window).  Per check it:

    1. replays the direction's cumulative arrivals through the token
       bucket — a deficit means the traffic *exceeds its declared
       envelope* (one alert, after which the closed-form bounds no
       longer apply and checks 2–3 disarm for that direction);
    2. compares live occupancy against the backlog bound ``b + r*T``;
    3. compares the measured worst per-packet link delay against the
       delay bound ``T + b/R``.

    On conforming traffic, 2 and 3 are theorems — an alert there means
    the simulation contradicts the calculus and is worth a postmortem
    (the CLI trips the flight recorder on any alert).

    ``arrival`` overrides the declared curve for every direction; the
    default is the most permissive *stable* envelope — rate equal to
    the direction's sustained window-limited service rate, burst equal
    to its credit window — so any traffic a conforming source could
    actually sustain passes check 1.
    """

    name = "netcalc"

    def __init__(
        self,
        net: "Network",
        *,
        arrival: Any | None = None,
        every: int = 1,
        eps: float = 1e-9,
    ) -> None:
        from ..analysis.netcalc import (
            TokenBucket,
            backlog_bound,
            delay_bound,
            link_service_curve,
        )

        if every < 1:
            raise ValueError("check cadence must be >= 1")
        self.net = net
        self.every = every
        self.eps = eps
        self._count = 0
        latency = net.delays.hardware_bound
        self._tracked: list[_LinkTracker] = []
        for link, state in net.flow_states():
            service = link_service_curve(state.rate, latency, state.buffer)
            curve = arrival
            if curve is None:
                burst = float(state.buffer) if state.buffer is not None else 1.0
                curve = TokenBucket(rate=service.rate, burst=max(1.0, burst))
            self._tracked.append(
                _LinkTracker(
                    link, state, curve, service,
                    delay_bound(curve, service),
                    backlog_bound(curve, service),
                )
            )

    @property
    def tracked_count(self) -> int:
        """Flow-controlled link directions under observation."""
        return len(self._tracked)

    def bounds_table(self) -> str:
        """Text table of the per-direction curves and bounds."""
        rows = [
            [
                f"{t.link.key} from {t.state.sender}",
                f"r={t.arrival.rate:g} b={t.arrival.burst:g}",
                f"R={t.service.rate:g} T={t.service.latency:g}",
                f"{t.delay_bound:g}",
                f"{t.backlog_bound:g}",
            ]
            for t in self._tracked
        ]
        return format_table(
            ["direction", "arrival", "service", "delay bound", "backlog bound"],
            rows,
            title="network-calculus bounds",
        )

    def check(self, event: "Event") -> Iterable[Alert]:
        self._count += 1
        if self._count % self.every:
            return ()
        now = self.net.scheduler.now
        eps = self.eps
        alerts: list[Alert] = []
        for tracker in self._tracked:
            state = tracker.state
            curve = tracker.arrival
            # 1. Token-bucket conformance on cumulative arrivals.
            dt = now - tracker.last_time
            if dt > 0.0:
                tracker.last_time = now
                if curve.rate != float("inf"):
                    tracker.tokens = min(
                        curve.burst, tracker.tokens + curve.rate * dt
                    )
                else:
                    tracker.tokens = curve.burst
            new = state.arrivals - tracker.seen_arrivals
            if new:
                tracker.seen_arrivals = state.arrivals
                tracker.tokens -= new
                if tracker.tokens < -eps and tracker.conforming:
                    tracker.conforming = False
                    deficit = -tracker.tokens
                    alerts.append(
                        Alert(
                            time=now,
                            monitor=self.name,
                            message=(
                                f"link {tracker.link.key} from "
                                f"{tracker.state.sender}: traffic exceeds its "
                                f"declared arrival curve (rate "
                                f"{curve.rate:g}, burst {curve.burst:g}) by "
                                f"{deficit:g} packets; netcalc bounds no "
                                "longer apply to this direction"
                            ),
                            measure="arrival conformance",
                            observed=float(deficit),
                            bound=0.0,
                        )
                    )
            if not tracker.conforming:
                continue
            # 2. Backlog bound (theorem while traffic conforms).
            if tracker.backlog_armed:
                occupancy = len(state.pending) + state.in_flight
                if occupancy > tracker.backlog_bound + eps:
                    tracker.backlog_armed = False
                    alerts.append(
                        Alert(
                            time=now,
                            monitor=self.name,
                            message=(
                                f"link {tracker.link.key} from "
                                f"{tracker.state.sender}: occupancy "
                                f"{occupancy} exceeds the network-calculus "
                                f"backlog bound {tracker.backlog_bound:g} on "
                                "conforming traffic"
                            ),
                            measure="backlog bound",
                            observed=float(occupancy),
                            bound=tracker.backlog_bound,
                        )
                    )
            # 3. Delay bound (theorem while traffic conforms).
            if tracker.delay_armed and state.max_delay > tracker.delay_bound + eps:
                tracker.delay_armed = False
                alerts.append(
                    Alert(
                        time=now,
                        monitor=self.name,
                        message=(
                            f"link {tracker.link.key} from "
                            f"{tracker.state.sender}: measured link delay "
                            f"{state.max_delay:g} exceeds the "
                            f"network-calculus delay bound "
                            f"{tracker.delay_bound:g} on conforming traffic"
                        ),
                        measure="delay bound",
                        observed=state.max_delay,
                        bound=tracker.delay_bound,
                    )
                )
        return alerts


# ----------------------------------------------------------------------
# Churn conformance
# ----------------------------------------------------------------------
class ChurnMonitor(Monitor):
    """Assert the §3/§4 invariants survive crashes, partitions and heals.

    Live checks (every ``every`` events, over the crashed nodes and the
    ones baselined while crashed, in node order):

    * **crash freeze** — a crashed NCU must not execute system calls:
      its per-node call count is baselined at the first crashed
      observation and a later change is a violation (reported once per
      crash, then re-baselined to avoid alert spam);
    * **crash hygiene** — a crashed NCU must hold no queued or
      in-service jobs (state loss means the queue died with the node).

    End-of-run checks (:meth:`finish`):

    * the scheduler must be quiescent (live events left over mean the
      scenario never converged);
    * with ``expect_leaders=True``, every connected component of the
      active topology must contain **exactly one** up node reporting
      ``is_leader`` — the per-component uniqueness that makes one
      coordinator per side legitimate while partitioned and forces
      re-convergence to a single leader after a heal.
    """

    name = "churn"

    def __init__(
        self, net: "Network", *, every: int = 64, expect_leaders: bool = True
    ) -> None:
        if every < 1:
            raise ValueError("check cadence must be >= 1")
        self.net = net
        self.every = every
        self.expect_leaders = expect_leaders
        self._count = 0
        #: node_id -> system-call count when first seen crashed.
        self._frozen: dict[Any, int] = {}

    def check(self, event: "Event") -> Iterable[Alert]:
        self._count += 1
        if self._count % self.every:
            return ()
        net = self.net
        nodes = net.nodes
        metrics = net.metrics
        alerts: list[Alert] = []
        # ``net.nodes`` is in repr order, so this visits the nodes that
        # can alert or drop a baseline in the order a walk over every
        # node would, at O(crashed) cost.
        for node_id in sorted(net.crashed_nodes.union(self._frozen), key=repr):
            ncu = nodes[node_id].ncu
            if not ncu.crashed:
                self._frozen.pop(node_id, None)
                continue
            calls = metrics.system_calls_at(node_id)
            baseline = self._frozen.get(node_id)
            if baseline is None:
                self._frozen[node_id] = calls
            elif calls != baseline:
                self._frozen[node_id] = calls
                alerts.append(
                    Alert(
                        time=net.scheduler.now,
                        monitor=self.name,
                        message=(
                            f"crashed node {node_id!r} executed "
                            f"{calls - baseline} system call(s) while down"
                        ),
                        measure="crash freeze",
                        observed=float(calls),
                        bound=float(baseline),
                    )
                )
            if ncu.queued or ncu.busy:
                alerts.append(
                    Alert(
                        time=net.scheduler.now,
                        monitor=self.name,
                        message=(
                            f"crashed node {node_id!r} holds NCU work "
                            f"(queued={ncu.queued}, busy={ncu.busy}); a crash "
                            "must lose the queue"
                        ),
                        measure="crash hygiene",
                        observed=float(ncu.queued + ncu.busy),
                        bound=0.0,
                    )
                )
        return alerts

    def finish(self) -> Iterable[Alert]:
        net = self.net
        alerts: list[Alert] = []
        pending = net.scheduler.pending_live
        if pending > 0:
            alerts.append(
                Alert(
                    time=net.scheduler.now,
                    monitor=self.name,
                    message=(
                        f"scenario ended with {pending} live event(s) still "
                        "queued; the run never converged"
                    ),
                    measure="quiescence",
                    observed=float(pending),
                    bound=0.0,
                )
            )
        if not self.expect_leaders:
            return alerts
        leaders = net.outputs_for_key("is_leader")
        for component in net.components():
            up = [
                node_id
                for node_id in component
                if not net.nodes[node_id].ncu.crashed
                and net.nodes[node_id].protocol is not None
            ]
            if not up:
                continue
            elected = sorted(
                (node_id for node_id in up if leaders.get(node_id)), key=repr
            )
            if len(elected) != 1:
                label = sorted(component, key=repr)
                alerts.append(
                    Alert(
                        time=net.scheduler.now,
                        monitor=self.name,
                        message=(
                            f"component {label!r} has {len(elected)} "
                            f"leader(s) {elected!r}; exactly one expected "
                            "among its up nodes"
                        ),
                        measure="leaders per component",
                        observed=float(len(elected)),
                        bound=1.0,
                    )
                )
        return alerts


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def monitors_from_spec(
    net: "Network",
    spec: str,
    *,
    command: str,
    scheme: str | None = None,
    churn: bool = False,
) -> tuple[list[Monitor], list[str]]:
    """Build monitors from a ``--monitor`` comma list.

    Returns ``(monitors, notes)`` where notes explain any requested
    monitor that does not apply (e.g. no closed-form budgets for the
    command, or Section 4's failure-free invariants on a run that
    replays crash, restart or reelect events: ``churn``).  Raises
    :class:`ValueError` on unknown names.
    """
    names = [part.strip() for part in spec.split(",") if part.strip()]
    netcalc_explicit = "netcalc" in names
    if "all" in names:
        names = list(MONITOR_NAMES)
    unknown = sorted(set(names) - set(MONITOR_NAMES))
    if unknown:
        raise ValueError(
            f"unknown monitor(s) {unknown}; choose from "
            f"{', '.join(MONITOR_NAMES)} or 'all'"
        )
    monitors: list[Monitor] = []
    notes: list[str] = []
    for name in dict.fromkeys(names):
        if name == "budgets":
            budgets = budgets_for(net, command=command, scheme=scheme)
            if budgets:
                monitors.append(BudgetMonitor(net, budgets))
            else:
                what = f"{command}/{scheme}" if scheme else command
                notes.append(
                    f"(no closed-form budgets for {what}; budget monitor skipped)"
                )
        elif name == "invariants":
            if churn:
                notes.append(
                    "(scenario crashes or restarts nodes; invariants monitor "
                    "skipped — the churn monitor checks this run)"
                )
            else:
                monitors.append(InvariantMonitor(net))
        elif name == "watchdog":
            monitors.append(ProgressWatchdog(net))
        elif name == "churn":
            monitors.append(
                ChurnMonitor(
                    net, expect_leaders=command in ("election", "scenario")
                )
            )
        elif name == "netcalc":
            monitor = NetCalcMonitor(net)
            if monitor.tracked_count:
                monitors.append(monitor)
            elif netcalc_explicit:
                # 'all' skips silently: most runs have no flow control
                # and the note would be pure noise there.
                notes.append(
                    "(no flow-controlled links; netcalc monitor skipped — "
                    "enable with --link-rate/--link-buffer)"
                )
    return monitors, notes


def render_alerts(
    alerts: Sequence[Alert], *, title: str = "conformance monitors"
) -> str:
    """Text table of alerts in the repo's standard style."""
    if not alerts:
        return f"{title}: no alerts (all monitored bounds held)"

    def num(value: float | None) -> Any:
        return "-" if value is None else f"{value:g}"

    rows = [
        [
            f"{alert.time:g}",
            alert.monitor,
            alert.severity,
            alert.measure or "-",
            num(alert.observed),
            num(alert.bound),
            alert.message,
        ]
        for alert in alerts
    ]
    return format_table(
        ["t", "monitor", "severity", "measure", "observed", "bound", "detail"],
        rows,
        title=title,
    )
