"""E16 — the zero-overhead guarantee for dormant observability hooks.

PR 1 added three instrumentation surfaces to the hot path:

* the scheduler's observer hook (one truthiness check per fired event),
* the scheduler's live-event accounting (an ``on_cancel`` slot set at
  push time so ``pending_live`` is O(1)),
* the network probe checks in the NCU and SS (one ``is not None`` per
  system call / hop).

This bench proves the guarantee the instrumentation was designed
around: with nothing installed, the event loop stays within noise
(≤ 5%) of the seed scheduler loop.  ``SeedScheduler`` below is a
faithful replica of the seed repo's run loop — same heap, same Event
objects, no hooks — so the comparison isolates exactly the code added
for observability.  A third measurement with a live observer installed
reports (but does not bound) the enabled cost.

Methodology: the workload is 64 self-rescheduling event chains (the
shape real protocol runs produce) driven to ~40k events; variants are
interleaved across repeats and the per-variant minimum is compared,
which cancels machine-load drift.
"""

from __future__ import annotations

import ast
import difflib
import heapq
import inspect
import textwrap
import timeit
from contextlib import contextmanager

import pytest
from conftest import emit

from repro.hardware.ncu import NCU
from repro.hardware.switch import SwitchingSubsystem, _deliver
from repro.sim.events import Event
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceKind

CHAINS = 64
EVENTS_PER_CHAIN = 600
REPEATS = 7
TOLERANCE = 1.05


class SeedScheduler:
    """Verbatim replica of the seed repo's scheduler (pre-observability).

    Same heap, same Event objects, same per-event ``until`` /
    ``max_events`` / ``stop_when`` checks and ``_drop_cancelled`` method
    call the seed's run loop performed — but none of the hooks — so the
    comparison isolates exactly the code added for observability.
    """

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._now = 0.0
        self._seq = 0
        self._events_processed = 0
        self._running = False

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay, action, *, priority=0, tag=""):
        # The seq counter keeps FIFO order among equal (time, priority)
        # events, as the seed's module-global event counter did.
        seq = self._seq
        self._seq = seq + 1
        event = Event(time=self._now + delay, priority=priority, seq=seq,
                      action=action, tag=tag)
        heapq.heappush(self._queue, event)
        return event

    def run(self, *, until=None, max_events=None, stop_when=None):
        self._running = True
        fired = 0
        try:
            while True:
                self._drop_cancelled()
                if not self._queue:
                    break
                event = self._queue[0]
                if until is not None and event.time > until:
                    self._now = max(self._now, until)
                    break
                heapq.heappop(self._queue)
                self._now = event.time
                event.action()
                self._events_processed += 1
                fired += 1
                if max_events is not None and fired >= max_events:
                    raise RuntimeError(f"exceeded max_events={max_events}")
                if stop_when is not None and stop_when():
                    break
        finally:
            self._running = False
        return self._now

    def _drop_cancelled(self) -> None:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)


def drive(scheduler) -> int:
    """Run the chain workload on one scheduler; returns events fired."""
    remaining = [EVENTS_PER_CHAIN] * CHAINS

    def make_step(chain: int):
        def step() -> None:
            remaining[chain] -= 1
            if remaining[chain] > 0:
                scheduler.schedule(1.0, step, priority=chain % 3)
        return step

    for chain in range(CHAINS):
        scheduler.schedule(float(chain % 5), make_step(chain))
    scheduler.run()
    return CHAINS * EVENTS_PER_CHAIN


def measure(factory) -> float:
    """Seconds for one workload run (fresh scheduler per call)."""
    return timeit.timeit(lambda: drive(factory()), number=1)


def hooked_disabled() -> Scheduler:
    return Scheduler()


def hooked_enabled() -> Scheduler:
    sched = Scheduler()
    counters = {"events": 0}

    def observer(event: Event) -> None:
        counters["events"] += 1

    sched.add_observer(observer)
    return sched


def test_disabled_hooks_within_noise_of_seed_loop(capsys):
    variants = {
        "seed loop (replica)": SeedScheduler,
        "hooks present, disabled": hooked_disabled,
        "observer installed": hooked_enabled,
    }
    # Warm-up (bytecode, allocator, branch caches) before timing.
    for factory in variants.values():
        measure(factory)
    best = {name: float("inf") for name in variants}
    for _ in range(REPEATS):
        for name, factory in variants.items():
            best[name] = min(best[name], measure(factory))

    events = CHAINS * EVENTS_PER_CHAIN
    seed = best["seed loop (replica)"]
    rows = [
        [name, seconds * 1e9 / events, seconds / seed]
        for name, seconds in best.items()
    ]
    emit(
        capsys,
        "E16: observability hook overhead on the scheduler loop "
        f"({events} events, best of {REPEATS})",
        ["variant", "ns_per_event", "vs_seed"],
        rows,
    )
    ratio = best["hooks present, disabled"] / seed
    assert ratio <= TOLERANCE, (
        f"dormant observability hooks cost {ratio:.3f}x the seed loop "
        f"(budget {TOLERANCE}x); the zero-overhead guarantee is broken"
    )


# ----------------------------------------------------------------------
# E16b — the dormant NCU handler timer on the forwarding hot path
# ----------------------------------------------------------------------
# Scheduler, trace and hop counts reach ``PerfCounters`` through the
# cold fold in ``Network.run``, so the one perf hook left on this path
# is the handler timer in ``NCU._complete``.  ``_complete_noperf`` is
# that function with exactly the timer lines removed — the same
# methodology as SeedScheduler above, applied per function so the gate
# isolates precisely the hook.  The class is patched *before* the
# network is built because the NCU captures its ``_complete_cb`` on
# first use.

FWD_LENGTH = 64
FWD_PACKETS = 200
FWD_REPEATS = 7


def _complete_noperf(self, job):
    net = self._node.net
    assert self.handler is not None
    ports = net.call_ports
    ports.clear()
    self.ports_used_this_call = ports
    try:
        self.handler(self._node.api, job)
    finally:
        self.ports_used_this_call = None
        trace = net.trace
        if trace.enabled:
            trace.record(
                net.scheduler.now,
                TraceKind.NCU_JOB_END,
                self._node.node_id,
                job=job.accounting_kind,
            )
        self._busy = False
        self._service_event = None
        if self._queue:
            self._begin_next()


# ----------------------------------------------------------------------
# E16c — dormant flow control on the forwarding hot path
# ----------------------------------------------------------------------
# Credit-based flow control on ``Link`` costs the free-hardware
# forwarding path one ``fc = link.fc`` attribute load plus an
# ``is not None`` check per hop when no limits are configured (the
# default).  ``_forward_nofc`` is ``_forward`` with exactly those lines
# removed, so the gate isolates precisely the flow-control check.


def _forward_nofc(self, packet, link):
    node = self._node
    net = node.net
    me = node.node_id
    if not link.active:
        net.metrics.count_drop("inactive_link")
        trace = net.trace
        if trace.enabled:
            trace.record(
                net.scheduler.now,
                TraceKind.PACKET_DROPPED,
                me,
                packet=packet.seq,
                reason="inactive_link",
                link=link.key,
            )
        return

    now = net.scheduler.now
    delay = net.delays.hardware_delay(link.key, packet.seq)
    arrival = link.fifo_arrival(me, now + delay)
    if link.node_u is node:
        far, receiving_normal = link.node_v, link._normal_v
    else:
        far, receiving_normal = link.node_u, link._normal_u
    packet.hops += 1
    packet._reverse.append(receiving_normal)
    net.metrics.count_hop(link.key)
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
    net.scheduler.schedule_at(arrival, _deliver, 0, "hop", (far.ss, packet, link))


#: Each replica: the class and method it replaces, and the live lines it
#: strips, as ``ast.unparse`` renders them.
REPLICAS = {
    "E16b": (NCU, "_complete", _complete_noperf, (
        "perf = net.perf",
        "t0 = _perf_counter() if perf is not None else 0.0",
        "if perf is not None:",
        "dt = _perf_counter() - t0",
        "perf.ncu_jobs += 1",
        "perf.ncu_handler_s += dt",
        "perf.handler_us.add(dt * 1000000.0)",
    )),
    "E16c": (SwitchingSubsystem, "_forward", _forward_nofc, (
        "fc = link.fc",
        "if fc is not None:",
        "link.fc_forward(me, packet)",
        "return",
    )),
}


def _body_lines(fn) -> list[str]:
    """``fn``'s body without signature, docstring or comments.

    ``ast.unparse`` normalises layout, so only code differences remain
    (a keyword argument where the live code passes it by position still
    shows).  Lines are returned without their indentation.
    """
    body = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0].body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return [line.strip() for line in ast.unparse(ast.Module(body, [])).splitlines()]


@pytest.mark.parametrize("experiment", sorted(REPLICAS))
def test_replica_is_live_code_minus_the_stripped_lines(experiment):
    """Timing-free: a replica that drifts from its live function skews its gate."""
    cls, name, replica, stripped = REPLICAS[experiment]
    live, copy = _body_lines(cls.__dict__[name]), _body_lines(replica)
    removed = []
    matcher = difflib.SequenceMatcher(a=live, b=copy, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        assert tag in ("equal", "delete"), (
            f"{replica.__name__} differs from {cls.__name__}.{name}: "
            f"{live[i1:i2]} -> {copy[j1:j2]}"
        )
        if tag == "delete":
            removed += live[i1:i2]
    # Compared as multisets: a stripped line equal to a kept neighbour
    # (a second ``return``) may align with either copy.
    assert sorted(removed) == sorted(stripped)


@contextmanager
def _replaced(experiment):
    """Swap the experiment's live method for its replica in this block."""
    cls, name, replica, _ = REPLICAS[experiment]
    live = cls.__dict__[name]
    setattr(cls, name, replica)
    try:
        yield
    finally:
        setattr(cls, name, live)


def forwarding_workload() -> int:
    """The hotpath_forwarding bench shape; returns events processed."""
    from repro.hardware.anr import build_anr
    from repro.network.builder import from_spec
    from repro.network.protocol import Protocol
    from repro.sim import FixedDelays

    net = from_spec(f"line:{FWD_LENGTH}", delays=FixedDelays(0.1, 1.0))
    net.attach(lambda api: Protocol(api))
    header = build_anr(list(range(FWD_LENGTH)), net.id_lookup)
    source = net.node(0)
    for i in range(FWD_PACKETS):
        net.scheduler.schedule_at(
            0.01 * i, source.inject, args=(header, i), tag="inject"
        )
    net.run_to_quiescence(max_events=10_000_000)
    return net.scheduler.events_processed


def _measure_forwarding(experiment: str | None) -> float:
    """Seconds for one forwarding run, with the replica in if named."""
    if experiment is not None:
        with _replaced(experiment):
            return timeit.timeit(forwarding_workload, number=1)
    return timeit.timeit(forwarding_workload, number=1)


def _forwarding_ratio(capsys, experiment: str, title: str, labels) -> float:
    """Best-of-``FWD_REPEATS`` live/replica ratio, variants interleaved."""
    variants = {labels[0]: experiment, labels[1]: None}
    events = forwarding_workload()  # also serves as warm-up
    for variant in variants.values():
        _measure_forwarding(variant)
    best = {name: float("inf") for name in variants}
    for _ in range(FWD_REPEATS):
        for name, variant in variants.items():
            best[name] = min(best[name], _measure_forwarding(variant))

    base = best[labels[0]]
    rows = [
        [name, seconds * 1e9 / events, seconds / base]
        for name, seconds in best.items()
    ]
    emit(
        capsys,
        f"{experiment}: {title} on hotpath_forwarding "
        f"({events} events, best of {FWD_REPEATS})",
        ["variant", "ns_per_event", "vs_stripped"],
        rows,
    )
    return best[labels[1]] / base


def test_dormant_perf_counters_within_noise_on_forwarding(capsys):
    ratio = _forwarding_ratio(
        capsys, "E16b", "dormant NCU handler-timer overhead",
        ("handler timer stripped (replica)", "handler timer present, dormant"),
    )
    assert ratio <= TOLERANCE, (
        f"the dormant NCU handler timer costs {ratio:.3f}x the stripped hot "
        f"path (budget {TOLERANCE}x); the ≤5% attribution guarantee is broken"
    )


def test_dormant_flow_control_within_noise_on_forwarding(capsys):
    ratio = _forwarding_ratio(
        capsys, "E16c", "dormant flow-control overhead",
        ("fc check stripped (replica)", "fc check present, dormant"),
    )
    assert ratio <= TOLERANCE, (
        f"the dormant flow-control check costs {ratio:.3f}x the stripped "
        f"hot path (budget {TOLERANCE}x); free hardware must stay free"
    )


if __name__ == "__main__":  # pragma: no cover - manual runs
    import sys

    sys.exit(pytest.main([__file__, "-x", "-q", "-s"]))
