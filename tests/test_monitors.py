"""Tests for the online conformance monitors (repro.obs.monitors)."""

from __future__ import annotations

import pytest

from repro.analysis.closed_forms import (
    broadcast_time_bound,
    broadcast_time_bound_general,
    election_message_bound,
)
from repro.core import (
    BranchingPathsBroadcast,
    BroadcastMessage,
    BroadcastPlan,
    LeaderElection,
    PathDirective,
    decompose_paths,
    run_standalone_broadcast,
)
from repro.hardware import path_broadcast_anr
from repro.network import Network, bfs_tree, topologies
from repro.obs import (
    Alert,
    Budget,
    BudgetMonitor,
    InvariantMonitor,
    Monitor,
    MonitorHost,
    ProgressWatchdog,
    broadcast_budgets,
    budgets_for,
    build_spans,
    chrome_trace_document,
    monitors_from_spec,
    render_alerts,
    render_timeline,
)
from repro.sim import FixedDelays
from repro.sim.trace import TraceKind


def limiting(graph, **kwargs):
    return Network(graph, delays=FixedDelays(0.0, 1.0), **kwargs)


class BrokenLabelBroadcast(BranchingPathsBroadcast):
    """Branching-paths broadcast planned with a *broken* labelling.

    Strictly increasing labels down the tree mean no edge shares its
    parent edge's label, so every decomposed path is a single edge:
    the chain depth becomes n-1 instead of <= log2 n, and Theorem 2's
    time bound is violated by construction.
    """

    def on_start(self, payload):
        if self.api.node_id != self._root:
            return
        tree = bfs_tree(self._adjacency, self._root)
        labels = {node: int(node) for node in tree.nodes}
        directives = tuple(
            PathDirective(
                nodes=path.nodes,
                header=path_broadcast_anr(path.nodes, self._ids),
                label=path.label,
                chain_depth=path.chain_depth,
            )
            for path in decompose_paths(tree, labels)
        )
        plan = BroadcastPlan(
            root=tree.root, directives=directives, max_label=labels[tree.root]
        )
        message = BroadcastMessage(origin=self._root, seq=0, body=None, plan=plan)
        self._received = True
        self.api.report("received_at", self.api.now)
        self._launch(message)


# ----------------------------------------------------------------------
# MonitorHost
# ----------------------------------------------------------------------
def test_host_install_uninstall_idempotent():
    net = limiting(topologies.line(4))
    host = MonitorHost(net, [])
    assert host.install() is host
    host.install()  # second install is a no-op
    assert net.scheduler._observers.count(host._on_event) == 1
    host.uninstall()
    host.uninstall()
    assert host._on_event not in net.scheduler._observers


def test_host_emit_fills_event_index_records_trace_and_callback():
    net = limiting(topologies.line(4), trace=True)
    seen = []
    host = MonitorHost(net, [], on_alert=seen.append)
    host._events = 5
    host.emit(Alert(time=1.0, monitor="custom", message="boom"))
    assert seen[0].event_index == 5
    records = net.trace.filter(TraceKind.ALERT)
    assert len(records) == 1
    assert records[0].detail["monitor"] == "custom"
    assert host.violations == host.alerts


def test_host_finish_runs_monitor_finish_hooks_and_uninstalls():
    net = limiting(topologies.line(4))

    class Final(Monitor):
        name = "final"

        def finish(self):
            return (Alert(time=0.0, monitor=self.name, message="wrap-up"),)

    host = MonitorHost(net, [Final()]).install()
    alerts = host.finish()
    assert [a.message for a in alerts] == ["wrap-up"]
    assert host._on_event not in net.scheduler._observers


# ----------------------------------------------------------------------
# BudgetMonitor
# ----------------------------------------------------------------------
def test_correct_broadcast_stays_within_budgets():
    net = limiting(topologies.grid(4, 4))
    host = MonitorHost(net, [BudgetMonitor(net, broadcast_budgets(net))])
    host.install()
    adjacency = net.adjacency()
    run = run_standalone_broadcast(
        net,
        lambda api: BranchingPathsBroadcast(
            api, root=0, adjacency=adjacency, ids=net.id_lookup
        ),
        0,
    )
    assert run.coverage == net.n
    assert host.finish() == []


def test_broken_labelling_breaches_time_budget_mid_run():
    # The acceptance scenario: a deliberately broken labelling on a
    # 64-node line makes every path one edge long, so the broadcast
    # takes ~n time units against Theorem 2's 1 + log2(n) = 7 bound.
    # The monitor must flag the breach *while the run is in flight*.
    net = limiting(topologies.line(64))
    host = MonitorHost(net, [BudgetMonitor(net, broadcast_budgets(net))])
    host.install()
    adjacency = net.adjacency()
    run = run_standalone_broadcast(
        net,
        lambda api: BrokenLabelBroadcast(
            api, root=0, adjacency=adjacency, ids=net.id_lookup
        ),
        0,
    )
    alerts = host.finish()
    assert run.coverage == net.n  # the broadcast still completes...
    breaches = [a for a in alerts if a.measure == "elapsed time"]
    assert len(breaches) == 1  # ...but the time budget alert fired once
    bound = broadcast_time_bound(64)
    assert breaches[0].bound == bound
    # Fired at the first event past the bound — long before completion.
    assert bound < breaches[0].time < run.completion_time()
    # The call-count budget held: broken labelling wastes time, not calls.
    assert not [a for a in alerts if a.measure == "message system calls"]


def test_budget_alerts_once_per_budget():
    net = limiting(topologies.line(8))
    monitor = BudgetMonitor(
        net, [Budget(measure="x", bound=0.0, claim="always over", value=lambda: 1.0)]
    )
    assert len(list(monitor.check(None))) == 1
    assert list(monitor.check(None)) == []  # disarmed after first breach


def test_election_stays_within_theorem5_budget():
    net = limiting(topologies.ring(16))
    host = MonitorHost(net, [BudgetMonitor(net, budgets_for(net, command="election"))])
    host.install()
    net.attach(lambda api: LeaderElection(api))
    net.start()
    net.run_to_quiescence()
    assert host.finish() == []
    assert budgets_for(net, command="election")[0].bound == election_message_bound(16)


def test_broadcast_time_bound_general_reduces_to_limiting_model():
    assert broadcast_time_bound_general(64) == broadcast_time_bound(64)
    assert broadcast_time_bound_general(64, P=2, C=1) == 2 * 7 + 63


# ----------------------------------------------------------------------
# InvariantMonitor
# ----------------------------------------------------------------------
def test_invariant_monitor_flags_tampered_domain():
    net = limiting(topologies.line(4))
    net.attach(lambda api: LeaderElection(api))
    net.start()
    net.run_to_quiescence()
    host = MonitorHost(net, [InvariantMonitor(net, every=1)]).install()
    captured = next(
        node for node in net.nodes.values() if node.protocol.parent_anr is not None
    )
    captured.protocol.domain.size += 1  # now inconsistent with its IN set
    net.scheduler.schedule(1.0, lambda: None)
    net.scheduler.schedule(2.0, lambda: None)
    net.scheduler.run()
    alerts = host.finish()
    assert len(alerts) == 1  # disarms after the first violation
    assert "invariant" in alerts[0].message


def test_invariant_monitor_quiet_on_clean_run_and_non_election():
    net = limiting(topologies.grid(3, 3))
    host = MonitorHost(net, [InvariantMonitor(net, every=1)]).install()
    adjacency = net.adjacency()
    run_standalone_broadcast(
        net,
        lambda api: BranchingPathsBroadcast(
            api, root=0, adjacency=adjacency, ids=net.id_lookup
        ),
        0,
    )
    assert host.finish() == []
    with pytest.raises(ValueError):
        InvariantMonitor(net, every=0)


# ----------------------------------------------------------------------
# ProgressWatchdog
# ----------------------------------------------------------------------
def test_watchdog_deadline_fires_when_not_quiescent():
    net = limiting(topologies.line(2))
    host = MonitorHost(net, [ProgressWatchdog(net, deadline=5.0)]).install()

    def tick():
        net.scheduler.schedule(1.0, tick)

    net.scheduler.schedule(1.0, tick)
    net.scheduler.run(until=10.0)
    alerts = host.finish()
    deadline_alerts = [a for a in alerts if a.measure == "quiescence deadline"]
    assert len(deadline_alerts) == 1
    assert deadline_alerts[0].time > 5.0


def test_watchdog_queue_limit():
    net = limiting(topologies.line(2))
    host = MonitorHost(net, [ProgressWatchdog(net, queue_limit=3)]).install()

    def spawn():
        for _ in range(8):
            net.scheduler.schedule(100.0, lambda: None)

    net.scheduler.schedule(1.0, spawn)
    net.scheduler.schedule(2.0, lambda: None)
    net.scheduler.run(until=3.0)
    alerts = host.finish()
    assert [a.measure for a in alerts] == ["pending_live"]
    assert alerts[0].observed > 3


def test_watchdog_stall_warning_rearms_on_progress():
    net = limiting(topologies.line(2))
    watchdog = ProgressWatchdog(net, stall_events=3)
    host = MonitorHost(net, [watchdog]).install()
    for i in range(6):  # six no-progress events with one live event queued
        net.scheduler.schedule(float(i + 1), lambda: None)
    net.scheduler.schedule(100.0, lambda: None)  # keeps pending_live > 0
    net.scheduler.run(until=10.0)
    alerts = host.finish()
    stall = [a for a in alerts if a.measure == "stalled events"]
    assert len(stall) == 1
    assert stall[0].severity == "warning"
    assert host.violations == []  # warnings are not violations


def test_watchdog_suppresses_stall_while_partitioned():
    # Regression: a fully partitioned network legitimately idles while
    # timers wait out the cut; the stall detector must not cry wolf.
    net = limiting(topologies.line(2))
    watchdog = ProgressWatchdog(net, stall_events=3)
    host = MonitorHost(net, [watchdog]).install()
    net.partition([[0], [1]])
    for i in range(8):  # no-progress events while cut
        net.scheduler.schedule(float(i + 1), lambda: None)
    net.scheduler.schedule(100.0, lambda: None)  # keeps pending_live > 0
    net.scheduler.run(until=10.0)
    stall = [a for a in host.alerts if a.measure == "stalled events"]
    # Suppressed: one informational annotation, zero warnings.
    assert [a.severity for a in stall] == ["info"]

    # After the heal the detector is live again: the very next
    # over-threshold no-progress event raises the usual warning.
    net.heal()
    for i in range(4):
        net.scheduler.schedule(20.0 + i, lambda: None)
    net.scheduler.run(until=30.0)
    alerts = host.finish()
    stall = [a for a in alerts if a.measure == "stalled events"]
    assert [a.severity for a in stall] == ["info", "warning"]
    assert host.violations == []  # neither info nor warning is a violation


def test_watchdog_quiet_on_real_run():
    net = limiting(topologies.grid(3, 3))
    host = MonitorHost(net, [ProgressWatchdog(net, deadline=50.0)]).install()
    adjacency = net.adjacency()
    run_standalone_broadcast(
        net,
        lambda api: BranchingPathsBroadcast(
            api, root=0, adjacency=adjacency, ids=net.id_lookup
        ),
        0,
    )
    assert host.finish() == []


# ----------------------------------------------------------------------
# Spec parsing, rendering, export integration
# ----------------------------------------------------------------------
def test_monitors_from_spec_selects_and_rejects():
    net = limiting(topologies.ring(8))
    monitors, notes = monitors_from_spec(net, "all", command="election")
    assert {m.name for m in monitors} == {
        "budgets", "invariants", "watchdog", "churn"
    }
    assert notes == []
    monitors, notes = monitors_from_spec(net, "budgets", command="multicast")
    assert monitors == [] and len(notes) == 1  # no closed form for multicast
    with pytest.raises(ValueError, match="unknown monitor"):
        monitors_from_spec(net, "budgets,nope", command="election")


def test_monitors_from_spec_skips_invariants_under_churn():
    # Crash, restart and reelect break Section 4's failure-free
    # invariants by design; the churn monitor is the check there.
    net = limiting(topologies.ring(8))
    monitors, notes = monitors_from_spec(net, "all", command="election", churn=True)
    assert {m.name for m in monitors} == {"budgets", "watchdog", "churn"}
    assert len(notes) == 1 and "invariants monitor skipped" in notes[0]


def test_render_alerts_table_and_empty():
    assert "no alerts" in render_alerts([])
    out = render_alerts(
        [Alert(time=8.0, monitor="budgets", message="over", measure="elapsed time",
               observed=8.0, bound=7.0)]
    )
    assert "budgets" in out and "violation" in out and "8" in out


def test_alerts_flow_through_spans_timeline_and_chrome_trace():
    net = limiting(topologies.line(16), trace=True)
    host = MonitorHost(
        net,
        [BudgetMonitor(
            net,
            [Budget(measure="elapsed time", bound=2.0, claim="tight",
                    value=lambda: net.scheduler.now)],
        )],
    ).install()
    adjacency = net.adjacency()
    run_standalone_broadcast(
        net,
        lambda api: BrokenLabelBroadcast(
            api, root=0, adjacency=adjacency, ids=net.id_lookup
        ),
        0,
    )
    host.finish()
    spans = build_spans(net.trace)
    alert_spans = [s for s in spans if s.category == "alert"]
    assert len(alert_spans) == 1
    assert alert_spans[0].name == "alert:budgets"
    assert alert_spans[0].duration == 0.0
    # Timeline renders the alert glyph on its own row.
    assert "!" in render_timeline(spans, categories=("alert",))
    # Chrome export keeps the alert visible (1 µs floor) with its args.
    doc = chrome_trace_document(alert_spans)
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert events[0]["cat"] == "alert"
    assert events[0]["dur"] == 1.0
    assert events[0]["args"]["monitor"] == "budgets"
