"""Tests for the scenario engine (repro.scenario).

Covers the spec format, the churn generator, crash/restart semantics at
the NCU and network layers, partition/heal, the runner's determinism,
the ChurnMonitor, and the adversarial-delay search against Theorem 5's
closed-form bound.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.closed_forms import election_message_bound
from repro.core import LeaderElection, attach_topology_maintenance
from repro.hardware import Job, JobKind
from repro.network import Network, topologies
from repro.obs import ChurnMonitor, MonitorHost
from repro.scenario import (
    ScenarioEvent,
    ScenarioSpec,
    churn_scenario,
    compile_scenario,
    delay_search_specs,
    election_rounds,
    run_delay_search,
    run_scenario,
    scenario_metrics,
    search_report,
)
from repro.sim import FixedDelays, ProtocolError

from conftest import attach_recorders, limiting_net


def churn_spec(seed: int = 7) -> ScenarioSpec:
    return churn_scenario("grid:4,4", seed=seed)


# ----------------------------------------------------------------------
# Spec: validation, round-trips, generator determinism
# ----------------------------------------------------------------------
def test_spec_json_round_trip(tmp_path):
    spec = churn_spec()
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    path = tmp_path / "spec.json"
    spec.save(path)
    assert ScenarioSpec.load(path) == spec
    # The wire format is plain JSON a human can author.
    doc = json.loads(path.read_text())
    assert doc["topology"] == "grid:4,4"
    assert all(set(e) <= {"at", "op", "target"} for e in doc["events"])


def test_spec_rejects_bad_events():
    with pytest.raises(ValueError, match="unknown scenario op"):
        ScenarioEvent(at=0.0, op="explode")
    with pytest.raises(ValueError, match="event time must be"):
        ScenarioEvent(at=-1.0, op="heal")
    with pytest.raises(ValueError, match="protocol"):
        ScenarioSpec(name="x", topology="ring:4", protocol="paxos")


def test_spec_churns_on_crash_restart_or_reelect():
    assert churn_spec().churns
    links_only = ScenarioSpec(
        name="links", topology="ring:4",
        events=(ScenarioEvent(at=1.0, op="fail_link", target=(0, 1)),
                ScenarioEvent(at=2.0, op="restore_link", target=(0, 1))),
    )
    assert not links_only.churns
    for op in ("crash", "restart", "reelect"):
        target = None if op == "reelect" else 0
        event = ScenarioEvent(at=3.0, op=op, target=target)
        assert ScenarioSpec(name=op, topology="ring:4", events=(event,)).churns


def test_spec_events_sorted_and_last_time():
    spec = ScenarioSpec(
        name="x",
        topology="ring:4",
        events=(
            ScenarioEvent(at=50.0, op="heal"),
            ScenarioEvent(at=0.0, op="start"),
        ),
    )
    assert spec.ops() == ("start", "heal")  # schedule order, not literal
    assert spec.last_event_time == 50.0


def test_churn_generator_is_deterministic():
    assert churn_spec(7) == churn_spec(7)
    assert churn_spec(7) != churn_spec(8)
    ops = churn_spec().ops()
    assert ops[0] == "start"
    assert "partition" in ops and "heal" in ops
    assert "crash" in ops and "restart" in ops and "reelect" in ops


# ----------------------------------------------------------------------
# Crash / restart semantics (hardware + network layers)
# ----------------------------------------------------------------------
def test_crash_clears_ncu_and_drops_arrivals():
    net = limiting_net(topologies.line(3))
    attach_recorders(net)
    net.start()
    net.run_to_quiescence()

    net.crash_node(1)
    node = net.node(1)
    assert node.ncu.crashed and node.protocol is None
    assert not node.ncu.queued and not node.ncu.busy
    # Jobs that arrive while crashed are dropped and accounted.
    before = net.metrics.drops
    node.ncu.enqueue(Job(kind=JobKind.START, payload=None))
    assert net.metrics.drops == before + 1
    assert not node.ncu.queued


def test_restart_gets_fresh_instance_and_start_job():
    net = limiting_net(topologies.line(3))
    recorders = attach_recorders(net)
    net.start()
    net.run_to_quiescence()
    old = net.node(1).protocol

    net.crash_node(1)
    net.restart_node(1)
    net.run_to_quiescence()
    node = net.node(1)
    assert not node.ncu.crashed
    assert node.protocol is not None and node.protocol is not old
    # The fresh instance got its own START (state loss, clean boot).
    assert recorders[1] is node.protocol
    assert recorders[1].started == [None]


def test_restart_requires_attached_factory():
    net = limiting_net(topologies.line(2))
    net.crash_node(0)
    with pytest.raises(ProtocolError, match="no protocol was attached"):
        net.restart_node(0)


def test_stale_timers_die_with_the_incarnation():
    net = limiting_net(topologies.line(2))
    recorders = attach_recorders(net)
    net.start()
    net.run_to_quiescence()
    # Arm a timer, then crash and restart before it fires: the fire
    # event carries the old incarnation and must be discarded.
    net.node(0).ncu.set_timer(5.0, tag="stale")
    net.crash_node(0)
    net.restart_node(0, start=False)
    net.node(0).ncu.set_timer(9.0, tag="fresh")
    net.run_to_quiescence()
    fired = [tag for tag, _ in recorders[0].timers]
    assert fired == ["fresh"]


def test_reelect_disarms_the_replaced_instances_timers():
    # Periodic maintenance on ring:6 (period 10) runs one timer chain
    # per node.  The re-election at t = 25 replaces every instance, and
    # each fresh START arms a new chain; the replaced instance's chain
    # must die with it.  By t = 100 that is 8 timer calls per node; with
    # both chains alive it would be 14.
    net = limiting_net(topologies.ring(6))
    attach_topology_maintenance(net, period=10)
    spec = ScenarioSpec(
        name="reelect-timers",
        topology="ring:6",
        events=(
            ScenarioEvent(at=0.0, op="start"),
            ScenarioEvent(at=25.0, op="reelect"),
        ),
    )
    compile_scenario(net, spec)
    net.run(until=100.0)
    assert net.metrics.system_calls_of_kind("timer:topo") == 6 * 8


def test_partition_cuts_and_heal_restores():
    net = limiting_net(topologies.grid(3, 3))
    cut = net.partition([[0, 1, 2], [6, 7, 8]])  # middle row → group -1
    assert cut  # at least one cross-group link went down
    import networkx as nx

    assert not nx.is_connected(net.active_graph())
    healed = net.heal()
    assert set(healed) == set(cut)
    assert nx.is_connected(net.active_graph())


def test_partition_rejects_bad_groups():
    net = limiting_net(topologies.line(3))
    with pytest.raises(ValueError, match="unknown"):
        net.partition([[0, 99]])
    with pytest.raises(ValueError, match="two partition groups"):
        net.partition([[0, 1], [1, 2]])


# ----------------------------------------------------------------------
# Runner: determinism, monitor verdicts, per-component elections
# ----------------------------------------------------------------------
def fresh_run(spec: ScenarioSpec) -> dict:
    net = Network(
        topologies.grid(4, 4), delays=FixedDelays(spec.C, spec.P)
    )
    return run_scenario(net, spec)


def test_run_scenario_is_deterministic_and_clean():
    spec = churn_spec()
    first = fresh_run(spec)
    second = fresh_run(spec)
    assert first == second
    assert first["violations"] == 0 and first["alerts"] == 0
    assert first["components"] == 1
    assert len(first["leaders"]) == 1
    assert first["drops"] == 0


def test_partitioned_halves_elect_one_leader_each():
    spec = ScenarioSpec(
        name="split",
        topology="grid:4,4",
        events=(
            ScenarioEvent(at=0.0, op="start"),
            ScenarioEvent(
                at=100.0,
                op="partition",
                target=(tuple(range(8)), tuple(range(8, 16))),
            ),
            ScenarioEvent(at=200.0, op="reelect"),
        ),
    )
    net = limiting_net(topologies.grid(4, 4))
    row = run_scenario(net, spec)
    assert row["components"] == 2
    assert len(row["leaders"]) == 2
    assert row["violations"] == 0


def test_churn_monitor_flags_missing_leader():
    # A scenario that never starts an election leaves every component
    # leaderless; the churn monitor must call that out at finish().
    net = limiting_net(topologies.ring(4))
    net.attach(LeaderElection)
    host = MonitorHost(net, [ChurnMonitor(net)]).install()
    net.run_to_quiescence()
    host.finish()
    assert any("leader" in a.message for a in host.violations)


def test_churn_monitor_quiet_on_conforming_run():
    net = limiting_net(topologies.ring(8))
    net.attach(LeaderElection)
    host = MonitorHost(net, [ChurnMonitor(net, every=1)]).install()
    net.start()
    net.run_to_quiescence()
    assert host.finish() == []


def _plant_call(net, node_id):
    """Count one system call at ``node_id`` that no job ran."""
    net.metrics.count_system_call(net.node(node_id).ncu, "planted")


def test_churn_monitor_alerts_come_in_node_order():
    # Three nodes crash out of node order and each "executes" a call
    # while down: the alerts follow node order (``net.nodes``, sorted by
    # repr, so 10 comes before 2), as a walk over every node gives them.
    net = limiting_net(topologies.ring(12))
    attach_recorders(net)
    monitor = ChurnMonitor(net, every=1)
    for node_id in (7, 2, 10):
        net.crash_node(node_id)
    assert monitor.check(None) == []  # first sight: baselines only
    for node_id in (2, 7, 10):
        _plant_call(net, node_id)
    alerts = monitor.check(None)
    assert [alert.message for alert in alerts] == [
        f"crashed node {node_id!r} executed 1 system call(s) while down"
        for node_id in (10, 2, 7)
    ]
    assert all(alert.measure == "crash freeze" for alert in alerts)
    # A restart drops the baseline; the next crash takes a fresh one.
    net.restart_node(2, start=False)
    _plant_call(net, 2)
    assert monitor.check(None) == []
    net.crash_node(2)
    assert monitor.check(None) == []
    _plant_call(net, 2)
    (alert,) = monitor.check(None)
    assert alert.message == "crashed node 2 executed 1 system call(s) while down"


def test_churn_monitor_check_visits_only_crashed_nodes(monkeypatch):
    # Count reads of ``NCU.crashed`` during one check (no wall clock):
    # with k nodes down, a check must visit O(k) nodes, not all n.
    from repro.hardware.ncu import NCU

    slot = NCU.crashed
    reads = 0

    def read(ncu):
        nonlocal reads
        reads += 1
        return slot.__get__(ncu, NCU)

    net = limiting_net(topologies.fat_tree(16))
    attach_recorders(net)
    monitor = ChurnMonitor(net, every=1)
    crashed = list(net.nodes)[::450]
    for node_id in crashed:
        net.crash_node(node_id)
    monitor.check(None)
    # One node is back up but still baselined: it is visited once more.
    net.restart_node(crashed[0], start=False)
    monkeypatch.setattr(NCU, "crashed", property(read, slot.__set__))
    assert monitor.check(None) == []
    assert net.n == 1344 and len(crashed) == 3
    assert reads == len(crashed)


def test_scenario_metrics_matches_direct_run():
    spec = churn_spec()
    assert scenario_metrics(spec=spec.to_dict()) == fresh_run(spec)


# ----------------------------------------------------------------------
# Adversarial-delay search vs Theorem 5
# ----------------------------------------------------------------------
def test_delay_search_stays_within_election_bound():
    spec = churn_spec()
    outcome, report = run_delay_search(spec, trials=4, root_seed=3)
    assert not outcome.failures and not outcome.interrupted
    assert report is not None
    n = 16
    assert report["calls_bound"] == float(
        election_rounds(spec) * election_message_bound(n)
    )
    assert report["within_bounds"]
    assert report["violations"] == 0
    assert report["worst_calls"] >= report["at_bounds_calls"] or True
    # Worst rows point back at replayable seeds.
    assert report["worst_time_row"] < len(outcome.results)
    if report["worst_time_row"] > 0:
        assert report["worst_time_seed"] is not None


def test_interrupted_search_writes_its_manifest_and_no_rows(tmp_path, capsys):
    from repro.cli import main

    spec = churn_spec().save(tmp_path / "churn.json")
    rows, manifest = tmp_path / "r.json", tmp_path / "m.json"
    assert main([
        "scenario", "search", "--spec", str(spec), "--trials", "3",
        "--max-tasks", "2", "--no-cache", "--rows-out", str(rows),
        "--manifest-out", str(manifest),
    ]) == 3
    out = capsys.readouterr().out
    assert manifest.exists() and not rows.exists()
    assert "(campaign incomplete; resume to finish)" in out
    assert json.loads(manifest.read_text())["command"] == "scenario-search"


def test_delay_search_specs_are_stable():
    spec = churn_spec()
    a = delay_search_specs(spec, trials=3, root_seed=1)
    b = delay_search_specs(spec, trials=3, root_seed=1)
    assert [s.spec_hash for s in a] == [s.spec_hash for s in b]
    assert a[0].seed is None  # at-bounds run
    assert len({s.seed for s in a[1:]}) == 3  # distinct trial seeds


def test_search_report_requires_rows():
    with pytest.raises(ValueError, match="at-bounds"):
        search_report(churn_spec(), [])


# ----------------------------------------------------------------------
# Compiler details
# ----------------------------------------------------------------------
def test_compile_scenario_counts_events():
    net = limiting_net(topologies.grid(4, 4))
    net.attach(LeaderElection)
    compiled = compile_scenario(net, churn_spec())
    assert compiled.events == len(churn_spec().events)
    assert compiled.last_event_time == churn_spec().last_event_time
