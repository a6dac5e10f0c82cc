"""Tests for the topology-maintenance protocol (E4) — Theorem 1's
eventual consistency, convergence speeds, and the §3 deadlock example."""

from __future__ import annotations

import pytest

from repro.core import (
    attach_topology_maintenance,
    converge_by_rounds,
    is_converged,
)
from repro.network import Network, topologies
from repro.sim import FixedDelays, NotConvergedError, RandomDelays


def fresh_net(g, **kwargs):
    kwargs.setdefault("delays", FixedDelays(0.0, 1.0))
    return Network(g, **kwargs)


@pytest.mark.parametrize("strategy", ["bpaths", "flood", "dfs"])
@pytest.mark.parametrize("scope", ["local", "full"])
def test_cold_start_convergence(strategy, scope):
    net = fresh_net(topologies.random_connected(20, 0.2, seed=5))
    attach_topology_maintenance(net, strategy=strategy, scope=scope)
    result = converge_by_rounds(net, max_rounds=40)
    assert result.converged
    assert is_converged(net)


def test_layered_strategy_converges_with_big_dmax():
    net = fresh_net(topologies.grid(4, 4), dmax=10**6)
    attach_topology_maintenance(net, strategy="layered", scope="full")
    assert converge_by_rounds(net, max_rounds=20).converged


def test_full_scope_converges_faster_than_local():
    g = topologies.line(33)  # diameter 32: the gap is large
    net_local = fresh_net(g)
    attach_topology_maintenance(net_local, strategy="bpaths", scope="local")
    r_local = converge_by_rounds(net_local, max_rounds=64)

    net_full = fresh_net(g)
    attach_topology_maintenance(net_full, strategy="bpaths", scope="full")
    r_full = converge_by_rounds(net_full, max_rounds=64)

    # local ~ O(d) rounds, full ~ O(log d) rounds.
    assert r_local.rounds >= 16
    assert r_full.rounds <= 8
    assert r_full.rounds < r_local.rounds


def test_bpaths_costs_fewer_system_calls_than_flooding():
    g = topologies.random_connected(30, 0.3, seed=1)  # dense: m >> n
    net_b = fresh_net(g)
    attach_topology_maintenance(net_b, strategy="bpaths", scope="full")
    r_b = converge_by_rounds(net_b, max_rounds=30)

    net_f = fresh_net(g)
    attach_topology_maintenance(net_f, strategy="flood", scope="full")
    r_f = converge_by_rounds(net_f, max_rounds=30)

    calls_per_round_b = r_b.system_calls / r_b.rounds
    calls_per_round_f = r_f.system_calls / r_f.rounds
    assert calls_per_round_b < calls_per_round_f


def test_reconvergence_after_link_failures():
    net = fresh_net(topologies.grid(5, 5))
    attach_topology_maintenance(net, strategy="bpaths", scope="full")
    assert converge_by_rounds(net, max_rounds=20).converged
    net.fail_link(0, 1)
    net.fail_link(12, 13)
    net.run_to_quiescence()
    assert not is_converged(net)
    assert converge_by_rounds(net, max_rounds=20).converged


def test_reconvergence_after_restore():
    net = fresh_net(topologies.ring(8))
    attach_topology_maintenance(net, strategy="bpaths", scope="full")
    converge_by_rounds(net)
    net.fail_link(0, 1)
    converge_by_rounds(net)
    net.restore_link(0, 1)
    result = converge_by_rounds(net)
    assert result.converged
    assert is_converged(net)


def test_node_failure_and_component_consistency():
    # After a cut vertex dies, each fragment must converge on itself.
    net = fresh_net(topologies.star(6))
    attach_topology_maintenance(net, strategy="bpaths", scope="full")
    converge_by_rounds(net)
    net.fail_node(0)  # all leaves become singletons
    net.run_to_quiescence()
    assert converge_by_rounds(net, max_rounds=5).converged


def test_periodic_mode_converges_without_driver():
    net = fresh_net(topologies.random_connected(15, 0.25, seed=2))
    attach_topology_maintenance(net, strategy="bpaths", scope="full", period=50.0)
    net.start()
    net.run(until=600.0)
    assert is_converged(net)


def test_broadcast_on_change_reacts_to_failures():
    net = fresh_net(topologies.grid(3, 3))
    attach_topology_maintenance(
        net, strategy="flood", scope="full", broadcast_on_change=True
    )
    converge_by_rounds(net)
    net.fail_link(0, 1)
    net.run_to_quiescence()  # the link event itself triggers broadcasts
    assert is_converged(net)


def test_sixnode_example_dfs_deadlocks_bpaths_converges():
    """The Section 3 example, end to end."""

    def adversarial(node, children):
        # u prefers v, v prefers w, w prefers u (cyclic preference).
        return sorted(children, key=lambda c: (c - node) % 6)

    def run(strategy, child_order=None):
        net = fresh_net(topologies.two_connected_example())
        attach_topology_maintenance(
            net,
            strategy=strategy,
            scope="local",
            dfs_child_order=child_order,
        )
        converge_by_rounds(net)  # learn the healthy topology first
        for edge in [(0, 3), (1, 4), (2, 5)]:
            net.fail_link(*edge)
        net.run_to_quiescence()
        return converge_by_rounds(net, max_rounds=25, require=False)

    dfs = run("dfs", adversarial)
    assert not dfs.converged  # the paper's deadlock

    bpaths = run("bpaths")
    assert bpaths.converged
    assert bpaths.rounds <= 3  # the one-way broadcast breaks the cycle


def test_convergence_driver_raises_when_required():
    def adversarial(node, children):
        return sorted(children, key=lambda c: (c - node) % 6)

    net = fresh_net(topologies.two_connected_example())
    attach_topology_maintenance(
        net, strategy="dfs", scope="local", dfs_child_order=adversarial
    )
    converge_by_rounds(net)
    for edge in [(0, 3), (1, 4), (2, 5)]:
        net.fail_link(*edge)
    net.run_to_quiescence()
    with pytest.raises(NotConvergedError):
        converge_by_rounds(net, max_rounds=10)


def test_converges_under_random_delays():
    net = Network(
        topologies.random_connected(15, 0.25, seed=4),
        delays=RandomDelays(hardware=0.2, software=1.0, seed=9),
    )
    attach_topology_maintenance(net, strategy="bpaths", scope="full")
    assert converge_by_rounds(net, max_rounds=40).converged


def test_view_edges_respects_one_sided_failure_reports():
    # u knows the link died; v's stale record says active: the merged
    # view must treat the link as down (any-failure-wins rule).
    net = fresh_net(topologies.line(3))
    attach_topology_maintenance(net, strategy="bpaths", scope="full")
    converge_by_rounds(net)
    proto0 = net.node(0).protocol
    assert ((0, 1) in proto0.view_edges()) or ((1, 0) in proto0.view_edges())
    net.fail_link(0, 1)
    net.run_to_quiescence()
    # Node 0's own row now reports the failure; node 1's old record in
    # 0's db still claims active — the view must drop the edge.
    edges = proto0.view_edges()
    assert (0, 1) not in edges and (1, 0) not in edges


def test_merge_reads_its_own_id_once_per_message(monkeypatch):
    # A ``full``-scope message carries one record per origin, so the
    # merge walks O(n) records per receipt; the node's own ID is read
    # once per merge, not once per record (counted, no wall clock).
    from repro.hardware.ncu import NodeApi

    net = fresh_net(topologies.torus(6, 6))
    attach_topology_maintenance(net, strategy="bpaths", scope="full")
    converge_by_rounds(net)
    records = tuple(net.node(0).protocol.db.values())
    assert len(records) == net.n
    node_id = NodeApi.node_id
    reads = 0

    def counted(api):
        nonlocal reads
        reads += 1
        return node_id.fget(api)

    monkeypatch.setattr(NodeApi, "node_id", property(counted))
    net.node(1).protocol._merge(records)
    assert reads == 1


def test_invalid_strategy_and_scope_rejected():
    net = fresh_net(topologies.line(2))
    with pytest.raises(ValueError):
        attach_topology_maintenance(net, strategy="bogus")
    net2 = fresh_net(topologies.line(2))
    with pytest.raises(ValueError):
        attach_topology_maintenance(net2, scope="bogus")
