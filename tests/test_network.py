"""Unit tests for network assembly, failures and the data link."""

from __future__ import annotations

import networkx as nx
import pytest

from conftest import attach_recorders, limiting_net
from repro.network import Network, UnknownNodeError, from_edges, topologies
from repro.sim import FixedDelays, ProtocolError


def test_network_shape():
    net = limiting_net(topologies.grid(3, 4))
    assert net.n == 12
    assert net.m == 17
    assert set(net.nodes) == set(range(12))


def test_default_dmax_is_linear():
    net = limiting_net(topologies.line(10))
    assert net.dmax == 22  # 2n + 2


def test_rejects_empty_graph():
    with pytest.raises(ValueError):
        Network(nx.Graph())


def test_start_names_an_unknown_node_and_schedules_nothing():
    net = limiting_net(topologies.line(3))
    with pytest.raises(ValueError, match="no node 999 in the network") as exc:
        net.start([0, 999])
    assert isinstance(exc.value, UnknownNodeError)
    assert net.scheduler.pending_live == 0
    net.start([0])
    assert net.scheduler.pending_live == 1


def test_rejects_self_loops():
    g = nx.Graph()
    g.add_edge(0, 0)
    with pytest.raises(ValueError):
        Network(g)


def test_link_ids_unique_per_node():
    net = limiting_net(topologies.complete(6))
    for node in net.nodes.values():
        ids = []
        for link in node.links.values():
            normal, copy = link.ids_at(node.node_id)
            ids.extend([normal, copy])
        assert len(ids) == len(set(ids))
        assert 0 not in ids  # the NCU ID is reserved


def test_local_topology_snapshots():
    net = limiting_net(topologies.star(4))
    infos = net.node(0).local_topology()
    assert [info.v for info in infos] == [1, 2, 3]
    assert all(info.u == 0 and info.active for info in infos)


def test_link_info_reversed_swaps_sides():
    net = limiting_net(topologies.line(2))
    info = net.link(0, 1).info_at(0)
    back = info.reversed()
    assert back.u == 1 and back.v == 0
    assert back.normal_at_u == info.normal_at_v
    assert back.copy_at_v == info.copy_at_u
    assert back.key == info.key


def test_fail_and_restore_link_notifies_both_ends():
    net = limiting_net(topologies.line(3))
    recorders = attach_recorders(net)
    net.fail_link(0, 1)
    net.run_to_quiescence()
    assert len(recorders[0].link_events) == 1
    assert len(recorders[1].link_events) == 1
    assert recorders[2].link_events == []
    assert not recorders[0].link_events[0].active
    net.restore_link(0, 1)
    net.run_to_quiescence()
    assert recorders[0].link_events[-1].active


def test_fail_node_downs_all_its_links():
    net = limiting_net(topologies.star(5))
    attach_recorders(net)
    net.fail_node(0)
    assert all(not link.active for link in net.links.values())
    assert nx.number_connected_components(net.active_graph()) == 5
    net.restore_node(0)
    assert all(link.active for link in net.links.values())


def test_redundant_state_change_is_ignored():
    net = limiting_net(topologies.line(2))
    recorders = attach_recorders(net)
    net.fail_link(0, 1)
    net.fail_link(0, 1)  # already down: no second notification
    net.run_to_quiescence()
    assert len(recorders[0].link_events) == 1


def test_datalink_debounces_flapping_link():
    # A link that changes again within the stabilisation window is
    # reported only in its final state.
    net = Network(
        topologies.line(2),
        delays=FixedDelays(0.0, 1.0),
        datalink_delay=10.0,
    )
    recorders = attach_recorders(net)
    net.schedule_link_failure(0, 1, at=1.0)
    net.schedule_link_restore(0, 1, at=2.0)  # flips back within the window
    net.run_to_quiescence()
    events = recorders[0].link_events
    assert len(events) == 1
    assert events[0].active  # only the final (stable) state was reported


def test_scheduled_failures():
    net = limiting_net(topologies.ring(4))
    attach_recorders(net)
    net.schedule_link_failure(0, 1, at=5.0)
    net.schedule_link_restore(0, 1, at=9.0)
    net.run(until=6.0)
    assert not net.link(0, 1).active
    net.run_to_quiescence()
    assert net.link(0, 1).active


def test_outputs_recording():
    net = limiting_net(topologies.line(2))
    attach_recorders(net)
    net.record_output(0, "x", 1)
    net.record_output(1, "x", 2)
    net.record_output(0, "y", 3)
    assert net.output(0, "x") == 1
    assert net.output(0, "missing", "default") == "default"
    assert net.outputs_for_key("x") == {0: 1, 1: 2}
    # Keyed by output name, then node ID.
    assert net.outputs == {"x": {0: 1, 1: 2}, "y": {0: 3}}


def test_active_graph_and_diameter():
    net = limiting_net(topologies.ring(6))
    assert net.diameter() == 3
    net.fail_link(0, 5)
    assert net.diameter() == 5  # the ring became a line


def test_diameter_memo_keeps_the_bound_apart_from_the_exact_answer():
    # The two-sweep bound under-reports on this graph (3 < 4): once
    # forced, it must not come back as the exact diameter.
    net = from_edges([(0, 2), (0, 8), (1, 5), (1, 6), (1, 7), (1, 8), (2, 4),
                      (2, 8), (3, 4), (3, 7), (3, 8), (5, 6), (5, 7)])
    assert net.n == 9
    assert net.diameter(exact=False) == 3
    assert net.diameter() == 4
    assert net.diameter(exact=False) == 3


def test_diameter_of_a_disconnected_network_raises_value_error():
    net = limiting_net(topologies.line(4))
    net.fail_link(1, 2)
    for exact in (True, False):
        with pytest.raises(ValueError, match="disconnected"):
            net.diameter(exact=exact)


def test_adjacency_reflects_failures():
    net = limiting_net(topologies.ring(4))
    net.fail_link(0, 1)
    adjacency = net.adjacency()
    assert 1 not in adjacency[0]
    assert 3 in adjacency[0]


def test_job_without_protocol_raises():
    net = limiting_net(topologies.line(2))
    with pytest.raises(ProtocolError, match="no protocol"):
        net.node(0).inject((0,), "nobody home")
        net.run_to_quiescence()


def test_deterministic_runs_are_identical():
    def run_once() -> tuple:
        net = limiting_net(topologies.random_connected(20, 0.2, seed=9))
        from repro.core import LeaderElection

        net.attach(lambda api: LeaderElection(api))
        net.start()
        net.run_to_quiescence()
        snap = net.metrics.snapshot()
        return (snap.system_calls, snap.hops, net.scheduler.now,
                net.outputs_for_key("leader"))

    assert run_once() == run_once()
