"""Tests for the ARPANET flooding baseline (E2)."""

from __future__ import annotations

from conftest import limiting_net
from repro.core import FloodingBroadcast, FloodMessage, run_standalone_broadcast
from repro.hardware import NodeApi, one_hop_anr
from repro.network import topologies
from repro.sim import RandomDelays
from repro.network import Network


def flood_factory(body=None):
    return lambda api: FloodingBroadcast(api, root=0, body=body)


def test_flooding_covers_all_nodes(small_graphs):
    for g in small_graphs:
        net = limiting_net(g)
        run = run_standalone_broadcast(net, flood_factory("f"), 0)
        assert run.coverage == net.n
        assert all(v == "f" for v in net.outputs_for_key("body").values())


def test_flooding_system_calls_theta_m(small_graphs):
    # Each link delivers the message in at least one direction and at
    # most both: m <= calls <= 2m (for n > 1).
    for g in small_graphs:
        net = limiting_net(g)
        if net.n == 1:
            continue
        run = run_standalone_broadcast(net, flood_factory(), 0)
        assert net.m <= run.system_calls <= 2 * net.m


def test_flooding_on_tree_touches_each_link_once():
    net = limiting_net(topologies.complete_binary_tree(4))
    run = run_standalone_broadcast(net, flood_factory(), 0)
    assert run.system_calls == net.m  # a tree has no duplicate deliveries


def test_flooding_time_linear_on_ring():
    net = limiting_net(topologies.ring(30))
    run = run_standalone_broadcast(net, flood_factory(), 0)
    # The two wavefronts meet after ~n/2 software delays.
    assert 15.0 <= run.completion_time() <= 17.0


def test_flooding_needs_no_routing_knowledge_after_failure():
    # Unlike the planned broadcasts, flooding adapts instantly: fail a
    # link and the flood still covers everything via other routes.
    net = limiting_net(topologies.grid(4, 4))
    net.fail_link(0, 1)
    run = run_standalone_broadcast(net, flood_factory(), 0)
    assert run.coverage == net.n


def test_flooding_correct_under_random_delays():
    net = Network(
        topologies.random_connected(20, 0.2, seed=8),
        delays=RandomDelays(hardware=1.0, software=1.0, seed=5),
    )
    run = run_standalone_broadcast(net, flood_factory(), 0)
    assert run.coverage == net.n
    assert net.m <= run.system_calls <= 2 * net.m


def test_flood_packets_over_one_port_share_one_header(monkeypatch):
    sent = []
    send = NodeApi.send

    def record(self, header, payload):
        sent.append(header)
        return send(self, header, payload)

    monkeypatch.setattr(NodeApi, "send", record)
    net = limiting_net(topologies.grid(4, 4))
    run_standalone_broadcast(net, flood_factory(), 0)
    assert len(sent) == net.metrics.packets_injected > net.n
    by_port = {}
    for header in sent:
        assert by_port.setdefault(header[0], header) is header
    assert by_port == {port: one_hop_anr(port) for port in by_port}


def test_flood_forwards_only_its_first_key():
    # Single-shot: once a node has the root's flood, a message under any
    # other (origin, seq) key is a duplicate, charged and not forwarded.
    net = limiting_net(topologies.grid(3, 3))
    run_standalone_broadcast(net, flood_factory("first"), 0)
    calls, hops = net.metrics.system_calls, net.metrics.hops
    other = FloodMessage(origin=4, seq=1, body="second")
    net.node(1).inject(one_hop_anr(net.id_lookup(1, 4)[0]), other)
    net.run_to_quiescence()
    assert net.metrics.system_calls == calls + 1
    assert net.metrics.hops == hops + 1
    assert net.outputs_for_key("body") == dict.fromkeys(range(1, 9), "first")
