"""Tests for the hardware multicast-group extension (E12)."""

from __future__ import annotations

import pytest

from conftest import limiting_net
from repro.core.group_multicast import GroupMulticast, run_group_multicast
from repro.network import Network, bfs_tree, topologies
from repro.sim import ProtocolError, RandomDelays


def test_group_ids_live_above_point_to_point_ids():
    net = limiting_net(topologies.complete(8))
    gid = net.allocate_group_id()
    assert gid >= net.id_space.group_base
    # Above every normal and copy ID.
    top_copy = net.id_space.copy_id(net.id_space.capacity - 1)
    assert gid > top_copy
    assert net.allocate_group_id() == gid + 1  # unique allocation


def test_install_group_rejects_non_group_ids():
    net = limiting_net(topologies.line(2))
    with pytest.raises(ValueError, match="group"):
        net.node(0).install_group(1, (), to_ncu=True)


def test_installed_tree_multicast_one_injection(small_graphs):
    for g in small_graphs:
        if len(g.node_order()) < 2:
            continue
        net = limiting_net(g)
        run = run_group_multicast(net, 0, bodies=["x"])
        assert run.coverage == net.n - 1  # everyone but the root
        assert run.per_message_calls == [net.n - 1]
        # Constant time: the START slot plus one parallel copy slot.
        assert run.per_message_time == [2.0]
        bodies = net.outputs_for_key("body")
        assert all(v == "x" for v in bodies.values())


def test_setup_costs_one_broadcast():
    net = limiting_net(topologies.random_connected(30, 0.15, seed=2))
    run = run_group_multicast(net, 0, bodies=[])
    assert run.setup_calls == net.n - 1
    installed = net.outputs_for_key("installed_at")
    assert len(installed) == net.n - 1


def test_repeated_multicasts_amortize_setup():
    net = limiting_net(topologies.random_connected(40, 0.12, seed=5))
    run = run_group_multicast(net, 0, bodies=list(range(5)))
    assert len(run.per_message_calls) == 5
    assert all(c == net.n - 1 for c in run.per_message_calls)
    assert all(t == 2.0 for t in run.per_message_time)


def test_multicast_before_setup_rejected():
    net = limiting_net(topologies.line(3))
    adjacency = net.adjacency()
    gid = net.allocate_group_id()
    net.attach(
        lambda api: GroupMulticast(
            api, root=0, adjacency=adjacency, ids=net.id_lookup, group_id=gid
        )
    )
    net.start([0], payload=("multicast", "too early"))
    with pytest.raises(ProtocolError, match="before the group"):
        net.run_to_quiescence()


def test_failure_loses_only_the_broken_subtree():
    # Unlike the single DFS packet, hardware replication keeps every
    # branch not behind the failed link.
    net = limiting_net(topologies.complete_binary_tree(3))
    run_tree = bfs_tree(net.adjacency(), 0)
    gid = net.install_multicast_tree(run_tree)

    adjacency = net.adjacency()
    net.attach(
        lambda api: GroupMulticast(
            api, root=0, adjacency=adjacency, ids=net.id_lookup, group_id=gid
        )
    )
    # Mark installed manually (we pre-provisioned via the network).
    for node in net.nodes.values():
        node.protocol._installed = True
    net.fail_link(1, 3)
    net.run_to_quiescence()
    net.start([0], payload=("multicast", "data"))
    net.run_to_quiescence()
    received = set(net.outputs_for_key("received_at"))
    assert 3 not in received and 7 not in received and 8 not in received
    assert {1, 2, 4, 5, 6, 9, 10, 11, 12, 13, 14} <= received


def test_cyclic_group_install_is_contained_by_hop_guard():
    # Mis-install a two-node cycle: packets must die at dmax, not loop
    # forever.
    net = limiting_net(topologies.line(2))
    gid = net.allocate_group_id()
    net.node(0).install_group(gid, (net.node(0).link_to(1),), to_ncu=False)
    net.node(1).install_group(gid, (net.node(1).link_to(0),), to_ncu=False)
    from conftest import attach_recorders

    attach_recorders(net)
    net.node(0).inject((gid,), "loop")
    net.run_to_quiescence(max_events=100_000)
    assert net.metrics.drops >= 1
    assert net.metrics.hops <= net.dmax + 1


def test_uninstall_group():
    net = limiting_net(topologies.line(3))
    tree = bfs_tree(net.adjacency(), 0)
    gid = net.install_multicast_tree(tree)
    from conftest import attach_recorders

    recorders = attach_recorders(net)
    net.node(0).uninstall_group(gid)
    net.node(0).inject((gid,), "gone")
    net.run_to_quiescence()
    # Node 0 no longer recognises the group ID: the packet is dropped.
    assert recorders[1].packets == []
    assert net.metrics.drops == 1


def test_group_multicast_under_random_delays():
    net = Network(
        topologies.random_connected(25, 0.2, seed=9),
        delays=RandomDelays(hardware=0.5, software=1.0, seed=4),
    )
    run = run_group_multicast(net, 0, bodies=["r"])
    assert run.coverage == net.n - 1
