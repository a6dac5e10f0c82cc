"""Tests for the branching-paths broadcast and the direct baseline (E1/E2)."""

from __future__ import annotations

import math

from conftest import graph_adjacency, limiting_net
from repro.core import (
    BranchingPathsBroadcast,
    DirectBroadcast,
    plan_broadcast,
    run_standalone_broadcast,
)
from repro.network import Network, bfs_tree, topologies
from repro.sim import RandomDelays


def bpaths_factory(net, root, body=None):
    adjacency = net.adjacency()
    return lambda api: BranchingPathsBroadcast(
        api, root=root, adjacency=adjacency, ids=net.id_lookup, body=body
    )


def test_plan_headers_route_every_node_once():
    net = limiting_net(topologies.random_connected(20, 0.2, seed=5))
    tree = bfs_tree(net.adjacency(), 0)
    plan = plan_broadcast(tree, net.id_lookup)
    assert plan.covered == frozenset(net.nodes)
    # Header lengths: path hops + delivery marker.
    for directive in plan.directives:
        assert len(directive.header) == len(directive.nodes)


def test_plan_lookup_reads_grow_linearly(monkeypatch):
    # Each informed node asks the plan for the directives it launches.
    # Counting ``PathDirective.start`` reads (no wall clock) over one
    # broadcast tells an index (O(n) reads in all) from a scan of the
    # whole plan per node (O(n) reads per node, O(n²) in all).
    from repro.core.broadcast import PathDirective

    reads = 0
    start = PathDirective.start

    def counted(self):
        nonlocal reads
        reads += 1
        return start.fget(self)

    monkeypatch.setattr(PathDirective, "start", property(counted))
    per_node = {}
    for k in (8, 12):
        net = limiting_net(topologies.fat_tree(k))
        reads = 0
        run = run_standalone_broadcast(net, bpaths_factory(net, 0), 0)
        assert run.coverage == net.n
        assert reads > 0
        per_node[net.n] = reads / net.n
    (n_small, small), (n_large, large) = sorted(per_node.items())
    assert n_large > 2.5 * n_small
    # A scan per node would multiply reads per node by ~n_large / n_small.
    assert large < 1.5 * small, per_node


def test_plan_lookup_keeps_plan_order():
    net = limiting_net(topologies.random_connected(30, 0.15, seed=3))
    plan = plan_broadcast(bfs_tree(net.adjacency(), 0), net.id_lookup)
    for node in net.nodes:
        expected = tuple(d for d in plan.directives if d.nodes[0] == node)
        assert plan.starting_at(node) == expected
        assert all(a is b for a, b in zip(plan.starting_at(node), expected))
    assert plan.starting_at("not a node") == ()


def test_broadcast_covers_all_nodes(small_graphs):
    for g in small_graphs:
        net = limiting_net(g)
        run = run_standalone_broadcast(net, bpaths_factory(net, 0, "hello"), 0)
        assert run.coverage == net.n
        bodies = net.outputs_for_key("body")
        assert all(v == "hello" for v in bodies.values())


def test_broadcast_exactly_n_minus_1_message_system_calls(small_graphs):
    # The paper counts n involvements: the root's send (here folded into
    # the START trigger, which run_standalone_broadcast excludes) plus
    # one copy per other node.
    for g in small_graphs:
        net = limiting_net(g)
        run = run_standalone_broadcast(net, bpaths_factory(net, 0), 0)
        assert run.system_calls == net.n - 1
        assert run.metrics.copies == net.n - 1


def test_broadcast_time_bound(small_graphs):
    for g in small_graphs:
        net = limiting_net(g)
        run = run_standalone_broadcast(net, bpaths_factory(net, 0), 0)
        # <= (1 + log2 n) chained sends, plus the root's trigger slot.
        bound = 1 + (1 + math.floor(math.log2(net.n)))
        assert run.completion_time() <= bound * 1.0


def test_broadcast_hops_equal_tree_edges():
    net = limiting_net(topologies.grid(4, 4))
    run = run_standalone_broadcast(net, bpaths_factory(net, 0), 0)
    assert run.metrics.hops == net.n - 1  # one traversal of each tree edge


def test_broadcast_correct_under_random_delays():
    net = Network(
        topologies.random_connected(25, 0.15, seed=11),
        delays=RandomDelays(hardware=0.5, software=1.0, seed=3),
    )
    run = run_standalone_broadcast(net, bpaths_factory(net, 0), 0)
    assert run.coverage == net.n
    assert run.system_calls == net.n - 1


def test_broadcast_from_non_zero_root():
    net = limiting_net(topologies.grid(3, 5))
    run = run_standalone_broadcast(net, bpaths_factory(net, 7), 7)
    assert run.coverage == net.n


def test_broadcast_single_node():
    net = limiting_net(topologies.line(1))
    run = run_standalone_broadcast(net, bpaths_factory(net, 0), 0)
    assert run.coverage == 1
    assert run.system_calls == 0


def test_broadcast_partial_coverage_with_failed_link():
    # One-way property (Lemma 2): nodes on still-active path prefixes
    # are reached even if the path later dies.
    net = limiting_net(topologies.line(5))
    net.fail_link(3, 4)
    adjacency = graph_adjacency(topologies.line(5))  # stale view: all up
    def factory(api):
        return BranchingPathsBroadcast(api, root=0, adjacency=adjacency, ids=net.id_lookup)

    net.attach(factory)
    net.run_to_quiescence()  # drain datalink events
    net.start([0])
    net.run_to_quiescence()
    received = net.outputs_for_key("received_at")
    assert set(received) == {0, 1, 2, 3}  # everyone before the dead link


def test_direct_broadcast_covers_but_serializes():
    net = limiting_net(topologies.random_connected(16, 0.25, seed=2))
    adjacency = net.adjacency()
    def factory(api):
        return DirectBroadcast(api, root=0, adjacency=adjacency, ids=net.id_lookup, body="d")

    run = run_standalone_broadcast(net, factory, 0)
    assert run.coverage == net.n
    # n-1 receiver calls + n-2 self-continuations.
    assert run.system_calls == 2 * net.n - 3
    # Time is linear: one send slot per destination.
    assert run.completion_time() >= net.n - 1


def test_direct_vs_bpaths_time_gap_grows():
    n = 64
    g = topologies.random_connected(n, 0.08, seed=6)
    net_b = limiting_net(g)
    t_b = run_standalone_broadcast(net_b, bpaths_factory(net_b, 0), 0).completion_time()
    net_d = limiting_net(g)
    adjacency = net_d.adjacency()
    t_d = run_standalone_broadcast(
        net_d,
        lambda api: DirectBroadcast(api, root=0, adjacency=adjacency, ids=net_d.id_lookup),
        0,
    ).completion_time()
    assert t_d > 4 * t_b  # O(n) vs O(log n)
