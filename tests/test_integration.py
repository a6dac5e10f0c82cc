"""Cross-module integration scenarios.

Each test composes several of the paper's building blocks end to end,
the way a deployed control plane would: elect, then use the election's
data structures for routing; learn the topology, then plan broadcasts
from the *learned* (not ground-truth) state; provision hardware
multicast from an elected coordinator.
"""

from __future__ import annotations

import operator

import pytest

from repro.core import (
    BranchingPathsBroadcast,
    LeaderElection,
    TreeAggregation,
    attach_topology_maintenance,
    converge_by_rounds,
    run_group_multicast,
    run_standalone_broadcast,
)
from repro.core.topology_maintenance import TopologyMaintenance
from repro.network import Network, topologies, tree_from_parent
from repro.sim import FixedDelays, RandomDelays


def limiting(g, **kw):
    kw.setdefault("delays", FixedDelays(0.0, 1.0))
    return Network(g, **kw)


def elect(net):
    net.attach(lambda api: LeaderElection(api))
    net.start()
    net.run_to_quiescence(max_events=5_000_000)
    flags = net.outputs_for_key("is_leader")
    (leader,) = [v for v, f in flags.items() if f]
    return leader


def test_elected_leader_drives_hardware_multicast():
    # Phase 1: elect.  Phase 2: the winner provisions a multicast group
    # and pushes configuration to everyone in constant time per message.
    g = topologies.random_connected(36, 0.14, seed=8)
    net = limiting(g)
    leader = elect(net)
    run = run_group_multicast(net, leader, bodies=["cfg-1", "cfg-2"])
    assert run.coverage == net.n - 1
    assert run.per_message_time == [2.0, 2.0]
    assert all(
        body == "cfg-2" for body in net.outputs_for_key("body").values()
    )


def test_aggregation_over_the_election_inout_tree():
    # The winner's INOUT tree is a real spanning subgraph: reuse it as
    # the aggregation tree for a globally sensitive function.
    g = topologies.random_connected(30, 0.15, seed=11)
    net = limiting(g)
    leader = elect(net)
    domain = net.node(leader).protocol.domain
    assert domain.in_set == set(net.nodes)

    # Root the INOUT tree at the leader.
    parent: dict = {leader: None}
    stack = [leader]
    while stack:
        node = stack.pop()
        for neighbor in sorted(domain.inout_adj[node], key=repr):
            if neighbor not in parent:
                parent[neighbor] = node
                stack.append(neighbor)
    tree = tree_from_parent(leader, parent)
    assert len(tree) == net.n

    # Fresh network (same graph), aggregation over the election's tree.
    net2 = limiting(g)
    inputs = {v: v for v in net2.nodes}
    net2.attach(
        lambda api: TreeAggregation(
            api, tree=tree, op=operator.add, inputs=inputs, ids=net2.id_lookup
        )
    )
    net2.start()
    net2.run_to_quiescence()
    assert net2.output(leader, "result") == sum(net2.nodes)


def test_broadcast_planned_from_learned_topology():
    # Run topology maintenance to convergence, then plan a standalone
    # broadcast **using one node's learned database** — adjacency AND
    # link IDs — instead of ground truth.
    g = topologies.grid(5, 5)
    net = limiting(g)
    attach_topology_maintenance(net, strategy="bpaths", scope="full")
    converge_by_rounds(net, max_rounds=20)
    learned: TopologyMaintenance = net.node(12).protocol
    adjacency = learned.view_adjacency()
    ids = learned._db_id_lookup

    net2 = limiting(g)
    run = run_standalone_broadcast(
        net2,
        lambda api: BranchingPathsBroadcast(
            api, root=12, adjacency=adjacency, ids=ids
        ),
        12,
    )
    assert run.coverage == net2.n
    assert run.system_calls == net2.n - 1


def test_learned_topology_survives_failure_and_replan():
    # Converge, fail a link, re-converge, and verify the re-learned map
    # routes a broadcast around the failure.
    g = topologies.grid(4, 4)
    net = limiting(g)
    attach_topology_maintenance(net, strategy="bpaths", scope="full")
    converge_by_rounds(net, max_rounds=20)
    net.fail_link(5, 6)
    net.run_to_quiescence()
    converge_by_rounds(net, max_rounds=20)
    learned = net.node(0).protocol
    adjacency = learned.view_adjacency()
    assert 6 not in adjacency[5]

    net2 = limiting(g)
    net2.fail_link(5, 6)
    run = run_standalone_broadcast(
        net2,
        lambda api: BranchingPathsBroadcast(
            api, root=0, adjacency=adjacency, ids=learned._db_id_lookup
        ),
        0,
    )
    assert run.coverage == net2.n  # routed around the dead link


def test_full_pipeline_is_deterministic():
    def pipeline() -> tuple:
        g = topologies.random_connected(24, 0.18, seed=13)
        net = limiting(g)
        leader = elect(net)
        attach_net = limiting(g)
        attach_topology_maintenance(attach_net, strategy="bpaths", scope="full")
        result = converge_by_rounds(attach_net, max_rounds=20)
        return (
            leader,
            net.metrics.system_calls,
            result.rounds,
            result.system_calls,
            attach_net.scheduler.now,
        )

    assert pipeline() == pipeline()


@pytest.mark.parametrize("seed", range(3))
def test_pipeline_correct_under_random_timing(seed):
    g = topologies.random_connected(20, 0.2, seed=seed + 30)
    net = Network(g, delays=RandomDelays(hardware=0.4, software=1.0, seed=seed))
    leader = elect(net)
    assert leader in net.nodes
    run = run_group_multicast(net, leader, bodies=["x"])
    assert run.coverage == net.n - 1
