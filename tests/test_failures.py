"""Unit tests for failure schedules."""

from __future__ import annotations

import networkx as nx
import pytest

from conftest import attach_recorders, limiting_net
from repro.network import (
    FailureKind,
    FailureSchedule,
    flapping_link,
    random_link_failures,
    topologies,
    topology_from_spec,
)


def test_schedule_builder_chains():
    schedule = (
        FailureSchedule()
        .fail_link(0, 1, at=1.0)
        .restore_link(0, 1, at=2.0)
        .fail_node(3, at=4.0)
    )
    assert len(schedule) == 3
    assert schedule.last_change_time == 4.0
    kinds = [a.kind for a in schedule]
    assert kinds == [FailureKind.FAIL_LINK, FailureKind.RESTORE_LINK, FailureKind.FAIL_NODE]


def test_schedule_iterates_in_time_order():
    schedule = FailureSchedule().fail_link(0, 1, at=5.0).fail_link(1, 2, at=1.0)
    times = [a.time for a in schedule]
    assert times == [1.0, 5.0]


def test_apply_executes_actions():
    net = limiting_net(topologies.ring(5))
    attach_recorders(net)
    schedule = (
        FailureSchedule()
        .fail_link(0, 1, at=1.0)
        .fail_node(3, at=2.0)
        .restore_node(3, at=3.0)
        .restore_link(0, 1, at=4.0)
    )
    schedule.apply(net)
    net.run(until=2.5)
    assert not net.link(0, 1).active
    assert not net.link(2, 3).active and not net.link(3, 4).active
    net.run_to_quiescence()
    assert all(link.active for link in net.links.values())


def test_random_link_failures_keep_connected():
    g = topologies.grid(5, 5)
    schedule = random_link_failures(g, count=8, seed=3)
    assert len(schedule) == 8
    working = g.to_graph()
    for action in schedule:
        working.remove_edge(*action.target)
        assert nx.is_connected(working)


def test_random_link_failures_distinct_targets():
    g = topologies.complete(8)
    schedule = random_link_failures(g, count=10, seed=0)
    targets = [frozenset(a.target) for a in schedule]
    assert len(targets) == len(set(targets))


def test_random_link_failures_stop_when_tree_remains():
    g = topologies.ring(4)  # only one removable link before it's a tree
    schedule = random_link_failures(g, count=10, seed=1)
    assert len(schedule) == 1


def test_random_link_failures_unconstrained_can_disconnect():
    g = topologies.line(4)
    schedule = random_link_failures(g, count=2, seed=0, keep_connected=False)
    assert len(schedule) == 2


@pytest.mark.parametrize(
    "make",
    [
        lambda: topology_from_spec("ring:5"),
        lambda: topology_from_spec("grid:4,4"),
        lambda: topologies.torus(4, 4),
        lambda: topologies.clos(4, 2, 1),
    ],
    ids=["ring:5", "grid:4,4", "torus_topology", "clos_topology"],
)
@pytest.mark.parametrize("keep_connected", [True, False])
def test_random_link_failures_accepts_a_topology(make, keep_connected):
    # Regression: a Topology used to raise NetworkXError ("Input is not
    # a valid edge list") from the nx.Graph copy.
    topology = make()
    for seed in range(5):
        schedule = random_link_failures(
            topology, count=4, seed=seed, keep_connected=keep_connected
        )
        expected = random_link_failures(
            topology.to_graph(), count=4, seed=seed, keep_connected=keep_connected
        )
        assert len(schedule) > 0
        assert list(schedule) == list(expected)


def test_flapping_link_alternates():
    schedule = flapping_link(0, 1, flips=5, start=1.0, spacing=2.0)
    kinds = [a.kind for a in schedule]
    assert kinds == [
        FailureKind.FAIL_LINK,
        FailureKind.RESTORE_LINK,
        FailureKind.FAIL_LINK,
        FailureKind.RESTORE_LINK,
        FailureKind.FAIL_LINK,
    ]
    assert [a.time for a in schedule] == [1.0, 3.0, 5.0, 7.0, 9.0]
