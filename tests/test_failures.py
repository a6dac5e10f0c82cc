"""Link-failure stories: the generators' events, as specs and replays."""

from __future__ import annotations

import networkx as nx
import pytest

from conftest import attach_recorders, limiting_net
from repro.network import from_spec, topologies, topology_from_spec
from repro.scenario import (
    ScenarioEvent,
    ScenarioSpec,
    compile_scenario,
    flapping_link,
    random_link_failures,
    run_scenario,
)
from repro.sim import FixedDelays


def test_compile_scenario_applies_link_and_node_events():
    net = limiting_net(topologies.ring(5))
    attach_recorders(net)
    spec = ScenarioSpec(
        name="ring-changes",
        topology="ring:5",
        protocol="none",
        events=(
            ScenarioEvent(at=1.0, op="fail_link", target=(0, 1)),
            ScenarioEvent(at=2.0, op="fail_node", target=3),
            ScenarioEvent(at=3.0, op="restore_node", target=3),
            ScenarioEvent(at=4.0, op="restore_link", target=(0, 1)),
        ),
    )
    compile_scenario(net, spec)
    net.run(until=2.5)
    assert not net.link(0, 1).active
    assert not net.link(2, 3).active and not net.link(3, 4).active
    net.run_to_quiescence()
    assert all(link.active for link in net.links.values())


def torus_failure_spec() -> ScenarioSpec:
    """An election on a torus, and three random link failures from t=5 on."""
    failures = random_link_failures(topology_from_spec("torus:4,4"), 3, seed=1, start=5.0)
    return ScenarioSpec(
        name="torus-link-failures",
        topology="torus:4,4",
        events=(ScenarioEvent(at=0.0, op="start"), *failures),
    )


def test_link_failure_story_round_trips_through_json():
    spec = torus_failure_spec()
    assert [event.op for event in spec.events] == ["start"] + ["fail_link"] * 3
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_link_failure_story_replays_on_a_reset_network():
    spec = torus_failure_spec()
    fresh = from_spec(spec.topology, delays=FixedDelays(spec.C, spec.P))
    expected = run_scenario(fresh, spec)
    assert expected["system_calls"] > 0 and expected["components"] == 1
    for event in spec.events[1:]:
        assert not fresh.link(*event.target).active

    pooled = from_spec(spec.topology, delays=FixedDelays(spec.C, spec.P))
    run_scenario(pooled, spec)
    pooled.reset()
    assert run_scenario(pooled, ScenarioSpec.from_json(spec.to_json())) == expected


def test_random_link_failures_keep_connected():
    g = topologies.grid(5, 5)
    failures = random_link_failures(g, count=8, seed=3)
    assert len(failures) == 8
    working = g.to_graph()
    for event in failures:
        working.remove_edge(*event.target)
        assert nx.is_connected(working)


def test_random_link_failures_distinct_targets():
    g = topologies.complete(8)
    failures = random_link_failures(g, count=10, seed=0)
    targets = [frozenset(event.target) for event in failures]
    assert len(targets) == len(set(targets))


def test_random_link_failures_stop_when_tree_remains():
    g = topologies.ring(4)  # only one removable link before it's a tree
    failures = random_link_failures(g, count=10, seed=1)
    assert len(failures) == 1


def test_random_link_failures_unconstrained_can_disconnect():
    g = topologies.line(4)
    failures = random_link_failures(g, count=2, seed=0, keep_connected=False)
    assert len(failures) == 2


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
        failures = random_link_failures(
            topology, count=4, seed=seed, keep_connected=keep_connected
        )
        expected = random_link_failures(
            topology.to_graph(), count=4, seed=seed, keep_connected=keep_connected
        )
        assert len(failures) > 0
        assert failures == expected


def test_flapping_link_alternates():
    events = flapping_link(0, 1, flips=5, start=1.0, spacing=2.0)
    assert [event.op for event in events] == [
        "fail_link",
        "restore_link",
        "fail_link",
        "restore_link",
        "fail_link",
    ]
    assert [event.at for event in events] == [1.0, 3.0, 5.0, 7.0, 9.0]
    assert {event.target for event in events} == {(0, 1)}
