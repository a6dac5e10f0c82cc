"""Generality tests: non-integer node IDs across the whole stack.

Nothing in the model requires integer node identities.  These tests
relabel graphs with strings and run every major protocol end to end —
catching any accidental reliance on integer ordering or arithmetic.
(The ring baselines are exempt: they define ring geometry *by* integer
ids, and say so.)
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core import (
    BranchingPathsBroadcast,
    LeaderElection,
    attach_topology_maintenance,
    converge_by_rounds,
    run_group_multicast,
    run_standalone_broadcast,
)
from repro.network import Network, topologies
from repro.sim import FixedDelays


def string_labelled(g: nx.Graph) -> nx.Graph:
    mapping = {node: f"host-{node:02d}" for node in g.nodes}
    return nx.relabel_nodes(g, mapping)


@pytest.fixture
def named_net():
    g = string_labelled(topologies.random_connected(18, 0.25, seed=6).to_graph())
    return Network(g, delays=FixedDelays(0.0, 1.0))


def test_broadcast_with_string_ids(named_net):
    adjacency = named_net.adjacency()
    run = run_standalone_broadcast(
        named_net,
        lambda api: BranchingPathsBroadcast(
            api, root="host-00", adjacency=adjacency, ids=named_net.id_lookup
        ),
        "host-00",
    )
    assert run.coverage == named_net.n
    assert run.system_calls == named_net.n - 1


def test_election_with_string_ids(named_net):
    named_net.attach(lambda api: LeaderElection(api))
    named_net.start()
    named_net.run_to_quiescence(max_events=2_000_000)
    flags = named_net.outputs_for_key("is_leader")
    winners = [v for v, f in flags.items() if f]
    assert len(winners) == 1
    assert winners[0].startswith("host-")
    assert set(named_net.outputs_for_key("leader")) == set(named_net.nodes)


def test_topology_maintenance_with_string_ids(named_net):
    attach_topology_maintenance(named_net, strategy="bpaths", scope="full")
    assert converge_by_rounds(named_net, max_rounds=30).converged


def test_group_multicast_with_string_ids(named_net):
    run = run_group_multicast(named_net, "host-00", bodies=["cfg"])
    assert run.coverage == named_net.n - 1


def test_mixed_id_types_are_ordered_by_repr():
    # Even a mix of ints and strings must not crash the deterministic
    # orderings (they sort by repr everywhere).
    g = nx.Graph()
    g.add_edges_from([(0, "a"), ("a", 1), (1, "b"), ("b", 0)])
    net = Network(g, delays=FixedDelays(0.0, 1.0))
    net.attach(lambda api: LeaderElection(api))
    net.start()
    net.run_to_quiescence(max_events=500_000)
    flags = net.outputs_for_key("is_leader")
    assert sum(1 for f in flags.values() if f) == 1
