"""Unit tests for the election's domain bookkeeping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import limiting_net
from repro.core import DomainState, LeaderElection, Level
from repro.core.election_state import NO_EDGES
from repro.network import Network, topologies
from repro.network.builder import from_spec
from repro.scenario import churn_scenario, run_scenario
from repro.sim import FixedDelays, ProtocolError, RandomDelays, RoutingError


def make_domain(net, node_id):
    return DomainState.initial(node_id, net.node(node_id).local_topology())


def test_level_ordering():
    assert Level(1, 0) < Level(1, 1)
    assert Level(2, 0) > Level(1, 9)
    assert Level(3, 5) > Level(3, 4)
    assert not Level(1, 0) < Level(1, 0)


def test_level_phase():
    assert Level(1, 0).phase == 0
    assert Level(2, 0).phase == 1
    assert Level(3, 0).phase == 1
    assert Level(8, 0).phase == 3


def test_initial_domain():
    net = limiting_net(topologies.star(4))
    domain = make_domain(net, 0)
    assert domain.in_set == {0}
    assert domain.out_set == {1, 2, 3}
    assert domain.size == 1
    assert domain.level == Level(1, 0)
    assert domain.phase == 0


def test_initial_domain_skips_inactive_links():
    net = limiting_net(topologies.star(4))
    net.fail_link(0, 2)
    domain = make_domain(net, 0)
    assert domain.out_set == {1, 3}


def test_pick_tour_target_deterministic():
    net = limiting_net(topologies.star(4))
    domain = make_domain(net, 0)
    assert domain.pick_tour_target() == 1


def test_pick_tour_target_empty_raises():
    net = limiting_net(topologies.line(2))
    domain = make_domain(net, 0)
    domain.out_info.clear()
    with pytest.raises(ProtocolError):
        domain.pick_tour_target()


def test_anr_to_out_node_single_hop():
    net = limiting_net(topologies.line(3))
    domain = make_domain(net, 0)
    header = domain.anr_to_out_node(0, 1)
    normal, _ = net.id_lookup(0, 1)
    assert header == (normal, 0)


def test_absorb_merges_sets_and_tree():
    net = limiting_net(topologies.line(3))
    d0 = make_domain(net, 0)
    d1 = make_domain(net, 1)
    d0.absorb(d1.snapshot(), attach_out_node=1)
    assert d0.in_set == {0, 1}
    assert d0.out_set == {2}
    assert d0.size == 2
    assert 1 in d0.inout_adj[0] and 0 in d0.inout_adj[1]
    # Routing across the merged tree works end to end.
    header = d0.anr_to_in_node(0, 1)
    assert header[-1] == 0
    header_out = d0.anr_to_out_node(0, 2)
    assert len(header_out) == 3  # two hops + delivery


def test_absorb_requires_valid_attachment():
    net = limiting_net(topologies.line(3))
    d0 = make_domain(net, 0)
    d2 = make_domain(net, 2)
    with pytest.raises(ProtocolError):
        d0.absorb(d2.snapshot(), attach_out_node=2)  # 2 is not in 0's OUT


def test_absorb_attach_node_must_be_in_captured_domain():
    net = limiting_net(topologies.ring(4))
    d0 = make_domain(net, 0)
    d3 = make_domain(net, 3)
    with pytest.raises(ProtocolError):
        d0.absorb(d3.snapshot(), attach_out_node=1)  # 1 not in d3.in_set


def test_chain_absorbs_keep_routes_linear():
    net = limiting_net(topologies.line(6))
    domains = {i: make_domain(net, i) for i in range(6)}
    d = domains[0]
    for i in range(1, 6):
        d.absorb(domains[i].snapshot(), attach_out_node=i)
    assert d.in_set == set(range(6))
    assert d.out_set == set()
    assert d.size == 6
    route = d.tree_path(0, 5)
    assert route == (0, 1, 2, 3, 4, 5)
    assert len(d.anr_to_in_node(0, 5)) == 6  # 5 hops + delivery <= n


def test_tree_path_errors():
    net = limiting_net(topologies.line(3))
    domain = make_domain(net, 0)
    with pytest.raises(RoutingError):
        domain.tree_path(0, 2)  # 2 is not in the domain


def test_ids_to_node_covers_in_and_out():
    net = limiting_net(topologies.line(4))
    d0 = make_domain(net, 0)
    d1 = make_domain(net, 1)
    d0.absorb(d1.snapshot(), attach_out_node=1)
    # IN target: raw ids, no delivery marker.
    assert len(d0.ids_to_node(0, 1)) == 1
    # OUT target: path to the attached IN node plus the final hop.
    assert len(d0.ids_to_node(0, 2)) == 2
    assert 0 not in d0.ids_to_node(0, 2)


def test_snapshot_is_independent():
    net = limiting_net(topologies.line(3))
    d0 = make_domain(net, 0)
    snap = d0.snapshot()
    d1 = make_domain(net, 1)
    d0.absorb(d1.snapshot(), attach_out_node=1)
    assert snap.in_set == {0}
    assert snap.size == 1
    assert 1 not in snap.inout_adj.get(0, set())


def test_id_lookup_matches_network():
    net = limiting_net(topologies.line(3))
    d0 = make_domain(net, 0)
    d1 = make_domain(net, 1)
    d0.absorb(d1.snapshot(), attach_out_node=1)
    assert d0.id_lookup(0, 1) == tuple(net.node(0).link_to(1).ids_at(0))
    assert d0.id_lookup(1, 0) == tuple(net.node(1).link_to(0).ids_at(1))


# ----------------------------------------------------------------------
# What the state holds after a real election
# ----------------------------------------------------------------------
def elected(net, policy, seed):
    net.attach(lambda api: LeaderElection(api, tour_policy=policy, tour_seed=seed))
    net.start()
    net.run_to_quiescence(max_events=1_000_000)
    assert sum(1 for flag in net.outputs_for_key("is_leader").values() if flag) == 1
    return [node.protocol.domain for node in net.nodes.values()]


def assert_compact(net, domain):
    in_set = domain.in_set
    adjacency = net.adjacency()
    tree_edges = {(a, b) for a, adj in domain.inout_adj.items() for b in adj}
    assert set(domain.inout_adj) == in_set
    assert len(tree_edges) == 2 * (len(in_set) - 1)
    # IDs for the INOUT tree's edges and nothing else, both directions.
    assert set(domain.link_ids) == tree_edges
    for (a, b), ids in domain.link_ids.items():
        assert ids == net.id_lookup(a, b)
    neighbours = {v for u in in_set for v in adjacency[u]}
    assert set(domain.out_info) == neighbours - in_set
    for out_node, (w, normal_w, copy_w, normal_o, copy_o) in domain.out_info.items():
        assert w in in_set
        assert (normal_w, copy_w) == net.id_lookup(w, out_node)
        assert (normal_o, copy_o) == net.id_lookup(out_node, w)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=14),
    graph_seed=st.integers(min_value=0, max_value=10**6),
    policy=st.sampled_from(["min", "max", "random"]),
    delay_seed=st.integers(min_value=0, max_value=10**6),
)
def test_every_domain_holds_tree_ids_and_flat_out_records(n, graph_seed, policy, delay_seed):
    # Captured origins keep their frozen domains: they are checked too.
    net = Network(
        topologies.random_connected(n, 0.3, seed=graph_seed),
        delays=RandomDelays(hardware=0.4, software=1.0, seed=delay_seed),
    )
    for domain in elected(net, policy, delay_seed):
        assert_compact(net, domain)


def test_absorb_out_work_is_bounded_by_the_captured_domain(monkeypatch):
    # Count every ``out_info`` operation ``absorb`` makes (no wall
    # clock).  Our OUT never holds our IN, so a capture can be merged
    # by touching only the captured domain's IN and OUT entries; a pass
    # over the merged IN set would grow with the capturer instead.
    class Counted(dict):
        ops = 0

        def __contains__(self, key):
            Counted.ops += 1
            return super().__contains__(key)

        def __getitem__(self, key):
            Counted.ops += 1
            return super().__getitem__(key)

        def setdefault(self, key, default=None):
            Counted.ops += 1
            return super().setdefault(key, default)

        def pop(self, key, *default):
            Counted.ops += 1
            return super().pop(key, *default)

    absorb = DomainState.absorb
    captures = []

    def counted_absorb(self, other, attach_out_node):
        self.out_info = Counted(self.out_info)
        Counted.ops = 0
        absorb(self, other, attach_out_node)
        captures.append((Counted.ops, len(other.in_set), len(other.out_info)))

    monkeypatch.setattr(DomainState, "absorb", counted_absorb)
    for make in (lambda: topologies.line(40), lambda: topologies.grid(8, 8)):
        captures.clear()
        net = limiting_net(make())
        elected(net, "min", 0)
        assert captures
        for ops, captured_in, captured_out in captures:
            assert ops <= 2 + captured_in + captured_out, captures


def test_frozen_singletons_share_one_empty_adjacency():
    # After a churn story most captured origins still hold the singleton
    # domain they were captured with.  No domain has an instance dict;
    # a singleton's one node maps to the shared immutable empty
    # adjacency, and every node of a merged domain owns a non-empty set.
    spec = churn_scenario("clos:8,4,2", seed=1, crashes=2)
    net = from_spec(spec.topology, delays=FixedDelays(spec.C, spec.P))
    row = run_scenario(net, spec)
    assert row["violations"] == 0 and len(row["leaders"]) == 1
    domains = [node.protocol.domain for node in net.nodes.values()
               if node.protocol is not None and node.protocol.domain is not None]
    assert len(domains) == net.n
    assert NO_EDGES == frozenset()
    singletons = 0
    for domain in domains:
        assert not hasattr(domain, "__dict__")
        if domain.size == 1:
            singletons += 1
            assert domain.in_set == {domain.origin}
            assert domain.inout_adj == {domain.origin: NO_EDGES}
            assert domain.inout_adj[domain.origin] is NO_EDGES
            assert not domain.link_ids
        else:
            assert all(type(adj) is set and adj for adj in domain.inout_adj.values())
    assert 0 < singletons < net.n
