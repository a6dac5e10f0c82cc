"""Connectivity without networkx, checked against networkx oracles.

``Network.components``, ``is_converged``, ``random_link_failures`` and
``random_connected`` answer from plain Python data.  The
``nx_*`` functions below are the networkx implementations they
replaced, kept as reference oracles: every test runs both on the same
input and compares the answers.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LeaderElection, attach_topology_maintenance, is_converged
from repro.exec.workloads import election_calls_per_node
from repro.network import (
    Network,
    Protocol,
    Topology,
    from_spec,
    topologies,
    topology_from_spec,
)
from repro.scenario import ScenarioEvent, random_link_failures
from repro.sim import RandomDelays

SLOW = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# Reference oracles: the networkx code the link-table versions replaced
# ----------------------------------------------------------------------
def nx_random_link_failures(
    graph: nx.Graph,
    count: int,
    *,
    seed: int = 0,
    start: float = 0.0,
    spacing: float = 1.0,
    keep_connected: bool = True,
) -> tuple[ScenarioEvent, ...]:
    rng = random.Random(seed)
    working = nx.Graph(graph)
    events = []
    when = start
    for _ in range(count):
        candidates = list(working.edges)
        rng.shuffle(candidates)
        chosen = None
        for u, v in candidates:
            if not keep_connected:
                chosen = (u, v)
                break
            working.remove_edge(u, v)
            if nx.is_connected(working):
                chosen = (u, v)
                break
            working.add_edge(u, v)
        if chosen is None:
            break
        if not keep_connected:
            working.remove_edge(*chosen)
        events.append(ScenarioEvent(at=when, op="fail_link", target=chosen))
        when += spacing
    return tuple(events)


def nx_is_converged(net: Network) -> bool:
    actual = net.active_graph()
    for component in nx.connected_components(actual):
        component_edges = {
            tuple(sorted(edge, key=repr))
            for edge in actual.subgraph(component).edges
        }
        for node_id in component:
            view = nx.Graph()
            view.add_node(node_id)
            view.add_edges_from(net.node(node_id).protocol.view_edges())
            believed_component = nx.node_connected_component(view, node_id)
            if believed_component != component:
                return False
            believed_edges = {
                tuple(sorted(edge, key=repr))
                for edge in view.subgraph(believed_component).edges
            }
            if believed_edges != component_edges:
                return False
    return True


def nx_random_connected(n: int, p: float, seed: int = 0, max_tries: int = 200) -> nx.Graph:
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return nx.empty_graph(1)
    for attempt in range(max_tries):
        g = nx.gnp_random_graph(n, p, seed=seed + attempt)
        if nx.is_connected(g):
            return g
    raise ValueError(f"could not sample a connected G({n}, {p}) in {max_tries} tries")


def spec_probability(n: int) -> float:
    """The edge probability ``random:n,seed`` uses."""
    return min(0.5, 2.5 * math.log(max(n, 2)) / n)


def random_topology(rng: random.Random) -> Topology:
    """A small random graph, possibly disconnected, with its nodes listed
    in shuffled input order (so input order differs from repr order)."""
    n = rng.randint(1, 14)
    labels = [rng.choice([i, f"s{i}"]) for i in range(n)]
    rng.shuffle(labels)
    edges = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < 0.18
    ]
    return Topology(labels, edges)


def link_table(net: Network) -> list[tuple]:
    """Every link's key and its ANR IDs at both ends, in link order."""
    return [
        (key, link.ids_at(key[0]), link.ids_at(key[1]))
        for key, link in net.links.items()
    ]


# ----------------------------------------------------------------------
# Network.components
# ----------------------------------------------------------------------
@SLOW
@given(st.integers(min_value=0, max_value=10**6))
def test_components_match_networkx_under_churn(seed):
    rng = random.Random(seed)
    net = Network(random_topology(rng))
    net.attach(Protocol)
    nodes = list(net.nodes)
    crashed: set = set()
    for _ in range(10):
        expected = list(nx.connected_components(net.active_graph()))
        assert list(net.components()) == expected  # same sets, same order
        action = rng.choice(["partition", "crash", "restart", "fail", "restore", "heal"])
        if action == "partition":
            shuffled = rng.sample(nodes, len(nodes))
            cut = rng.randint(0, len(nodes))
            net.partition([shuffled[:cut]])
        elif action == "crash":
            node_id = rng.choice(nodes)
            if node_id not in crashed:
                net.crash_node(node_id)
                crashed.add(node_id)
        elif action == "restart" and crashed:
            node_id = rng.choice(sorted(crashed, key=repr))
            net.restart_node(node_id, start=False)
            crashed.discard(node_id)
        elif action in ("fail", "restore") and net.links:
            u, v = rng.choice(list(net.links))
            (net.fail_link if action == "fail" else net.restore_link)(u, v)
        elif action == "heal":
            net.heal()
    net.reset()
    assert list(net.components()) == list(nx.connected_components(net.active_graph()))


def test_components_are_memoised_on_the_topology_version():
    net = from_spec("ring:6")
    first = net.components()
    assert net.components() is first
    assert first == (frozenset(range(6)),)
    net.fail_link(0, 1)
    assert net.components() == first  # a ring survives one cut
    net.fail_link(3, 4)
    assert [set(c) for c in net.components()] == [{0, 4, 5}, {1, 2, 3}]
    net.heal()
    assert net.components() == first


# ----------------------------------------------------------------------
# Network.topology
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", ["ring:5", "grid:3,4", "fat_tree:4", "random:20,3"])
def test_topology_is_what_net_graph_is_built_from(spec):
    net = from_spec(spec)
    topology = net.topology()
    graph = topology.to_graph()
    assert list(graph.nodes) == list(net.graph.nodes)
    assert list(graph.edges) == list(net.graph.edges)
    # The input's distinct edges, in first-occurrence order.
    given_edges = topology_from_spec(spec).edges
    assert [frozenset(e) for e in topology.edges] == list(
        dict.fromkeys(frozenset(e) for e in given_edges)
    )
    assert topology is not net.topology()
    # Link state does not matter: the topology holds every link.
    net.fail_link(*next(iter(net.links)))
    assert net.topology() == topology


# ----------------------------------------------------------------------
# random_link_failures
# ----------------------------------------------------------------------
def churned_graph(rng: random.Random) -> nx.Graph:
    """An ``nx.Graph`` whose adjacency dicts are out of insertion order:
    some edges removed and re-added, some of them reversed."""
    g = nx_random_connected(rng.randint(4, 20), 0.3, seed=rng.randint(0, 10**6))
    for _ in range(rng.randint(1, 8)):
        u, v = rng.choice(list(g.edges))
        g.remove_edge(u, v)
        if rng.random() < 0.5:
            g.add_edge(v, u)
        else:
            g.add_edge(u, v)
    return g


@SLOW
@given(st.integers(min_value=0, max_value=10**6), st.booleans())
def test_random_link_failures_match_networkx_after_edge_churn(seed, keep_connected):
    rng = random.Random(seed)
    g = churned_graph(rng)
    before = (list(g.nodes), list(g.edges))
    count = rng.randint(0, g.number_of_edges() + 2)
    expected = nx_random_link_failures(g, count, seed=seed, keep_connected=keep_connected)
    got = random_link_failures(g, count, seed=seed, keep_connected=keep_connected)
    assert got == expected
    assert (list(g.nodes), list(g.edges)) == before  # the input is never modified
    # The same graph as plain sequences gives the same events.
    as_topology = Topology(list(g.nodes), list(g.edges))
    got = random_link_failures(as_topology, count, seed=seed, keep_connected=keep_connected)
    assert got == expected


@SLOW
@given(st.integers(min_value=0, max_value=10**6), st.booleans())
def test_random_link_failures_match_networkx_on_topologies(seed, keep_connected):
    rng = random.Random(seed)
    topology = random_topology(rng)  # often disconnected
    count = rng.randint(0, 8)
    got = random_link_failures(topology, count, seed=seed, keep_connected=keep_connected)
    expected = nx_random_link_failures(
        topology.to_graph(), count, seed=seed, keep_connected=keep_connected
    )
    assert got == expected


@pytest.mark.parametrize("spec", ["torus:4,4", "clos:6,3,1", "fat_tree:4", "random:24,5"])
@pytest.mark.parametrize("keep_connected", [True, False])
def test_random_link_failures_on_net_topology_match_net_graph(spec, keep_connected):
    net = from_spec(spec)
    for seed in range(6):
        got = random_link_failures(
            net.topology(), 6, seed=seed, spacing=0.5, keep_connected=keep_connected
        )
        expected = nx_random_link_failures(
            net.graph, 6, seed=seed, spacing=0.5, keep_connected=keep_connected
        )
        assert got == expected


def test_random_link_failures_on_self_loops_match_networkx():
    g = nx.cycle_graph(5)
    g.add_edge(2, 2)
    for seed in range(8):
        for keep_connected in (True, False):
            got = random_link_failures(g, 4, seed=seed, keep_connected=keep_connected)
            expected = nx_random_link_failures(
                g, 4, seed=seed, keep_connected=keep_connected
            )
            assert got == expected


# ----------------------------------------------------------------------
# is_converged
# ----------------------------------------------------------------------
class FixedView(Protocol):
    """A node whose topology view is whatever the test sets."""

    def __init__(self, api) -> None:
        super().__init__(api)
        self.edges: set = set()

    def view_edges(self) -> set:
        return set(self.edges)


def fixed_view_net(spec: str) -> Network:
    net = from_spec(spec)
    net.attach(FixedView)
    return net


def set_true_views(net: Network) -> None:
    """Give every node exactly its component's active edges."""
    for component in nx.connected_components(net.active_graph()):
        edges = set(net.active_graph().subgraph(component).edges)
        for node_id in component:
            net.node(node_id).protocol.edges = set(edges)


def check(net: Network) -> bool:
    expected = nx_is_converged(net)
    assert is_converged(net) == expected
    return expected


def test_is_converged_on_converged_views():
    net = fixed_view_net("grid:3,3")
    set_true_views(net)
    assert check(net)
    # Reversed orientations are the same edges.
    for node in net.nodes.values():
        node.protocol.edges = {(v, u) for u, v in node.protocol.edges}
    assert check(net)


def test_is_converged_on_a_missing_edge():
    net = fixed_view_net("grid:3,3")
    set_true_views(net)
    net.node(4).protocol.edges.discard(next(iter(net.node(4).protocol.edges)))
    assert not check(net)


def test_is_converged_on_stale_edges():
    net = fixed_view_net("grid:3,3")
    net.fail_link(0, 1)
    set_true_views(net)
    assert check(net)
    net.node(8).protocol.edges.add((0, 1))  # a failed link believed active
    assert not check(net)
    set_true_views(net)
    net.node(8).protocol.edges.add((0, 8))  # a link that never existed
    assert not check(net)
    set_true_views(net)
    net.node(8).protocol.edges.add((8, 8))  # a self-loop
    assert not check(net)


def test_is_converged_on_a_detached_leaf():
    net = fixed_view_net("star:5")
    set_true_views(net)
    net.fail_link(0, 4)  # leaf 4 is now alone
    assert not check(net)  # everyone still believes it attached
    net.node(4).protocol.edges = set()
    assert not check(net)  # the rest of the star still does
    set_true_views(net)
    assert check(net)
    # Opinions about *other* components may be stale.
    net.node(4).protocol.edges = {(0, 1), (0, 2)}
    assert check(net)
    net.node(1).protocol.edges.add((4, 9))  # but not about one's own
    assert check(net)  # (4, 9) touches only the leaf's component
    net.node(4).protocol.edges.add((4, 9))
    assert not check(net)


@SLOW
@given(st.integers(min_value=0, max_value=10**6))
def test_is_converged_matches_networkx_on_perturbed_views(seed):
    rng = random.Random(seed)
    net = Network(random_topology(rng))
    net.attach(FixedView)
    for _ in range(rng.randint(0, 3)):
        if net.links:
            net.fail_link(*rng.choice(list(net.links)))
    set_true_views(net)
    nodes = list(net.nodes)
    all_pairs = [(u, v) for u in nodes for v in nodes]
    for _ in range(rng.randint(0, 3)):
        view = net.node(rng.choice(nodes)).protocol.edges
        move = rng.choice(["drop", "add", "flip"])
        if move == "drop" and view:
            view.discard(rng.choice(sorted(view, key=repr)))
        elif move == "add":
            view.add(rng.choice(all_pairs))
        elif view:
            u, v = rng.choice(sorted(view, key=repr))
            view.discard((u, v))
            view.add((v, u))
    check(net)


@pytest.mark.parametrize("spec", ["grid:4,4", "torus:4,4", "random:20,2"])
def test_is_converged_matches_networkx_round_by_round(spec):
    net = from_spec(spec, delays=RandomDelays(hardware=0.3, software=1.0, seed=3))
    attach_topology_maintenance(net, strategy="bpaths", scope="local")
    verdicts = []
    for phase in range(2):
        for _ in range(12):
            net.start(at=net.scheduler.now)
            net.run_to_quiescence()
            verdicts.append(check(net))
        if phase == 0:
            for event in random_link_failures(net.topology(), 3, seed=1):
                net.fail_link(*event.target)
            net.run_to_quiescence()
            verdicts.append(check(net))
    assert not verdicts[0] and verdicts[-1]
    assert False in verdicts[12:]  # the failures were noticed


# ----------------------------------------------------------------------
# random_connected and the random: spec
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 7, 16])
def test_random_spec_matches_gnp_random_graph(seed):
    for n in range(1, 129):
        expected = nx_random_connected(n, spec_probability(n), seed=seed)
        topology = topology_from_spec(f"random:{n},{seed}")
        assert list(topology.nodes) == list(expected.nodes)
        assert list(topology.edges) == list(expected.edges)


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 3), (9, 1), (24, 3), (64, 16), (128, 7)])
def test_random_spec_builds_the_same_network_as_gnp(n, seed):
    net = from_spec(f"random:{n},{seed}")
    expected = Network(nx_random_connected(n, spec_probability(n), seed=seed))
    assert link_table(net) == link_table(expected)
    assert list(net.graph.edges) == list(expected.graph.edges)


@pytest.mark.parametrize("p", [1, 1.0, 1.5])
def test_random_connected_topology_with_p_at_least_one_is_complete(p):
    for n in (1, 2, 5, 9):
        topology = topologies.random_connected(n, p, seed=4)
        expected = nx_random_connected(n, p, seed=4)
        assert list(topology.nodes) == list(expected.nodes)
        assert list(topology.edges) == list(expected.edges)


@pytest.mark.parametrize("p", [0, 0.0, -0.5])
def test_random_connected_topology_with_p_at_most_zero(p):
    topology = topologies.random_connected(1, p, seed=2)
    assert (list(topology.nodes), list(topology.edges)) == ([0], [])
    with pytest.raises(ValueError) as expected:
        nx_random_connected(3, p, seed=2, max_tries=5)
    with pytest.raises(ValueError) as got:
        topologies.random_connected(3, p, seed=2, max_tries=5)
    assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError, match="n must be positive"):
        topologies.random_connected(0, 0.5)


def test_random_connected_matches_gnp():
    for seed in range(4):
        got = topologies.random_connected(30, 0.12, seed=seed)
        expected = nx_random_connected(30, 0.12, seed=seed)
        assert list(got.nodes) == list(expected.nodes)
        assert list(got.edges) == list(expected.edges)
    assert topologies.random_connected(30, 0.12, seed=3) is not got


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_election_sample_matches_a_gnp_network(seed):
    delays = RandomDelays(hardware=0.3, software=1.0, seed=seed)
    net = Network(nx_random_connected(24, 0.18, seed=seed), delays=delays)
    net.attach(LeaderElection)
    net.start()
    net.run_to_quiescence(max_events=3_000_000)
    calls = net.metrics.snapshot().system_calls_by_kind
    expected = (calls.get("tour", 0) + calls.get("return", 0)) / net.n
    assert election_calls_per_node(seed, n=24, edge_prob=0.18) == expected
