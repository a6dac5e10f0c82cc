"""Property-based tests of the hardware substrate's routing semantics."""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import attach_recorders, limiting_net
from repro.hardware import NCU_ID, build_anr, path_broadcast_anr, reply_route
from repro.network import Topology, topologies
from repro.sim import TraceKind

SLOW = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def random_simple_path(g: Topology, rng: random.Random) -> list:
    """A random simple path of length >= 1 in the graph."""
    adjacency = g.adjacency()
    start = rng.choice(sorted(adjacency))
    path = [start]
    seen = {start}
    while True:
        options = [v for v in adjacency[path[-1]] if v not in seen]
        if not options or (len(path) > 1 and rng.random() < 0.3):
            break
        nxt = rng.choice(sorted(options))
        path.append(nxt)
        seen.add(nxt)
    if len(path) == 1:
        neighbor = rng.choice(sorted(adjacency[start]))
        path.append(neighbor)
    return path


@SLOW
@given(st.integers(min_value=0, max_value=10**6))
def test_any_simple_route_delivers_exactly_once(seed):
    rng = random.Random(seed)
    g = topologies.random_connected(rng.randint(5, 25), 0.3, seed=seed)
    net = limiting_net(g)
    recorders = attach_recorders(net)
    route = random_simple_path(g, rng)
    header = build_anr(route, net.id_lookup)
    net.node(route[0]).inject(header, payload=("data", seed))
    net.run_to_quiescence()
    # Delivered exactly once, to the final node, nothing dropped.
    for node, recorder in recorders.items():
        expected = 1 if node == route[-1] else 0
        assert len(recorder.packets) == expected, (route, node)
    assert net.metrics.hops == len(route) - 1
    assert net.metrics.drops == 0
    assert net.metrics.system_calls == 1


@SLOW
@given(st.integers(min_value=0, max_value=10**6))
def test_path_broadcast_copies_everyone_exactly_once(seed):
    rng = random.Random(seed)
    g = topologies.random_connected(rng.randint(5, 25), 0.3, seed=seed)
    net = limiting_net(g)
    recorders = attach_recorders(net)
    route = random_simple_path(g, rng)
    header = path_broadcast_anr(route, net.id_lookup)
    net.node(route[0]).inject(header, "bcast")
    net.run_to_quiescence()
    for node, recorder in recorders.items():
        expected = 1 if node in route[1:] else 0
        assert len(recorder.packets) == expected
    assert net.metrics.copies == len(route) - 1


@SLOW
@given(st.integers(min_value=0, max_value=10**6))
def test_reply_route_inverts_any_route(seed):
    rng = random.Random(seed)
    g = topologies.random_connected(rng.randint(5, 20), 0.3, seed=seed)
    net = limiting_net(g)
    recorders = attach_recorders(net)
    route = random_simple_path(g, rng)
    net.node(route[0]).inject(build_anr(route, net.id_lookup), "ping")
    net.run_to_quiescence()
    (ping,) = recorders[route[-1]].packets
    # The reverse route must be exactly as long as the forward one.
    assert len(ping.reverse_anr) == len(route) - 1
    net.node(route[-1]).inject(reply_route(ping), "pong")
    net.run_to_quiescence()
    assert [p.payload for p in recorders[route[0]].packets] == ["pong"]
    # The reply's reverse path routes forward again (third traversal).
    (pong,) = recorders[route[0]].packets
    net.node(route[0]).inject(reply_route(pong), "ping2")
    net.run_to_quiescence()
    assert [p.payload for p in recorders[route[-1]].packets][-1] == "ping2"


@SLOW
@given(st.integers(min_value=0, max_value=10**6))
def test_failed_link_only_affects_routes_through_it(seed):
    rng = random.Random(seed)
    g = topologies.random_connected(rng.randint(6, 20), 0.35, seed=seed)
    net = limiting_net(g)
    recorders = attach_recorders(net)
    route = random_simple_path(g, rng)
    # Fail one edge on the route.
    cut_index = rng.randrange(len(route) - 1)
    net.fail_link(route[cut_index], route[cut_index + 1])
    net.run_to_quiescence()
    header = path_broadcast_anr(route, net.id_lookup)
    before_drops = net.metrics.drops
    net.node(route[0]).inject(header, "x")
    net.run_to_quiescence()
    # Nodes before the cut still got their copies; nodes after did not.
    for position, node in enumerate(route[1:], start=1):
        got = len(recorders[node].packets)
        assert got == (1 if position <= cut_index else 0), (route, cut_index, node)
    assert net.metrics.drops == before_drops + 1


@SLOW
@given(st.integers(min_value=0, max_value=10**6))
def test_hop_and_copy_conservation(seed):
    # Across a batch of random injections: hops == sum of per-packet
    # traversals, copies == deliveries, and headers never mutate totals.
    rng = random.Random(seed)
    g = topologies.random_connected(rng.randint(5, 15), 0.4, seed=seed)
    net = limiting_net(g)
    recorders = attach_recorders(net)
    expected_hops = 0
    expected_copies = 0
    for _ in range(rng.randint(1, 5)):
        route = random_simple_path(g, rng)
        expected_hops += len(route) - 1
        expected_copies += len(route) - 1
        net.node(route[0]).inject(
            path_broadcast_anr(route, net.id_lookup), "m"
        )
    net.run_to_quiescence()
    assert net.metrics.hops == expected_hops
    assert net.metrics.copies == expected_copies
    delivered = sum(len(r.packets) for r in recorders.values())
    assert delivered == expected_copies


def _dict_port_table(net, node_id) -> dict:
    """The port table as a dict from each link's normal and copy ID at
    ``node_id`` to the link: the oracle the tuple table must agree with."""
    table = {}
    for link in net.links.values():
        if node_id in (link.node_u.node_id, link.node_v.node_id):
            normal, copy = link.ids_at(node_id)
            table[normal] = link
            table[copy] = link
    return table


def _oracle_decision(net, node_id, table, link_id) -> tuple:
    """``(links forwarded over, copy delivered, drop reasons)`` the
    ID-set rule gives for ``link_id`` against the dict table."""
    groups = net.node(node_id).ss._groups
    if link_id in groups:
        members, to_ncu = groups[link_id]
        over = tuple(link.key for link in members if link.active)
        drops = tuple("inactive_link" for link in members if not link.active)
        return over, to_ncu, drops
    link = table.get(link_id)
    copy = link_id == NCU_ID or (link is not None and net.id_space.is_copy(link_id))
    if link is None:
        return (), copy, () if copy else ("unroutable_id",)
    if not link.active:
        return (), copy, ("inactive_link",)
    return (link.key,), copy, ()


def _observed_decision(net, node_id, link_id) -> tuple:
    """Inject ``(link_id,)`` at ``node_id`` and read what the SS did."""
    start = len(net.trace)
    net.node(node_id).inject((link_id,), "probe")
    records = list(net.trace)[start:]
    over = tuple(r.detail["link"] for r in records if r.kind is TraceKind.PACKET_HOP)
    copy = any(r.kind is TraceKind.PACKET_COPIED for r in records)
    drops = tuple(
        r.detail["reason"] for r in records if r.kind is TraceKind.PACKET_DROPPED
    )
    return over, copy, drops


@SLOW
@given(st.integers(min_value=0, max_value=10**6), st.data())
def test_port_table_matches_dict_oracle(seed, data):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [pair for pair in pairs if rng.random() < 0.5] or [pairs[0]]
    net = limiting_net(Topology(range(n), edges), trace=True)
    attach_recorders(net)
    for u, v in edges:
        if rng.random() < 0.2:
            net.fail_link(u, v)
    node_id = rng.randrange(n)
    node = net.node(node_id)
    space = net.id_space
    flag, base = space.flag, space.group_base
    degree = node.api.degree
    if node.ss.ports[1:] and rng.random() < 0.5:
        members = tuple(link for link in node.ss.ports[1:] if rng.random() < 0.5)
        node.ss.install_group(base + flag, members, to_ncu=rng.random() < 0.5)
    normal = list(range(1, degree + 1))
    ids = (
        [-(2**70), -flag - 1, -flag, -1, NCU_ID, flag, flag - 1, degree + 1,
         flag | (degree + 1), 2 * flag - 1, base, base + 1, base + flag,
         2**31, 2**64 + 1]
        + normal
        + [flag | i for i in normal]
        + data.draw(st.lists(st.integers(), max_size=8))
    )
    table = _dict_port_table(net, node_id)
    for link_id in ids:
        assert _observed_decision(net, node_id, link_id) == _oracle_decision(
            net, node_id, table, link_id
        ), (link_id, flag, degree)
