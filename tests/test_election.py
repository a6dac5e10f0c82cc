"""Tests for the Section 4 leader election (E5) and its baselines (E6)."""

from __future__ import annotations

import pytest

from repro.core import ChangRoberts, HirschbergSinclair, LeaderElection
from repro.network import Network, topologies
from repro.sim import FixedDelays, RandomDelays


def run_election(g, factory, starters=None, *, delays=None, max_events=2_000_000):
    net = Network(g, delays=delays or FixedDelays(0.0, 1.0))
    net.attach(factory)
    net.start(starters)
    net.run_to_quiescence(max_events=max_events)
    return net


def assert_one_leader_everyone_knows(net):
    flags = net.outputs_for_key("is_leader")
    winners = [node for node, is_leader in flags.items() if is_leader]
    assert len(winners) == 1, f"winners: {winners}"
    known = net.outputs_for_key("leader")
    assert set(known) == set(net.nodes)  # every node learned the result
    assert set(known.values()) == {winners[0]}
    return winners[0]


def tour_return_calls(net):
    snap = net.metrics.snapshot()
    return snap.system_calls_by_kind.get("tour", 0) + snap.system_calls_by_kind.get(
        "return", 0
    )


def _shape(g):
    return f"n{len(g.node_order())}m{len(g.edges)}"


GRAPHS = [
    topologies.line(2),
    topologies.line(9),
    topologies.ring(12),
    topologies.star(10),
    topologies.complete(12),
    topologies.grid(4, 5),
    topologies.complete_binary_tree(4),
    topologies.barbell(4, 3),
    topologies.random_connected(30, 0.12, seed=1),
    topologies.random_connected(60, 0.07, seed=2),
]


@pytest.mark.parametrize("g", GRAPHS, ids=_shape)
def test_exactly_one_leader_all_starters(g):
    net = run_election(g, lambda api: LeaderElection(api))
    assert_one_leader_everyone_knows(net)


@pytest.mark.parametrize("g", GRAPHS, ids=_shape)
def test_theorem5_tour_return_bound(g):
    net = run_election(g, lambda api: LeaderElection(api))
    assert tour_return_calls(net) <= 6 * net.n


def test_single_initiator_still_elects():
    g = topologies.random_connected(25, 0.15, seed=3)
    net = run_election(g, lambda api: LeaderElection(api), starters=[7])
    assert_one_leader_everyone_knows(net)


def test_two_initiators():
    g = topologies.grid(4, 4)
    net = run_election(g, lambda api: LeaderElection(api), starters=[0, 15])
    assert_one_leader_everyone_knows(net)


def test_single_node_network_elects_itself():
    net = run_election(topologies.line(1), lambda api: LeaderElection(api))
    flags = net.outputs_for_key("is_leader")
    assert flags == {0: True}


def test_no_announce_mode():
    g = topologies.ring(8)
    net = run_election(g, lambda api: LeaderElection(api, announce=False))
    flags = net.outputs_for_key("is_leader")
    winners = [node for node, v in flags.items() if v]
    assert len(winners) == 1
    # Without the announcement only the winner knows.
    assert set(net.outputs_for_key("leader")) == {winners[0]}


@pytest.mark.parametrize("seed", range(6))
def test_correct_under_random_delays(seed):
    g = topologies.random_connected(22, 0.18, seed=seed)
    net = run_election(
        g,
        lambda api: LeaderElection(api),
        delays=RandomDelays(hardware=0.3, software=1.0, seed=seed),
    )
    assert_one_leader_everyone_knows(net)
    assert tour_return_calls(net) <= 6 * net.n


@pytest.mark.parametrize("seed", range(4))
def test_staggered_starts(seed):
    # Nodes wake at different times; late nodes are drafted by messages.
    g = topologies.random_connected(18, 0.2, seed=seed + 10)
    net = Network(g, delays=FixedDelays(0.0, 1.0))
    net.attach(lambda api: LeaderElection(api))
    for index, node in enumerate(sorted(net.nodes)):
        if index % 3 == 0:
            net.start([node], at=float(index))
    net.run_to_quiescence(max_events=2_000_000)
    assert_one_leader_everyone_knows(net)


def test_total_system_calls_linear():
    # Including starts, nudges and the announcement, the total stays
    # within a small linear envelope (the 6n of Theorem 5 plus n starts,
    # n announce deliveries and the occasional nudge).
    for n in (16, 64, 128):
        g = topologies.random_connected(n, min(0.3, 8.0 / n), seed=n)
        net = run_election(g, lambda api: LeaderElection(api))
        assert net.metrics.system_calls <= 9 * n


def test_election_hops_stay_linear_in_dmax():
    # Every direct message's header obeys the default dmax = 2n + 2.
    g = topologies.random_connected(40, 0.1, seed=5)
    net = run_election(g, lambda api: LeaderElection(api))
    assert_one_leader_everyone_knows(net)  # no PathTooLongError en route


# ----------------------------------------------------------------------
# Baselines (E6)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [3, 8, 17, 32])
def test_chang_roberts_elects_max_id(n):
    net = run_election(topologies.ring(n), lambda api: ChangRoberts(api))
    winner = assert_one_leader_everyone_knows(net)
    assert winner == n - 1


@pytest.mark.parametrize("n", [3, 8, 17, 32])
def test_hirschberg_sinclair_elects_max_id(n):
    net = run_election(topologies.ring(n), lambda api: HirschbergSinclair(api))
    winner = assert_one_leader_everyone_knows(net)
    assert winner == n - 1


def test_hs_system_calls_n_log_n():
    # HS is Θ(n log n) in the new measure: every hop is a system call.
    import math

    for n in (16, 64):
        net = run_election(topologies.ring(n), lambda api: HirschbergSinclair(api))
        calls = net.metrics.system_calls
        assert calls > 2 * n  # clearly superlinear territory
        assert calls <= 12 * n * math.log2(n)


def test_new_election_beats_baselines_asymptotically_on_rings():
    # System calls: new algorithm grows linearly, HS as n log n; by
    # n = 128 the gap is unambiguous.
    n = 128
    net_new = run_election(topologies.ring(n), lambda api: LeaderElection(api))
    net_hs = run_election(topologies.ring(n), lambda api: HirschbergSinclair(api))
    assert net_new.metrics.system_calls < net_hs.metrics.system_calls


def test_chang_roberts_single_starter():
    net = run_election(topologies.ring(9), lambda api: ChangRoberts(api), starters=[4])
    assert_one_leader_everyone_knows(net)


@pytest.mark.parametrize("policy", ["min", "max", "random"])
def test_theorem5_holds_for_any_tour_policy(policy):
    # The paper's tour target is arbitrary: the bound must not depend
    # on the selection policy.
    for seed in (1, 2):
        g = topologies.random_connected(40, 0.12, seed=seed)
        net = run_election(
            g,
            lambda api: LeaderElection(api, tour_policy=policy, tour_seed=seed),
        )
        assert_one_leader_everyone_knows(net)
        assert tour_return_calls(net) <= 6 * net.n


def test_unknown_tour_policy_rejected():
    net = Network(topologies.line(2), delays=FixedDelays(0.0, 1.0))
    net.attach(lambda api: LeaderElection(api, tour_policy="bogus"))
    net.start()
    with pytest.raises(ValueError, match="tour policy"):
        net.run_to_quiescence()


def test_phase_cap_ablation_correct_and_costlier():
    # Without rule (1)'s budget the election stays correct (chains are
    # finite), but the adversarial staggered scenario pays more.
    def staggered(cap):
        net = Network(topologies.complete(64), delays=FixedDelays(0.0, 1.0))
        net.attach(lambda api: LeaderElection(api, phase_cap=cap))
        net.start(list(range(32)), at=0.0)
        net.run_to_quiescence(max_events=5_000_000)
        net.start(list(range(32, 64)), at=net.scheduler.now)
        net.run_to_quiescence(max_events=5_000_000)
        assert_one_leader_everyone_knows(net)
        return tour_return_calls(net)

    capped = staggered(True)
    uncapped = staggered(False)
    assert capped <= 6 * 64
    assert uncapped > capped


def test_announcement_rides_the_inout_tree():
    # The winner's announcement reuses the branching-paths broadcast
    # over its INOUT tree: n-1 'announce' receipts, each one tree hop.
    g = topologies.random_connected(24, 0.2, seed=12)
    net = run_election(g, lambda api: LeaderElection(api))
    assert_one_leader_everyone_knows(net)
    snap = net.metrics.snapshot()
    assert snap.system_calls_by_kind.get("announce", 0) == net.n - 1
