"""Empirical asymptotics: measured cost series must have the paper's shape.

These tests run each algorithm across a size sweep and *fit* the
measured system-call / time series against growth models, asserting the
paper's asymptotic claims hold in the implementation — not just at one
size.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.fitting import best_model, loglog_slope
from repro.core import (
    BranchingPathsBroadcast,
    ChangRoberts,
    DirectBroadcast,
    FloodingBroadcast,
    HirschbergSinclair,
    LeaderElection,
    run_standalone_broadcast,
)
from repro.network import Network, topologies
from repro.sim import FixedDelays

SIZES = [16, 32, 64, 128, 256]


def broadcast_series(proto_cls):
    calls, times = [], []
    for n in SIZES:
        p = min(0.5, 2.5 * math.log(n) / n)
        net = Network(topologies.random_connected(n, p, seed=n),
                      delays=FixedDelays(0.0, 1.0))
        adjacency = net.adjacency()
        if proto_cls is FloodingBroadcast:
            def factory(api):
                return FloodingBroadcast(api, root=0)
        else:
            def factory(api):
                return proto_cls(api, root=0, adjacency=adjacency, ids=net.id_lookup)
        run = run_standalone_broadcast(net, factory, 0)
        calls.append(run.system_calls)
        times.append(run.completion_time())
    return calls, times


def election_series(make_factory):
    """System-call totals on rings; ``make_factory(perm)`` builds the
    per-node protocol factory given a random priority permutation."""
    import random

    calls = []
    for n in SIZES:
        rng = random.Random(n)
        perm = list(range(n))
        rng.shuffle(perm)
        net = Network(topologies.ring(n), delays=FixedDelays(0.0, 1.0))
        net.attach(make_factory(perm))
        net.start()
        net.run_to_quiescence(max_events=10_000_000)
        calls.append(net.metrics.system_calls)
    return calls


def test_bpaths_calls_scale_linearly():
    calls, _ = broadcast_series(BranchingPathsBroadcast)
    assert loglog_slope(SIZES, calls) == pytest.approx(1.0, abs=0.05)
    assert best_model(SIZES, calls)[0].name == "n"


def test_bpaths_time_scales_logarithmically():
    _, times = broadcast_series(BranchingPathsBroadcast)
    # Time grows much slower than any polynomial: slope near zero.
    assert loglog_slope(SIZES, times) < 0.35
    assert times[-1] <= 1 + (1 + math.log2(SIZES[-1]))


def test_direct_time_scales_linearly():
    _, times = broadcast_series(DirectBroadcast)
    assert loglog_slope(SIZES, times) == pytest.approx(1.0, abs=0.05)


def test_flooding_calls_scale_with_m():
    calls, _ = broadcast_series(FloodingBroadcast)
    # On G(n, c·log n / n) graphs m ~ n log n, so calls should fit
    # n log n far better than n.
    fits = {f.name: f.relative_rmse for f in best_model(SIZES, calls)}
    assert fits["n log n"] < fits["n"]


def test_new_election_scales_linearly():
    calls = election_series(lambda perm: lambda api: LeaderElection(api))
    assert loglog_slope(SIZES, calls) == pytest.approx(1.0, abs=0.1)
    assert best_model(SIZES, calls)[0].name == "n"


def test_hirschberg_sinclair_scales_nlogn():
    # Random priority arrangements; identity priorities on an ascending
    # ring are HS's *best* case (linear), which is itself worth knowing.
    calls = election_series(
        lambda perm: lambda api: HirschbergSinclair(api, priority=perm[api.node_id])
    )
    fits = {f.name: f.relative_rmse for f in best_model(SIZES, calls)}
    assert fits["n log n"] < fits["n"]
    assert fits["n log n"] < fits["n^2"]


def test_hirschberg_sinclair_identity_priorities_are_linear_best_case():
    calls = election_series(lambda perm: lambda api: HirschbergSinclair(api))
    assert best_model(SIZES, calls)[0].name == "n"


def test_chang_roberts_worst_case_scales_quadratically():
    calls = election_series(
        lambda perm: lambda api: ChangRoberts(api, direction=-1)
    )
    assert loglog_slope(SIZES, calls) == pytest.approx(2.0, abs=0.15)
    assert best_model(SIZES, calls)[0].name == "n^2"


def test_chang_roberts_best_case_scales_linearly():
    calls = election_series(
        lambda perm: lambda api: ChangRoberts(api, direction=+1)
    )
    assert loglog_slope(SIZES, calls) == pytest.approx(1.0, abs=0.1)


def test_crossover_new_vs_hs():
    # The new algorithm's totals cross below HS early and stay below.
    new = election_series(lambda perm: lambda api: LeaderElection(api))
    hs = election_series(
        lambda perm: lambda api: HirschbergSinclair(api, priority=perm[api.node_id])
    )
    assert all(a < b for a, b in zip(new, hs))
    # And the gap widens.
    ratios = [b / a for a, b in zip(new, hs)]
    assert ratios[-1] > ratios[0]


def test_election_time_scales_linearly():
    # Theorem 5 implies O(n) time too: time per run divided by n should
    # stay bounded (log-log slope ~<= 1).
    times = []
    for n in SIZES:
        net = Network(topologies.ring(n), delays=FixedDelays(0.0, 1.0))
        net.attach(lambda api: LeaderElection(api))
        net.start()
        net.run_to_quiescence(max_events=10_000_000)
        times.append(net.scheduler.now)
    slope = loglog_slope(SIZES, times)
    assert slope <= 1.15
    assert times[-1] <= 6 * SIZES[-1]  # comfortably linear in absolute terms
