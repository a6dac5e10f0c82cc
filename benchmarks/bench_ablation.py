"""E11 — ablations of the Section 3 design choices.

* **One-way restriction**: the DFS tour broadcast is time-1 but loses
  everything past a failed link; the branching-paths broadcast pays
  log n time for failure-prefix coverage; the layered-BFS footnote
  scheme gets both — at Θ(n·d) header cost, which the dmax restriction
  of Section 2 forbids.  The table measures coverage under one failed
  link, time, and header bits per scheme.
* **Path decomposition vs. per-node direct sends**: the labels are what
  buy log n time over the O(n) naive sender.
* **Tour-length cap in the election**: phase-bounded tours are what
  keep the system-call count linear; the table shows tour lengths never
  exceed phase + 1.
"""

from __future__ import annotations

import math

from conftest import emit
from repro.core import (
    BranchingPathsBroadcast,
    DfsBroadcast,
    DirectBroadcast,
    LayeredBfsBroadcast,
    LeaderElection,
    dfs_broadcast_header,
    layered_broadcast_header,
    plan_broadcast,
    run_standalone_broadcast,
)
from repro.network import Network, bfs_tree, topologies
from repro.sim import FixedDelays


def test_e11_oneway_vs_single_packet(benchmark, capsys):
    """Coverage under a mid-tree failure + header cost per scheme."""
    n = 63
    g = topologies.complete_binary_tree(5)
    stale = {u: tuple(sorted(nbrs)) for u, nbrs in g.adjacency().items()}
    tree = bfs_tree(stale, 0)
    k_bits = None
    rows = []
    for name, cls in [
        ("bpaths", BranchingPathsBroadcast),
        ("dfs", DfsBroadcast),
        ("layered", LayeredBfsBroadcast),
    ]:
        net = Network(g, delays=FixedDelays(0.0, 1.0), dmax=10**6)
        k_bits = net.id_space.k
        net.fail_link(3, 7)  # a depth-2 -> depth-3 edge on the DFS tour
        net.attach(
            lambda api, cls=cls: cls(api, root=0, adjacency=stale, ids=net.id_lookup)
        )
        net.run_to_quiescence()
        net.start([0])
        net.run_to_quiescence()
        received = net.outputs_for_key("received_at")
        if name == "bpaths":
            header_ids = sum(
                len(d.header) for d in plan_broadcast(tree, net.id_lookup).directives
            )
        elif name == "dfs":
            header_ids = len(dfs_broadcast_header(tree, net.id_lookup))
        else:
            header_ids = len(layered_broadcast_header(tree, net.id_lookup))
        rows.append(
            [
                name,
                len(received),
                n - len(received),
                max(received.values()),
                header_ids,
                header_ids * k_bits,
            ]
        )
    emit(
        capsys,
        "E11 — failed link (3,7) on a depth-5 binary tree (n=63): coverage, "
        "time, and total header cost. One-way bpaths keeps every branch not "
        "behind the failure; layered guarantees all nodes closer than the "
        "failing sweep; DFS guarantees nothing past the break",
        ["scheme", "covered", "lost", "time", "header_ids", "header_bits"],
        rows,
    )
    net = Network(g, delays=FixedDelays(0.0, 1.0))
    benchmark(lambda: plan_broadcast(tree, net.id_lookup))


def test_e11_paths_vs_direct(benchmark, capsys):
    """The label decomposition vs. naive per-node direct messages."""
    rows = []
    for n in (31, 127, 511):
        p = min(0.5, 2.5 * math.log(n) / n)
        g = topologies.random_connected(n, p, seed=n)
        results = {}
        for name, cls in [("bpaths", BranchingPathsBroadcast), ("direct", DirectBroadcast)]:
            net = Network(g, delays=FixedDelays(0.0, 1.0))
            adjacency = net.adjacency()
            run = run_standalone_broadcast(
                net,
                lambda api, cls=cls: cls(
                    api, root=0, adjacency=adjacency, ids=net.id_lookup
                ),
                0,
            )
            results[name] = run
        rows.append(
            [
                n,
                results["bpaths"].completion_time(),
                results["direct"].completion_time(),
                results["bpaths"].system_calls,
                results["direct"].system_calls,
            ]
        )
    emit(
        capsys,
        "E11 — path decomposition vs. naive direct sends "
        "(paper Section 3.1: both are O(n) calls; only the decomposition "
        "achieves O(log n) time)",
        ["n", "t_bpaths", "t_direct", "sc_bpaths", "sc_direct"],
        rows,
    )
    g = topologies.random_connected(127, 2.5 * math.log(127) / 127, seed=127)
    net = Network(g, delays=FixedDelays(0.0, 1.0))
    adjacency = net.adjacency()
    benchmark(
        lambda: run_standalone_broadcast(
            Network(g, delays=FixedDelays(0.0, 1.0)),
            lambda api: BranchingPathsBroadcast(
                api, root=0, adjacency=adjacency, ids=net.id_lookup
            ),
            0,
        )
    )


def test_e11_election_tour_lengths(benchmark, capsys):
    """Tours stay within phase + 1 hops (Lemma 3's consequence)."""
    rows = []
    for name, g in [
        ("line", topologies.line(64)),
        ("grid", topologies.grid(8, 8)),
        ("random", topologies.random_connected(64, 0.1, seed=5)),
    ]:
        net = Network(g, delays=FixedDelays(0.0, 1.0))
        max_hops = {"value": 0, "budget_ok": True}

        class Instrumented(LeaderElection):
            def _handle_tour(self, token, packet):
                max_hops["value"] = max(max_hops["value"], token.hops_done)
                if token.hops_done > token.phase + 1:
                    max_hops["budget_ok"] = False
                super()._handle_tour(token, packet)

        net.attach(lambda api: Instrumented(api))
        net.start()
        net.run_to_quiescence(max_events=5_000_000)
        phase_bound = int(math.log2(net.n)) + 1
        rows.append(
            [name, net.n, max_hops["value"], phase_bound,
             "yes" if max_hops["budget_ok"] else "NO"]
        )
    emit(
        capsys,
        "E11 — election tour lengths (paper rule 1: never more than "
        "phase+1 direct hops; phase <= log2 n)",
        ["topology", "n", "max_tour_hops", "log2n+1", "within_budget"],
        rows,
    )
    g = topologies.grid(8, 8)
    benchmark(
        lambda: (
            lambda net: (net.attach(lambda api: LeaderElection(api)), net.start(),
                         net.run_to_quiescence())
        )(Network(g, delays=FixedDelays(0.0, 1.0)))
    )


def test_e12_hardware_groups_vs_bpaths(benchmark, capsys):
    """The 'more powerful hardware' extension: installed multicast trees.

    Steady-state broadcasting over a pre-installed group costs constant
    time per message; the stateless branching-paths broadcast pays
    log n time but needs no hardware state and survives topology churn
    without re-provisioning.  The table shows the amortisation point.
    """
    from repro.core import run_group_multicast

    rows = []
    for n in (32, 128, 512):
        p = min(0.5, 2.5 * math.log(n) / n)
        g = topologies.random_connected(n, p, seed=n)

        net_g = Network(g, delays=FixedDelays(0.0, 1.0))
        group_run = run_group_multicast(net_g, 0, bodies=list(range(3)))

        net_b = Network(g, delays=FixedDelays(0.0, 1.0))
        adjacency = net_b.adjacency()
        bpaths_run = run_standalone_broadcast(
            net_b,
            lambda api: BranchingPathsBroadcast(
                api, root=0, adjacency=adjacency, ids=net_b.id_lookup
            ),
            0,
        )
        rows.append(
            [
                n,
                group_run.setup_calls,
                group_run.setup_time,
                group_run.per_message_calls[0],
                group_run.per_message_time[0],
                bpaths_run.system_calls,
                bpaths_run.completion_time(),
            ]
        )
    emit(
        capsys,
        "E12 — installed hardware multicast groups vs. stateless "
        "branching-paths broadcast (extension of the paper's Section 2 "
        "'more powerful models' remark)",
        ["n", "setup_sc", "setup_t", "group_sc/msg", "group_t/msg",
         "bpaths_sc", "bpaths_t"],
        rows,
    )
    g = topologies.random_connected(128, 2.5 * math.log(128) / 128, seed=128)
    benchmark(
        lambda: run_group_multicast(
            Network(g, delays=FixedDelays(0.0, 1.0)), 0, bodies=["x"]
        )
    )


def test_e11_election_phase_cap_ablation(benchmark, capsys):
    """Remove rule (1)'s tour budget: correct but measurably costlier.

    Lemma 3 keeps virtual chains within log2(size) even without the
    cap, so the blow-up is bounded by a log factor — but the cap is
    what turns "bounded by n log n" into the clean 6n of Theorem 5.
    The adversarial input: half the nodes build a large domain first,
    then the other half wake as singletons and probe it; every probe
    without the cap walks the chain it would otherwise abort after one
    hop.
    """
    from repro.core import LeaderElection

    def staggered(n, cap):
        net = Network(topologies.complete(n), delays=FixedDelays(0.0, 1.0))
        net.attach(lambda api: LeaderElection(api, phase_cap=cap))
        half = n // 2
        net.start(list(range(half)), at=0.0)
        net.run_to_quiescence(max_events=10_000_000)
        net.start(list(range(half, n)), at=net.scheduler.now)
        net.run_to_quiescence(max_events=10_000_000)
        snap = net.metrics.snapshot()
        return snap.system_calls_by_kind.get("tour", 0) + snap.system_calls_by_kind.get(
            "return", 0
        )

    rows = []
    for n in (32, 128, 512):
        with_cap = staggered(n, True)
        without = staggered(n, False)
        rows.append([n, with_cap, without, 6 * n,
                     f"{(without - with_cap) / with_cap:+.1%}"])
    emit(
        capsys,
        "E11 — ablating rule (1)'s phase cap (staggered adversarial "
        "starts): still correct, consistently costlier; the cap is the "
        "Theorem 5 bookkeeping",
        ["n", "tour+ret (cap)", "tour+ret (no cap)", "6n", "overhead"],
        rows,
    )
    benchmark(lambda: staggered(64, True))
