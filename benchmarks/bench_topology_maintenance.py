"""E4 — topology maintenance: convergence after failures (Theorem 1).

Measured series:

* rounds-to-convergence from a cold start, for scope="local" (the
  ARPANET way: O(d) rounds) vs. scope="full" (the paper's improvement:
  O(log d) rounds) — on paths, where d = n - 1 makes the gap stark;
* per-round system calls of the branching-paths strategy vs. flooding
  on dense graphs (the m/n factor);
* re-convergence after batches of random link failures;
* the Section 3 six-node example: adversarial DFS deadlocks, the
  one-way branching-paths broadcast converges.
"""

from __future__ import annotations

import math

from conftest import emit
from repro.core import attach_topology_maintenance, converge_by_rounds
from repro.network import Network, random_link_failures, topologies
from repro.sim import FixedDelays


def fresh(g):
    return Network(g, delays=FixedDelays(0.0, 1.0))


def test_e4_scope_convergence_rounds(benchmark, capsys):
    rows = []
    for n in (9, 17, 33, 65):
        d = n - 1
        results = {}
        for scope in ("local", "full"):
            net = fresh(topologies.line(n))
            attach_topology_maintenance(net, strategy="bpaths", scope=scope)
            results[scope] = converge_by_rounds(net, max_rounds=2 * n)
        rows.append(
            [
                n,
                d,
                results["local"].rounds,
                results["full"].rounds,
                round(math.log2(d), 1),
            ]
        )
    emit(
        capsys,
        "E4 — broadcasts per node until convergence on a path "
        "(paper: O(d) with local scope, log d with full-knowledge scope)",
        ["n", "diam", "rounds_local", "rounds_full", "log2(d)"],
        rows,
    )

    def one_convergence():
        net = fresh(topologies.line(33))
        attach_topology_maintenance(net, strategy="bpaths", scope="full")
        converge_by_rounds(net, max_rounds=64)

    benchmark(one_convergence)


def test_e4_strategy_cost_per_round(benchmark, capsys):
    rows = []
    for name, g in [
        ("sparse", topologies.random_connected(64, 0.07, seed=1)),
        ("dense", topologies.random_connected(64, 0.3, seed=1)),
        ("complete", topologies.complete(64)),
    ]:
        record = [name, len(g.node_order()), len(g.edges)]
        for strategy in ("bpaths", "flood"):
            net = fresh(g)
            attach_topology_maintenance(net, strategy=strategy, scope="full")
            result = converge_by_rounds(net, max_rounds=30)
            record.append(round(result.system_calls / (result.rounds * net.n), 2))
        rows.append(record)
    emit(
        capsys,
        "E4 — average system calls per single-node broadcast "
        "(paper: bpaths = n exactly; flooding ~ 2m)",
        ["graph", "n", "m", "bpaths_per_bcast", "flood_per_bcast"],
        rows,
    )

    def converge_once():
        net = fresh(topologies.random_connected(64, 0.3, seed=1))
        attach_topology_maintenance(net, strategy="bpaths", scope="full")
        converge_by_rounds(net, max_rounds=30)

    benchmark(converge_once)


def test_e4_reconvergence_after_failures(benchmark, capsys):
    rows = []
    for batch in (1, 3, 6):
        net = fresh(topologies.grid(6, 6))
        attach_topology_maintenance(net, strategy="bpaths", scope="full")
        converge_by_rounds(net, max_rounds=20)
        schedule = random_link_failures(net.topology(), count=batch, seed=batch)
        for action in schedule:
            net.fail_link(*action.target)
        net.run_to_quiescence()
        result = converge_by_rounds(net, max_rounds=20)
        rows.append([batch, result.rounds, result.system_calls])
    emit(
        capsys,
        "E4 — re-convergence on a 6x6 grid after random link failures",
        ["failed_links", "rounds", "system_calls"],
        rows,
    )

    def reconverge():
        net = fresh(topologies.grid(6, 6))
        attach_topology_maintenance(net, strategy="bpaths", scope="full")
        converge_by_rounds(net, max_rounds=20)
        net.fail_link(0, 1)
        converge_by_rounds(net, max_rounds=20)

    benchmark(reconverge)


def test_e4_sixnode_deadlock(benchmark, capsys):
    def adversarial(node, children):
        return sorted(children, key=lambda c: (c - node) % 6)

    def run(strategy, child_order=None):
        net = fresh(topologies.two_connected_example())
        attach_topology_maintenance(
            net, strategy=strategy, scope="local", dfs_child_order=child_order
        )
        converge_by_rounds(net, max_rounds=10)
        for edge in [(0, 3), (1, 4), (2, 5)]:
            net.fail_link(*edge)
        net.run_to_quiescence()
        result = converge_by_rounds(net, max_rounds=25, require=False)
        return "converged in %d" % result.rounds if result.converged else "DEADLOCK"

    rows = [
        ["dfs (adversarial order)", run("dfs", adversarial)],
        ["dfs (sorted order)", run("dfs")],
        ["bpaths (one-way)", run("bpaths")],
    ]
    emit(
        capsys,
        "E4 — the Section 3 six-node example "
        "(paper: DFS broadcast deadlocks; the one-way broadcast converges)",
        ["strategy", "outcome"],
        rows,
    )
    benchmark(lambda: run("bpaths"))


def test_e4_ncu_contention_per_round(benchmark, capsys):
    """All-node rounds are NCU-bound: each processor serves ~n records.

    A single branching-paths broadcast takes O(log n) time, but a full
    round (every node broadcasting, as the maintenance protocol does)
    makes every NCU process ~n messages back to back — so round
    wall-clock grows linearly no matter how clever the broadcast.  This
    is the sequential-NCU bottleneck the model is built to expose.
    """
    rows = []
    for n in (16, 32, 64, 128):
        p = min(0.5, 2.5 * math.log(n) / n)
        # Converge first so steady-state broadcasts span the whole
        # network; then time one more all-node round vs. one broadcast.
        net = fresh(topologies.random_connected(n, p, seed=n))
        attach_topology_maintenance(net, strategy="bpaths", scope="local")
        converge_by_rounds(net, max_rounds=4 * n)
        t0 = net.scheduler.now
        net.start()
        net.run_to_quiescence()
        round_time = net.scheduler.now - t0

        t0 = net.scheduler.now
        net.start([0])
        net.run_to_quiescence()
        single_time = net.scheduler.now - t0
        rows.append([n, single_time, round_time, round(round_time / n, 2)])
    emit(
        capsys,
        "E4 — NCU contention: one broadcast is O(log n) time, but a "
        "full all-node round costs ~n at every sequential NCU",
        ["n", "t_single_bcast", "t_full_round", "round/n"],
        rows,
    )

    def one_round():
        net = fresh(topologies.random_connected(64, 2.5 * math.log(64) / 64, seed=64))
        attach_topology_maintenance(net, strategy="bpaths", scope="local")
        net.start()
        net.run_to_quiescence()

    benchmark(one_round)
