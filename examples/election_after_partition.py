#!/usr/bin/env python3
"""Scenario: re-electing a coordinator after faults.

The paper motivates leader election with "organizing a network after
faults have occurred".  This example partitions a 48-node network into
two halves, elects a leader in each half independently, heals the
partition, and re-elects a single coordinator — measuring the
system-call cost of each election against the Theorem 5 bound and
against the classic ring algorithms run on the same number of nodes.

Run:  python examples/election_after_partition.py
"""

from __future__ import annotations

from repro import FixedDelays, LeaderElection, Network, format_table, topologies
from repro.network import from_edges
from repro.core import ChangRoberts, HirschbergSinclair


def elect(net: Network, starters=None) -> tuple[dict, int]:
    net.attach(lambda api: LeaderElection(api))
    net.start(starters)
    net.run_to_quiescence(max_events=5_000_000)
    snap = net.metrics.snapshot()
    tours = snap.system_calls_by_kind.get("tour", 0)
    returns = snap.system_calls_by_kind.get("return", 0)
    leaders = {
        node for node, flag in net.outputs_for_key("is_leader").items() if flag
    }
    return leaders, tours + returns


def main() -> None:
    print(__doc__)
    g = topologies.grid(6, 8)  # 48 nodes

    # ------------------------------------------------------------------
    # Partition: cut the grid down the middle.
    # ------------------------------------------------------------------
    nodes = g.node_order()
    left_nodes = {v for v in nodes if v % 8 <= 3}

    halves = []
    for side, keep in [("left", left_nodes), ("right", set(nodes) - left_nodes)]:
        # Each half on its own, renumbered 0..23 in ID order.
        index = {node: i for i, node in enumerate(sorted(keep))}
        edges = [(index[u], index[v]) for u, v in g.edges if u in keep and v in keep]
        net = from_edges(edges, nodes=range(len(keep)), delays=FixedDelays(0.0, 1.0))
        leaders, cost = elect(net)
        halves.append([f"{side} half", net.n, sorted(leaders), cost, 6 * net.n])

    # ------------------------------------------------------------------
    # Healed network: one election over all 48 nodes.
    # ------------------------------------------------------------------
    net = Network(g, delays=FixedDelays(0.0, 1.0))
    leaders, cost = elect(net)
    rows = halves + [["healed (all 48)", net.n, sorted(leaders), cost, 6 * net.n]]
    print(format_table(
        ["election", "n", "leader", "tour+return calls", "6n bound"],
        rows,
        title="fault recovery elections (new algorithm):",
    ))

    # ------------------------------------------------------------------
    # The same job with the traditional ring algorithms (on a 48-ring).
    # ------------------------------------------------------------------
    rows = []
    for name, factory in [
        ("new algorithm", lambda api: LeaderElection(api)),
        ("Chang-Roberts (worst)", lambda api: ChangRoberts(api, direction=-1)),
        ("Hirschberg-Sinclair", lambda api: HirschbergSinclair(api)),
    ]:
        ring = Network(topologies.ring(48), delays=FixedDelays(0.0, 1.0))
        ring.attach(factory)
        ring.start()
        ring.run_to_quiescence(max_events=5_000_000)
        rows.append([name, ring.metrics.system_calls, f"{ring.scheduler.now:.0f}"])
    print(format_table(
        ["algorithm", "total system calls", "time"],
        rows,
        title="\nhead-to-head on a 48-node ring (every classic hop is software):",
    ))


if __name__ == "__main__":
    main()
