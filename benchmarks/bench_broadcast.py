"""E1/E2 — topology broadcast: branching paths vs. flooding vs. direct.

Paper claims (Section 3):

* branching-paths broadcast: exactly ``n`` system calls and at most
  ``log2 n`` time units per broadcast;
* ARPANET flooding: ``O(m)`` system calls, ``O(n)`` time;
* naive direct messages: ``O(n)`` system calls *and* ``O(n)`` time.

The tables print measured system calls / time units for each scheme
across sizes and topology families; the shape to check is flooding's
``m/n`` factor in calls and the exponential time gap of the log-depth
scheme.
"""

from __future__ import annotations

import math

from conftest import emit
from repro.core import (
    BranchingPathsBroadcast,
    DirectBroadcast,
    FloodingBroadcast,
    run_standalone_broadcast,
)
from repro.network import Network, topologies
from repro.sim import FixedDelays


def run_scheme(g, scheme: str):
    net = Network(g, delays=FixedDelays(0.0, 1.0))
    adjacency = net.adjacency()
    if scheme == "bpaths":
        def factory(api):
            return BranchingPathsBroadcast(api, root=0, adjacency=adjacency, ids=net.id_lookup)
    elif scheme == "direct":
        def factory(api):
            return DirectBroadcast(api, root=0, adjacency=adjacency, ids=net.id_lookup)
    else:
        def factory(api):
            return FloodingBroadcast(api, root=0)
    run = run_standalone_broadcast(net, factory, 0)
    assert run.coverage == net.n
    return net, run


SIZES = [15, 63, 255, 1023]


def test_e1_broadcast_scaling_table(benchmark, capsys):
    """System calls and time vs. n on sparse random graphs."""
    rows = []
    for n in SIZES:
        p = min(0.5, 2.5 * math.log(n) / n)  # safely above the connectivity threshold
        g = topologies.random_connected(n, p, seed=n)
        measurements = {}
        for scheme in ("bpaths", "flood", "direct"):
            net, run = run_scheme(g, scheme)
            measurements[scheme] = (run.system_calls, run.completion_time())
        m = net.m
        rows.append(
            [
                n,
                m,
                measurements["bpaths"][0],
                measurements["flood"][0],
                measurements["direct"][0],
                measurements["bpaths"][1],
                measurements["flood"][1],
                measurements["direct"][1],
                1 + math.floor(math.log2(n)),
            ]
        )
    emit(
        capsys,
        "E1/E2 — broadcast on random graphs "
        "(paper: bpaths n calls & <=log2 n time; flood O(m) & O(n); direct O(n) & O(n))",
        ["n", "m", "sc_bpaths", "sc_flood", "sc_direct",
         "t_bpaths", "t_flood", "t_direct", "log2n+1"],
        rows,
    )
    g = topologies.random_connected(255, 2.5 * math.log(255) / 255, seed=255)
    benchmark(lambda: run_scheme(g, "bpaths"))


def test_e1_broadcast_topology_families_table(benchmark, capsys):
    """The same comparison across topology families at n ~ 255."""
    families = {
        "ring": topologies.ring(256),
        "grid": topologies.grid(16, 16),
        "hypercube": topologies.hypercube(8),
        "binary-tree": topologies.complete_binary_tree(7),
        "caterpillar": topologies.caterpillar(128, 1),
        "dense-rand": topologies.random_connected(256, 0.05, seed=9),
    }
    rows = []
    for name, g in families.items():
        record = [name, len(g.node_order()), len(g.edges)]
        for scheme in ("bpaths", "flood"):
            _, run = run_scheme(g, scheme)
            record.extend([run.system_calls, run.completion_time()])
        rows.append(record)
    emit(
        capsys,
        "E1/E2 — broadcast across topology families (n ~ 255)",
        ["family", "n", "m", "sc_bpaths", "t_bpaths", "sc_flood", "t_flood"],
        rows,
    )
    benchmark(lambda: run_scheme(families["grid"], "bpaths"))


def test_e15_pipelined_stream(benchmark, capsys):
    """Extension: streaming k broadcasts through the path structure.

    The branching paths pipeline: the root injects one message per
    software slot and every relay forwards within its receiving
    involvement, so k messages complete in (k-1) + O(log n) slots
    instead of stop-and-wait's k * O(log n) — latency log n, throughput
    one broadcast per slot.
    """
    from repro.core import run_pipelined_broadcast, run_stop_and_wait

    rows = []
    n = 256
    p = 2.5 * math.log(n) / n
    g = topologies.random_connected(n, p, seed=n)
    for k in (1, 4, 16, 64):
        pipe = run_pipelined_broadcast(
            Network(g, delays=FixedDelays(0.0, 1.0)), 0, list(range(k))
        )
        sw = run_stop_and_wait(
            Network(g, delays=FixedDelays(0.0, 1.0)), 0, list(range(k))
        )
        assert pipe.complete and sw.complete
        rows.append(
            [k, pipe.makespan, sw.makespan,
             round(k - 1 + 2 + math.log2(n), 1)]
        )
    emit(
        capsys,
        "E15 — streaming k broadcasts on n=256 (extension): pipelined "
        "(k-1) + O(log n) vs. stop-and-wait k * O(log n)",
        ["k", "t_pipelined", "t_stop_and_wait", "(k-1)+2+log2n"],
        rows,
    )
    benchmark(
        lambda: run_pipelined_broadcast(
            Network(g, delays=FixedDelays(0.0, 1.0)), 0, list(range(8))
        )
    )
