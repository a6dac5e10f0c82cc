#!/usr/bin/env python3
"""Scenario: user traffic vs. control traffic — the paper's premise.

The introduction's whole argument: user-to-user traffic (video, bulk
data) is orders of magnitude larger than control traffic, so switching
must be hardware while control stays software.  This example stages
both kinds of traffic on one backbone and measures where the *software*
(system calls) actually goes:

1. set up a batch of user "video calls" (source-routed, per-node state
   installed by selective copies);
2. stream a large number of data packets over the established calls —
   pure hardware transit;
3. run the control plane (a topology broadcast round) concurrently;
4. compare hardware hops vs. NCU involvements per traffic class.

Run:  python examples/mixed_traffic.py
"""

from __future__ import annotations

import itertools
import random

from repro import FixedDelays, Network, format_table, topologies
from repro.core import BranchingPathsBroadcast, run_standalone_broadcast
from repro.core.call_setup import CallManager
from repro.network import bfs_tree


def main() -> None:
    print(__doc__)
    g = topologies.grid(6, 6)
    net = Network(g, delays=FixedDelays(0.0, 1.0))
    net.attach(lambda api: CallManager(api, ids=net.id_lookup))
    rng = random.Random(7)

    # ------------------------------------------------------------------
    # 1. Set up 12 calls between random endpoint pairs.
    # ------------------------------------------------------------------
    calls = []
    before = net.metrics.snapshot()
    for call_id in itertools.count(1):
        if len(calls) == 12:
            break
        src, dst = rng.sample(sorted(net.nodes), 2)
        route = bfs_tree(net.adjacency(), src).path_from_root(dst)
        net.start([src], payload=("setup", call_id, route))
        net.run_to_quiescence()
        if net.output(src, f"established:{call_id}") is not None:
            calls.append((call_id, src, route))
    setup = net.metrics.since(before)

    # ------------------------------------------------------------------
    # 2. Stream 200 packets per call ("video frames").
    # ------------------------------------------------------------------
    before = net.metrics.snapshot()
    frames = 200
    for _ in range(frames):
        for call_id, src, route in calls:
            net.start([src], payload=("send", call_id, "frame"))
        net.run_to_quiescence()
    data = net.metrics.since(before)

    # ------------------------------------------------------------------
    # 3. One control-plane broadcast round on a fresh attach.
    # ------------------------------------------------------------------
    net2 = Network(g, delays=FixedDelays(0.0, 1.0))
    adjacency = net2.adjacency()
    control = run_standalone_broadcast(
        net2,
        lambda api: BranchingPathsBroadcast(
            api, root=0, adjacency=adjacency, ids=net2.id_lookup
        ),
        0,
    )

    # ------------------------------------------------------------------
    # 4. The software bill per traffic class.
    # ------------------------------------------------------------------
    total_frames = frames * len(calls)
    rows = [
        ["call setup (12 calls)", setup.system_calls, setup.hops,
         f"{setup.system_calls / len(calls):.1f} per call"],
        [f"user data ({total_frames} pkts)", data.system_calls, data.hops,
         f"{data.system_calls / total_frames:.2f} per packet"],
        ["topology broadcast", control.metrics.system_calls,
         control.metrics.hops, "n-1 per broadcast"],
    ]
    print(format_table(
        ["traffic class", "system calls", "hardware hops", "software cost"],
        rows,
        title="where the software goes on a 6x6 backbone:",
    ))
    per_packet = data.system_calls / total_frames
    print(
        f"\nEach user packet costs {per_packet:.2f} NCU involvements "
        "(originator inject + destination receipt)\nand zero at every "
        "intermediate switch — while its hardware hops "
        f"({data.hops / total_frames:.1f} per packet on average)\nride the "
        "SS for free.  Control traffic is the only load the processors "
        "ever see,\nwhich is exactly why the paper counts system calls."
    )


if __name__ == "__main__":
    main()
