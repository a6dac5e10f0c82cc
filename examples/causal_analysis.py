#!/usr/bin/env python3
"""Scenario: auditing a distributed computation for wasted software.

The paper's appendix (Theorem 6) proves optimal computations are
tree-based by identifying the *causal messages* of any run — those with
a happened-before path to the output — and observing that each node's
last causal message forms a spanning tree.

This example turns that proof into an audit tool.  We run a "chatty"
aggregation (a correct protocol that also acknowledges every partial
result — a realistic implementation habit), record every NCU
involvement, and then:

1. compute which messages were causal,
2. extract the last-causal spanning tree (Lemma A.3),
3. compare the chatty run's software bill against the tree-based
   algorithm over the extracted tree.

Run:  python examples/causal_analysis.py
"""

from __future__ import annotations

import operator

from repro import FixedDelays, Network, format_table, topologies
from repro.analysis.causality import (
    CausalityRecorder,
    compute_causal_messages,
    last_causal_tree,
)
from repro.core import optimal_spanning_tree, run_tree_aggregation
from repro.core.globalfn import ChattyTreeAggregation

N, P, C = 34, 1.0, 1.0


def main() -> None:
    print(__doc__)

    # ------------------------------------------------------------------
    # Record a chatty run.
    # ------------------------------------------------------------------
    net = Network(topologies.complete(N), delays=FixedDelays(C, P))
    t_opt, tree = optimal_spanning_tree(net, P, C)
    recorder = CausalityRecorder()
    inputs = {i: i * 7 % 23 for i in net.nodes}
    net.attach(
        recorder.wrap(
            lambda api: ChattyTreeAggregation(
                api, tree=tree, op=operator.add, inputs=inputs, ids=net.id_lookup
            )
        )
    )
    net.start()
    net.run_to_quiescence()
    chatty_calls = net.metrics.system_calls
    chatty_time = net.output(tree.root, "completed_at")

    log = recorder.log
    causal = compute_causal_messages(log, tree.root)
    total = len(log.send_event)
    print(f"chatty run on K{N} (C={C}, P={P}):")
    print(f"  messages sent      : {total}")
    print(f"  causal messages    : {len(causal)} "
          f"({total - len(causal)} pure waste by the appendix's definition)")
    print(f"  system calls       : {chatty_calls}")
    print(f"  completion time    : {chatty_time:.0f}\n")

    # ------------------------------------------------------------------
    # Extract the Lemma A.3 tree and re-run lean.
    # ------------------------------------------------------------------
    extracted = last_causal_tree(log, tree.root)
    same = extracted.parent == dict(tree.parent)
    print(f"last-causal tree extracted: spans {len(extracted)} nodes, "
          f"equals the underlying optimal tree: {same}\n")

    net2 = Network(topologies.complete(N), delays=FixedDelays(C, P))
    lean = run_tree_aggregation(net2, extracted, operator.add, inputs)
    rows = [
        ["chatty (with ACKs)", total, chatty_calls, f"{chatty_time:.0f}"],
        ["tree-based over extracted tree", N - 1, lean.system_calls,
         f"{lean.completion_time:.0f}"],
        ["theory optimum OT(t)", N - 1, 2 * N - 1, f"{float(t_opt):.0f}"],
    ]
    print(format_table(
        ["algorithm", "messages", "system calls", "time"],
        rows,
        title="the audit's verdict (same result, half the messages):",
    ))
    assert lean.result == sum(inputs.values())
    print("\nLemma A.3, numerically: the tree-based algorithm over the "
          "extracted tree\nis never slower than the audited run — here "
          f"{lean.completion_time:.0f} <= {chatty_time:.0f}.")


if __name__ == "__main__":
    main()
