"""Tests for the appendix's causal-message analysis (Theorem 6 / A.1–A.3)."""

from __future__ import annotations

import operator

import pytest

from repro.analysis.causality import (
    CausalityRecorder,
    compute_causal_messages,
    last_causal_tree,
    message_counts,
    termination_event,
)
from repro.core import TreeAggregation, optimal_spanning_tree
from repro.core.globalfn import ChattyTreeAggregation
from repro.core.tree_shapes import predicted_completion
from repro.network import Network, topologies
from repro.sim import FixedDelays, ProtocolError, RandomDelays


def run_recorded(n, P, C, protocol_cls, *, delays=None, seed=0):
    net = Network(topologies.complete(n), delays=delays or FixedDelays(C, P))
    t_opt, tree = optimal_spanning_tree(net, P, C)
    recorder = CausalityRecorder()
    inputs = {i: i for i in net.nodes}
    net.attach(
        recorder.wrap(
            lambda api: protocol_cls(
                api, tree=tree, op=operator.add, inputs=inputs, ids=net.id_lookup
            )
        )
    )
    net.start()
    net.run_to_quiescence()
    return net, tree, recorder.log, t_opt


def test_tree_algorithm_every_message_is_causal():
    net, tree, log, _ = run_recorded(13, 1.0, 1.0, TreeAggregation)
    total, causal = message_counts(log, tree.root)
    assert total == net.n - 1
    assert causal == net.n - 1  # nothing wasted: the optimal shape


def test_last_causal_tree_equals_aggregation_tree():
    for n in (2, 5, 13, 21):
        _, tree, log, _ = run_recorded(n, 1.0, 1.0, TreeAggregation)
        extracted = last_causal_tree(log, tree.root)
        assert extracted.parent == dict(tree.parent)


def test_chatty_algorithm_acks_are_not_causal():
    net, tree, log, _ = run_recorded(13, 1.0, 1.0, ChattyTreeAggregation)
    total, causal = message_counts(log, tree.root)
    assert causal == net.n - 1  # the useful core
    assert total == 2 * (net.n - 1)  # every partial was ACKed
    # The result is still correct.
    assert net.output(tree.root, "result") == sum(range(net.n))


def test_chatty_extraction_recovers_the_clean_tree():
    _, tree, log, _ = run_recorded(21, 1.0, 1.0, ChattyTreeAggregation)
    extracted = last_causal_tree(log, tree.root)
    assert extracted.parent == dict(tree.parent)


def test_lemma_a3_tree_based_is_at_least_as_fast():
    # Lemma A.3: the tree-based algorithm over the extracted tree has
    # worst-case time bounded by the observed algorithm's run.
    for n in (8, 21):
        net, tree, log, t_opt = run_recorded(n, 1.0, 1.0, ChattyTreeAggregation)
        extracted = last_causal_tree(log, tree.root)
        # Convert the extracted spanning tree to a shape and evaluate.
        from repro.core.tree_shapes import OptTree

        def shape_of(node) -> OptTree:
            kids = tuple(shape_of(c) for c in extracted.children[node])
            return OptTree(children=kids, size=1 + sum(k.size for k in kids))

        measured = net.output(tree.root, "completed_at")
        assert float(predicted_completion(shape_of(extracted.root), 1, 1)) <= measured + 1e-9


def test_causality_under_random_delays():
    for seed in range(3):
        net, tree, log, _ = run_recorded(
            13, 1.0, 1.0, ChattyTreeAggregation,
            delays=RandomDelays(hardware=1.0, software=1.0, seed=seed),
        )
        extracted = last_causal_tree(log, tree.root)
        assert set(extracted.parent) == set(net.nodes)
        _, causal = message_counts(log, tree.root)
        assert causal == net.n - 1


def test_fifo_property_of_causal_messages():
    # Appendix: "a causal message sent over a link cannot be preceded by
    # a non-causal message" (with FIFO reception).  Check per ordered
    # node pair: once a non-causal message is sent u->v, no later
    # causal u->v message exists.
    _, tree, log, _ = run_recorded(21, 1.0, 1.0, ChattyTreeAggregation)
    causal = compute_causal_messages(log, tree.root)
    by_pair: dict[tuple, list[tuple[int, bool]]] = {}
    for seq, send_index in log.send_event.items():
        receive_index = log.receive_event.get(seq)
        if receive_index is None:
            continue
        pair = (log.events[send_index].node, log.events[receive_index].node)
        by_pair.setdefault(pair, []).append((send_index, seq in causal))
    for pair, sends in by_pair.items():
        sends.sort()
        seen_noncausal = False
        for _, is_causal in sends:
            if not is_causal:
                seen_noncausal = True
            elif seen_noncausal:
                pytest.fail(f"causal message after non-causal on {pair}")


def test_termination_event_missing_raises():
    from repro.analysis.causality import CausalLog

    log = CausalLog()
    with pytest.raises(ProtocolError, match="reported"):
        termination_event(log, 0)


def test_single_node_run():
    net, tree, log, _ = run_recorded(1, 1.0, 1.0, TreeAggregation)
    extracted = last_causal_tree(log, tree.root)
    assert len(extracted) == 1
    assert message_counts(log, tree.root) == (0, 0)
