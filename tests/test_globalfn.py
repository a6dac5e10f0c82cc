"""Tests for tree-based aggregation in the simulator (E7-E10)."""

from __future__ import annotations

import operator

import pytest

from repro.core import (
    is_globally_sensitive,
    optimal_spanning_tree,
    run_tree_aggregation,
    shape_spanning_tree,
)
from repro.core.tree_shapes import predicted_completion, shape_catalog
from repro.network import Network, topologies
from repro.sim import FixedDelays, RandomDelays


def complete_net(n, C, P):
    return Network(topologies.complete(n), delays=FixedDelays(C, P))


@pytest.mark.parametrize("n", [2, 5, 13, 34])
@pytest.mark.parametrize("P,C", [(1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (1.0, 3.0)])
def test_measured_completion_equals_theory(n, P, C):
    net = complete_net(n, C, P)
    t_opt, tree = optimal_spanning_tree(net, P, C)
    run = run_tree_aggregation(net, tree, operator.add, {i: i for i in net.nodes})
    assert run.result == sum(range(n))
    assert run.completion_time == pytest.approx(float(t_opt))


def test_aggregation_system_calls_exactly_2n_minus_1():
    # n START involvements + n-1 partial-result messages.
    n = 20
    net = complete_net(n, 1.0, 1.0)
    _, tree = optimal_spanning_tree(net, 1.0, 1.0)
    run = run_tree_aggregation(net, tree, operator.add, {i: 1 for i in net.nodes})
    assert run.system_calls == 2 * n - 1
    assert run.metrics.packets_injected == n - 1


def test_aggregation_single_node():
    net = complete_net(1, 1.0, 1.0)
    _, tree = optimal_spanning_tree(net, 1.0, 1.0)
    run = run_tree_aggregation(net, tree, operator.add, {0: 42})
    assert run.result == 42
    assert run.completion_time == pytest.approx(1.0)


@pytest.mark.parametrize("op,expected", [
    (operator.add, sum(range(10))),
    (max, 9),
    (min, 0),
    (operator.xor, 0 ^ 1 ^ 2 ^ 3 ^ 4 ^ 5 ^ 6 ^ 7 ^ 8 ^ 9),
])
def test_various_associative_commutative_ops(op, expected):
    net = complete_net(10, 1.0, 1.0)
    _, tree = optimal_spanning_tree(net, 1.0, 1.0)
    run = run_tree_aggregation(net, tree, op, {i: i for i in net.nodes})
    assert run.result == expected


def test_baseline_shapes_measured_match_predicted():
    n, P, C = 16, 1.0, 2.0
    for name, shape in shape_catalog(n).items():
        net = complete_net(n, C, P)
        tree = shape_spanning_tree(net, shape)
        run = run_tree_aggregation(net, tree, operator.add, {i: 1 for i in net.nodes})
        assert run.result == n
        assert run.completion_time == pytest.approx(
            float(predicted_completion(shape, P, C))
        ), name


def test_optimal_beats_star_under_limiting_model():
    # With C=0 the star's sequential root is maximally penalised.
    n = 32
    net_opt = complete_net(n, 0.0, 1.0)
    t_opt, tree_opt = optimal_spanning_tree(net_opt, 1.0, 0.0)
    r_opt = run_tree_aggregation(net_opt, tree_opt, operator.add, {i: 1 for i in net_opt.nodes})

    net_star = complete_net(n, 0.0, 1.0)
    star = shape_spanning_tree(net_star, shape_catalog(n)["star"])
    r_star = run_tree_aggregation(net_star, star, operator.add, {i: 1 for i in net_star.nodes})

    assert r_opt.completion_time < r_star.completion_time / 3


def test_random_delays_never_exceed_worst_case():
    # Worst-case optimality: with delays <= bounds, completion <= t_opt.
    n, P, C = 21, 1.0, 1.0
    for seed in range(5):
        net = Network(
            topologies.complete(n),
            delays=RandomDelays(hardware=C, software=P, lo_frac=0.2, seed=seed),
        )
        t_opt, tree = optimal_spanning_tree(net, P, C)
        run = run_tree_aggregation(net, tree, operator.add, {i: 1 for i in net.nodes})
        assert run.result == n
        assert run.completion_time <= float(t_opt) + 1e-9


def test_aggregation_works_on_non_complete_graph_with_tree_edges():
    # The tree-based algorithm only needs its tree edges to exist.
    g = topologies.star(6)
    net = Network(g, delays=FixedDelays(1.0, 1.0))
    from repro.core.tree_shapes import star_tree

    tree = shape_spanning_tree(net, star_tree(6))
    run = run_tree_aggregation(net, tree, operator.add, {i: i for i in net.nodes})
    assert run.result == 15


# ----------------------------------------------------------------------
# Globally sensitive functions (Section 5.1)
# ----------------------------------------------------------------------
def test_sum_max_parity_are_globally_sensitive():
    assert is_globally_sensitive(sum, [0, 1, 2], 3)
    assert is_globally_sensitive(max, [0, 1, 2], 3)
    assert is_globally_sensitive(lambda v: sum(v) % 2, [0, 1], 4)


def test_constant_function_not_globally_sensitive():
    assert not is_globally_sensitive(lambda v: 0, [0, 1], 3)


def test_projection_not_globally_sensitive():
    # f = first coordinate: other coordinates can never change it.
    assert not is_globally_sensitive(lambda v: v[0], [0, 1], 3)


def test_or_is_globally_sensitive():
    # The all-zeros vector witnesses sensitivity of OR.
    assert is_globally_sensitive(any, [False, True], 4)


def test_empty_alphabet_rejected():
    with pytest.raises(ValueError):
        is_globally_sensitive(sum, [], 2)


def test_full_sensitivity_is_strictly_stronger():
    from repro.core import is_fully_sensitive

    # Parity: every coordinate always matters.
    assert is_fully_sensitive(lambda v: sum(v) % 2, [0, 1], 3)
    # Max: globally sensitive but NOT fully (two maxima mask each other).
    assert is_globally_sensitive(max, [0, 1], 3)
    assert not is_fully_sensitive(max, [0, 1], 3)
    # Constants are neither.
    assert not is_fully_sensitive(lambda v: 0, [0, 1], 2)


def test_full_sensitivity_validates_alphabet():
    from repro.core import is_fully_sensitive

    with pytest.raises(ValueError):
        is_fully_sensitive(sum, [], 2)
