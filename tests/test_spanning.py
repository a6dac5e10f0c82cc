"""Unit and property tests for rooted trees and BFS spanning trees."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graph_adjacency, random_tree
from repro.network import bfs_tree, topologies, tree_from_parent


def test_bfs_tree_on_line():
    adjacency = graph_adjacency(topologies.line(5))
    tree = bfs_tree(adjacency, 0)
    assert tree.root == 0
    assert tree.parent == {0: None, 1: 0, 2: 1, 3: 2, 4: 3}
    assert tree.depth() == 4
    assert tree.leaves() == (4,)


def test_bfs_tree_minimum_hop_depths():
    g = topologies.grid(4, 4)
    adjacency = graph_adjacency(g)
    tree = bfs_tree(adjacency, 0)
    import networkx as nx

    shortest = nx.single_source_shortest_path_length(g.to_graph(), 0)
    for node in tree.parent:
        assert tree.depth_of(node) == shortest[node]


def test_bfs_tree_spans_only_reachable_component():
    adjacency = {0: (1,), 1: (0,), 2: (3,), 3: (2,)}
    tree = bfs_tree(adjacency, 0)
    assert set(tree.parent) == {0, 1}


def test_bfs_tree_deterministic():
    adjacency = graph_adjacency(topologies.random_connected(25, 0.2, seed=3))
    t1 = bfs_tree(adjacency, 0)
    t2 = bfs_tree(adjacency, 0)
    assert t1.parent == t2.parent


def test_bfs_tree_unknown_root():
    with pytest.raises(ValueError):
        bfs_tree({0: (1,), 1: (0,)}, 7)


def test_tree_requires_consistent_parent_map():
    with pytest.raises(ValueError):
        tree_from_parent(0, {0: None, 1: 9})  # 9 is not a node
    with pytest.raises(ValueError):
        tree_from_parent(0, {0: 1, 1: None})  # root must map to None


def test_tree_nodes_bfs_order():
    tree = tree_from_parent(0, {0: None, 1: 0, 2: 0, 3: 1, 4: 1})
    assert tree.nodes == (0, 1, 2, 3, 4)
    assert tree.children[0] == (1, 2)
    assert tree.children[1] == (3, 4)


def test_path_from_root():
    tree = tree_from_parent(0, {0: None, 1: 0, 2: 1, 3: 2})
    assert tree.path_from_root(3) == (0, 1, 2, 3)
    assert tree.path_from_root(0) == (0,)


def test_subtree_sizes_and_nodes():
    tree = tree_from_parent(0, {0: None, 1: 0, 2: 0, 3: 1, 4: 3})
    sizes = tree.subtree_sizes()
    assert sizes == {0: 5, 1: 3, 2: 1, 3: 2, 4: 1}
    assert set(tree.subtree_nodes(1)) == {1, 3, 4}


def test_edges_and_len():
    tree = tree_from_parent(0, {0: None, 1: 0, 2: 0})
    assert len(tree) == 3
    assert sorted(tree.edges()) == [(0, 1), (0, 2)]
    assert 1 in tree and 9 not in tree


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10**6))
def test_random_tree_invariants(n, seed):
    tree = random_tree(n, seed)
    sizes = tree.subtree_sizes()
    assert sizes[tree.root] == n
    assert len(tree.nodes) == n
    # Depth of every node equals the length of its root path.
    for node in tree.parent:
        assert tree.depth_of(node) == len(tree.path_from_root(node)) - 1
    # Leaves have no children; everyone else does.
    for node in tree.parent:
        assert (node in tree.leaves()) == (not tree.children[node])
