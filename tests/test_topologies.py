"""Unit tests for the topology generators."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.network import topologies


def test_line():
    g = topologies.line(5)
    assert g.number_of_nodes() == 5
    assert g.number_of_edges() == 4
    degrees = sorted(d for _, d in g.degree)
    assert degrees == [1, 1, 2, 2, 2]


def test_ring():
    g = topologies.ring(6)
    assert all(d == 2 for _, d in g.degree)
    assert nx.is_connected(g)
    with pytest.raises(ValueError):
        topologies.ring(2)


def test_star():
    g = topologies.star(7)
    assert g.degree[0] == 6
    assert all(g.degree[i] == 1 for i in range(1, 7))


def test_complete():
    g = topologies.complete(6)
    assert g.number_of_edges() == 15


def test_grid():
    g = topologies.grid(3, 5)
    assert g.number_of_nodes() == 15
    assert g.number_of_edges() == 3 * 4 + 5 * 2
    assert set(g.nodes) == set(range(15))


def test_hypercube():
    g = topologies.hypercube(4)
    assert g.number_of_nodes() == 16
    assert all(d == 4 for _, d in g.degree)


@pytest.mark.parametrize("depth", [0, 1, 2, 5])
def test_complete_binary_tree(depth):
    g = topologies.complete_binary_tree(depth)
    n = 2 ** (depth + 1) - 1
    assert g.number_of_nodes() == n
    assert g.number_of_edges() == n - 1
    assert nx.is_tree(g) or n == 1
    if depth >= 1:
        assert g.degree[0] == 2  # the root
        leaves = [v for v in g if g.degree[v] == 1]
        assert len(leaves) == 2**depth


def test_balanced_tree():
    g = topologies.balanced_tree(3, 2)
    assert g.number_of_nodes() == 1 + 3 + 9


def test_caterpillar():
    g = topologies.caterpillar(4, 2)
    assert g.number_of_nodes() == 4 + 8
    assert nx.is_tree(g)
    leaves = [v for v in g if g.degree[v] == 1]
    # Spine endpoints carry legs too, so only the legs themselves are leaves.
    assert len(leaves) == 8


def test_caterpillar_no_legs_is_path():
    g = topologies.caterpillar(5, 0)
    assert nx.is_isomorphic(g, nx.path_graph(5))


def test_broom():
    g = topologies.broom(3, 4)
    assert g.number_of_nodes() == 7
    assert g.degree[2] == 5  # hub: one path edge + 4 bristles
    assert nx.is_tree(g)


def test_random_connected_is_connected():
    for seed in range(5):
        g = topologies.random_connected(30, 0.1, seed=seed)
        assert nx.is_connected(g)
        assert g.number_of_nodes() == 30


def test_random_geometric_connected():
    g = topologies.random_geometric_connected(25, 0.35, seed=1)
    assert nx.is_connected(g)
    assert g.number_of_nodes() == 25
    assert set(g.nodes) == set(range(25))


def test_barbell():
    g = topologies.barbell(4, 2)
    assert g.number_of_nodes() == 10
    assert nx.is_connected(g)


def test_two_connected_example_shape():
    g = topologies.two_connected_example()
    assert g.number_of_nodes() == 6
    assert g.number_of_edges() == 6
    # The triangle plus three pendant leaves.
    assert sorted(d for _, d in g.degree) == [1, 1, 1, 3, 3, 3]


def test_single_node_generators():
    assert topologies.line(1).number_of_nodes() == 1
    assert topologies.complete(1).number_of_nodes() == 1
    with pytest.raises(ValueError):
        topologies.line(0)


# ----------------------------------------------------------------------
# Datacenter fabrics
# ----------------------------------------------------------------------
def test_clos_shape():
    g = topologies.clos(8, 4)
    assert g.number_of_nodes() == 12
    assert g.number_of_edges() == 32
    # Spines 0..3 see every leaf, leaves 4..11 see every spine.
    assert all(g.degree[s] == 8 for s in range(4))
    assert all(g.degree[leaf] == 4 for leaf in range(4, 12))
    assert nx.diameter(g) == 2
    # Leaf-spine is bipartite: no leaf-leaf or spine-spine links.
    assert nx.is_bipartite(g)
    assert nx.edge_connectivity(g) == 4


def test_clos_with_hosts():
    g = topologies.clos(8, 4, 3)
    assert g.number_of_nodes() == 12 + 24
    assert g.number_of_edges() == 32 + 24
    assert nx.diameter(g) == 4
    hosts = [v for v in g if g.degree[v] == 1]
    assert len(hosts) == 24
    with pytest.raises(ValueError):
        topologies.clos(0, 4)
    with pytest.raises(ValueError):
        topologies.clos(4, 4, -1)


@pytest.mark.parametrize("k", [4, 8])
def test_fat_tree_shape(k):
    g = topologies.fat_tree(k)
    assert g.number_of_nodes() == 5 * k**2 // 4 + k**3 // 4
    assert g.number_of_edges() == 3 * k**3 // 4
    degrees = sorted(set(d for _, d in g.degree))
    # Hosts have degree 1; every switch (edge, agg, core) has degree k.
    assert degrees == [1, k]
    assert sum(1 for _, d in g.degree if d == 1) == k**3 // 4
    assert nx.is_connected(g)
    assert nx.diameter(g) == 6


def test_fat_tree_validation():
    with pytest.raises(ValueError):
        topologies.fat_tree(3)
    with pytest.raises(ValueError):
        topologies.fat_tree(0)


def test_torus_shape():
    g = topologies.torus(4, 4, 4)
    assert g.number_of_nodes() == 64
    assert all(d == 6 for _, d in g.degree)
    assert nx.diameter(g) == 6
    g2 = topologies.torus(5, 3)
    assert g2.number_of_nodes() == 15
    assert all(d == 4 for _, d in g2.degree)
    assert nx.diameter(g2) == 3
    with pytest.raises(ValueError):
        topologies.torus(2, 4)
    with pytest.raises(ValueError):
        topologies.torus()


def test_dragonfly_shape():
    groups, routers = 9, 4
    g = topologies.dragonfly(groups, routers)
    assert g.number_of_nodes() == groups * routers
    # Intra-group cliques plus one global link per group pair.
    intra = groups * routers * (routers - 1) // 2
    inter = groups * (groups - 1) // 2
    assert g.number_of_edges() == intra + inter
    assert nx.is_connected(g)
    assert nx.diameter(g) == 3
    gh = topologies.dragonfly(groups, routers, 2)
    assert gh.number_of_nodes() == groups * routers * 3
    assert nx.diameter(gh) == 5
    with pytest.raises(ValueError):
        topologies.dragonfly(0, 4)
    with pytest.raises(ValueError):
        topologies.dragonfly(4, 4, -1)


def test_fabric_generators_return_independent_graphs():
    g1 = topologies.fat_tree(4)
    g2 = topologies.fat_tree(4)
    assert g1 is not g2
    assert nx.utils.graphs_equal(g1, g2)
    # Mutating one result leaves the next call's untouched.
    g1.remove_node(0)
    g3 = topologies.fat_tree(4)
    assert g3.number_of_nodes() == g2.number_of_nodes()


# ----------------------------------------------------------------------
# Two-sweep pseudo-diameter
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make",
    [
        lambda: topologies.clos(8, 4),
        lambda: topologies.clos(8, 4, 3),
        lambda: topologies.fat_tree(4),
        lambda: topologies.fat_tree(8),
        lambda: topologies.torus(3, 3),
        lambda: topologies.torus(4, 4, 4),
        lambda: topologies.torus(5, 3),
        lambda: topologies.dragonfly(9, 4),
        lambda: topologies.dragonfly(9, 4, 2),
        lambda: topologies.grid(6, 8),
        lambda: topologies.ring(17),
        lambda: topologies.line(9),
        lambda: topologies.star(9),
        lambda: topologies.complete_binary_tree(5),
        lambda: topologies.hypercube(5),
        lambda: topologies.random_connected(60, 0.1, seed=3),
    ],
)
def test_pseudo_diameter_exact_on_generator_families(make):
    g = make()
    assert topologies.pseudo_diameter(g) == nx.diameter(g)


def test_pseudo_diameter_is_a_lower_bound_on_random_graphs():
    for seed in range(8):
        g = topologies.random_connected(40, 0.12, seed=seed)
        assert topologies.pseudo_diameter(g) <= nx.diameter(g)


def test_pseudo_diameter_errors():
    with pytest.raises(ValueError):
        topologies.pseudo_diameter(nx.Graph())
    disconnected = nx.Graph()
    disconnected.add_edge(0, 1)
    disconnected.add_node(2)
    with pytest.raises(nx.NetworkXError):
        topologies.pseudo_diameter(disconnected)
