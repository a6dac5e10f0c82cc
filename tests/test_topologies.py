"""Unit tests for the topology generators.

Every generator returns a :class:`Topology`.  The ``nx_*`` functions and
:data:`NX_ORACLES` are the networkx constructions the generators
replaced, kept as reference oracles: the sweep below checks that each
generator lists the same nodes and edges, in the same order, and that
``Network`` builds the same substrate from either.
"""

from __future__ import annotations

import dataclasses
import random

import networkx as nx
import pytest

from repro.network import Network, Topology, from_spec, topologies
from test_builder_cli import _construction, _reference_construction
from test_connectivity import nx_random_connected


# ----------------------------------------------------------------------
# Reference oracles: the networkx constructions the generators replaced
# ----------------------------------------------------------------------
def _by_repr(graph: nx.Graph) -> nx.Graph:
    """``graph`` with its nodes renumbered in the repr order of their labels."""
    mapping = {old: new for new, old in enumerate(sorted(graph.nodes, key=repr))}
    return nx.relabel_nodes(graph, mapping)


def nx_complete_binary_tree(depth: int) -> nx.Graph:
    n = 2 ** (depth + 1) - 1
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for i in range(n):
        for child in (2 * i + 1, 2 * i + 2):
            if child < n:
                g.add_edge(i, child)
    return g


def nx_caterpillar(spine: int, legs_per_node: int) -> nx.Graph:
    g = nx.path_graph(spine)
    next_id = spine
    for s in range(spine):
        for _ in range(legs_per_node):
            g.add_edge(s, next_id)
            next_id += 1
    return g


def nx_broom(handle: int, bristles: int) -> nx.Graph:
    g = nx.path_graph(handle)
    for leaf in range(handle, handle + bristles):
        g.add_edge(handle - 1, leaf)
    return g


def nx_random_geometric_connected(
    n: int, radius: float, seed: int = 0, max_tries: int = 200
) -> nx.Graph:
    if n == 1:
        return nx.empty_graph(1)
    for attempt in range(max_tries):
        g = nx.random_geometric_graph(n, radius, seed=seed + attempt)
        if nx.is_connected(g):
            return _by_repr(g)
    raise ValueError("no connected sample")


def nx_two_connected_example() -> nx.Graph:
    g = nx.Graph()
    g.add_edges_from([(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])
    return g


#: Generator name -> the ``nx.Graph`` construction it replaced.
NX_ORACLES = {
    "line": nx.path_graph,
    "ring": nx.cycle_graph,
    "star": lambda n: nx.star_graph(n - 1),
    "complete": nx.complete_graph,
    "grid": lambda rows, cols: _by_repr(nx.grid_2d_graph(rows, cols)),
    "hypercube": lambda dim: _by_repr(nx.hypercube_graph(dim)),
    "complete_binary_tree": nx_complete_binary_tree,
    "balanced_tree": lambda branching, height: _by_repr(nx.balanced_tree(branching, height)),
    "caterpillar": nx_caterpillar,
    "broom": nx_broom,
    "random_connected": nx_random_connected,
    "random_geometric_connected": nx_random_geometric_connected,
    "barbell": nx.barbell_graph,
    "two_connected_example": nx_two_connected_example,
}

#: Generator name -> the argument tuples the oracle sweep covers (540).
SWEEP = {
    "line": [(n,) for n in range(1, 41)],
    "ring": [(n,) for n in range(3, 41)],
    "star": [(n,) for n in range(2, 31)],
    "complete": [(n,) for n in range(1, 21)],
    "grid": [(rows, cols) for rows in range(1, 14) for cols in range(1, 14)],
    "hypercube": [(dim,) for dim in range(1, 8)],
    "complete_binary_tree": [(depth,) for depth in range(8)],
    "balanced_tree": [(b, h) for b in range(1, 6) for h in range(5)],
    "caterpillar": [(spine, legs) for spine in range(1, 12) for legs in range(4)],
    "broom": [(handle, bristles) for handle in range(1, 10) for bristles in range(5)],
    "random_connected": [
        (n, p, seed) for n in (1, 5, 20, 40) for p in (0.15, 0.3, 1.0) for seed in range(3)
    ],
    "random_geometric_connected": [
        (n, radius, seed)
        for n in (1, 2, 5, 12, 25, 40)
        for radius in (0.3, 0.45)
        for seed in range(4)
    ],
    "barbell": [(clique, path) for clique in range(3, 8) for path in range(6)],
    "two_connected_example": [()],
}

#: The fabrics never came from networkx: their sequences are checked
#: against the networks ``from_spec`` builds.
FABRIC_SWEEP = {
    "clos": [(leaves, spines, hosts) for leaves in range(1, 6)
             for spines in range(1, 5) for hosts in range(3)],
    "fat_tree": [(k,) for k in (2, 4, 6, 8)],
    "torus": [(3,), (4,), (3, 3), (3, 4), (5, 3), (4, 4, 4), (3, 5, 4)],
    "dragonfly": [(groups, routers, hosts) for groups in range(1, 6)
                  for routers in range(1, 5) for hosts in range(3)],
}


@pytest.mark.parametrize("name", sorted(NX_ORACLES))
def test_generators_match_networkx_oracles(name):
    for args in SWEEP[name]:
        topology = getattr(topologies, name)(*args)
        graph = NX_ORACLES[name](*args)
        assert list(topology.nodes) == list(graph.nodes), args
        assert list(topology.edges) == list(graph.edges), args
        net = Network(topology)
        assert net.topology() == Network(graph).topology(), args
        assert _construction(net) == _reference_construction(graph), args


@pytest.mark.parametrize("name", sorted(FABRIC_SWEEP))
def test_fabric_generators_build_what_their_specs_build(name):
    for args in FABRIC_SWEEP[name]:
        topology = getattr(topologies, name)(*args)
        net = Network(topology)
        spec_net = from_spec(f"{name}:{','.join(map(str, args))}")
        assert net.topology() == spec_net.topology(), args
        assert list(topology.nodes) == topology.node_order() == list(net.graph.nodes), args
        assert _construction(net) == _reference_construction(topology.to_graph()), args


def test_repr_order_numbering():
    # Past label 9 the repr order is not the numeric one; the IDs are
    # pinned because golden traces depend on them.
    grid = topologies.grid(2, 11).adjacency()
    assert sorted(grid[2]) == [10, 13]  # node 2 is (0, 10): (0, 9) and (1, 10)
    assert list(grid[0]) == [11, 1]  # (0, 0): (1, 0) and (0, 1)
    tree = topologies.balanced_tree(3, 2).adjacency()
    assert list(tree[0]) == [1, 5, 6]


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------
def test_topology_is_not_a_container():
    grid = topologies.grid(3, 3)
    with pytest.raises(TypeError):
        len(grid)
    with pytest.raises(TypeError):
        iter(grid)
    with pytest.raises(TypeError):
        0 in grid
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.nodes = []
    assert Topology(range(2), [(0, 1)]) == Topology(nodes=range(2), edges=[(0, 1)])
    assert len(grid.node_order()) == 9


def test_topology_adjacency_has_nx_graph_order():
    topology = Topology([3], [(0, 1), (1, 2), (2, 0), (1, 0)])
    graph = topology.to_graph()
    adjacency = topology.adjacency()
    assert [(node, list(nbrs)) for node, nbrs in adjacency.items()] == [
        (node, list(graph.adj[node])) for node in graph
    ] == [(3, []), (0, [1, 2]), (1, [0, 2]), (2, [1, 0])]
    assert list(adjacency) == topology.node_order()
    assert topologies.edge_list(adjacency) == list(graph.edges)
    assert topology.adjacency() is not adjacency


# ----------------------------------------------------------------------
# Shapes
# ----------------------------------------------------------------------
def test_line():
    g = topologies.line(5).to_graph()
    assert g.number_of_nodes() == 5
    assert g.number_of_edges() == 4
    degrees = sorted(d for _, d in g.degree)
    assert degrees == [1, 1, 2, 2, 2]


def test_ring():
    g = topologies.ring(6).to_graph()
    assert all(d == 2 for _, d in g.degree)
    assert nx.is_connected(g)
    with pytest.raises(ValueError):
        topologies.ring(2)


def test_star():
    g = topologies.star(7).to_graph()
    assert g.degree[0] == 6
    assert all(g.degree[i] == 1 for i in range(1, 7))


def test_complete():
    g = topologies.complete(6).to_graph()
    assert g.number_of_edges() == 15


def test_grid():
    g = topologies.grid(3, 5).to_graph()
    assert g.number_of_nodes() == 15
    assert g.number_of_edges() == 3 * 4 + 5 * 2
    assert set(g.nodes) == set(range(15))


def test_hypercube():
    g = topologies.hypercube(4).to_graph()
    assert g.number_of_nodes() == 16
    assert all(d == 4 for _, d in g.degree)


@pytest.mark.parametrize("depth", [0, 1, 2, 5])
def test_complete_binary_tree(depth):
    g = topologies.complete_binary_tree(depth).to_graph()
    n = 2 ** (depth + 1) - 1
    assert g.number_of_nodes() == n
    assert g.number_of_edges() == n - 1
    assert nx.is_tree(g) or n == 1
    if depth >= 1:
        assert g.degree[0] == 2  # the root
        leaves = [v for v in g if g.degree[v] == 1]
        assert len(leaves) == 2**depth


def test_balanced_tree():
    g = topologies.balanced_tree(3, 2).to_graph()
    assert g.number_of_nodes() == 1 + 3 + 9


def test_caterpillar():
    g = topologies.caterpillar(4, 2).to_graph()
    assert g.number_of_nodes() == 4 + 8
    assert nx.is_tree(g)
    leaves = [v for v in g if g.degree[v] == 1]
    # Spine endpoints carry legs too, so only the legs themselves are leaves.
    assert len(leaves) == 8


def test_caterpillar_no_legs_is_path():
    g = topologies.caterpillar(5, 0).to_graph()
    assert nx.is_isomorphic(g, nx.path_graph(5))


def test_broom():
    g = topologies.broom(3, 4).to_graph()
    assert g.number_of_nodes() == 7
    assert g.degree[2] == 5  # hub: one path edge + 4 bristles
    assert nx.is_tree(g)


def test_random_connected_is_connected():
    for seed in range(5):
        g = topologies.random_connected(30, 0.1, seed=seed).to_graph()
        assert nx.is_connected(g)
        assert g.number_of_nodes() == 30


def test_random_geometric_connected():
    g = topologies.random_geometric_connected(25, 0.35, seed=1).to_graph()
    assert nx.is_connected(g)
    assert g.number_of_nodes() == 25
    assert set(g.nodes) == set(range(25))


def test_barbell():
    g = topologies.barbell(4, 2).to_graph()
    assert g.number_of_nodes() == 10
    assert nx.is_connected(g)
    with pytest.raises(ValueError):
        topologies.barbell(4, -1)


def test_two_connected_example_shape():
    g = topologies.two_connected_example().to_graph()
    assert g.number_of_nodes() == 6
    assert g.number_of_edges() == 6
    # The triangle plus three pendant leaves.
    assert sorted(d for _, d in g.degree) == [1, 1, 1, 3, 3, 3]


def test_single_node_generators():
    assert topologies.line(1).node_order() == [0]
    assert topologies.complete(1).node_order() == [0]
    with pytest.raises(ValueError):
        topologies.line(0)


# ----------------------------------------------------------------------
# Datacenter fabrics
# ----------------------------------------------------------------------
def test_clos_shape():
    g = topologies.clos(8, 4).to_graph()
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
    g = topologies.clos(8, 4, 3).to_graph()
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
    g = topologies.fat_tree(k).to_graph()
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
    g = topologies.torus(4, 4, 4).to_graph()
    assert g.number_of_nodes() == 64
    assert all(d == 6 for _, d in g.degree)
    assert nx.diameter(g) == 6
    g2 = topologies.torus(5, 3).to_graph()
    assert g2.number_of_nodes() == 15
    assert all(d == 4 for _, d in g2.degree)
    assert nx.diameter(g2) == 3
    with pytest.raises(ValueError):
        topologies.torus(2, 4)
    with pytest.raises(ValueError):
        topologies.torus()


def test_dragonfly_shape():
    groups, routers = 9, 4
    g = topologies.dragonfly(groups, routers).to_graph()
    assert g.number_of_nodes() == groups * routers
    # Intra-group cliques plus one global link per group pair.
    intra = groups * routers * (routers - 1) // 2
    inter = groups * (groups - 1) // 2
    assert g.number_of_edges() == intra + inter
    assert nx.is_connected(g)
    assert nx.diameter(g) == 3
    gh = topologies.dragonfly(groups, routers, 2).to_graph()
    assert gh.number_of_nodes() == groups * routers * 3
    assert nx.diameter(gh) == 5
    with pytest.raises(ValueError):
        topologies.dragonfly(0, 4)
    with pytest.raises(ValueError):
        topologies.dragonfly(4, 4, -1)


def test_fabric_generators_return_independent_graphs():
    t1 = topologies.fat_tree(4)
    t2 = topologies.fat_tree(4)
    assert t1 is not t2
    assert t1 == t2
    # Mutating one result leaves the next call's untouched.
    t1.nodes.remove(0)
    assert topologies.fat_tree(4) == t2


# ----------------------------------------------------------------------
# Diameter over adjacency mappings
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
    topology = make()
    adjacency = topology.adjacency()
    expected = nx.diameter(topology.to_graph())
    assert topologies.pseudo_diameter(adjacency) == expected
    assert topologies.diameter(adjacency) == expected


def test_pseudo_diameter_is_a_lower_bound_on_random_graphs():
    for seed in range(8):
        topology = topologies.random_connected(40, 0.12, seed=seed)
        adjacency = topology.adjacency()
        exact = nx.diameter(topology.to_graph())
        assert topologies.diameter(adjacency) == exact
        assert topologies.pseudo_diameter(adjacency) <= exact


def test_exact_diameter_matches_networkx_on_random_labelled_graphs():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 30)
        labels = [rng.choice([i, f"s{i}"]) for i in range(n)]
        topology = topologies.random_connected(n, 0.2, seed=rng.randint(0, 999))
        relabelled = Topology(
            [labels[u] for u in topology.nodes],
            [(labels[u], labels[v]) for u, v in topology.edges],
        )
        expected = nx.diameter(relabelled.to_graph())
        assert topologies.diameter(relabelled.adjacency()) == expected
        assert Network(relabelled).diameter() == expected


def test_pseudo_diameter_errors():
    with pytest.raises(ValueError):
        topologies.pseudo_diameter({})
    with pytest.raises(ValueError):
        topologies.diameter({})
    disconnected = Topology([2], [(0, 1)]).adjacency()
    with pytest.raises(ValueError, match="disconnected"):
        topologies.pseudo_diameter(disconnected)
    with pytest.raises(ValueError, match="disconnected"):
        topologies.diameter(disconnected)
