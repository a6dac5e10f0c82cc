"""Topology generators for experiments.

Every generator returns a :class:`Topology`: plain node and edge
sequences over integer node IDs ``0 .. n-1``, describing a simple
connected graph.  The selection covers the shapes the paper's analyses
distinguish:

* **complete graphs** — the Section 5 setting;
* **complete binary trees** — the Section 3.4 lower-bound instance;
* **caterpillars / brooms / paths** — extreme cases for the tree
  labelling (few long paths vs. many short ones);
* **rings** — the classic leader-election battleground;
* **grids, hypercubes, random graphs** — generic multi-path topologies
  for topology-maintenance experiments with failures;
* **datacenter fabrics** (:func:`clos`, :func:`fat_tree`, :func:`torus`,
  :func:`dragonfly`) — the 10⁴-node scale of the benchmarks.

Outside the fabrics, each result lists its nodes and edges in the order
the matching networkx generator's ``nx.Graph`` holds them (checked
against networkx oracles in ``tests/test_topologies.py``); node IDs,
golden traces and failure schedules depend on that order.  Every call
builds new sequences.  The module needs no networkx:
:meth:`Topology.to_graph` imports it only when a caller asks for an
``nx.Graph``.  The diameter functions work on adjacency mappings
(``net.adjacency()``, :meth:`Topology.adjacency`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


@dataclass(frozen=True, slots=True)
class Topology:
    """A graph as two plain sequences: ``nodes`` and ``edges`` (pairs).

    Read with ``nx.Graph`` insertion semantics — ``add_nodes_from(nodes)``
    then ``add_edges_from(edges)``: an endpoint missing from ``nodes`` is
    appended when its first edge arrives (``u`` before ``v``), and a
    repeated pair, in either orientation, merges into the first.  This
    is the construction input of :class:`~repro.network.network.Network`,
    which accepts an ``nx.Graph`` through the same two attributes.

    A ``Topology`` is not a container: ``len()``, iteration and ``in``
    raise :class:`TypeError`, so code written for an ``nx.Graph`` fails
    instead of answering for the two fields.  Ask :meth:`node_order`,
    :meth:`adjacency` or :meth:`to_graph` instead.
    """

    nodes: Iterable[Any]
    edges: Iterable[tuple[Any, Any]]

    def node_order(self) -> list[Any]:
        """Every node once, in the order an ``nx.Graph`` would hold them."""
        return list(dict.fromkeys(chain(self.nodes, chain.from_iterable(self.edges))))

    def adjacency(self) -> dict[Any, dict[Any, None]]:
        """Each node's neighbours, as an ``nx.Graph`` would hold them.

        Nodes in :meth:`node_order`; each node's neighbours (the keys of
        an inner dict, used as an ordered set) in the order its edges
        arrive.  A new mapping per call, private to the caller.
        """
        adjacency: dict[Any, dict[Any, None]] = {node: {} for node in self.nodes}
        for u, v in self.edges:
            adjacency.setdefault(u, {})[v] = None
            adjacency.setdefault(v, {})[u] = None
        return adjacency

    def to_graph(self) -> nx.Graph:
        """The ``nx.Graph`` these sequences describe (a new object)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        graph.add_edges_from(self.edges)
        return graph


def reachable(adjacency: Mapping[Any, Iterable[Any]], source: Any) -> set[Any]:
    """Every node ``adjacency`` connects to ``source``, ``source`` included."""
    seen = {source}
    stack = [source]
    while stack:
        for neighbor in adjacency[stack.pop()]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return seen


def edge_list(adjacency: Mapping[Any, Iterable[Any]]) -> list[tuple[Any, Any]]:
    """Each edge once, from its earlier endpoint: ``nx.Graph.edges`` order."""
    edges = []
    done: set[Any] = set()
    for node, neighbors in adjacency.items():
        edges.extend((node, nbr) for nbr in neighbors if nbr not in done)
        done.add(node)
    return edges


def _graph(
    nodes: Iterable[Any], edges: Iterable[tuple[Any, Any]], *, relabel: bool = False
) -> Topology:
    """``nodes`` and ``edges`` as an ``nx.Graph`` built from them lists them.

    Every node once in insertion order, every edge once in
    ``nx.Graph.edges`` order.  With ``relabel`` each node becomes its
    position in the ``repr`` order of the labels; both orders survive.
    """
    adjacency = Topology(nodes, edges).adjacency()
    ordered = edge_list(adjacency)
    if not relabel:
        return Topology(list(adjacency), ordered)
    rank = {node: i for i, node in enumerate(sorted(adjacency, key=repr))}
    return Topology(
        [rank[node] for node in adjacency], [(rank[u], rank[v]) for u, v in ordered]
    )


def line(n: int) -> Topology:
    """Path graph on ``n`` nodes."""
    if n < 1:
        raise ValueError("n must be positive")
    return Topology(range(n), list(zip(range(n - 1), range(1, n))))


def ring(n: int) -> Topology:
    """Cycle on ``n >= 3`` nodes."""
    if n < 3:
        raise ValueError("a ring needs at least 3 nodes")
    return _graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Topology:
    """Star: node 0 is the hub, nodes 1..n-1 are leaves."""
    if n < 2:
        raise ValueError("a star needs at least 2 nodes")
    return Topology(range(n), [(0, leaf) for leaf in range(1, n)])


def complete(n: int) -> Topology:
    """Complete graph K_n — the Section 5 setting."""
    if n < 1:
        raise ValueError("n must be positive")
    return Topology(range(n), list(combinations(range(n), 2)))


def grid(rows: int, cols: int) -> Topology:
    """2-D grid of ``rows × cols`` nodes.

    Node IDs follow the ``repr`` order of the ``(row, col)`` labels,
    which is row-major only while both dimensions are at most 10: in
    ``grid(2, 11)`` node 2 is ``(0, 10)``, with neighbours 10
    (``(0, 9)``) and 13 (``(1, 10)``).
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    vertical = [((i + 1, j), (i, j)) for i in range(rows - 1) for j in range(cols)]
    horizontal = [((i, j + 1), (i, j)) for i in range(rows) for j in range(cols - 1)]
    return _graph(cells, vertical + horizontal, relabel=True)


def hypercube(dim: int) -> Topology:
    """Binary hypercube of the given dimension (2**dim nodes).

    Node ``u`` is the corner whose coordinates are ``u``'s bits; its
    neighbours are ``u ^ 2**j`` for every ``j < dim``.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    n = 1 << dim
    bits = [1 << j for j in reversed(range(dim))]
    return Topology(range(n), [(u, u | bit) for u in range(n) for bit in bits if not u & bit])


def complete_binary_tree(depth: int) -> Topology:
    """Complete binary tree of the given depth (root = node 0).

    ``depth`` counts edges on a root-to-leaf path; the tree has
    ``2**(depth+1) - 1`` nodes, heap-indexed (children of ``i`` are
    ``2i+1`` and ``2i+2``).  This is the lower-bound instance of
    Section 3.4.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    n = 2 ** (depth + 1) - 1
    return Topology(range(n), [((child - 1) // 2, child) for child in range(1, n)])


def balanced_tree(branching: int, height: int) -> Topology:
    """Balanced ``branching``-ary tree of the given height (root = 0).

    Counted breadth-first, the children of node ``i`` are
    ``branching·i + 1 .. branching·i + branching``; node IDs are then the
    ``repr`` order of those counts, so past node 9 they are not
    breadth-first: the root of ``balanced_tree(3, 2)`` has children 1, 5
    and 6.
    """
    if branching < 1 or height < 0:
        raise ValueError("branching must be >= 1 and height >= 0")
    if branching == 1:
        n = height + 1
    else:
        n = (branching ** (height + 1) - 1) // (branching - 1)
    edges = [((child - 1) // branching, child) for child in range(1, n)]
    return _graph(range(n), edges, relabel=True)


def caterpillar(spine: int, legs_per_node: int) -> Topology:
    """A spine path with ``legs_per_node`` leaves hanging off each node.

    Caterpillars decompose into one long spine path plus single-edge
    paths, making them the friendly extreme for the branching-paths
    broadcast (label of the spine stays small).
    """
    if spine < 1 or legs_per_node < 0:
        raise ValueError("spine must be positive, legs non-negative")
    edges = list(zip(range(spine - 1), range(1, spine)))
    edges += [
        (s, spine + s * legs_per_node + leg)
        for s in range(spine)
        for leg in range(legs_per_node)
    ]
    return _graph(range(spine), edges)


def broom(handle: int, bristles: int) -> Topology:
    """A path of length ``handle`` ending in a star of ``bristles`` leaves.

    Node 0 is the tip of the handle; the last handle node is the hub.
    """
    if handle < 1 or bristles < 0:
        raise ValueError("handle must be positive, bristles non-negative")
    hub = handle - 1
    edges = list(zip(range(hub), range(1, handle)))
    edges += [(hub, leaf) for leaf in range(handle, handle + bristles)]
    return Topology(range(handle + bristles), edges)


def random_connected(n: int, p: float, seed: int = 0, max_tries: int = 200) -> Topology:
    """Erdős–Rényi G(n, p), resampled until connected.

    Attempt ``a`` makes exactly the draws of
    ``nx.gnp_random_graph(n, p, seed=seed + a)``: one
    ``random.Random(seed + a).random() < p`` per node pair, pairs in
    :func:`itertools.combinations` order (none for ``p <= 0`` or
    ``p >= 1``), so the result is that graph, with its edges in
    ``nx.Graph.edges`` order.
    """
    if n < 1:
        raise ValueError("n must be positive")
    nodes = range(n)
    pairs = list(combinations(nodes, 2))
    for attempt in range(max_tries):
        if p >= 1:
            edges = pairs
        elif p <= 0:
            edges = []
        else:
            draw = random.Random(seed + attempt).random
            edges = [pair for pair in pairs if draw() < p]
        adjacency: dict[int, list[int]] = {node: [] for node in nodes}
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        if len(reachable(adjacency, 0)) == n:
            return Topology(nodes, edges)
    raise ValueError(f"could not sample a connected G({n}, {p}) in {max_tries} tries")


def random_geometric_connected(
    n: int, radius: float, seed: int = 0, max_tries: int = 200
) -> Topology:
    """Random geometric graph in the unit square, resampled until connected.

    Attempt ``a`` makes the draws of
    ``nx.random_geometric_graph(n, radius, seed=seed + a)``: node ``i``
    sits at the ``i``-th pair of ``random.Random(seed + a).random()``
    draws, and two nodes are linked when their Euclidean distance is at
    most ``radius``.  Node IDs are then the ``repr`` order of those
    indices (node 2 is index 10 once ``n > 10``).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return Topology([0], [])
    limit = radius**2
    for attempt in range(max_tries):
        draw = random.Random(seed + attempt).random
        points = [(draw(), draw()) for _ in range(n)]
        edges = [
            (u, v)
            for (u, (ux, uy)), (v, (vx, vy)) in combinations(enumerate(points), 2)
            if (ux - vx) ** 2 + (uy - vy) ** 2 <= limit
        ]
        topology = _graph(range(n), edges, relabel=True)
        if len(reachable(topology.adjacency(), 0)) == n:
            return topology
    raise ValueError(
        f"could not sample a connected geometric graph ({n}, {radius}) "
        f"in {max_tries} tries"
    )


def clos(leaves: int, spines: int, hosts_per_leaf: int = 0) -> Topology:
    """Two-tier folded Clos (leaf–spine) fabric.

    Spines are nodes ``0..spines-1``, leaves ``spines..spines+leaves-1``;
    every leaf connects to every spine (the non-blocking middle stage),
    and ``hosts_per_leaf`` single-link hosts hang off each leaf, numbered
    after the switches.  With hosts the graph models the full datacenter
    pod; without them it is the pure switching fabric.
    """
    if leaves < 1 or spines < 1:
        raise ValueError("a Clos fabric needs at least one leaf and one spine")
    if hosts_per_leaf < 0:
        raise ValueError("hosts_per_leaf must be non-negative")
    edges = []
    next_id = spines + leaves
    for leaf in range(spines, spines + leaves):
        edges.extend((leaf, spine) for spine in range(spines))
        edges.extend((leaf, host) for host in range(next_id, next_id + hosts_per_leaf))
        next_id += hosts_per_leaf
    return Topology(range(next_id), edges)


def fat_tree(k: int) -> Topology:
    """Three-tier k-ary fat tree (k even): the canonical datacenter fabric.

    ``(k/2)²`` core switches, ``k`` pods of ``k/2`` aggregation plus
    ``k/2`` edge switches, and ``k/2`` hosts per edge switch —
    ``5k²/4 + k³/4`` nodes total (``k=32`` ≈ 10⁴ nodes).  Aggregation
    switch ``j`` of every pod connects to cores ``j·k/2 .. j·k/2+k/2-1``,
    so any host pair is at most 6 hops apart.  Node numbering: cores
    first, then per pod aggregation, edge, hosts.
    """
    if k < 2 or k % 2:
        raise ValueError("fat tree arity k must be even and >= 2")
    half = k // 2
    next_id = half * half  # cores are 0 .. (k/2)² - 1
    nodes = list(range(next_id))
    edges = []
    for _pod in range(k):
        aggs = range(next_id, next_id + half)
        next_id += half
        edge_switches = range(next_id, next_id + half)
        next_id += half
        for j, agg in enumerate(aggs):
            # Nodes in order of first appearance: the pod's edge
            # switches arrive with the first aggregation switch's links.
            nodes.append(agg)
            if j == 0:
                nodes.extend(edge_switches)
            edges.extend((agg, core) for core in range(j * half, (j + 1) * half))
            edges.extend((agg, edge) for edge in edge_switches)
        for edge in edge_switches:
            hosts = list(range(next_id, next_id + half))  # ints shared with edges
            nodes.extend(hosts)
            edges.extend((edge, host) for host in hosts)
            next_id += half
    return Topology(nodes, edges)


def torus(*dims: int) -> Topology:
    """k-ary n-cube: a grid with wraparound links in every dimension.

    ``torus(4, 4)`` is a 4×4 2-D torus; ``torus(8, 8, 8)`` a 512-node
    3-D torus.  Every dimension must be at least 3 (a 2-wide dimension
    would collapse its wrap link onto the grid link).  Nodes are
    numbered row-major.
    """
    if not dims:
        raise ValueError("a torus needs at least one dimension")
    if any(d < 3 for d in dims):
        raise ValueError("every torus dimension must be at least 3")
    n = 1
    strides = []
    for d in reversed(dims):
        strides.append(n)
        n *= d
    strides.reverse()  # strides[i] multiplies coordinate i (row-major)
    edges = []
    for node in range(n):
        for dim, stride in zip(dims, strides):
            coord = (node // stride) % dim
            neighbor = node + stride if coord + 1 < dim else node - (dim - 1) * stride
            edges.append((node, neighbor))
    return Topology(range(n), edges)


def dragonfly(groups: int, routers_per_group: int, hosts_per_router: int = 0) -> Topology:
    """Dragonfly: fully meshed router groups, one global link per group pair.

    Each of the ``groups`` groups is a complete graph on
    ``routers_per_group`` routers; for every group pair exactly one
    global link connects them, its endpoints spread deterministically
    across each group's routers round-robin.  ``hosts_per_router``
    single-link hosts hang off every router, numbered after all
    routers.  The group-level topology is complete, giving the
    low-diameter, low-degree shape datacenter dragonflies target.
    """
    if groups < 1 or routers_per_group < 1:
        raise ValueError("dragonfly needs positive groups and routers per group")
    if hosts_per_router < 0:
        raise ValueError("hosts_per_router must be non-negative")
    a = routers_per_group
    n_routers = groups * a
    edges = []
    for group in range(groups):
        base = group * a
        edges.extend(
            (base + i, base + j) for i in range(a) for j in range(i + 1, a)
        )
    # Round-robin endpoint spread: group gi's link toward gj leaves
    # router (gj - 1) mod a, and vice versa.
    edges.extend(
        (gi * a + (gj - 1) % a, gj * a + gi % a)
        for gi in range(groups)
        for gj in range(gi + 1, groups)
    )
    next_id = n_routers
    for router in range(n_routers):
        edges.extend(
            (router, host) for host in range(next_id, next_id + hosts_per_router)
        )
        next_id += hosts_per_router
    return Topology(range(next_id), edges)


def barbell(clique: int, path: int) -> Topology:
    """Two cliques of size ``clique`` joined by a path of ``path`` nodes."""
    if clique < 3:
        raise ValueError("clique size must be at least 3")
    if path < 0:
        raise ValueError("path length must be non-negative")
    right = clique + path
    edges = list(combinations(range(clique), 2))
    edges += zip(range(clique, right - 1), range(clique + 1, right))
    edges += combinations(range(right, right + clique), 2)
    edges.append((clique - 1, clique))
    if path:
        edges.append((right - 1, right))
    return _graph(range(clique + max(path - 1, 0)), edges)


def _eccentricity(adjacency: Mapping[Any, Iterable[Any]], source: Any) -> tuple[int, list]:
    """One BFS sweep: ``(max depth, nodes at that depth)``.

    Raises :class:`ValueError` when some node of ``adjacency`` is not
    reachable from ``source``: a disconnected graph has no diameter.
    """
    visited = {source}
    frontier = [source]
    depth = 0
    while True:
        next_frontier = []
        for node in frontier:
            for neighbor in adjacency[node]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    next_frontier.append(neighbor)
        if not next_frontier:
            break
        frontier = next_frontier
        depth += 1
    if len(visited) != len(adjacency):
        raise ValueError("the graph is disconnected: its diameter is infinite")
    return depth, frontier


def diameter(adjacency: Mapping[Any, Iterable[Any]]) -> int:
    """Exact hop diameter of a connected graph given as an adjacency mapping.

    The largest BFS eccentricity: one sweep per node, O(n·m).  Raises
    :class:`ValueError` on an empty or disconnected graph.
    """
    if not adjacency:
        raise ValueError("diameter needs a non-empty graph")
    return max(_eccentricity(adjacency, node)[0] for node in adjacency)


def pseudo_diameter(adjacency: Mapping[Any, Iterable[Any]]) -> int:
    """Two-sweep BFS pseudo-diameter: a fast lower bound on the diameter.

    ``adjacency`` maps each node to its neighbours (``net.adjacency()``,
    :meth:`Topology.adjacency`).  BFS from a deterministic start node
    finds a farthest node; a second BFS from there returns its
    eccentricity.  Two O(n + m) sweeps instead of the O(n·m) of
    :func:`diameter` — the difference between milliseconds and minutes
    at 10⁴–10⁵ nodes.  The result is exact on trees and within a small
    additive error on the mesh-like fabrics in this module (exact on all
    generators here, verified by the test suite); in general it can
    under-report.  Raises :class:`ValueError` on an empty or
    disconnected graph, like :func:`diameter`.
    """
    if not adjacency:
        raise ValueError("pseudo_diameter needs a non-empty graph")
    # Start from a minimum-degree node (ties broken by repr): peripheral
    # nodes — a fat-tree host, a Clos leaf port — realise the diameter,
    # while a well-connected core would anchor both sweeps in the middle
    # of the graph and under-report (e.g. 4 instead of 6 on fat_tree(8)).
    start = min(adjacency, key=lambda node: (len(adjacency[node]), repr(node)))
    first_depth, farthest = _eccentricity(adjacency, start)
    # Deterministic pick among the deepest BFS layer.
    second = min(farthest, key=repr)
    depth, _ = _eccentricity(adjacency, second)
    return max(first_depth, depth)


def two_connected_example() -> Topology:
    """The six-node graph of the Section 3 non-convergence example.

    A triangle ``u, v, w`` (nodes 0, 1, 2) with a pendant leaf on each
    triangle node (``u1, v1, w1`` = nodes 3, 4, 5).  Failing the three
    pendant edges while each triangle node broadcasts with a DFS-style
    traversal produces the deadlock described in the paper.
    """
    return _graph((), [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])
