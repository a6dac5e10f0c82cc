"""Topology generators for experiments.

All generators return simple connected :class:`networkx.Graph` objects
with integer node IDs ``0 .. n-1``.  The selection covers the shapes the
paper's analyses distinguish:

* **complete graphs** — the Section 5 setting;
* **complete binary trees** — the Section 3.4 lower-bound instance;
* **caterpillars / brooms / paths** — extreme cases for the tree
  labelling (few long paths vs. many short ones);
* **rings** — the classic leader-election battleground;
* **grids, hypercubes, random graphs** — generic multi-path topologies
  for topology-maintenance experiments with failures.

Generators are memoised: campaigns rebuild the same parameterised
topology hundreds of times (once per seed), and the expensive ones —
rejection-sampled random graphs — cost orders of magnitude more than a
dict hit.  Every call returns a **private copy** of the cached graph, so
callers may mutate their result freely.  ``cache_info`` and
``cache_clear`` expose the cache for tests and long-lived processes.

The datacenter fabrics (:func:`clos`, :func:`fat_tree`, :func:`torus`,
:func:`dragonfly`) are defined once, as plain node and edge sequences
(:class:`Topology`, from the ``*_topology`` functions); their graph
functions build the ``nx.Graph`` from those sequences.  Substrate
construction reads the sequences directly, so building a fabric
network never imports networkx — this module imports it only inside
the functions that need it.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import wraps
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

#: Bounded FIFO-evicted generator cache: (fn name, args, kwargs) -> graph.
_CACHE_MAX = 128
_cache: OrderedDict[tuple, nx.Graph] = OrderedDict()
_hits = 0
_misses = 0


class Topology(NamedTuple):
    """A graph as two plain sequences: ``nodes`` and ``edges`` (pairs).

    Read with ``nx.Graph`` insertion semantics — ``add_nodes_from(nodes)``
    then ``add_edges_from(edges)``: an endpoint missing from ``nodes`` is
    appended when its first edge arrives (``u`` before ``v``), and a
    repeated pair, in either orientation, merges into the first.  This
    is the construction input of :class:`~repro.network.network.Network`,
    which accepts an ``nx.Graph`` through the same two attributes.
    """

    nodes: Iterable[Any]
    edges: Iterable[tuple[Any, Any]]

    def node_order(self) -> list[Any]:
        """Every node once, in the order an ``nx.Graph`` would hold them."""
        return list(dict.fromkeys(chain(self.nodes, chain.from_iterable(self.edges))))

    def to_graph(self) -> nx.Graph:
        """The ``nx.Graph`` these sequences describe (a new object)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        graph.add_edges_from(self.edges)
        return graph


def _memoised(fn: Callable[..., nx.Graph]) -> Callable[..., nx.Graph]:
    """Memoise a generator on its parameters; return copies of the hit.

    Invalid parameters raise inside ``fn`` before anything is cached, so
    error behaviour is unchanged.  The copy preserves node attributes
    (geometric layouts carry ``pos``).
    """

    @wraps(fn)
    def wrapper(*args: object, **kwargs: object) -> nx.Graph:
        global _hits, _misses
        key = (fn.__name__, args, tuple(sorted(kwargs.items())))
        cached = _cache.get(key)
        if cached is None:
            _misses += 1
            cached = fn(*args, **kwargs)
            _cache[key] = cached
            while len(_cache) > _CACHE_MAX:
                _cache.popitem(last=False)
        else:
            _hits += 1
            _cache.move_to_end(key)
        return cached.copy()

    return wrapper


def cache_info() -> dict[str, int]:
    """Hit/miss/size counters for the generator cache."""
    return {
        "hits": _hits,
        "misses": _misses,
        "size": len(_cache),
        "max_size": _CACHE_MAX,
    }


def cache_clear() -> None:
    """Empty the generator cache and zero its counters."""
    global _hits, _misses
    _cache.clear()
    _hits = 0
    _misses = 0


def _relabel(graph: nx.Graph) -> nx.Graph:
    """Relabel nodes to 0..n-1 deterministically (sorted old labels)."""
    import networkx as nx

    mapping = {old: new for new, old in enumerate(sorted(graph.nodes, key=repr))}
    return nx.relabel_nodes(graph, mapping)


@_memoised
def line(n: int) -> nx.Graph:
    """Path graph on ``n`` nodes."""
    import networkx as nx

    if n < 1:
        raise ValueError("n must be positive")
    return nx.path_graph(n)


@_memoised
def ring(n: int) -> nx.Graph:
    """Cycle on ``n >= 3`` nodes."""
    import networkx as nx

    if n < 3:
        raise ValueError("a ring needs at least 3 nodes")
    return nx.cycle_graph(n)


@_memoised
def star(n: int) -> nx.Graph:
    """Star: node 0 is the hub, nodes 1..n-1 are leaves."""
    import networkx as nx

    if n < 2:
        raise ValueError("a star needs at least 2 nodes")
    return nx.star_graph(n - 1)


@_memoised
def complete(n: int) -> nx.Graph:
    """Complete graph K_n — the Section 5 setting."""
    import networkx as nx

    if n < 1:
        raise ValueError("n must be positive")
    return nx.complete_graph(n)


@_memoised
def grid(rows: int, cols: int) -> nx.Graph:
    """2-D grid, relabelled to integers row-major."""
    import networkx as nx

    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    return _relabel(nx.grid_2d_graph(rows, cols))


@_memoised
def hypercube(dim: int) -> nx.Graph:
    """Binary hypercube of the given dimension (2**dim nodes)."""
    import networkx as nx

    if dim < 1:
        raise ValueError("dimension must be positive")
    return _relabel(nx.hypercube_graph(dim))


@_memoised
def complete_binary_tree(depth: int) -> nx.Graph:
    """Complete binary tree of the given depth (root = node 0).

    ``depth`` counts edges on a root-to-leaf path; the tree has
    ``2**(depth+1) - 1`` nodes, heap-indexed (children of ``i`` are
    ``2i+1`` and ``2i+2``).  This is the lower-bound instance of
    Section 3.4.
    """
    import networkx as nx

    if depth < 0:
        raise ValueError("depth must be non-negative")
    n = 2 ** (depth + 1) - 1
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for i in range(n):
        for child in (2 * i + 1, 2 * i + 2):
            if child < n:
                g.add_edge(i, child)
    return g


@_memoised
def balanced_tree(branching: int, height: int) -> nx.Graph:
    """Balanced ``branching``-ary tree of the given height (root = 0)."""
    import networkx as nx

    if branching < 1 or height < 0:
        raise ValueError("branching must be >= 1 and height >= 0")
    return _relabel(nx.balanced_tree(branching, height))


@_memoised
def caterpillar(spine: int, legs_per_node: int) -> nx.Graph:
    """A spine path with ``legs_per_node`` leaves hanging off each node.

    Caterpillars decompose into one long spine path plus single-edge
    paths, making them the friendly extreme for the branching-paths
    broadcast (label of the spine stays small).
    """
    import networkx as nx

    if spine < 1 or legs_per_node < 0:
        raise ValueError("spine must be positive, legs non-negative")
    g = nx.path_graph(spine)
    next_id = spine
    for s in range(spine):
        for _ in range(legs_per_node):
            g.add_edge(s, next_id)
            next_id += 1
    return g


@_memoised
def broom(handle: int, bristles: int) -> nx.Graph:
    """A path of length ``handle`` ending in a star of ``bristles`` leaves.

    Node 0 is the tip of the handle; the last handle node is the hub.
    """
    import networkx as nx

    if handle < 1 or bristles < 0:
        raise ValueError("handle must be positive, bristles non-negative")
    g = nx.path_graph(handle)
    hub = handle - 1
    next_id = handle
    for _ in range(bristles):
        g.add_edge(hub, next_id)
        next_id += 1
    return g


@_memoised
def random_connected(n: int, p: float, seed: int = 0, max_tries: int = 200) -> nx.Graph:
    """Erdős–Rényi G(n, p), resampled until connected."""
    import networkx as nx

    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return nx.empty_graph(1)
    for attempt in range(max_tries):
        g = nx.gnp_random_graph(n, p, seed=seed + attempt)
        if nx.is_connected(g):
            return g
    raise ValueError(f"could not sample a connected G({n}, {p}) in {max_tries} tries")


@_memoised
def random_geometric_connected(
    n: int, radius: float, seed: int = 0, max_tries: int = 200
) -> nx.Graph:
    """Random geometric graph in the unit square, resampled until connected."""
    import networkx as nx

    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return nx.empty_graph(1)
    for attempt in range(max_tries):
        g = nx.random_geometric_graph(n, radius, seed=seed + attempt)
        if nx.is_connected(g):
            return _relabel(g)
    raise ValueError(
        f"could not sample a connected geometric graph ({n}, {radius}) "
        f"in {max_tries} tries"
    )


def clos_topology(leaves: int, spines: int, hosts_per_leaf: int = 0) -> Topology:
    """The node and edge sequences of :func:`clos`."""
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
    return Topology(range(spines + leaves), edges)


@_memoised
def clos(leaves: int, spines: int, hosts_per_leaf: int = 0) -> nx.Graph:
    """Two-tier folded Clos (leaf–spine) fabric.

    Spines are nodes ``0..spines-1``, leaves ``spines..spines+leaves-1``;
    every leaf connects to every spine (the non-blocking middle stage),
    and ``hosts_per_leaf`` single-link hosts hang off each leaf, numbered
    after the switches.  With hosts the graph models the full datacenter
    pod; without them it is the pure switching fabric.
    """
    return clos_topology(leaves, spines, hosts_per_leaf).to_graph()


def fat_tree_topology(k: int) -> Topology:
    """The node and edge sequences of :func:`fat_tree`."""
    if k < 2 or k % 2:
        raise ValueError("fat tree arity k must be even and >= 2")
    half = k // 2
    edges = []
    next_id = half * half  # cores are 0 .. (k/2)² - 1
    for _pod in range(k):
        aggs = range(next_id, next_id + half)
        next_id += half
        edge_switches = range(next_id, next_id + half)
        next_id += half
        for j, agg in enumerate(aggs):
            edges.extend((agg, core) for core in range(j * half, (j + 1) * half))
            edges.extend((agg, edge) for edge in edge_switches)
        for edge in edge_switches:
            edges.extend((edge, host) for host in range(next_id, next_id + half))
            next_id += half
    return Topology(range(half * half), edges)


@_memoised
def fat_tree(k: int) -> nx.Graph:
    """Three-tier k-ary fat tree (k even): the canonical datacenter fabric.

    ``(k/2)²`` core switches, ``k`` pods of ``k/2`` aggregation plus
    ``k/2`` edge switches, and ``k/2`` hosts per edge switch —
    ``5k²/4 + k³/4`` nodes total (``k=32`` ≈ 10⁴ nodes).  Aggregation
    switch ``j`` of every pod connects to cores ``j·k/2 .. j·k/2+k/2-1``,
    so any host pair is at most 6 hops apart.  Node numbering: cores
    first, then per pod aggregation, edge, hosts.
    """
    return fat_tree_topology(k).to_graph()


def torus_topology(*dims: int) -> Topology:
    """The node and edge sequences of :func:`torus`."""
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


@_memoised
def torus(*dims: int) -> nx.Graph:
    """k-ary n-cube: a grid with wraparound links in every dimension.

    ``torus(4, 4)`` is a 4×4 2-D torus; ``torus(8, 8, 8)`` a 512-node
    3-D torus.  Every dimension must be at least 3 (a 2-wide dimension
    would collapse its wrap link onto the grid link).  Nodes are
    numbered row-major.
    """
    return torus_topology(*dims).to_graph()


def dragonfly_topology(
    groups: int, routers_per_group: int, hosts_per_router: int = 0
) -> Topology:
    """The node and edge sequences of :func:`dragonfly`."""
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
    return Topology(range(n_routers), edges)


@_memoised
def dragonfly(groups: int, routers_per_group: int, hosts_per_router: int = 0) -> nx.Graph:
    """Dragonfly: fully meshed router groups, one global link per group pair.

    Each of the ``groups`` groups is a complete graph on
    ``routers_per_group`` routers; for every group pair exactly one
    global link connects them, its endpoints spread deterministically
    across each group's routers round-robin.  ``hosts_per_router``
    single-link hosts hang off every router, numbered after all
    routers.  The group-level topology is complete, giving the
    low-diameter, low-degree shape datacenter dragonflies target.
    """
    return dragonfly_topology(groups, routers_per_group, hosts_per_router).to_graph()


@_memoised
def barbell(clique: int, path: int) -> nx.Graph:
    """Two cliques of size ``clique`` joined by a path of ``path`` nodes."""
    import networkx as nx

    if clique < 3:
        raise ValueError("clique size must be at least 3")
    return nx.barbell_graph(clique, path)


def _bfs_eccentricity(graph: nx.Graph, source) -> tuple[int, list]:
    """One BFS sweep: ``(max depth, nodes at that depth)``.

    Raises the same error :func:`networkx.diameter` raises when the
    graph is disconnected, so callers can swap one for the other.
    """
    adj = graph.adj
    visited = {source}
    frontier = [source]
    depth = 0
    last = frontier
    while frontier:
        last = frontier
        next_frontier = []
        for node in frontier:
            for neighbor in adj[node]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
        if frontier:
            depth += 1
    if len(visited) != graph.number_of_nodes():
        import networkx as nx

        raise nx.NetworkXError(
            "Found infinite path length because the graph is not connected"
        )
    return depth, last


def pseudo_diameter(graph: nx.Graph) -> int:
    """Two-sweep BFS pseudo-diameter: a fast lower bound on the diameter.

    BFS from a deterministic start node finds a farthest node; a second
    BFS from there returns its eccentricity.  Two O(n + m) sweeps
    instead of the O(n·m) all-pairs BFS behind :func:`networkx.diameter`
    — the difference between milliseconds and minutes at 10⁴–10⁵ nodes.
    The result is exact on trees and within a small additive error on
    the mesh-like fabrics in this module (exact on all generators here,
    verified by the test suite); in general it can under-report.  Raises
    :class:`networkx.NetworkXError` on disconnected graphs, like
    :func:`networkx.diameter`.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("pseudo_diameter needs a non-empty graph")
    # Start from a minimum-degree node (ties broken by repr): peripheral
    # nodes — a fat-tree host, a Clos leaf port — realise the diameter,
    # while a well-connected core would anchor both sweeps in the middle
    # of the graph and under-report (e.g. 4 instead of 6 on fat_tree(8)).
    degree = graph.degree
    start = min(graph.nodes, key=lambda node: (degree[node], repr(node)))
    first_depth, farthest = _bfs_eccentricity(graph, start)
    # Deterministic pick among the deepest BFS layer.
    second = min(farthest, key=repr)
    depth, _ = _bfs_eccentricity(graph, second)
    return max(first_depth, depth)


@_memoised
def two_connected_example() -> nx.Graph:
    """The six-node graph of the Section 3 non-convergence example.

    A triangle ``u, v, w`` (nodes 0, 1, 2) with a pendant leaf on each
    triangle node (``u1, v1, w1`` = nodes 3, 4, 5).  Failing the three
    pendant edges while each triangle node broadcasts with a DFS-style
    traversal produces the deadlock described in the paper.
    """
    import networkx as nx

    g = nx.Graph()
    g.add_edges_from([(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])
    return g
