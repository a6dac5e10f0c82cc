"""Single-message DFS broadcast (Section 3.1's "time 1" scheme).

The root builds one packet whose ANR header walks the spanning tree in
depth-first (Euler tour) order; the ID a node consumes on its *first
departure* is the copy variant, so every node's NCU receives exactly one
copy.  System calls: exactly ``n``.  Time: constant — every copy is in
flight after the root's single send.

The fatal flaw, and the reason the paper develops the branching-paths
broadcast instead: the whole broadcast is one packet, so the first
failed link on the tour silently kills coverage of everything after it.
The six-node example of Section 3 (three broadcasters, three failed
pendant links) then deadlocks: no node ever learns enough to recompute
a working tree.  Tests and the E11 ablation bench reproduce this.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from ..hardware.anr import IdLookup
from ..hardware.ncu import NodeApi
from ..hardware.packet import Packet
from ..network.protocol import Protocol
from ..network.spanning import Tree, bfs_tree
from ..sim.errors import RoutingError

#: Optional per-node child ordering for the DFS tour.  The paper's
#: six-node deadlock example depends on *which* child the traversal
#: descends into first; the hook lets tests reproduce the adversarial
#: choice (``None`` keeps the tree's deterministic sorted order).
ChildOrder = Callable[[Any, tuple[Any, ...]], Sequence[Any]]


def euler_tour(tree: Tree, child_order: ChildOrder | None = None) -> list[Any]:
    """Depth-first node sequence visiting every edge twice.

    The tour starts at the root and is trimmed after the last *new*
    node: the remaining hops would only walk back to the root without
    informing anyone.  ``child_order`` overrides the per-node descent
    order (defaults to the tree's sorted child order).
    """
    tour: list[Any] = []

    def visit(node: Any) -> None:
        tour.append(node)
        children = tree.children[node]
        if child_order is not None:
            children = tuple(child_order(node, children))
        for child in children:
            visit(child)
            tour.append(node)

    visit(tree.root)
    # Trim the tail that revisits only known nodes.
    seen: set[Any] = set()
    last_new = 0
    for index, node in enumerate(tour):
        if node not in seen:
            seen.add(node)
            last_new = index
    return tour[: last_new + 1]


def dfs_broadcast_header(
    tree: Tree, ids: IdLookup, child_order: ChildOrder | None = None
) -> tuple[int, ...]:
    """ANR header for the single DFS broadcast packet.

    Copy IDs are used at each non-root node's first departure, so every
    node on the tour receives exactly one copy.  Header length is at
    most ``2(n - 1)`` IDs, within the ``dmax ~ 2n`` regime the paper
    allows.  A single-node tree has nothing to send (empty header).
    """
    tour = euler_tour(tree, child_order)
    if len(tour) < 2:
        return ()
    departed: set[Any] = set()
    header: list[int] = []
    for a, b in zip(tour, tour[1:]):
        try:
            normal, copy = ids(a, b)
        except KeyError as exc:
            raise RoutingError(f"no known link {a!r}-{b!r}") from exc
        if a != tree.root and a not in departed:
            header.append(copy)
            departed.add(a)
        else:
            header.append(normal)
    # The final node on the trimmed tour never departs; deliver to it.
    header.append(0)
    return tuple(header)


class DfsBroadcast(Protocol):
    """Standalone one-shot DFS broadcast from a designated root."""

    __slots__ = ("_root", "_adjacency", "_ids", "_body", "_child_order")

    def __init__(
        self,
        api: NodeApi,
        *,
        root: Any,
        adjacency: Mapping[Any, Iterable[Any]],
        ids: IdLookup,
        body: Any = None,
        child_order: ChildOrder | None = None,
    ) -> None:
        super().__init__(api)
        self._root = root
        self._adjacency = adjacency
        self._ids = ids
        self._body = body
        self._child_order = child_order

    def on_start(self, payload: Any) -> None:
        if self.api.node_id != self._root:
            return
        tree = bfs_tree(self._adjacency, self._root)
        self.api.report("received_at", self.api.now)
        header = dfs_broadcast_header(tree, self._ids, self._child_order)
        if header:
            self.api.send(header, self._body)

    def on_packet(self, packet: Packet) -> None:
        self.api.report("received_at", self.api.now)
        self.api.report("body", packet.payload)
