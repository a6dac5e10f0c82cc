"""The layered-BFS broadcast of Section 3.1's footnote.

If path lengths up to O(n^2) are permitted (no ``dmax`` restriction),
a simple one-packet scheme both achieves constant time *and* converges
under failures: traverse the BFS tree a layer at a time.  The single
packet first walks the subtree spanning all nodes at distance 1 and
returns to the origin, then the subtree spanning distance <= 2 and
returns, and so on; each node is copied only on its first visit.

The payoff is the *prefix-coverage* property: if a link failure kills
the packet during the layer-k sweep, every node at distance < k has
already been informed.  The footnote notes this yields convergence of
topology maintenance in O(log n) rounds while each broadcast still
takes one time unit; the price is the Θ(n·d) = O(n^2) header, which is
precisely what the ``dmax`` restriction of Section 2 rules out — the
E11 ablation measures that trade-off.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from ..hardware.anr import IdLookup
from ..hardware.ncu import NodeApi
from ..hardware.packet import Packet
from ..network.protocol import Protocol
from ..network.spanning import Tree, bfs_tree
from ..sim.errors import RoutingError


def layered_tour(tree: Tree) -> list[Any]:
    """Node sequence of the concatenated layer sweeps.

    Sweep k walks (in DFS order) the subtree induced by nodes at depth
    at most k and returns to the root; sweeps run for k = 1..depth.
    The final sweep is trimmed after its last new node.
    """
    depth_of = {node: tree.depth_of(node) for node in tree.parent}
    height = max(depth_of.values(), default=0)

    def sweep(limit: int) -> list[Any]:
        out: list[Any] = []

        def visit(node: Any) -> None:
            out.append(node)
            for child in tree.children[node]:
                if depth_of[child] <= limit:
                    visit(child)
                    out.append(node)

        visit(tree.root)
        return out

    tour: list[Any] = []
    for k in range(1, height + 1):
        part = sweep(k)
        if tour and part:
            part = part[1:]  # the previous sweep already ended at the root
        tour.extend(part)
    # Trim the tail after the last first-visit.
    seen: set[Any] = set()
    last_new = 0
    for index, node in enumerate(tour):
        if node not in seen:
            seen.add(node)
            last_new = index
    return tour[: last_new + 1]


def layered_broadcast_header(tree: Tree, ids: IdLookup) -> tuple[int, ...]:
    """ANR header for the layered one-packet broadcast.

    Copy IDs fire at each node's first departure, exactly as in the DFS
    broadcast; the difference is only the (much longer) tour shape.
    """
    tour = layered_tour(tree)
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
    header.append(0)
    return tuple(header)


class LayeredBfsBroadcast(Protocol):
    """Standalone one-shot layered-BFS broadcast from a designated root.

    Requires a network whose ``dmax`` admits the O(n·d) header; building
    one on a default network raises :class:`PathTooLongError`, which is
    itself the point the footnote makes.
    """

    __slots__ = ("_root", "_adjacency", "_ids", "_body")

    def __init__(
        self,
        api: NodeApi,
        *,
        root: Any,
        adjacency: Mapping[Any, Iterable[Any]],
        ids: IdLookup,
        body: Any = None,
    ) -> None:
        super().__init__(api)
        self._root = root
        self._adjacency = adjacency
        self._ids = ids
        self._body = body

    def on_start(self, payload: Any) -> None:
        if self.api.node_id != self._root:
            return
        tree = bfs_tree(self._adjacency, self._root)
        self.api.report("received_at", self.api.now)
        header = layered_broadcast_header(tree, self._ids)
        if header:
            self.api.send(header, self._body)

    def on_packet(self, packet: Packet) -> None:
        self.api.report("received_at", self.api.now)
        self.api.report("body", packet.payload)
