"""The branching-paths broadcast (Section 3.1) and the naive baselines.

Planning (pure functions)
-------------------------
``plan_broadcast`` labels a spanning tree, decomposes it into branching
paths, and attaches a ready-to-send ANR header to each path (copy IDs at
every node, delivery at the last).  The plan travels inside the
broadcast message as the paper's "description of the tree, enabling
every starting node j of a new path to know that it is such a node".

Protocols
---------
* :class:`BranchingPathsBroadcast` — the paper's algorithm: exactly
  ``n`` system calls, time bounded by ``1 + log2 n`` units of P.
* :class:`DirectBroadcast` — the first naive alternative of Section 3.1
  (a direct message from the root to each node): ``O(n)`` system calls
  *and* ``O(n)`` time, because the root's sequential NCU must inject
  the messages one system call at a time (the multicast primitive only
  covers distinct outgoing links, and here routes share the root's
  links).

Both report ``received_at`` per node, so drivers can measure coverage
and completion time uniformly (see :func:`run_standalone_broadcast`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping

from ..hardware.anr import IdLookup, build_anr, path_broadcast_anr
from ..hardware.ncu import NodeApi
from ..hardware.packet import Packet
from ..metrics.accounting import MetricsSnapshot
from ..network.network import Network
from ..network.protocol import Protocol
from ..network.spanning import Tree, bfs_tree
from .labeling import label_tree
from .paths import BroadcastPath, decompose_paths


@dataclass(frozen=True)
class PathDirective:
    """One path of the plan: the nodes it covers and its ANR header."""

    nodes: tuple[Any, ...]
    header: tuple[int, ...]
    label: int
    chain_depth: int

    @property
    def start(self) -> Any:
        """The node that launches this path."""
        return self.nodes[0]


@dataclass(frozen=True)
class BroadcastPlan:
    """A labelled, decomposed, header-annotated broadcast tree."""

    root: Any
    directives: tuple[PathDirective, ...]
    max_label: int

    @property
    def chain_depth(self) -> int:
        """Longest chain of paths (the time bound in units of P)."""
        return max((d.chain_depth for d in self.directives), default=0)

    def starting_at(self, node: Any) -> tuple[PathDirective, ...]:
        """Directives the given node must launch upon being informed.

        In plan order, from an index built on the first call, so an
        informed node pays O(1) instead of a scan of the whole plan.
        """
        return self._by_start.get(node, ())

    @cached_property
    def _by_start(self) -> dict[Any, tuple[PathDirective, ...]]:
        """Start node -> its directives in plan order (built once per plan)."""
        index: dict[Any, list[PathDirective]] = {}
        for directive in self.directives:
            index.setdefault(directive.start, []).append(directive)
        return {node: tuple(directives) for node, directives in index.items()}

    @property
    def covered(self) -> frozenset:
        """All nodes the plan reaches (including the root)."""
        nodes = {self.root}
        for directive in self.directives:
            nodes.update(directive.nodes)
        return frozenset(nodes)


def plan_broadcast(tree: Tree, ids: IdLookup) -> BroadcastPlan:
    """Label ``tree``, decompose it into paths and build ANR headers.

    ``ids`` supplies the link IDs along tree edges — typically a lookup
    backed by the planner's topology database, so a stale view yields a
    plan whose headers may route into failed links (exactly the failure
    mode the one-way property is designed to survive).
    """
    labels = label_tree(tree)
    paths: list[BroadcastPath] = decompose_paths(tree, labels)
    directives = tuple(
        PathDirective(
            nodes=path.nodes,
            header=path_broadcast_anr(path.nodes, ids),
            label=path.label,
            chain_depth=path.chain_depth,
        )
        for path in paths
    )
    return BroadcastPlan(
        root=tree.root, directives=directives, max_label=labels[tree.root]
    )


@dataclass(frozen=True)
class BroadcastMessage:
    """Payload of a branching-paths broadcast packet.

    ``kind`` labels system calls in the metrics; ``body`` is the
    application data (a local topology for topology maintenance, an
    opaque token in the standalone benchmarks); ``plan`` carries the
    path directives every informed node consults.
    """

    origin: Any
    seq: int
    body: Any
    plan: BroadcastPlan
    kind: str = "bpath"


class BranchingPathsBroadcast(Protocol):
    """Standalone one-shot branching-paths broadcast.

    The designated root computes a minimum-hop spanning tree of the
    supplied adjacency view (the ground truth in benchmarks; a learned
    view inside topology maintenance), plans the decomposition, and
    launches all paths starting at itself — one system call, several
    outgoing links.  Every other node, upon receiving its copy, launches
    the paths starting at itself, again in one system call.

    System calls: exactly ``n`` (1 at the root + 1 per other node), plus
    the external START trigger.  Time: at most ``(1 + log2 n)`` software
    delays.
    """

    __slots__ = ("_root", "_adjacency", "_ids", "_body", "_received")

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
        self._received = False

    def on_start(self, payload: Any) -> None:
        if self.api.node_id != self._root:
            return
        tree = bfs_tree(self._adjacency, self._root)
        plan = plan_broadcast(tree, self._ids)
        message = BroadcastMessage(
            origin=self._root, seq=0, body=self._body, plan=plan
        )
        self._received = True
        self.api.report("received_at", self.api.now)
        self._launch(message)

    def on_packet(self, packet: Packet) -> None:
        message = packet.payload
        if not isinstance(message, BroadcastMessage) or self._received:
            return
        self._received = True
        self.api.report("received_at", self.api.now)
        self.api.report("body", message.body)
        self._launch(message)

    def _launch(self, message: BroadcastMessage) -> None:
        for directive in message.plan.starting_at(self.api.node_id):
            self.api.send(directive.header, message)


class DirectBroadcast(Protocol):
    """Naive baseline: the root sends each node its own direct message.

    The root walks its destination list one system call at a time: each
    involvement sends one direct message (over the minimum-hop route,
    no intermediate copies) plus a self-addressed continuation packet
    that triggers the next involvement.  This matches the paper's
    accounting for this scheme — ``O(n)`` system calls *and* ``O(n)``
    time, all of it serialized at the root's NCU.
    """

    __slots__ = ("_root", "_adjacency", "_ids", "_body", "_pending")

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
        self._pending: list[tuple[Any, ...]] = []

    def on_start(self, payload: Any) -> None:
        if self.api.node_id != self._root:
            return
        tree = bfs_tree(self._adjacency, self._root)
        self._pending = [
            tree.path_from_root(node)
            for node in tree.nodes
            if node != self._root
        ]
        self._pending.reverse()  # pop() sends nearest-first
        self.api.report("received_at", self.api.now)
        self._send_next()

    def on_packet(self, packet: Packet) -> None:
        payload = packet.payload
        if payload == "__direct_continue__":
            self._send_next()
            return
        self.api.report("received_at", self.api.now)
        self.api.report("body", payload)

    def _send_next(self) -> None:
        if not self._pending:
            return
        route = self._pending.pop()
        header = build_anr(route, self._ids, deliver=True)
        self.api.send(header, self._body)
        if self._pending:
            # Self-addressed packet: one more system call, next message.
            self.api.send((0,), "__direct_continue__")


def run_standalone_broadcast(
    net: Network,
    factory,
    root: Any,
    *,
    max_events: int = 5_000_000,
) -> "BroadcastRun":
    """Attach a broadcast protocol, trigger the root, run to quiescence.

    Returns a :class:`BroadcastRun` with the coverage map and the
    complexity deltas attributable to the broadcast (the START trigger
    is excluded from the system-call count, matching the paper's
    per-broadcast accounting).
    """
    net.attach(factory)
    before = net.metrics.snapshot()
    t0 = net.scheduler.now
    net.start([root])
    net.run_to_quiescence(max_events=max_events)
    delta = net.metrics.since(before)
    received = net.outputs_for_key("received_at")
    return BroadcastRun(
        root=root,
        received_at=received,
        metrics=delta,
        system_calls=delta.system_calls - delta.system_calls_by_kind.get("start", 0),
        elapsed=net.scheduler.now - t0,
    )


@dataclass(frozen=True)
class BroadcastRun:
    """Outcome of one standalone broadcast."""

    root: Any
    received_at: dict[Any, float]
    metrics: MetricsSnapshot
    system_calls: int
    elapsed: float

    @property
    def coverage(self) -> int:
        """Number of nodes that received the broadcast (root included)."""
        return len(self.received_at)

    def completion_time(self) -> float:
        """Time at which the last node was informed."""
        return max(self.received_at.values())
