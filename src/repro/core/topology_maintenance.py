"""Topology maintenance (Section 3): eventual consistency by broadcast.

Every node periodically broadcasts topology information with an
incremented sequence number; receivers keep, per origin, only the most
recent record.  When topological changes stop, all nodes converge to a
correct view of their connected component (Theorem 1).

The broadcast *strategy* is pluggable, which is exactly the paper's
discussion:

* ``"bpaths"`` — the branching-paths broadcast: n system calls,
  O(log n) time per broadcast, and one-way, so it survives failures
  (Lemma 2: every node on a still-active tree path is reached).
* ``"flood"`` — the ARPANET baseline: Θ(m) system calls, O(n) time.
* ``"dfs"`` — the single-packet DFS tour: n system calls, constant
  time, but **not** one-way; one failed link kills the rest of the
  tour, and the Section 3 six-node example never converges.
* ``"layered"`` — the footnote's layered BFS tour: constant time *and*
  prefix-coverage under failures, but Θ(n·d) headers (needs a network
  with a relaxed ``dmax``).

The broadcast *scope* is also selectable: ``"local"`` sends only the
origin's local topology (the ARPANET way; O(d) broadcasts to converge),
``"full"`` sends everything the origin currently knows (the paper's
"improved to log d" remark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from ..hardware.ids import NCU_ID
from ..hardware.link import LinkInfo
from ..hardware.ncu import NodeApi
from ..hardware.packet import Packet
from ..network.network import Network
from ..network.protocol import Protocol
from ..network.spanning import bfs_tree
from ..sim.errors import NotConvergedError
from .bfs_layered import layered_broadcast_header
from .broadcast import BroadcastPlan, plan_broadcast
from .dfs_broadcast import ChildOrder, dfs_broadcast_header

STRATEGIES = ("bpaths", "flood", "dfs", "layered")
SCOPES = ("local", "full")


@dataclass(frozen=True)
class TopoRecord:
    """One origin's local topology at one sequence number."""

    origin: Any
    seq: int
    links: tuple[LinkInfo, ...]


@dataclass(frozen=True)
class TopoMessage:
    """A topology broadcast in flight.

    ``records`` carries one or more origins' local topologies (one for
    scope="local", the sender's whole database for scope="full").
    ``plan`` is present only for the branching-paths strategy; flooding
    relies on ``msg_id`` dedup instead.
    """

    origin: Any
    seq: int
    records: tuple[TopoRecord, ...]
    plan: BroadcastPlan | None
    strategy: str
    kind: str = "topo"

    @property
    def msg_id(self) -> tuple[Any, int]:
        """Identity used for flood deduplication."""
        return (self.origin, self.seq)


class TopologyMaintenance(Protocol):
    """The periodic topology-maintenance protocol of Section 3.

    Broadcasts are triggered three ways: by a START signal (drivers use
    this to step "rounds" deterministically), by the optional periodic
    timer, and optionally by local link-state changes.
    """

    def __init__(
        self,
        api: NodeApi,
        *,
        strategy: str = "bpaths",
        scope: str = "full",
        period: float | None = None,
        broadcast_on_change: bool = False,
        dfs_child_order: ChildOrder | None = None,
    ) -> None:
        super().__init__(api)
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; pick from {STRATEGIES}")
        if scope not in SCOPES:
            raise ValueError(f"unknown scope {scope!r}; pick from {SCOPES}")
        self.strategy = strategy
        self.scope = scope
        self.period = period
        self.broadcast_on_change = broadcast_on_change
        self.dfs_child_order = dfs_child_order
        self.db: dict[Any, TopoRecord] = {}
        self.own_seq = 0
        self.broadcasts_sent = 0
        self._seen_floods: set[tuple[Any, int]] = set()

    # ------------------------------------------------------------------
    # Triggers
    # ------------------------------------------------------------------
    def on_start(self, payload: Any) -> None:
        self._broadcast()
        if self.period is not None:
            self.api.set_timer(self.period, tag="topo")

    def on_timer(self, tag: str, payload: Any) -> None:
        if tag != "topo":
            return
        self._broadcast()
        if self.period is not None:
            self.api.set_timer(self.period, tag="topo")

    def on_link_change(self, info: LinkInfo) -> None:
        if self.broadcast_on_change:
            self._broadcast()

    # ------------------------------------------------------------------
    # The broadcast itself
    # ------------------------------------------------------------------
    def _refresh_own_record(self) -> None:
        self.own_seq += 1
        self.db[self.api.node_id] = TopoRecord(
            origin=self.api.node_id, seq=self.own_seq, links=self.api.local_links()
        )

    def _records_to_send(self) -> tuple[TopoRecord, ...]:
        me = self.api.node_id
        if self.scope == "local":
            return (self.db[me],)
        return tuple(
            self.db[origin] for origin in sorted(self.db, key=repr)
        )

    def _broadcast(self) -> None:
        """One periodic execution: refresh, plan on Gi(t), send."""
        self._refresh_own_record()
        self.broadcasts_sent += 1
        me = self.api.node_id
        adjacency = self.view_adjacency()
        tree = bfs_tree(adjacency, me)
        records = self._records_to_send()

        if self.strategy == "bpaths":
            plan = plan_broadcast(tree, self._db_id_lookup)
            message = TopoMessage(
                origin=me,
                seq=self.own_seq,
                records=records,
                plan=plan,
                strategy=self.strategy,
            )
            for directive in plan.starting_at(me):
                self.api.send(directive.header, message)
            return

        message = TopoMessage(
            origin=me,
            seq=self.own_seq,
            records=records,
            plan=None,
            strategy=self.strategy,
        )
        if self.strategy == "flood":
            self._seen_floods.add(message.msg_id)
            self._flood(message, arrived_on=None)
        elif self.strategy == "dfs":
            header = dfs_broadcast_header(
                tree, self._db_id_lookup, self.dfs_child_order
            )
            if header:
                self.api.send(header, message)
        elif self.strategy == "layered":
            header = layered_broadcast_header(tree, self._db_id_lookup)
            if header:
                self.api.send(header, message)

    def _flood(self, message: TopoMessage, *, arrived_on: int | None) -> None:
        for info in self.api.active_links():
            if info.normal_at_u == arrived_on:
                continue
            self.api.send((info.normal_at_u, NCU_ID), message)

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        message = packet.payload
        if not isinstance(message, TopoMessage):
            return
        if message.strategy == "flood":
            if message.msg_id in self._seen_floods:
                return  # duplicate: one system call, no new work
            self._seen_floods.add(message.msg_id)
        self._merge(message.records)
        if message.strategy == "flood":
            arrived_on = packet.reverse_anr[0] if packet.reverse_anr else None
            self._flood(message, arrived_on=arrived_on)
        elif message.strategy == "bpaths" and message.plan is not None:
            for directive in message.plan.starting_at(self.api.node_id):
                self.api.send(directive.header, message)

    def _merge(self, records: Iterable[TopoRecord]) -> None:
        for record in records:
            if record.origin == self.api.node_id:
                continue  # a node is the sole authority on its own row
            current = self.db.get(record.origin)
            if current is None or record.seq > current.seq:
                self.db[record.origin] = record

    # ------------------------------------------------------------------
    # The derived view Gi(t)
    # ------------------------------------------------------------------
    def view_edges(self) -> set[tuple[Any, Any]]:
        """Active edges in this node's current topology view.

        A link counts as active when every endpoint that has an opinion
        (a record mentioning the link) reports it active; a failure
        reported by either side removes the edge from the view.  The
        node's own row is refreshed live.
        """
        self.db[self.api.node_id] = TopoRecord(
            origin=self.api.node_id,
            seq=self.own_seq,
            links=self.api.local_links(),
        )
        claims: dict[tuple[Any, Any], list[bool]] = {}
        for record in self.db.values():
            for info in record.links:
                claims.setdefault(info.key, []).append(info.active)
        return {key for key, votes in claims.items() if all(votes)}

    def view_adjacency(self) -> dict[Any, tuple[Any, ...]]:
        """Adjacency mapping of the view (input to BFS-tree planning)."""
        adjacency: dict[Any, set[Any]] = {self.api.node_id: set()}
        for u, v in self.view_edges():
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        return {
            node: tuple(sorted(neighbors, key=repr))
            for node, neighbors in adjacency.items()
        }

    def _db_id_lookup(self, a: Any, b: Any) -> tuple[int, int]:
        """ANR ID lookup backed by the learned database.

        Either endpoint's record describes both sides of the link, so
        one fresh record suffices to route across it.
        """
        record = self.db.get(a)
        if record is not None:
            for info in record.links:
                if info.v == b:
                    return (info.normal_at_u, info.copy_at_u)
        record = self.db.get(b)
        if record is not None:
            for info in record.links:
                if info.v == a:
                    return (info.normal_at_v, info.copy_at_v)
        raise KeyError((a, b))


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def attach_topology_maintenance(
    net: Network,
    *,
    strategy: str = "bpaths",
    scope: str = "full",
    period: float | None = None,
    broadcast_on_change: bool = False,
    dfs_child_order: ChildOrder | None = None,
) -> None:
    """Attach the protocol with uniform settings to every node."""
    net.attach(
        lambda api: TopologyMaintenance(
            api,
            strategy=strategy,
            scope=scope,
            period=period,
            broadcast_on_change=broadcast_on_change,
            dfs_child_order=dfs_child_order,
        )
    )


def is_converged(net: Network) -> bool:
    """Theorem 1's condition: each node knows its component correctly.

    For every connected component of the *actual* active topology, every
    member's view must contain exactly the component's active edges
    (among component nodes; opinions about other components may be
    stale, as the paper allows).
    """
    import networkx as nx

    actual = net.active_graph()
    for component in nx.connected_components(actual):
        component_edges = {
            tuple(sorted(edge, key=repr))
            for edge in actual.subgraph(component).edges
        }
        for node_id in component:
            protocol = net.node(node_id).protocol
            view = nx.Graph()
            view.add_node(node_id)
            view.add_edges_from(protocol.view_edges())
            believed_component = nx.node_connected_component(view, node_id)
            if believed_component != component:
                return False  # e.g. a detached leaf still believed attached
            believed_edges = {
                tuple(sorted(edge, key=repr))
                for edge in view.subgraph(believed_component).edges
            }
            if believed_edges != component_edges:
                return False
    return True


@dataclass(frozen=True)
class ConvergenceResult:
    """Outcome of a round-stepped convergence run."""

    converged: bool
    rounds: int
    system_calls: int
    elapsed: float


def converge_by_rounds(
    net: Network,
    *,
    max_rounds: int = 64,
    max_events_per_round: int = 5_000_000,
    require: bool = True,
) -> ConvergenceResult:
    """Step broadcast rounds until every node's view is correct.

    Each round triggers one broadcast at every node (via START signals)
    and runs to quiescence — the deterministic stand-in for the paper's
    periodic execution.  Raises :class:`NotConvergedError` after
    ``max_rounds`` when ``require`` is set (the DFS strategy on the
    six-node example does exactly that).
    """
    before = net.metrics.snapshot()
    t0 = net.scheduler.now
    for round_number in range(1, max_rounds + 1):
        net.start(at=net.scheduler.now)
        net.run_to_quiescence(max_events=max_events_per_round)
        if is_converged(net):
            return ConvergenceResult(
                converged=True,
                rounds=round_number,
                system_calls=net.metrics.since(before).system_calls,
                elapsed=net.scheduler.now - t0,
            )
    if require:
        raise NotConvergedError(
            f"no convergence after {max_rounds} broadcast rounds"
        )
    return ConvergenceResult(
        converged=False,
        rounds=max_rounds,
        system_calls=net.metrics.since(before).system_calls,
        elapsed=net.scheduler.now - t0,
    )
