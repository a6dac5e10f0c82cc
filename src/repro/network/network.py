"""The network: nodes, links, and the simulation harness around them.

``Network`` assembles the hardware substrate from a graph, owns the
scheduler / delay model / metrics / trace, attaches protocols, injects
START signals, and applies link failures with data-link notification.

``run()`` and ``reset()`` are the fold point where an active perf
registry reads the counts the scheduler, metrics and trace keep anyway,
so the hot path carries no perf hook for them.

A note on ``dmax``: the paper bounds the length of hardware paths and
suggests the network diameter or the number of nodes as natural values.
The default here is ``2 * n + 2`` because the leader election's return
routes concatenate two linear-length ANRs (Section 4.1); callers may
tighten it to the diameter to study the restriction.
"""

from __future__ import annotations

import gc
import itertools
from array import array
from collections import Counter
from functools import cached_property
from operator import itemgetter, sub
from time import perf_counter as _perf_counter
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..hardware.ids import LinkIdSpace
from ..hardware.link import Link
from ..hardware.ncu import Job, JobKind
from ..hardware.node import Node
from ..metrics.accounting import MetricsCollector
from ..sim.delays import DelayModel, limiting_model
from ..sim.errors import ProtocolError
from ..sim.scheduler import Scheduler
from ..sim.trace import Trace, TraceKind
from .datalink import DataLinkMonitor
from .protocol import ProtocolFactory
from .topologies import Topology, diameter, pseudo_diameter, reachable

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


class UnknownNodeError(ValueError):
    """A node ID that names no node of the network; the message names it."""


class Network:
    """A simulated fast network with SS/NCU nodes."""

    #: Perf-counter registry (see :mod:`repro.obs.perf`).  A class
    #: attribute set by ``PerfCounters.activate()``, so it reaches every
    #: network — including those built inside campaign task functions.
    #: Read by :meth:`run`, its fold and the substrate pool; no hop,
    #: link transition or system call reads it.
    perf: Any = None

    def __init__(
        self,
        graph: Topology | nx.Graph,
        *,
        delays: DelayModel | None = None,
        dmax: int | None = None,
        trace: bool = False,
        trace_capacity: int | None = None,
        datalink_delay: float = 0.0,
    ) -> None:
        """Assemble the substrate from ``graph.nodes`` and ``graph.edges``.

        ``graph`` is a :class:`~repro.network.topologies.Topology` or an
        ``nx.Graph`` — both are read through those two attributes, with
        ``nx.Graph`` insertion semantics, and neither is kept: the
        network never aliases its input, and :attr:`graph` is rebuilt
        from the link table when first read.
        """
        # Pause the cyclic GC for the whole build (restored in the
        # ``finally`` below).  Construction allocates O(n + m) objects
        # that are all retained, so collections triggered mid-build can
        # never free anything — they only scan and promote, and at
        # 10⁴–10⁵ nodes those pauses dominate the build itself.  The
        # standard bulk-load idiom; prior GC state is preserved.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._build(
                graph.nodes,
                graph.edges,
                delays=delays,
                dmax=dmax,
                trace=trace,
                trace_capacity=trace_capacity,
                datalink_delay=datalink_delay,
            )
        finally:
            if gc_was_enabled:
                gc.enable()

    def _build(
        self,
        nodes: Iterable[Any],
        edges: Iterable[tuple[Any, Any]],
        *,
        delays: DelayModel | None,
        dmax: int | None,
        trace: bool,
        trace_capacity: int | None,
        datalink_delay: float,
    ) -> None:
        edges = list(edges)
        order = Topology(nodes, edges).node_order()
        if not order:
            raise ValueError("a network needs at least one node")
        #: Node order of the input; :attr:`graph` and :meth:`active_graph`
        #: hold their nodes in this order.
        self._node_order = order
        self.scheduler = Scheduler()
        self.delays = delays if delays is not None else limiting_model()
        self.metrics = MetricsCollector(self)
        self.trace = Trace(enabled=trace, capacity=trace_capacity)
        self.dmax = dmax if dmax is not None else 2 * len(order) + 2
        #: Protocol-reported outputs: output name -> node ID -> value,
        #: nodes in the order they first reported that name.
        self.outputs: dict[str, dict[Any, Any]] = {}
        #: Observability probe (see :mod:`repro.obs.live`).  ``None``
        #: means disabled; the NCU and SS hot paths then pay one
        #: attribute load + identity check per hook site.  Install via
        #: ``LiveStats.install(net)`` rather than assigning directly.
        self.probe: Any = None

        self._packet_seq = itertools.count(1)
        self._group_seq = itertools.count(0)
        self._datalink = DataLinkMonitor(self, delay=datalink_delay)
        #: Remembered by :meth:`attach` so crashed nodes can be
        #: restarted with fresh protocol instances.
        self._protocol_factory: ProtocolFactory | None = None
        #: IDs of the nodes that are down: ``Node.crash`` adds,
        #: ``Node.restart`` discards, :meth:`reset` clears.  Checks that
        #: concern crashed nodes read it instead of every NCU.
        self.crashed_nodes: set[Any] = set()
        #: Counts read at the previous fold (see :meth:`_fold`).
        self._fold_marks = (0, 0, 0, 0, 0)
        #: The one scratch set behind every NCU's ``ports_used_this_call``:
        #: handlers never nest, so one set serves every node, cleared at
        #: the start of each handler invocation.
        self.call_ports: set[int] = set()

        #: Bumped whenever a link changes state; the derived-view caches
        #: (``adjacency`` / ``components`` / ``diameter``) key on it.
        self._topology_version = 0
        self._adjacency_cache: tuple[int, dict[Any, tuple[Any, ...]]] | None = None
        self._components_cache: tuple[int, tuple[frozenset, ...]] | None = None
        self._diameter_cache: tuple[tuple[int, bool], int] | None = None

        # Each pair oriented by node order — exactly what
        # ``nx.Graph.edges`` yields — with repeats merged into their
        # first occurrence.
        position = dict(zip(order, range(len(order))))
        pairs = list(dict.fromkeys([
            (u, v) if position[u] < position[v] else (v, u) for u, v in edges
        ]))
        # The build lets go of its scaffolding as soon as it has read
        # it, so its traced peak stays near what it keeps.
        del edges
        degree = Counter(itertools.chain.from_iterable(pairs))
        id_space = LinkIdSpace(capacity=max(degree.values(), default=1))
        del degree
        self.id_space = id_space

        # One fused pass over nodes and edges: links are created in
        # repr-sorted order and each one takes the next local ID at both
        # endpoints, so each node's port list grows in local-ID order.
        # The per-edge work is inlined: at 10⁴–10⁵ nodes the call
        # overhead was the build-time wall (see docs/PERFORMANCE.md
        # § Construction at scale).
        #
        # The repr of every node is needed many times below (node order,
        # edge order, link keys); compute each exactly once.
        reprs = dict(zip(order, map(repr, order)))
        self.nodes: dict[Any, Node] = {
            node_id: Node(node_id, self, id_space)
            for node_id in sorted(order, key=reprs.__getitem__)
        }
        links: list[Link] = []
        nodes = self.nodes
        # Each node's port table as it grows: entry ``i`` is the link
        # with normal ID ``i``, entry 0 the NCU (no link).
        port_lists: dict[Any, list[Link | None]] = {node_id: [None] for node_id in nodes}
        link_new = Link.__new__
        # Decorate-sort-undecorate beats ``sorted(key=...)`` here: the
        # list comp builds the sort keys at comprehension speed instead
        # of one lambda frame per edge.  Links are ordered by endpoint
        # reprs; equal reprs fall back to ``nx.Graph.edges`` order
        # (first endpoint's node position, then first occurrence), so
        # node objects are never compared.
        decorated = [
            (reprs[u], reprs[v], position[u], i) for i, (u, v) in enumerate(pairs)
        ]
        # The sort keys hold every repr and position still needed.
        del position, reprs
        decorated.sort()
        #: First-occurrence rank of each link, in link order: replaying
        #: the pairs by rank rebuilds the input's ``edges`` order (see
        #: :attr:`graph`).
        self._edge_rank = array("I", map(itemgetter(3), decorated))
        # Each sort entry and each pair is released in place as it is
        # read.
        for k, (repr_u, repr_v, _, i) in enumerate(decorated):
            decorated[k] = None
            u, v = pairs[i]
            pairs[i] = None
            if u == v:
                raise ValueError("self-loops are not supported")
            ports_u = port_lists[u]
            ports_v = port_lists[v]
            # Normal ID = position in the port table (0 is the NCU);
            # the range check in ``LinkIdSpace.normal_id`` is redundant
            # here because ``capacity`` is the maximum degree by
            # construction.
            normal_u = len(ports_u)
            normal_v = len(ports_v)
            node_u = nodes[u]
            node_v = nodes[v]
            # The one place a Link is made: every slot set here (their
            # meanings are in the class body).
            link = link_new(Link)
            link.node_u = node_u
            link.node_v = node_v
            link._normal_u = normal_u
            link._normal_v = normal_v
            link.active = True
            link.key = (u, v) if repr_u <= repr_v else (v, u)
            link._arrival_u = 0.0
            link._arrival_v = 0.0
            link.hops = 0
            link.fc = None
            links.append(link)
            ports_u.append(link)
            ports_v.append(link)
        #: Every link in build (repr-sorted) order: what every walk over
        #: the links reads.  :attr:`links` is keyed from it when read.
        self._links: tuple[Link, ...] = tuple(links)
        for node_id, node in nodes.items():
            node.ports = tuple(port_lists.pop(node_id))

    def topology(self) -> Topology:
        """The full topology (every link, active or not) as a :class:`Topology`.

        The input's nodes, then its distinct ``edges`` in first-occurrence
        order, each oriented as ``nx.Graph.edges`` would yield it — read
        off the link table, without networkx.  A new object per call.
        """
        ranked = sorted(zip(self._edge_rank, self._links), key=itemgetter(0))
        return Topology(
            tuple(self._node_order),
            tuple((link.node_u.node_id, link.node_v.node_id) for _, link in ranked),
        )

    @cached_property
    def links(self) -> dict[tuple[Any, Any], Link]:
        """Every link keyed by :attr:`Link.key <repro.hardware.link.Link.key>`,
        in build (repr-sorted) order.

        Built from the build's link tuple on first read and kept, as
        :attr:`graph` is: a run that never looks a link up by its
        endpoints (a flood, say) never makes the dict.
        """
        return {link.key: link for link in self._links}

    @cached_property
    def _node_ids(self) -> tuple[Any, ...]:
        """Node IDs in node-table order: the keys of every per-node count
        map (see :class:`repro.metrics.accounting.CountMap`)."""
        return tuple(self.nodes)

    @cached_property
    def _link_keys(self) -> tuple[tuple[Any, Any], ...]:
        """Link keys in build order: the keys of every per-link count map."""
        return tuple(link.key for link in self._links)

    @cached_property
    def graph(self) -> nx.Graph:
        """The full topology (every link, active or not) as an ``nx.Graph``.

        Built from :meth:`topology` on first read and kept; construction
        never needs it.  It is this network's own object, never the
        caller's graph.
        """
        return self.topology().to_graph()

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def m(self) -> int:
        """Number of links."""
        return len(self._links)

    def node(self, node_id: Any) -> Node:
        """Node object by ID."""
        return self.nodes[node_id]

    def link(self, u: Any, v: Any) -> Link:
        """Link object by (unordered) endpoint pair (KeyError if none)."""
        return self.nodes[u].link_to(v)

    def set_flow_control(
        self,
        *,
        rate: float | None = None,
        buffer: int | None = None,
        links: "list[tuple[Any, Any]] | None" = None,
    ) -> int:
        """Apply credit-based flow control network-wide (or to ``links``).

        ``rate`` is the per-direction bandwidth in packets per time
        unit, ``buffer`` the per-direction credit window; both ``None``
        removes flow control (see
        :meth:`repro.hardware.link.Link.set_flow_control`).  Returns the
        number of links configured.
        """
        if links is None:
            targets = self._links
        else:
            targets = [self.link(u, v) for u, v in links]
        for link in targets:
            link.set_flow_control(rate=rate, buffer=buffer)
        return len(targets)

    def flow_states(self) -> "list[tuple[Link, Any]]":
        """All ``(link, LinkFlowState)`` directions with flow control on.

        Deterministic order: links in build (repr-sorted) order, the
        two directions in each link's endpoint order.
        """
        out = []
        for link in self._links:
            if link.fc is not None:
                for state in link.fc.values():
                    out.append((link, state))
        return out

    #: Above this node count ``diameter()`` switches from the exact
    #: all-pairs BFS to the two-sweep pseudo-diameter (a lower bound,
    #: exact on every generator in :mod:`repro.network.topologies`) —
    #: the exact computation is O(n·m), a minutes-long wall at fabric
    #: scale.  Pass ``exact=True`` to force the full computation.
    EXACT_DIAMETER_MAX_NODES = 2048

    def diameter(self, *, exact: bool | None = None) -> int:
        """Hop diameter of the (current, active) topology, from :meth:`adjacency`.

        ``exact=None`` (default) computes exactly up to
        :attr:`EXACT_DIAMETER_MAX_NODES` nodes and falls back to the
        two-sweep BFS pseudo-diameter beyond that (see
        :func:`repro.network.topologies.pseudo_diameter` for the
        accuracy contract); ``exact=True`` / ``exact=False`` force one
        side.  Memoised on the topology version and the method, so a
        repeated call with unchanged link state runs no BFS, and a
        forced lower bound is never returned as the exact answer.
        Raises :class:`ValueError` when the active topology is
        disconnected.
        """
        if exact is None:
            exact = self.n <= self.EXACT_DIAMETER_MAX_NODES
        key = (self._topology_version, exact)
        cached = self._diameter_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        value = (diameter if exact else pseudo_diameter)(self.adjacency())
        self._diameter_cache = (key, value)
        return value

    def active_graph(self) -> nx.Graph:
        """The topology restricted to active links, as a new ``nx.Graph``."""
        active = [link.key for link in self._links if link.active]
        return Topology(self._node_order, active).to_graph()

    # ------------------------------------------------------------------
    # Substrate reuse
    # ------------------------------------------------------------------
    def reset(self, *, delays: DelayModel | None = None) -> "Network":
        """Restore this network to its pristine pre-:meth:`attach` state.

        The expensive build products survive — node objects, links,
        SS port tables, ID assignments, ``Link.key``\\s, and
        :attr:`links` and :attr:`graph` once built — while every piece
        of *run* state is renewed: a fresh :class:`Scheduler` (time 0,
        sequence 0), fresh :class:`MetricsCollector` and :class:`Trace`
        (same ``enabled``/``capacity`` configuration), empty outputs, no
        protocol on any node, empty NCU queues and zero
        ``NCU.system_calls``, no installed multicast groups, all links
        active with FIFO watermarks and ``Link.hops`` at 0,
        restarted packet/group sequences, a cleared data-link monitor,
        no crashed nodes and no observability probe (an installed one is
        uninstalled; install it again to observe the next run).  The old
        run's counts are folded into an active perf registry first (see
        :meth:`run`).

        The contract is **bit-identity**: a workload run on a reset
        network produces byte-for-byte the same metrics, drop reasons,
        routes and trace stream as on a freshly constructed one (locked
        by the golden-equivalence suite).  What reset deliberately does
        NOT renew is the delay model — models with RNG state
        (:class:`~repro.sim.delays.RandomDelays`) keep their stream
        unless a replacement is passed via ``delays``; pass a freshly
        seeded model to reproduce a fresh build exactly.

        Returns ``self`` so callers can chain ``net.reset().attach(...)``.
        """
        self._fold()
        if self.probe is not None:
            self.probe.uninstall()  # freezes its hops before the links reset
        self.scheduler = Scheduler()
        self.metrics = MetricsCollector(self)
        self.trace = Trace(enabled=self.trace.enabled, capacity=self.trace.capacity)
        self._fold_marks = (0, 0, 0, 0, 0)
        self.outputs = {}
        self.probe = None
        self._packet_seq = itertools.count(1)
        self._group_seq = itertools.count(0)
        self._protocol_factory = None
        self.crashed_nodes = set()
        if delays is not None:
            self.delays = delays
        self._datalink.reset()
        topology_touched = False
        for link in self._links:
            if not link.active:
                topology_touched = True
            link.reset()
        if topology_touched:
            # Links came back up: invalidate the derived-view caches.
            # When nothing ever failed they stay warm across resets.
            self._topology_version += 1
        for node in self.nodes.values():
            node.reset()
        return self

    # ------------------------------------------------------------------
    # Protocol lifecycle
    # ------------------------------------------------------------------
    def attach(self, factory: ProtocolFactory) -> None:
        """Instantiate the protocol on every node (``Node.protocol``)."""
        self._protocol_factory = factory
        for node in self.nodes.values():
            node.protocol = factory(node.ncu)

    def start(
        self,
        node_ids: Iterable[Any] | None = None,
        *,
        payload: Any = None,
        at: float | None = None,
    ) -> None:
        """Deliver START signals (each one is an NCU job, hence a system
        call) to the given nodes — all nodes by default — at time ``at``
        (default: the current simulated time).  An ID that names no node
        raises :class:`UnknownNodeError` before any START is scheduled."""
        if at is None:
            at = self.scheduler.now
        nodes = self.nodes
        if node_ids is None:
            targets = list(nodes)
        else:
            targets = list(node_ids)
            for node_id in targets:
                if node_id not in nodes:
                    raise UnknownNodeError(f"no node {node_id!r} in the network")
        for node_id in targets:
            # Long-lived bound method + args, not a per-node closure —
            # the convention every hot scheduling site follows.
            self.scheduler.schedule_at(
                at,
                nodes[node_id].ncu.enqueue,
                priority=2,
                tag="start",
                args=(Job(kind=JobKind.START, payload=payload),),
            )

    def run(self, **kwargs: Any) -> float:
        """Run the scheduler (see :meth:`repro.sim.Scheduler.run`).

        Every exit, normal or not, folds into an active perf registry
        (see :meth:`_fold`), which also gets the wall time as ``sched_run_s``.
        """
        perf = self.perf
        t0 = _perf_counter() if perf is not None else 0.0
        try:
            return self.scheduler.run(**kwargs)
        finally:
            if perf is not None:
                perf.sched_run_s += _perf_counter() - t0
            self._fold()

    def run_to_quiescence(self, max_events: int = 5_000_000) -> float:
        """Run until no events remain; returns the final time."""
        return self.run(max_events=max_events)

    def _fold(self) -> None:
        """Hand an active perf registry the counts since the previous fold.

        The marks advance with no registry active too, so dormant work is
        never attributed later.  Work driven through ``scheduler.run()`` or
        ``step()`` directly waits for the next :meth:`run` or :meth:`reset`.
        """
        sched = self.scheduler
        marks = (sched.scheduled, sched.events_processed, sched.cancelled_dropped,
                 self.metrics.hops, len(self.trace))
        if self.perf is not None:
            self.perf.fold(*map(sub, marks, self._fold_marks))
        self._fold_marks = marks

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def record_output(self, node_id: Any, key: str, value: Any) -> None:
        """Store a protocol-reported output (see ``api.report``)."""
        self.outputs.setdefault(key, {})[node_id] = value

    def output(self, node_id: Any, key: str, default: Any = None) -> Any:
        """Read back a protocol-reported output."""
        return self.outputs.get(key, {}).get(node_id, default)

    def outputs_for_key(self, key: str) -> dict[Any, Any]:
        """All nodes' values for one output key, in first-report order."""
        return dict(self.outputs.get(key, {}))

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def fail_link(self, u: Any, v: Any) -> None:
        """Deactivate a link now; endpoints learn via the data link."""
        self._set_link_state(self.link(u, v), active=False)

    def restore_link(self, u: Any, v: Any) -> None:
        """Reactivate a link now; endpoints learn via the data link."""
        self._set_link_state(self.link(u, v), active=True)

    def fail_node(self, node_id: Any) -> None:
        """Model a node failure: deactivate all its links (Section 2)."""
        for link in self.nodes[node_id].ports[1:]:
            self.fail_link(*link.key)

    def restore_node(self, node_id: Any) -> None:
        """Reactivate all links of a previously failed node."""
        for link in self.nodes[node_id].ports[1:]:
            self.restore_link(*link.key)

    def crash_node(self, node_id: Any) -> None:
        """Crash a node: links go down, NCU state is lost (Section 2 +
        churn extension).

        Unlike :meth:`fail_node` — which only severs the links and
        leaves the software intact — a crash also destroys the node's
        protocol state, queued jobs, in-service job and pending timers.
        Jobs arriving while crashed are dropped (``ncu_crashed``).
        """
        node = self.nodes[node_id]
        for link in node.ports[1:]:
            self._set_link_state(link, active=False)
        node.crash()

    def restart_node(self, node_id: Any, *, start: bool = True) -> None:
        """Restart a crashed node with a blank protocol instance.

        The software comes up *before* the links, so the fresh instance
        observes its links returning via ``on_link_change`` — the
        restart-triggered rejoin signal.  With ``start=True`` (default)
        a START job is also enqueued, modelling a boot script that
        launches the protocol, which is what triggers re-elections.
        """
        if self._protocol_factory is None:
            raise ProtocolError(
                f"cannot restart node {node_id}: no protocol was attached"
            )
        node = self.nodes[node_id]
        node.restart(self._protocol_factory)
        for link in node.ports[1:]:
            self._set_link_state(link, active=True)
        if start:
            node.ncu.enqueue(Job(kind=JobKind.START, payload=None))

    def partition(self, groups: Iterable[Iterable[Any]]) -> list[tuple[Any, Any]]:
        """Cut every active link between distinct groups of nodes.

        ``groups`` are disjoint sets of node IDs; nodes not listed in
        any group form one implicit extra group.  Links *within* a group
        are untouched, so each side keeps operating — and electing its
        own coordinator — independently.  Returns the keys of the links
        cut, in build order (deterministic).
        """
        index: dict[Any, int] = {}
        for i, group in enumerate(groups):
            for node_id in group:
                if node_id not in self.nodes:
                    raise ValueError(f"unknown node {node_id!r} in partition group")
                if node_id in index:
                    raise ValueError(
                        f"node {node_id!r} appears in two partition groups"
                    )
                index[node_id] = i
        cut: list[tuple[Any, Any]] = []
        for link in self._links:
            u, v = link.key
            if link.active and index.get(u, -1) != index.get(v, -1):
                self._set_link_state(link, active=False)
                cut.append(link.key)
        return cut

    def heal(self) -> list[tuple[Any, Any]]:
        """Reactivate every inactive link; returns their keys.

        Links of still-crashed nodes come back up too — the hardware
        heals even when the software is down; packets reaching a crashed
        NCU are dropped until it restarts.
        """
        healed: list[tuple[Any, Any]] = []
        for link in self._links:
            if not link.active:
                self._set_link_state(link, active=True)
                healed.append(link.key)
        return healed

    def schedule_link_failure(self, u: Any, v: Any, at: float) -> None:
        """Deactivate a link at a future simulated time."""
        self.scheduler.schedule_at(at, self.fail_link, tag="fail", args=(u, v))

    def schedule_link_restore(self, u: Any, v: Any, at: float) -> None:
        """Reactivate a link at a future simulated time."""
        self.scheduler.schedule_at(at, self.restore_link, tag="restore", args=(u, v))

    def _set_link_state(self, link: Link, *, active: bool) -> None:
        if link.active == active:
            return
        link.active = active
        self._topology_version += 1
        if self.trace.enabled:
            self.trace.record(
                self.scheduler.now,
                TraceKind.LINK_STATE,
                None,
                link=link.key,
                active=active,
            )
        self._datalink.link_changed(link)

    # ------------------------------------------------------------------
    # Omniscient helpers (drivers and tests, not protocols)
    # ------------------------------------------------------------------
    def next_packet_seq(self) -> int:
        """Fresh network-unique packet number."""
        return next(self._packet_seq)

    def id_lookup(self, a: Any, b: Any) -> tuple[int, int]:
        """Omniscient ANR ID lookup: IDs of link (a, b) at a's side.

        Protocols must *not* call this — they learn IDs from local
        topology and received messages; it exists for tests, drivers and
        baseline algorithms that the paper grants full routing tables.
        """
        return self.nodes[a].link_to(b).ids_at(a)

    def allocate_group_id(self) -> int:
        """A fresh network-unique multicast-group ID (hardware extension)."""
        return self.id_space.group_base + next(self._group_seq)

    def install_multicast_tree(self, tree) -> int:
        """Omniscient driver helper: install a multicast tree everywhere.

        Protocols should install groups through the setup broadcast
        (see :class:`repro.core.group_multicast.GroupMulticast`), which
        pays the system calls; this shortcut exists for tests and for
        modelling pre-provisioned hardware state.
        """
        group_id = self.allocate_group_id()
        for node_id in tree.parent:
            node = self.nodes[node_id]
            links = tuple(node.link_to(child) for child in tree.children[node_id])
            node.install_group(group_id, links, to_ncu=node_id != tree.root)
        return group_id

    def adjacency(self) -> Mapping[Any, tuple[Any, ...]]:
        """Deterministic adjacency view of the active topology.

        Memoised on the topology version; callers share the cached
        mapping, so treat it as a read-only view.
        """
        cached = self._adjacency_cache
        version = self._topology_version
        if cached is not None and cached[0] == version:
            return cached[1]
        # Read off the port tables: ``self.nodes`` is already in repr
        # order, and each node's ports in local-ID order.
        adjacency = {
            node_id: tuple(sorted(
                (link.other(node_id).node_id for link in node.ports[1:] if link.active),
                key=repr,
            ))
            for node_id, node in self.nodes.items()
        }
        self._adjacency_cache = (version, adjacency)
        return adjacency

    def components(self) -> tuple[frozenset, ...]:
        """Connected components of the active topology, from the link table.

        The sets ``nx.connected_components(self.active_graph())`` yields,
        in the same order — by each component's first node in input
        order — without building a graph or importing networkx.
        Memoised on the topology version.
        """
        cached = self._components_cache
        version = self._topology_version
        if cached is not None and cached[0] == version:
            return cached[1]
        adjacency = self.adjacency()
        seen: set[Any] = set()
        components = []
        for source in self._node_order:
            if source not in seen:
                component = frozenset(reachable(adjacency, source))
                seen |= component
                components.append(component)
        result = tuple(components)
        self._components_cache = (version, result)
        return result
