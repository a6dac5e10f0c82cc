"""Hardware multicast groups: the paper's "more powerful models" remark.

Section 2 notes that the SS formalism — "outputs y over every link i
such that x ∈ Li" — admits more powerful hardware in which one ID
belongs to several links' sets.  This module explores that extension:

* a **setup phase** disseminates a spanning tree with the Section 3
  branching-paths broadcast; each node, inside the system call that
  receives the setup, installs a *group ID* at its SS whose member set
  is its tree-children links (plus its own NCU);
* afterwards, a network-wide broadcast is **one injection**: the packet
  replicates through hardware along the installed tree, every NCU gets
  a copy in one time unit and one system call.

The trade-off this quantifies (ablation E12): per broadcast, the
installed tree wins on time (1 vs. log n) and on header size (1 ID vs.
one path header per path) — but the state lives in hardware, so every
topology change costs a fresh n-system-call setup, whereas the
stateless branching-paths broadcast re-plans from the root's map for
free.  Steady state favours groups; churn favours Section 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..hardware.anr import IdLookup
from ..hardware.ncu import NodeApi
from ..hardware.packet import Packet
from ..metrics.accounting import MetricsSnapshot
from ..network.network import Network
from ..network.protocol import Protocol
from ..network.spanning import bfs_tree
from ..sim.errors import ProtocolError
from .broadcast import BroadcastPlan, plan_broadcast


@dataclass(frozen=True)
class GroupSetup:
    """Setup broadcast payload: install this tree as a hardware group."""

    group_id: int
    root: Any
    children: Mapping[Any, tuple[Any, ...]]
    plan: BroadcastPlan
    kind: str = "group_setup"


@dataclass(frozen=True)
class GroupData:
    """An application message multicast over an installed group."""

    body: Any
    seq: int
    kind: str = "group_data"


class GroupMulticast(Protocol):
    """Setup-then-multicast protocol over hardware groups.

    START payloads drive it: ``None`` (or ``"setup"``) triggers the
    setup broadcast at the root; ``("multicast", body)`` injects one
    group-addressed packet.  Non-root nodes ignore STARTs.
    """

    __slots__ = (
        "_root", "_adjacency", "_ids", "_group_id", "_installed", "_seq",
    )

    def __init__(
        self,
        api: NodeApi,
        *,
        root: Any,
        adjacency: Mapping[Any, Iterable[Any]],
        ids: IdLookup,
        group_id: int,
    ) -> None:
        super().__init__(api)
        self._root = root
        self._adjacency = adjacency
        self._ids = ids
        self._group_id = group_id
        self._installed = False
        self._seq = 0

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def on_start(self, payload: Any) -> None:
        if self.api.node_id != self._root:
            return
        if payload is None or payload == "setup":
            self._setup()
        elif isinstance(payload, tuple) and payload[0] == "multicast":
            self.multicast(payload[1])
        else:
            raise ProtocolError(f"unknown START payload {payload!r}")

    def _setup(self) -> None:
        tree = bfs_tree(self._adjacency, self._root)
        plan = plan_broadcast(tree, self._ids)
        message = GroupSetup(
            group_id=self._group_id,
            root=self._root,
            children={node: tree.children[node] for node in tree.parent},
            plan=plan,
        )
        self._install_from(message)
        for directive in plan.starting_at(self._root):
            self.api.send(directive.header, message)

    def multicast(self, body: Any) -> None:
        """Inject one group-addressed packet (requires setup to have run)."""
        if not self._installed:
            raise ProtocolError("multicast before the group was installed")
        self._seq += 1
        self.api.send((self._group_id,), GroupData(body=body, seq=self._seq))

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        message = packet.payload
        if isinstance(message, GroupSetup):
            self._install_from(message)
            self.api.report("installed_at", self.api.now)
            for directive in message.plan.starting_at(self.api.node_id):
                self.api.send(directive.header, message)
        elif isinstance(message, GroupData):
            self.api.report("received_at", self.api.now)
            self.api.report("body", message.body)

    def _install_from(self, message: GroupSetup) -> None:
        me = self.api.node_id
        self.api.install_group(
            message.group_id,
            message.children.get(me, ()),
            to_ncu=me != message.root,
        )
        self._installed = True


@dataclass(frozen=True)
class GroupMulticastRun:
    """Costs of a setup phase plus a sequence of multicasts."""

    setup_calls: int
    setup_time: float
    per_message_calls: list[int]
    per_message_time: list[float]
    coverage: int


def run_group_multicast(
    net: Network,
    root: Any,
    bodies: Iterable[Any],
    *,
    max_events: int = 5_000_000,
) -> GroupMulticastRun:
    """Drive setup then one multicast per body; return phase-split costs."""
    adjacency = net.adjacency()
    group_id = net.allocate_group_id()
    ids = net.id_lookup
    net.attach(
        lambda api: GroupMulticast(
            api, root=root, adjacency=adjacency, ids=ids, group_id=group_id
        )
    )
    before = net.metrics.snapshot()
    t0 = net.scheduler.now
    net.start([root], payload="setup")
    net.run_to_quiescence(max_events=max_events)
    setup_delta: MetricsSnapshot = net.metrics.since(before)
    setup_time = net.scheduler.now - t0

    per_calls: list[int] = []
    per_time: list[float] = []
    coverage = 0
    for body in bodies:
        before = net.metrics.snapshot()
        t0 = net.scheduler.now
        net.start([root], payload=("multicast", body))
        net.run_to_quiescence(max_events=max_events)
        delta = net.metrics.since(before)
        per_calls.append(
            delta.system_calls - delta.system_calls_by_kind.get("start", 0)
        )
        per_time.append(net.scheduler.now - t0)
        coverage = len(net.outputs_for_key("received_at"))
    return GroupMulticastRun(
        setup_calls=setup_delta.system_calls
        - setup_delta.system_calls_by_kind.get("start", 0),
        setup_time=setup_time,
        per_message_calls=per_calls,
        per_message_time=per_time,
        coverage=coverage,
    )
