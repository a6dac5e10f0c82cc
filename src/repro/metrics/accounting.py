"""Complexity accounting: the paper's cost measures, as counters.

The paper (Section 2) defines two network-resource costs:

* **Communication (hop) complexity** — the number of link hops traversed
  by packets; the *hardware* cost.  Counted by :meth:`count_hop`.
* **System-call complexity** — "the sum over all nodes of the number of
  times that each NCU is involved in the algorithm process"; the
  *software* cost.  Counted by :meth:`count_system_call`, once per NCU
  job served.

The collector also tracks packet injections, selective copies and drops
because the algorithms' analyses refer to them (e.g. the branching-paths
broadcast copies its message exactly once per node).

Counters can be sliced by node and by a free-form *kind* label so that a
test can, say, count only the election's tour messages when checking the
``6n`` bound of Theorem 5.  The per-node and per-link counts are slots on
the NCU and the link themselves, so counting one costs an attribute
increment.  :meth:`snapshot` / :meth:`since` provide cheap delta
measurement around a protocol phase.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.link import Link
    from ..hardware.ncu import NCU
    from ..network.network import Network


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable totals captured at one instant.

    ``system_calls_by_kind`` maps the job-kind label (``"start"``,
    ``"packet"``, ``"timer"``, ``"link_event"`` or a protocol-supplied
    tag) to counts, which is what lets analyses separate, for example,
    broadcast relays from periodic-timer overhead.

    The per-object maps hold nonzero counts only.
    ``system_calls_per_node`` is in node-table order and
    ``hops_per_link`` in link-table order (``Network.nodes`` and
    ``Network.links``, both repr-sorted); ``system_calls_by_kind`` is in
    the order the kinds were first counted.
    """

    system_calls: int
    hops: int
    packets_injected: int
    header_ids: int
    copies: int
    drops: int
    system_calls_per_node: dict[Any, int] = field(default_factory=dict)
    system_calls_by_kind: dict[str, int] = field(default_factory=dict)
    hops_per_link: dict[Hashable, int] = field(default_factory=dict)


class MetricsCollector:
    """The network's cost counters.

    The per-object counts live on the objects: each NCU counts its own
    system calls (``NCU.system_calls``) and each link its own hops
    (``Link.hops``).  The collector keeps the totals and the small
    by-kind map, and reads the per-object counts off ``net`` when a
    snapshot or a delta asks for them.
    """

    def __init__(self, net: "Network") -> None:
        self._net = net
        self._system_calls_by_kind: Counter = Counter()
        self.system_calls = 0
        self.hops = 0
        self.packets_injected = 0
        #: Total ANR header IDs injected — the source-routing volume the
        #: dmax restriction (Section 2) is about.  Multiply by the ID
        #: width k for bits.
        self.header_ids = 0
        self.copies = 0
        self.drops = 0

    # ------------------------------------------------------------------
    # Update hooks (called by the substrate)
    # ------------------------------------------------------------------
    def count_system_call(self, ncu: "NCU", kind: str) -> None:
        """One involvement of ``ncu`` (one unit of software cost)."""
        self.system_calls += 1
        ncu.system_calls += 1
        self._system_calls_by_kind[kind] += 1

    def count_hop(self, link: "Link") -> None:
        """One packet traversal of ``link`` (one unit of hardware cost)."""
        self.hops += 1
        link.hops += 1

    def count_injection(self, node: Any, header_len: int = 0) -> None:
        """One packet handed by an NCU to its switching subsystem."""
        self.packets_injected += 1
        self.header_ids += header_len

    def count_copy(self, node: Any) -> None:
        """One selective copy delivered toward an NCU."""
        self.copies += 1

    def count_drop(self, reason: str) -> None:
        """One packet discarded (failed link, unroutable ID, spent header)."""
        self.drops += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def system_calls_at(self, node: Any) -> int:
        """NCU involvements at one node (``KeyError`` if not in the network)."""
        return self._net.nodes[node].ncu.system_calls

    def system_calls_of_kind(self, kind: str) -> int:
        """NCU involvements whose job carried the given kind label."""
        return self._system_calls_by_kind[kind]

    def snapshot(self) -> MetricsSnapshot:
        """Immutable copy of every counter.

        A zero total gives an empty map without visiting an NCU or a
        link, so a snapshot taken before a run costs nothing per node.
        """
        net = self._net
        return MetricsSnapshot(
            system_calls=self.system_calls,
            hops=self.hops,
            packets_injected=self.packets_injected,
            header_ids=self.header_ids,
            copies=self.copies,
            drops=self.drops,
            system_calls_per_node={
                node_id: calls
                for node_id, node in net.nodes.items()
                if (calls := node.ncu.system_calls)
            } if self.system_calls else {},
            system_calls_by_kind=dict(self._system_calls_by_kind),
            hops_per_link={
                key: hops for key, link in net.links.items() if (hops := link.hops)
            } if self.hops else {},
        )

    def since(self, earlier: MetricsSnapshot) -> MetricsSnapshot:
        """Delta of every counter relative to an earlier snapshot.

        Each per-object delta is read off its NCU or link against
        ``earlier`` directly; the maps keep the nonzero deltas, in the
        order :meth:`snapshot` gives.
        """
        net = self._net
        calls_before = earlier.system_calls_per_node.get
        kinds_before = earlier.system_calls_by_kind.get
        hops_before = earlier.hops_per_link.get
        return MetricsSnapshot(
            system_calls=self.system_calls - earlier.system_calls,
            hops=self.hops - earlier.hops,
            packets_injected=self.packets_injected - earlier.packets_injected,
            header_ids=self.header_ids - earlier.header_ids,
            copies=self.copies - earlier.copies,
            drops=self.drops - earlier.drops,
            system_calls_per_node={
                node_id: delta
                for node_id, node in net.nodes.items()
                if (delta := node.ncu.system_calls - calls_before(node_id, 0))
            },
            system_calls_by_kind={
                kind: delta
                for kind, count in self._system_calls_by_kind.items()
                if (delta := count - kinds_before(kind, 0))
            },
            hops_per_link={
                key: delta
                for key, link in net.links.items()
                if (delta := link.hops - hops_before(key, 0))
            },
        )
