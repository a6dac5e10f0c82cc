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
measurement around a protocol phase: each records a table's counts as
one array in table order, and a delta subtracts array from array.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from operator import attrgetter, sub
from typing import TYPE_CHECKING, Any, Hashable

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.link import Link
    from ..hardware.ncu import NCU
    from ..network.network import Network


_CALLS = attrgetter("ncu.system_calls")
_HOPS = attrgetter("hops")


class CountMap(Mapping):
    """Per-object counts as a read-only mapping of the nonzero entries.

    Holds one key tuple (a network's node IDs or link keys, shared by
    every snapshot of that network) and one array of counts in the same
    order.  The dict of nonzero entries is built on first read and
    kept; the mapping equals that dict and has its repr.  It holds no
    node or link, so a snapshot keeps no network alive.
    """

    __slots__ = ("_keys", "_counts", "_dict")

    def __init__(self, keys: tuple = (), counts: Iterable[int] = ()) -> None:
        self._keys = keys
        self._counts = counts
        self._dict: dict[Any, int] | None = None

    def _nonzero(self) -> dict[Any, int]:
        if self._dict is None:
            self._dict = {
                key: count for key, count in zip(self._keys, self._counts) if count
            }
        return self._dict

    def __getitem__(self, key: Any) -> int:
        return self._nonzero()[key]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._nonzero())

    def __len__(self) -> int:
        return len(self._nonzero())

    def __eq__(self, other: object) -> bool:
        return self._nonzero() == other

    def __repr__(self) -> str:
        return repr(self._nonzero())


def _delta(keys: tuple, counts: Iterable[int], earlier: CountMap) -> CountMap:
    """``counts``, in ``keys`` order, less ``earlier``'s.

    An empty ``earlier`` array stands for all zeros: a snapshot taken at
    zero totals records none.
    """
    before = earlier._counts
    if before:
        if earlier._keys is not keys and earlier._keys != keys:
            raise ValueError("since() needs a snapshot of the same network")
        counts = map(sub, counts, before)
    return CountMap(keys, array("q", counts))


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable totals captured at one instant.

    ``system_calls_by_kind`` maps the job-kind label (``"start"``,
    ``"packet"``, ``"timer"``, ``"link_event"`` or a protocol-supplied
    tag) to counts, which is what lets analyses separate, for example,
    broadcast relays from periodic-timer overhead.

    The per-object maps hold nonzero counts only, and are read-only
    :class:`CountMap`\\s that build their dict on first read.
    ``system_calls_per_node`` is in node-table order and
    ``hops_per_link`` in link-table order (``Network.nodes`` and
    ``Network.links``, both repr-sorted); ``system_calls_by_kind`` is a
    dict in the order the kinds were first counted.
    """

    system_calls: int
    hops: int
    packets_injected: int
    header_ids: int
    copies: int
    drops: int
    system_calls_per_node: Mapping[Any, int] = field(default_factory=CountMap)
    system_calls_by_kind: dict[str, int] = field(default_factory=dict)
    hops_per_link: Mapping[Hashable, int] = field(default_factory=CountMap)


class MetricsCollector:
    """The network's cost counters.

    The per-object counts live on the objects: each NCU counts its own
    system calls (``NCU.system_calls``) and each link its own hops
    (``Link.hops``).  The collector keeps the totals and the small
    by-kind map, and reads the per-object counts off ``net``, in table
    order, when a snapshot or a delta asks for them.
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

    def _calls(self) -> Iterator[int]:
        return map(_CALLS, self._net.nodes.values())

    def _hops(self) -> Iterator[int]:
        return map(_HOPS, self._net._links)

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
            system_calls_per_node=CountMap(
                net._node_ids, array("q", self._calls())
            ) if self.system_calls else CountMap(),
            system_calls_by_kind=dict(self._system_calls_by_kind),
            hops_per_link=CountMap(
                net._link_keys, array("q", self._hops())
            ) if self.hops else CountMap(),
        )

    def since(self, earlier: MetricsSnapshot) -> MetricsSnapshot:
        """Delta of every counter relative to an earlier snapshot of
        this network.

        Each per-object table is one array read off the NCUs or links
        less ``earlier``'s array; the maps keep the nonzero deltas, in
        the order :meth:`snapshot` gives, and build no dict until read.
        """
        net = self._net
        kinds_before = earlier.system_calls_by_kind.get
        return MetricsSnapshot(
            system_calls=self.system_calls - earlier.system_calls,
            hops=self.hops - earlier.hops,
            packets_injected=self.packets_injected - earlier.packets_injected,
            header_ids=self.header_ids - earlier.header_ids,
            copies=self.copies - earlier.copies,
            drops=self.drops - earlier.drops,
            system_calls_per_node=_delta(
                net._node_ids, self._calls(), earlier.system_calls_per_node
            ),
            system_calls_by_kind={
                kind: delta
                for kind, count in self._system_calls_by_kind.items()
                if (delta := count - kinds_before(kind, 0))
            },
            hops_per_link=_delta(net._link_keys, self._hops(), earlier.hops_per_link),
        )
