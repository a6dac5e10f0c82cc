"""Domain bookkeeping for the Section 4 leader election.

Each candidate's origin maintains (Section 4.1):

* ``IN`` — all nodes in its domain;
* ``OUT`` — all neighbours of domain nodes outside the domain;
* the **INOUT tree** — a subgraph of the real network spanning the
  domain, kept precisely so that a linear-length ANR between any two
  domain nodes (or from a domain node to an OUT neighbour) can be
  computed locally;
* the domain ``size`` (S_i), from which the level ``(S_i, i)`` and the
  phase ``⌊log2 S_i⌋`` derive.

A captured origin's :class:`DomainState` is frozen in place and never
mutated again: passing tours rely on it to compute their return routes
("ANR(q, o) is at that time computed in q, using INOUT_q" — possible
because a tour's entry node ``o`` is in the IN set of every origin above
it in the virtual tree).

The state holds only what those routes read.  A route runs along the
INOUT tree and, toward an OUT node, one last hop from its recorded IN
neighbour; so link IDs are kept for tree edges only, and each OUT node
keeps one flat record of the link that attaches it.  Every captured
origin keeps its frozen copy for the rest of the run, so this state is
the largest share of what an election retains.  Most captured origins
are frozen as singletons, so the state is slotted and a singleton's one
node maps to the shared :data:`NO_EDGES` rather than an empty set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..hardware.ids import NCU_ID
from ..hardware.link import LinkInfo
from ..sim.errors import ProtocolError, RoutingError


@dataclass(frozen=True)
class Level:
    """A candidate's level: (domain size, origin id), compared
    lexicographically — sizes first, origin identity breaking ties."""

    size: int
    origin: Any

    def __lt__(self, other: "Level") -> bool:
        return (self.size, repr(self.origin)) < (other.size, repr(other.origin))

    def __gt__(self, other: "Level") -> bool:
        return other < self

    @property
    def phase(self) -> int:
        """``⌊log2 size⌋`` — the tour-length budget."""
        return self.size.bit_length() - 1


#: The INOUT adjacency of a node with no tree edge yet.  Every singleton
#: domain shares it; a merge gives a node its own set the first time it
#: gains a tree edge.
NO_EDGES: frozenset[Any] = frozenset()


@dataclass(slots=True)
class DomainState:
    """One origin's IN/OUT sets and INOUT tree."""

    origin: Any
    in_set: set[Any] = field(default_factory=set)
    #: o -> (w, normal_w, copy_w, normal_o, copy_o): one flat record per
    #: OUT node o, naming an IN neighbour w and the (normal, copy) IDs of
    #: the real link w-o at each end.  Routes to o take its last hop from
    #: here; a merge that pulls o into the tree reads both ends.
    out_info: dict[Any, tuple[Any, int, int, int, int]] = field(default_factory=dict)
    #: Adjacency of the INOUT tree (IN nodes only; edges are real links).
    inout_adj: dict[Any, set[Any] | frozenset[Any]] = field(default_factory=dict)
    #: (a, b) -> (normal, copy) IDs at a of the real link a-b, for the
    #: INOUT tree edges only, in both directions: every in-domain route
    #: and the leader's announce plan follow tree edges, and nothing
    #: else reads an ID.  A singleton domain has none; each merge adds
    #: its joining edge.
    link_ids: dict[tuple[Any, Any], tuple[int, int]] = field(default_factory=dict)
    size: int = 1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def initial(cls, node_id: Any, links: Iterable[LinkInfo]) -> "DomainState":
        """The singleton domain a node creates when it starts."""
        state = cls(origin=node_id)
        state.in_set = {node_id}
        state.inout_adj = {node_id: NO_EDGES}
        for info in links:
            if not info.active:
                continue
            state.out_info[info.v] = (
                node_id,
                info.normal_at_u,
                info.copy_at_u,
                info.normal_at_v,
                info.copy_at_v,
            )
        return state

    # ------------------------------------------------------------------
    # Derived
    # ------------------------------------------------------------------
    @property
    def level(self) -> Level:
        """The candidate's current level."""
        return Level(size=self.size, origin=self.origin)

    @property
    def phase(self) -> int:
        """``⌊log2 size⌋``."""
        return self.level.phase

    @property
    def out_set(self) -> set[Any]:
        """The OUT set (view over ``out_info``)."""
        return set(self.out_info)

    def pick_tour_target(self, policy: str = "min", rng: Any = None) -> Any:
        """Select the next OUT node to tour toward.

        The paper allows an *arbitrary* choice; Theorem 5's bound must
        hold for every policy, which the ablation tests verify.
        Policies: ``"min"`` / ``"max"`` (by id) and ``"random"``
        (requires ``rng``).
        """
        if not self.out_info:
            raise ProtocolError(f"domain {self.origin!r} has an empty OUT set")
        if policy == "min":
            return min(self.out_info, key=repr)
        if policy == "max":
            return max(self.out_info, key=repr)
        if policy == "random":
            if rng is None:
                raise ValueError("the random policy needs an rng")
            return rng.choice(sorted(self.out_info, key=repr))
        raise ValueError(f"unknown tour policy {policy!r}")

    # ------------------------------------------------------------------
    # Routing inside the domain
    # ------------------------------------------------------------------
    def tree_path(self, frm: Any, to: Any) -> tuple[Any, ...]:
        """Node path between two IN nodes along the INOUT tree."""
        if frm not in self.inout_adj or to not in self.inout_adj:
            raise RoutingError(
                f"{frm!r} or {to!r} is not in domain {self.origin!r}'s INOUT tree"
            )
        if frm == to:
            return (frm,)
        parent: dict[Any, Any] = {frm: None}
        queue = deque([frm])
        while queue:
            node = queue.popleft()
            for neighbor in sorted(self.inout_adj[node], key=repr):
                if neighbor not in parent:
                    parent[neighbor] = node
                    if neighbor == to:
                        path = [to]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return tuple(reversed(path))
                    queue.append(neighbor)
        raise RoutingError(
            f"no INOUT-tree path {frm!r} -> {to!r} in domain {self.origin!r}"
        )

    def anr_ids(self, path: tuple[Any, ...]) -> tuple[int, ...]:
        """Raw link IDs for a node path (no delivery marker)."""
        ids = []
        for a, b in zip(path, path[1:]):
            try:
                ids.append(self.link_ids[(a, b)][0])
            except KeyError as exc:
                raise RoutingError(
                    f"domain {self.origin!r} has no ID for hop {a!r}->{b!r}"
                ) from exc
        return tuple(ids)

    def anr_to_in_node(self, frm: Any, to: Any) -> tuple[int, ...]:
        """Full ANR (with delivery) between two IN nodes."""
        return self.anr_ids(self.tree_path(frm, to)) + (NCU_ID,)

    def anr_to_out_node(self, frm: Any, out_node: Any) -> tuple[int, ...]:
        """Full ANR from an IN node to an OUT neighbour of the domain."""
        try:
            w, normal_w = self.out_info[out_node][:2]
        except KeyError as exc:
            raise RoutingError(
                f"{out_node!r} is not in domain {self.origin!r}'s OUT set"
            ) from exc
        return self.anr_ids(self.tree_path(frm, w)) + (normal_w, NCU_ID)

    def id_lookup(self, a: Any, b: Any) -> tuple[int, int]:
        """(normal, copy) IDs at ``a`` for the INOUT-tree link a-b.

        This is an :data:`repro.hardware.anr.IdLookup`, letting the
        leader reuse the branching-paths broadcast planner over its
        INOUT tree for the final announcement.
        """
        return self.link_ids[(a, b)]

    def ids_to_node(self, frm: Any, to: Any) -> tuple[int, ...]:
        """Raw IDs (no delivery) from ``frm`` to an IN or OUT node.

        Used to build concatenated return routes such as
        ``v -> o`` followed by the token's carried ``ANR(o, i)``.
        """
        if to in self.in_set:
            return self.anr_ids(self.tree_path(frm, to))
        w, normal_w = self.out_info[to][:2]
        return self.anr_ids(self.tree_path(frm, w)) + (normal_w,)

    # ------------------------------------------------------------------
    # Merging (rule 2.2)
    # ------------------------------------------------------------------
    def absorb(self, other: "DomainState", attach_out_node: Any) -> None:
        """Merge a captured domain into this one.

        ``attach_out_node`` is the OUT node ``o`` through which the tour
        entered the captured domain; the INOUT trees are joined by the
        real link between ``o`` and its recorded IN neighbour, keeping
        all internal ANRs linear (the paper's merge step).

        The OUT update costs O(size of the captured domain), not of the
        merged one: our OUT never holds our IN, so only the captured IN
        can leave it, and only the captured OUT can join it.
        """
        if attach_out_node not in self.out_info:
            raise ProtocolError(
                f"domain {self.origin!r} cannot attach at {attach_out_node!r}: "
                "not an OUT node"
            )
        if attach_out_node not in other.in_set:
            raise ProtocolError(
                f"attach node {attach_out_node!r} is not in the captured "
                f"domain {other.origin!r}"
            )
        w, normal_w, copy_w, normal_o, copy_o = self.out_info[attach_out_node]

        # Copy the captured INOUT tree (it stays frozen at the captured
        # origin for future passing tours, so never share mutable sets).
        # Every copied node gains a tree edge by the end of this merge.
        for node, neighbors in other.inout_adj.items():
            self._own_edges(node).update(neighbors)
        self.link_ids.update(other.link_ids)

        # Join the trees through the (w, o) link.
        self._own_edges(w).add(attach_out_node)
        self._own_edges(attach_out_node).add(w)
        self.link_ids[(w, attach_out_node)] = (normal_w, copy_w)
        self.link_ids[(attach_out_node, w)] = (normal_o, copy_o)

        # IN := IN ∪ IN_v;  OUT := OUT ∪ OUT_v − IN.
        self.in_set |= other.in_set
        for out_node, record in other.out_info.items():
            if out_node not in self.in_set:
                self.out_info.setdefault(out_node, record)
        for absorbed in other.in_set:
            self.out_info.pop(absorbed, None)

        self.size += other.size

    def _own_edges(self, node: Any) -> set[Any]:
        """``node``'s tree neighbours as a set this domain may mutate."""
        neighbors = self.inout_adj.get(node, NO_EDGES)
        if neighbors is NO_EDGES:
            neighbors = self.inout_adj[node] = set()
        return neighbors

    def snapshot(self) -> "DomainState":
        """Deep-enough copy shipped inside a capture's return token."""
        return DomainState(
            origin=self.origin,
            in_set=set(self.in_set),
            out_info=dict(self.out_info),
            inout_adj={node: set(adj) for node, adj in self.inout_adj.items()},
            link_ids=dict(self.link_ids),
            size=self.size,
        )
