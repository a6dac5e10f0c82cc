"""Leader election with O(n) system calls (Section 4).

Every node creates a *candidate* representing its singleton domain.
Active candidates repeatedly tour: pick an OUT node ``o``, travel to it
with one direct message, then climb the virtual tree via stored parent
ANRs — never more than ``phase + 1`` direct hops — looking for an
origin.  At an origin, levels ``(size, id)`` are compared: the smaller
domain is captured (its origin gets a parent pointer to the capturer
and ships its IN/OUT/INOUT data home with the returning candidate) or
the visitor gives up and returns inactive.  Waiting rules (2.3)/(2.4)
serialise concurrent visitors.  A candidate whose OUT set empties owns
every node and declares itself leader.

Why this is O(n) system calls: domains double in size per capture
(Lemma 3 keeps virtual trees shallower than the phase), so the
``p + 2`` direct messages spent capturing a phase-``p`` domain sum to
at most ``6n`` over the run (Theorem 5).

Implementation notes
--------------------
* Each direct message (tour hop, return) is exactly one system call at
  the receiver, tagged ``tour`` / ``return`` in the metrics so the
  Theorem 5 count can be measured directly.
* The model allows one packet per outgoing port per system call, so the
  rare handler that must emit two *different* messages queues the
  second behind a self-addressed ``nudge`` packet (one extra system
  call, preserving both the model and the O(n) total).
* With ``announce=True`` the winner broadcasts the result over its
  INOUT tree using the Section 3 branching-paths broadcast — n more
  system calls, after which every node knows the leader (the problem
  statement's ``leader.elected`` state).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any

from ..hardware.ids import NCU_ID
from ..hardware.ncu import NodeApi
from ..hardware.packet import Packet
from ..network.protocol import Protocol
from ..network.spanning import bfs_tree
from ..sim.errors import ProtocolError
from .broadcast import BroadcastPlan, plan_broadcast
from .election_state import DomainState, Level


class CandidateStatus(Enum):
    """Lifecycle of the local candidate."""

    NOT_STARTED = "not_started"
    ON_TOUR = "on_tour"
    HOME_ACTIVE = "home_active"  # transient: between merge and next tour
    INACTIVE = "inactive"
    CAPTURED = "captured"
    LEADER = "leader"


@dataclass(frozen=True)
class TourToken:
    """A candidate out on a tour (Section 4.1)."""

    candidate: Any
    level: Level
    phase: int
    hops_done: int
    entry: Any
    #: Raw reverse ANR from the entry node ``o`` back to the origin —
    #: the carried ``ANR(o, i)``; filled in by ``o`` from the hardware's
    #: reverse-path accumulation.
    anr_entry_to_origin: tuple[int, ...]
    kind: str = "tour"


@dataclass(frozen=True)
class ReturnToken:
    """A candidate coming home, either victorious or resigned."""

    candidate: Any
    outcome: str  # "captured" | "inactive"
    captured: DomainState | None
    attach: Any  # the OUT node o through which the captured domain joins
    kind: str = "return"


@dataclass(frozen=True)
class Nudge:
    """Self-addressed continuation: drain the next queued send."""

    kind: str = "nudge"


@dataclass(frozen=True)
class Announce:
    """The winner's result broadcast over its INOUT tree."""

    leader: Any
    plan: BroadcastPlan
    kind: str = "announce"


class LeaderElection(Protocol):
    """The Section 4 election protocol (one instance per node)."""

    __slots__ = (
        "announce", "phase_cap", "tour_policy", "_tour_rng", "status",
        "domain", "parent_anr", "waiting", "_outbox", "stats",
    )

    def __init__(
        self,
        api: NodeApi,
        *,
        announce: bool = True,
        tour_policy: str = "min",
        tour_seed: int = 0,
        phase_cap: bool = True,
    ) -> None:
        super().__init__(api)
        self.announce = announce
        #: Rule (1)'s tour-length budget.  Disabling it (ablation) keeps
        #: the algorithm correct — tours still end at origins — but
        #: forfeits the Theorem 5 bookkeeping: a tour may now pay a deep
        #: virtual chain in full before losing a comparison.
        self.phase_cap = phase_cap
        self.tour_policy = tour_policy
        # Random() seeded with a string is deterministic across runs
        # (it hashes via SHA-512, unaffected by PYTHONHASHSEED).
        self._tour_rng = (
            __import__("random").Random(f"{api.node_id!r}-{tour_seed}")
            if tour_policy == "random"
            else None
        )
        self.status = CandidateStatus.NOT_STARTED
        self.domain: DomainState | None = None
        #: Set when this node's domain is captured: full ANR to the
        #: capturer's origin (the virtual-tree parent pointer F_i).
        self.parent_anr: tuple[int, ...] | None = None
        #: Rule 2.3: at most one visiting candidate waits here.
        self.waiting: TourToken | None = None
        #: Pending sends, drained one per system call via Nudge packets.
        self._outbox: list[tuple[str, Any]] = []
        #: How often each of the paper's rules fired at this node —
        #: introspection for tests and experiment reports.  Keys:
        #: "rule1_return", "rule1_forward", "rule2.1", "rule2.2",
        #: "rule2.3_wait", "rule2.4_evict", "comeback_capture",
        #: "capture_merge", "became_leader", "nudge".
        self.stats: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def on_start(self, payload: Any) -> None:
        if self.status is CandidateStatus.NOT_STARTED:
            self._bootstrap()
        self._flush()

    def on_packet(self, packet: Packet) -> None:
        message = packet.payload
        if isinstance(message, Nudge):
            self._flush()
            return
        if self.status is CandidateStatus.NOT_STARTED and isinstance(
            message, (TourToken, ReturnToken)
        ):
            self._bootstrap()
        if isinstance(message, TourToken):
            self._handle_tour(message, packet)
        elif isinstance(message, ReturnToken):
            self._handle_return(message)
        elif isinstance(message, Announce):
            self._handle_announce(message)
        self._flush()

    # ------------------------------------------------------------------
    # Candidate lifecycle
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        """Create the singleton domain and launch the first tour."""
        self.domain = DomainState.initial(self.api.node_id, self.api.local_links())
        if not self.domain.out_info:
            self._become_leader()
        else:
            self._start_tour()

    def _start_tour(self) -> None:
        assert self.domain is not None
        me = self.api.node_id
        target = self.domain.pick_tour_target(self.tour_policy, self._tour_rng)
        header = self.domain.anr_to_out_node(me, target)
        token = TourToken(
            candidate=me,
            level=self.domain.level,
            phase=self.domain.phase,
            hops_done=1,
            entry=target,
            anr_entry_to_origin=(),
        )
        self.status = CandidateStatus.ON_TOUR
        self._queue_send(header, token)

    def _become_leader(self) -> None:
        assert self.domain is not None
        me = self.api.node_id
        self.stats["became_leader"] += 1
        self.status = CandidateStatus.LEADER
        self.api.report("leader", me)
        self.api.report("is_leader", True)
        if not self.announce or len(self.domain.in_set) == 1:
            return
        adjacency = {
            node: tuple(sorted(adj, key=repr))
            for node, adj in self.domain.inout_adj.items()
        }
        tree = bfs_tree(adjacency, me)
        plan = plan_broadcast(tree, self.domain.id_lookup)
        message = Announce(leader=me, plan=plan)
        self._queue_multicast(
            [(directive.header, message) for directive in plan.starting_at(me)]
        )

    # ------------------------------------------------------------------
    # Tour handling
    # ------------------------------------------------------------------
    def _handle_tour(self, token: TourToken, packet: Packet) -> None:
        me = self.api.node_id
        if token.candidate == me:
            raise ProtocolError(
                f"candidate {me!r} toured back into its own origin; "
                "the virtual forest should make this impossible"
            )
        if token.hops_done == 1 and not token.anr_entry_to_origin:
            # We are the entry node o: record ANR(o, i) from the
            # hardware's reverse path (Section 2's reply capability).
            token = replace(token, anr_entry_to_origin=packet.reverse_anr)

        if self.status is CandidateStatus.CAPTURED:
            # Rule (1): not an origin — climb, unless out of budget.
            if self.phase_cap and token.hops_done > token.phase:
                self.stats["rule1_return"] += 1
                self._return_token(token, outcome="inactive")
            else:
                assert self.parent_anr is not None
                self.stats["rule1_forward"] += 1
                self._queue_send(
                    self.parent_anr, replace(token, hops_done=token.hops_done + 1)
                )
            return
        self._resolve_at_origin(token)

    def _resolve_at_origin(self, token: TourToken) -> None:
        """Rules (2.1)-(2.4): a visiting candidate meets the local one."""
        assert self.domain is not None
        local_level = self.domain.level
        if local_level > token.level:
            self.stats["rule2.1"] += 1
            self._return_token(token, outcome="inactive")  # rule 2.1
        elif self.status is CandidateStatus.INACTIVE:
            self.stats["rule2.2"] += 1
            self._be_captured_by(token)  # rule 2.2
        elif self.status is CandidateStatus.HOME_ACTIVE:
            self.stats["comeback_capture"] += 1
            self._be_captured_by(token)  # rule 2.3's comeback comparison
        elif self.status is CandidateStatus.ON_TOUR:
            if self.waiting is None:
                self.stats["rule2.3_wait"] += 1
                self.waiting = token  # rule 2.3
            else:
                # Rule 2.4: the lower-level visitor gives up immediately.
                self.stats["rule2.4_evict"] += 1
                if self.waiting.level < token.level:
                    loser, self.waiting = self.waiting, token
                else:
                    loser = token
                self._return_token(loser, outcome="inactive")
        else:
            raise ProtocolError(
                f"tour token from {token.candidate!r} reached origin "
                f"{self.api.node_id!r} in status {self.status}"
            )

    def _be_captured_by(self, token: TourToken) -> None:
        """Rule 2.2: hand the domain to the visitor and point at it."""
        assert self.domain is not None
        me = self.api.node_id
        route = (
            self.domain.ids_to_node(me, token.entry)
            + token.anr_entry_to_origin
            + (NCU_ID,)
        )
        self.status = CandidateStatus.CAPTURED
        self.parent_anr = route
        self._queue_send(
            route,
            ReturnToken(
                candidate=token.candidate,
                outcome="captured",
                captured=self.domain.snapshot(),
                attach=token.entry,
            ),
        )

    def _return_token(self, token: TourToken, *, outcome: str) -> None:
        """Send a visiting candidate home (inactive)."""
        assert self.domain is not None
        route = (
            self.domain.ids_to_node(self.api.node_id, token.entry)
            + token.anr_entry_to_origin
            + (NCU_ID,)
        )
        self._queue_send(
            route,
            ReturnToken(
                candidate=token.candidate,
                outcome=outcome,
                captured=None,
                attach=token.entry,
            ),
        )

    # ------------------------------------------------------------------
    # Comeback handling
    # ------------------------------------------------------------------
    def _handle_return(self, token: ReturnToken) -> None:
        me = self.api.node_id
        if token.candidate != me or self.status is not CandidateStatus.ON_TOUR:
            raise ProtocolError(
                f"stray return token for {token.candidate!r} at {me!r} "
                f"(status {self.status})"
            )
        assert self.domain is not None
        if token.outcome == "captured":
            assert token.captured is not None
            self.stats["capture_merge"] += 1
            self.domain.absorb(token.captured, token.attach)
            self.status = CandidateStatus.HOME_ACTIVE
        else:
            self.status = CandidateStatus.INACTIVE

        # Rule 2.3's second half: the comeback is complete; resolve the
        # waiting visitor (may capture us).
        if self.waiting is not None:
            waiter, self.waiting = self.waiting, None
            self._resolve_at_origin(waiter)

        if self.status is CandidateStatus.HOME_ACTIVE:
            if not self.domain.out_info:
                self._become_leader()
            else:
                self._start_tour()

    # ------------------------------------------------------------------
    # Announcement
    # ------------------------------------------------------------------
    def _handle_announce(self, message: Announce) -> None:
        self.api.report("leader", message.leader)
        self.api.report("is_leader", message.leader == self.api.node_id)
        sends = [
            (directive.header, message)
            for directive in message.plan.starting_at(self.api.node_id)
        ]
        if sends:
            self._queue_multicast(sends)

    # ------------------------------------------------------------------
    # Outbox: at most one distinct message per system call
    # ------------------------------------------------------------------
    def _queue_send(self, header: tuple[int, ...], payload: Any) -> None:
        self._outbox.append(("one", (header, payload)))

    def _queue_multicast(self, sends: list[tuple[tuple[int, ...], Any]]) -> None:
        """Same message over several distinct links (one system call)."""
        self._outbox.append(("many", sends))

    def _flush(self) -> None:
        """Emit the next queued item; chain a nudge if more remain."""
        if not self._outbox:
            return
        kind, item = self._outbox.pop(0)
        if kind == "one":
            header, payload = item
            self.api.send(header, payload)
        else:
            for header, payload in item:
                self.api.send(header, payload)
        if self._outbox:
            self.stats["nudge"] += 1
            self.api.send((NCU_ID,), Nudge())
