"""The Ω(log n) lower bound for one-way broadcast (Section 3.4).

Theorem 3: any *one-way* broadcast algorithm (links traversed only away
from the root) needs Ω(log n) time units to cover a complete binary
tree.  This module makes the theorem executable:

* a **schedule model** — a one-way broadcast is a sequence of rounds;
  in each round every informed node may launch at most one path per
  child link; a path descends along tree edges and informs every node
  on it at the end of the round (each message delivery takes exactly
  one time unit, as in the proof);
* a **validator** for arbitrary schedules;
* a **greedy scheduler** giving a strong empirical upper bound;
* the **adversary witness**: the proof's ``V_t`` construction — after
  round ``t`` there are still ``2^t`` uninformed nodes at depth ``5t``
  — checked constructively against any valid schedule;
* an **exhaustive search** for the exact optimum on tiny trees.

Together with the branching-paths upper bound (``<= 1 + log2 n``
rounds, Section 3.2) these bracket the optimum within constant factors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..network.spanning import Tree
from ..sim.errors import ProtocolError


@dataclass(frozen=True)
class OneWayPath:
    """One launched path: ``nodes[0]`` is the (informed) launching node.

    ``nodes[1:]`` descend strictly away from the root along tree edges;
    every node on the path is informed when the round completes.
    """

    nodes: tuple[Any, ...]

    @property
    def start(self) -> Any:
        """The launching node."""
        return self.nodes[0]

    @property
    def first_child(self) -> Any:
        """The child link the path leaves through."""
        return self.nodes[1]


#: One round: the set of paths launched simultaneously.
Round = Sequence[OneWayPath]
#: A full schedule: rounds in time order.
Schedule = Sequence[Round]


def validate_schedule(tree: Tree, schedule: Schedule) -> list[set]:
    """Check one-way semantics; return the informed set after each round.

    Raises :class:`ProtocolError` on any violation: a launch from an
    uninformed node, an upward or non-edge hop, or two paths through
    the same child link of the same node in one round.
    """
    informed = {tree.root}
    history = [set(informed)]
    for round_number, launches in enumerate(schedule, start=1):
        used_links: set[tuple[Any, Any]] = set()
        newly: set[Any] = set()
        for path in launches:
            if len(path.nodes) < 2:
                raise ProtocolError(f"round {round_number}: path too short {path}")
            if path.start not in informed:
                raise ProtocolError(
                    f"round {round_number}: launch from uninformed {path.start!r}"
                )
            for a, b in zip(path.nodes, path.nodes[1:]):
                if tree.parent.get(b) != a:
                    raise ProtocolError(
                        f"round {round_number}: hop {a!r}->{b!r} is not a "
                        "downward tree edge (one-way violation)"
                    )
            link = (path.start, path.first_child)
            if link in used_links:
                raise ProtocolError(
                    f"round {round_number}: two paths through child link {link}"
                )
            used_links.add(link)
            newly.update(path.nodes[1:])
        informed |= newly
        history.append(set(informed))
    return history


def coverage_rounds(tree: Tree, schedule: Schedule) -> int | None:
    """Rounds needed until every node is informed (None = never covered)."""
    history = validate_schedule(tree, schedule)
    for round_number, informed in enumerate(history):
        if len(informed) == len(tree.parent):
            return round_number
    return None


# ----------------------------------------------------------------------
# Greedy upper bound
# ----------------------------------------------------------------------
def greedy_schedule(tree: Tree) -> list[list[OneWayPath]]:
    """A strong heuristic one-way schedule.

    Each round, every informed node launches through every child link
    (if anything below is still uncovered) a maximal path that always
    descends into the child subtree with the most uncovered nodes.
    """
    informed = {tree.root}
    uncovered = set(tree.parent) - informed
    schedule: list[list[OneWayPath]] = []

    def uncovered_below(node: Any) -> int:
        return sum(1 for x in tree.subtree_nodes(node) if x in uncovered)

    while uncovered:
        launches: list[OneWayPath] = []
        for node in sorted(informed, key=repr):
            for child in tree.children[node]:
                if uncovered_below(child) == 0 and child not in uncovered:
                    continue
                path = [node, child]
                cur = child
                while True:
                    best = None
                    best_count = 0
                    for nxt in tree.children[cur]:
                        count = uncovered_below(nxt) + (1 if nxt in uncovered else 0)
                        if count > best_count:
                            best, best_count = nxt, count
                    if best is None or best_count == 0:
                        break
                    path.append(best)
                    cur = best
                launches.append(OneWayPath(nodes=tuple(path)))
        if not launches:  # pragma: no cover - defensive
            raise ProtocolError("greedy scheduler stalled")
        for path in launches:
            for covered in path.nodes[1:]:
                informed.add(covered)
                uncovered.discard(covered)
        schedule.append(launches)
    return schedule


# ----------------------------------------------------------------------
# The adversary witness (the Claim inside Theorem 3)
# ----------------------------------------------------------------------
def theorem3_lower_bound(depth: int) -> int:
    """The bound of Theorem 3 for a complete binary tree of given depth.

    The Claim guarantees uninformed nodes at depth ``5t`` for every
    ``t < (depth - 5) / 5``; hence at least ``ceil((depth - 5) / 5)``
    rounds are needed (and trivially at least 1 for any tree with more
    than one node).
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if depth == 0:
        return 0
    return max(1, -(-(depth - 5) // 5))


def witness_uninformed_sets(
    tree: Tree, schedule: Schedule, *, stride: int = 5
) -> list[set]:
    """Constructively pick the proof's ``V_t`` sets against a schedule.

    For each round ``t`` (while ``stride * t`` is a valid depth), picks
    ``2^t`` nodes at depth ``stride*t`` that are uninformed after round
    ``t`` and are descendants of the previous ``V_{t-1}``.  Returns the
    chosen sets; raises :class:`ProtocolError` if the pick is impossible
    — which, per Theorem 3's proof, cannot happen for a *valid* one-way
    schedule on a complete binary tree of sufficient depth.
    """
    history = validate_schedule(tree, schedule)
    depth_of = {node: tree.depth_of(node) for node in tree.parent}
    max_depth = max(depth_of.values(), default=0)
    witnesses: list[set] = []
    previous: set | None = None
    for t in range(1, len(history)):
        target_depth = stride * t
        if target_depth > max_depth:
            break
        if previous is None:
            candidates = {n for n, d in depth_of.items() if d == target_depth}
        else:
            candidates = {
                n
                for prev in previous
                for n in tree.subtree_nodes(prev)
                if depth_of[n] == target_depth
            }
        informed = history[t]
        uninformed = sorted(
            (n for n in candidates if n not in informed), key=repr
        )
        need = 2**t
        if len(uninformed) < need:
            raise ProtocolError(
                f"V_{t} construction failed: only {len(uninformed)} uninformed "
                f"candidates at depth {target_depth}, need {need}"
            )
        chosen = set(uninformed[:need])
        witnesses.append(chosen)
        previous = chosen
    return witnesses


# ----------------------------------------------------------------------
# Exact optimum on tiny trees
# ----------------------------------------------------------------------
def exhaustive_min_rounds(tree: Tree, *, max_rounds: int = 8) -> int:
    """Exact minimum rounds for small trees by breadth-first search.

    State = frozenset of informed nodes.  Per round, every informed node
    launches at most one *maximal* path per child link (launching more
    coverage is never harmful, so maximal root-to-leaf chains through
    each chosen child are WLOG); all combinations of leaf choices are
    explored.  Exponential — intended for complete binary trees of
    depth <= 3 and comparable sizes.
    """
    all_nodes = frozenset(tree.parent)
    if len(all_nodes) == 1:
        return 0

    leaf_chains: dict[Any, list[tuple[Any, ...]]] = {}

    def chains_from(node: Any) -> list[tuple[Any, ...]]:
        """Maximal descending chains from ``node`` (one per leaf below)."""
        if node in leaf_chains:
            return leaf_chains[node]
        if not tree.children[node]:
            result = [(node,)]
        else:
            result = [
                (node,) + chain
                for child in tree.children[node]
                for chain in chains_from(child)
            ]
        leaf_chains[node] = result
        return result

    def successors(state: frozenset) -> Iterable[frozenset]:
        # For each informed node, per child link: either skip or pick one
        # maximal chain through that child.
        options_per_link: list[list[tuple[Any, ...] | None]] = []
        for node in state:
            for child in tree.children[node]:
                if all(x in state for x in tree.subtree_nodes(child)):
                    continue  # nothing new below; launching is pointless
                options: list[tuple[Any, ...] | None] = [None]
                options.extend(
                    (node,) + chain for chain in chains_from(child)
                )
                options_per_link.append(options)
        if not options_per_link:
            return
        for combo in itertools.product(*options_per_link):
            new_state = set(state)
            for chain in combo:
                if chain is not None:
                    new_state.update(chain[1:])
            if len(new_state) > len(state):
                yield frozenset(new_state)

    frontier = {frozenset({tree.root})}
    seen = set(frontier)
    for rounds in range(1, max_rounds + 1):
        next_frontier: set[frozenset] = set()
        for state in frontier:
            for new_state in successors(state):
                if new_state == all_nodes:
                    return rounds
                if new_state not in seen:
                    seen.add(new_state)
                    next_frontier.add(new_state)
        if not next_frontier:
            break
        frontier = next_frontier
    raise ProtocolError(f"no full coverage within {max_rounds} rounds")
