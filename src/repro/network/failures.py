"""Failure schedules: scripted and randomized topology changes.

The topology-maintenance experiments need reproducible sequences of
link failures and repairs.  A :class:`FailureSchedule` is a list of
timed actions that can be applied to a network before a run; generators
below produce random schedules with useful guarantees (e.g. never
disconnecting the graph, so eventual consistency has a single component
to converge on).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from .network import Network


class FailureKind(Enum):
    """Supported topology-change actions."""

    FAIL_LINK = "fail_link"
    RESTORE_LINK = "restore_link"
    FAIL_NODE = "fail_node"
    RESTORE_NODE = "restore_node"


@dataclass(frozen=True)
class FailureAction:
    """One timed topology change."""

    time: float
    kind: FailureKind
    target: Any  # (u, v) for links, node id for nodes


@dataclass
class FailureSchedule:
    """An ordered list of topology changes, applied to a network."""

    actions: list[FailureAction] = field(default_factory=list)

    def fail_link(self, u: Any, v: Any, at: float) -> "FailureSchedule":
        """Append a link failure (chainable)."""
        self.actions.append(FailureAction(at, FailureKind.FAIL_LINK, (u, v)))
        return self

    def restore_link(self, u: Any, v: Any, at: float) -> "FailureSchedule":
        """Append a link repair (chainable)."""
        self.actions.append(FailureAction(at, FailureKind.RESTORE_LINK, (u, v)))
        return self

    def fail_node(self, node_id: Any, at: float) -> "FailureSchedule":
        """Append a node failure — all its links go down (chainable)."""
        self.actions.append(FailureAction(at, FailureKind.FAIL_NODE, node_id))
        return self

    def restore_node(self, node_id: Any, at: float) -> "FailureSchedule":
        """Append a node repair (chainable)."""
        self.actions.append(FailureAction(at, FailureKind.RESTORE_NODE, node_id))
        return self

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self) -> Iterator[FailureAction]:
        return iter(sorted(self.actions, key=lambda a: a.time))

    @property
    def last_change_time(self) -> float:
        """Time of the final action (0.0 when empty)."""
        return max((a.time for a in self.actions), default=0.0)

    def apply(self, net: "Network") -> None:
        """Schedule every action on the network's event queue.

        Delegates to the scenario compiler
        (:func:`repro.scenario.compiler.schedule_failure_actions`), so
        the legacy DSL and declarative scenario specs share one
        closure-free scheduling path.
        """
        from ..scenario.compiler import schedule_failure_actions

        schedule_failure_actions(net, self)


def random_link_failures(
    graph: nx.Graph,
    count: int,
    *,
    seed: int = 0,
    start: float = 0.0,
    spacing: float = 1.0,
    keep_connected: bool = True,
) -> FailureSchedule:
    """Random distinct link failures at ``start, start+spacing, ...``.

    With ``keep_connected`` (the default) every failed link is chosen so
    the surviving topology stays connected — the setting Theorem 1's
    eventual-consistency statement is about ("the correct topology of
    its connected component" is then the whole network).
    """
    import networkx as nx

    rng = random.Random(seed)
    working = nx.Graph(graph)
    schedule = FailureSchedule()
    when = start
    for _ in range(count):
        candidates = list(working.edges)
        rng.shuffle(candidates)
        chosen = None
        for u, v in candidates:
            if not keep_connected:
                chosen = (u, v)
                break
            working.remove_edge(u, v)
            if nx.is_connected(working):
                chosen = (u, v)
                break
            working.add_edge(u, v)
        if chosen is None:
            break  # no removable link remains
        if not keep_connected:
            working.remove_edge(*chosen)
        schedule.fail_link(chosen[0], chosen[1], when)
        when += spacing
    return schedule


def flapping_link(
    u: Any,
    v: Any,
    *,
    flips: int,
    start: float = 0.0,
    spacing: float = 1.0,
) -> FailureSchedule:
    """A link that alternates down/up ``flips`` times.

    Used to exercise the data-link debouncing and the convergence
    property that only the *final* stable state matters.
    """
    schedule = FailureSchedule()
    when = start
    for i in range(flips):
        if i % 2 == 0:
            schedule.fail_link(u, v, when)
        else:
            schedule.restore_link(u, v, when)
        when += spacing
    return schedule
