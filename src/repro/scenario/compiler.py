"""Compile scenario specs into scheduler events.

The compiler is deliberately thin: every :class:`ScenarioEvent` becomes
one ``schedule_at`` call binding a long-lived :class:`Network` method
with plain ``args`` — no per-event closures, the same convention the
hot scheduling sites follow — so compiling a spec perturbs the event
stream only by the events it adds.  That is what makes a compiled
scenario replay byte-identically across fresh builds, resets and
campaign shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network


def _reelect(net: "Network") -> None:
    """Fresh protocol instances everywhere, then START everywhere.

    Crashed nodes stay crashed — a re-election is a software round, not
    a repair crew.  Surviving nodes drop their old instance state (the
    Bully-style "coordinator died, start over" round) and race again.
    Each one restarts through :meth:`Node.restart`, as
    :meth:`Network.restart_node` does: the new incarnation discards the
    timers the replaced instance armed, which would otherwise fire into
    the fresh one.
    """
    factory = net._protocol_factory
    if factory is None:
        raise RuntimeError("cannot re-elect: no protocol was attached")
    for node in net.nodes.values():
        if not node.ncu.crashed:
            node.restart(factory)
    net.start(
        node_id for node_id, node in net.nodes.items() if not node.ncu.crashed
    )


@dataclass(frozen=True)
class CompiledScenario:
    """Receipt for one compiled spec (diagnostics, not a handle)."""

    name: str
    events: int
    last_event_time: float


def compile_scenario(net: "Network", spec: ScenarioSpec) -> CompiledScenario:
    """Schedule every event of ``spec`` onto ``net``'s scheduler.

    Events are scheduled in spec order at their absolute times; the
    scheduler's (time, priority, sequence) ordering then fixes the
    execution order deterministically.  The caller is responsible for
    having attached a protocol first when the spec needs one
    (``restart``/``reelect`` require a remembered factory).
    """
    scheduler = net.scheduler
    for event in spec.events:
        op, target, at = event.op, event.target, event.at
        if op == "fail_link":
            u, v = target
            scheduler.schedule_at(
                at, net.fail_link, tag="scenario:fail_link", args=(u, v)
            )
        elif op == "restore_link":
            u, v = target
            scheduler.schedule_at(
                at, net.restore_link, tag="scenario:restore_link", args=(u, v)
            )
        elif op == "fail_node":
            scheduler.schedule_at(
                at, net.fail_node, tag="scenario:fail_node", args=(target,)
            )
        elif op == "restore_node":
            scheduler.schedule_at(
                at, net.restore_node, tag="scenario:restore_node", args=(target,)
            )
        elif op == "crash":
            scheduler.schedule_at(
                at, net.crash_node, tag="scenario:crash", args=(target,)
            )
        elif op == "restart":
            scheduler.schedule_at(
                at, net.restart_node, tag="scenario:restart", args=(target,)
            )
        elif op == "partition":
            scheduler.schedule_at(
                at, net.partition, tag="scenario:partition", args=(target,)
            )
        elif op == "heal":
            scheduler.schedule_at(at, net.heal, tag="scenario:heal")
        elif op == "start":
            scheduler.schedule_at(
                at, net.start, tag="scenario:start", args=(target,)
            )
        elif op == "reelect":
            scheduler.schedule_at(
                at, _reelect, tag="scenario:reelect", args=(net,)
            )
        else:  # pragma: no cover - ScenarioEvent validates ops
            raise ValueError(f"unknown scenario op {op!r}")
    return CompiledScenario(
        name=spec.name, events=len(spec.events), last_event_time=spec.last_event_time
    )

