"""Declarative scenario specs: churn as data.

A :class:`ScenarioSpec` is the portable description of one failure
story — which topology, which (C, P) bounds, which protocol, and a
time-ordered list of :class:`ScenarioEvent`\\s (link/node failures and
recoveries, partitions and heals, NCU crashes and restarts, START
phases).  Specs are plain JSON-serialisable data so they can ride
inside campaign :class:`~repro.exec.task.TaskSpec` params, hash into
cache keys, and replay byte-identically anywhere.

:func:`churn_scenario` generates a canonical seeded spec — partition,
crash during the cut, heal, restart, final re-election — from a single
integer seed via :func:`~repro.sim.seeding.derive_seed`, which is what
the CLI presets and the CI smoke campaign run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ..sim.seeding import derive_seed

#: Operations a scenario event may perform, with their target shapes:
#:
#: ============== ======================================================
#: op             target
#: ============== ======================================================
#: fail_link      ``(u, v)`` endpoint pair
#: restore_link   ``(u, v)`` endpoint pair
#: fail_node      node ID (links down, software intact)
#: restore_node   node ID
#: crash          node ID (links down **and** NCU state lost)
#: restart        node ID (fresh protocol instance + START)
#: partition      tuple of node-ID tuples (the groups)
#: heal           ``None`` (restore every inactive link)
#: start          tuple of node IDs, or ``None`` for all nodes
#: reelect        ``None`` (fresh protocol instances + START everywhere)
#: ============== ======================================================
OPS = (
    "fail_link",
    "restore_link",
    "fail_node",
    "restore_node",
    "crash",
    "restart",
    "partition",
    "heal",
    "start",
    "reelect",
)

#: Protocols a scenario can attach: the paper's leader election, or
#: none (bare substrate, for pure link-churn timing studies).
PROTOCOLS = ("election", "none")


def _freeze(value: Any) -> Any:
    """Recursively convert lists to tuples (JSON round-trip safety)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _thaw(value: Any) -> Any:
    """Recursively convert tuples to lists for JSON output."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


@dataclass(frozen=True)
class ScenarioEvent:
    """One scheduled operation: ``op`` applied to ``target`` at ``at``."""

    at: float
    op: str
    target: Any = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown scenario op {self.op!r}; choose from {OPS}")
        if self.at < 0:
            raise ValueError(f"event time must be >= 0, got {self.at}")
        object.__setattr__(self, "target", _freeze(self.target))

    def to_dict(self) -> dict[str, Any]:
        return {"at": self.at, "op": self.op, "target": _thaw(self.target)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioEvent":
        return cls(
            at=float(data["at"]), op=data["op"], target=data.get("target")
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete scenario: substrate, protocol and event schedule."""

    name: str
    topology: str
    C: float = 0.0
    P: float = 1.0
    protocol: str = "election"
    events: tuple[ScenarioEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; choose from {PROTOCOLS}"
            )
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def last_event_time(self) -> float:
        """Time of the latest scheduled event (0.0 when empty)."""
        return max((event.at for event in self.events), default=0.0)

    def ops(self) -> tuple[str, ...]:
        """The ops in schedule order (diagnostics and bound accounting)."""
        return tuple(event.op for event in sorted(self.events, key=lambda e: e.at))

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "topology": self.topology,
            "C": self.C,
            "P": self.P,
            "protocol": self.protocol,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        return cls(
            name=data["name"],
            topology=data["topology"],
            C=float(data.get("C", 0.0)),
            P=float(data.get("P", 1.0)),
            protocol=data.get("protocol", "election"),
            events=tuple(
                ScenarioEvent.from_dict(event) for event in data.get("events", ())
            ),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        return cls.from_json(Path(path).read_text())


def churn_scenario(
    topology: str,
    *,
    seed: int,
    C: float = 0.0,
    P: float = 1.0,
    crashes: int = 1,
    partition: bool = True,
    spacing: float = 200.0,
) -> ScenarioSpec:
    """A canonical seeded churn story on ``topology``.

    Deterministic in ``(topology, seed, crashes, partition, spacing)``:
    the node choices come from ``random.Random(derive_seed(...))``, a
    *local* RNG — no module-global state.  Shape::

        t=0          START everywhere (first election)
        t=1·spacing  partition into two halves   (if ``partition``)
        t=2·spacing  crash 1..k victims (state loss)
        t=3·spacing  heal every cut link
        t=4·spacing  restart the victims (rejoin + START)
        t=5·spacing  re-elect: fresh instances + START everywhere

    The final re-election guarantees a conforming run converges to
    exactly one leader per (now single) component, which is what
    :class:`~repro.obs.monitors.ChurnMonitor` asserts at finish.
    """
    from ..network.builder import topology_from_spec

    if crashes < 1:
        raise ValueError("crashes must be >= 1")
    if spacing <= 0:
        raise ValueError("spacing must be > 0")
    node_ids = sorted(topology_from_spec(topology).node_order(), key=repr)
    if crashes >= len(node_ids):
        raise ValueError(f"crashes={crashes} needs a topology with more nodes")
    rng = random.Random(
        derive_seed(seed, "scenario", topology, crashes, int(partition))
    )
    events: list[ScenarioEvent] = [ScenarioEvent(at=0.0, op="start", target=None)]
    t = spacing
    if partition:
        half = len(node_ids) // 2
        groups = (tuple(node_ids[:half]), tuple(node_ids[half:]))
        events.append(ScenarioEvent(at=t, op="partition", target=groups))
        t += spacing
    victims = rng.sample(node_ids, crashes)
    for victim in victims:
        events.append(ScenarioEvent(at=t, op="crash", target=victim))
    t += spacing
    if partition:
        events.append(ScenarioEvent(at=t, op="heal", target=None))
        t += spacing
    for victim in victims:
        events.append(ScenarioEvent(at=t, op="restart", target=victim))
    t += spacing
    events.append(ScenarioEvent(at=t, op="reelect", target=None))
    return ScenarioSpec(
        name=f"churn-{topology}-s{seed}",
        topology=topology,
        C=C,
        P=P,
        protocol="election",
        events=tuple(events),
    )
