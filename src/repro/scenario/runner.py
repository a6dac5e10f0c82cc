"""Run scenario specs: protocol attachment and the campaign task.

:func:`run_scenario` drives one spec on a prepared network and returns
a deterministic, JSON-able result row.  :func:`scenario_metrics` is the
module-level campaign task function — scenarios become cacheable,
resumable :class:`~repro.exec.task.TaskSpec`\\s with byte-identical
rows across shard counts, exactly like every other campaign workload
(see :mod:`repro.exec.workloads` for the idiom).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .compiler import compile_scenario
from .spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network


def attach_protocol(net: "Network", spec: ScenarioSpec) -> None:
    """Attach the spec's protocol to ``net`` (no-op for ``"none"``)."""
    if spec.protocol == "election":
        from ..core.election import LeaderElection

        net.attach(LeaderElection)
    else:
        from ..network.protocol import Protocol

        net.attach(Protocol)


def run_scenario(
    net: "Network", spec: ScenarioSpec, *, monitor: bool = True
) -> dict[str, Any]:
    """Attach, compile and run ``spec`` on ``net``; return the row.

    With ``monitor`` (the default) a
    :class:`~repro.obs.monitors.ChurnMonitor` rides along and its
    alert/violation counts land in the row — a conforming run reports
    ``violations == 0``.  Every value in the row is deterministic, so
    identical specs produce byte-identical rows wherever they run.
    """
    from ..obs.monitors import ChurnMonitor, MonitorHost

    attach_protocol(net, spec)
    compile_scenario(net, spec)
    host = None
    if monitor:
        churn = ChurnMonitor(net, expect_leaders=spec.protocol == "election")
        host = MonitorHost(net, [churn]).install()
    # No implicit START: the spec's own events say who starts when.
    final_time = net.run_to_quiescence()
    alerts = host.finish() if host is not None else []
    metrics = net.metrics
    leaders = sorted(
        (
            repr(node_id)
            for node_id, value in net.outputs_for_key("is_leader").items()
            if value and not net.nodes[node_id].ncu.crashed
        ),
    )
    return {
        "scenario": spec.name,
        "final_time": float(final_time),
        "system_calls": int(metrics.system_calls),
        "tour_return_calls": int(
            metrics.system_calls_of_kind("tour")
            + metrics.system_calls_of_kind("return")
        ),
        "hops": int(metrics.hops),
        "drops": int(metrics.drops),
        "events": int(net.scheduler.events_processed),
        "leaders": leaders,
        "components": len(net.components()),
        "alerts": len(alerts),
        "violations": sum(1 for a in alerts if a.severity == "violation"),
    }


def scenario_metrics(
    seed: int | None = None, *, spec: dict, bias: float | None = None
) -> dict[str, Any]:
    """Campaign task: one scenario run, one row.

    ``spec`` is a :meth:`ScenarioSpec.to_dict` payload (plain JSON, so
    it hashes into the cache key).  Without a ``seed`` the run uses the
    worst-case pinned delays ``FixedDelays(C, P)``; with one, a
    :class:`~repro.sim.adversary.SeededAdversary` explores a random
    delay assignment within the same (C, P) bounds — the unit of the
    adversarial-delay search.
    """
    from ..exec.substrate import worker_pool
    from ..sim.adversary import SeededAdversary
    from ..sim.delays import FixedDelays

    scenario = ScenarioSpec.from_dict(spec)
    if seed is None:
        delays = FixedDelays(scenario.C, scenario.P)
    else:
        delays = SeededAdversary(
            scenario.C,
            scenario.P,
            seed=seed,
            bias=0.5 if bias is None else bias,
        )
    net = worker_pool().acquire(scenario.topology, delays=delays)
    return run_scenario(net, scenario)
