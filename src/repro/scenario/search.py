"""Adversarial-delay search over scenarios, as a campaign.

:func:`random_delay_search` (see :mod:`repro.sim.adversary`) explores
delay assignments serially in-process.  This module runs the same
exploration *through the campaign engine*: each trial is a cacheable
:class:`~repro.exec.task.TaskSpec`, so a search shards across workers
(byte-identical rows at any ``--jobs``), resumes after a kill with zero
recomputation, and reports its worst-found time and system-call counts
alongside the closed-form bounds of :mod:`repro.analysis.closed_forms`
— which, per the paper, it must never exceed.
"""

from __future__ import annotations

from typing import Any

from ..exec.task import TaskSpec
from ..sim.seeding import derive_seed
from .runner import scenario_metrics
from .spec import ScenarioSpec

#: Eps for "worst ≤ bound" float comparisons (mirrors SearchResult).
_EPS = 1e-9


def delay_search_specs(
    spec: ScenarioSpec,
    *,
    trials: int = 20,
    root_seed: int = 0,
    bias: float = 0.5,
) -> list[TaskSpec]:
    """Task specs for one search: the at-bounds run plus ``trials``
    seeded adversarial runs.

    Trial seeds derive from ``root_seed`` and the scenario name alone,
    so a search is reproducible from its root seed and spec — no other
    state — and re-running any subset hits the cache.
    """
    payload = spec.to_dict()
    specs = [
        TaskSpec.make(
            "repro.scenario.runner:scenario_metrics",
            spec=payload,
            bias=bias,
            label=f"{spec.name}[at-bounds]",
        )
    ]
    for trial in range(trials):
        specs.append(
            TaskSpec.make(
                "repro.scenario.runner:scenario_metrics",
                seed=derive_seed(root_seed, "delay-search", spec.name, trial),
                spec=payload,
                bias=bias,
                label=f"{spec.name}[trial {trial}]",
            )
        )
    return specs


def election_rounds(spec: ScenarioSpec) -> int:
    """How many election rounds the spec triggers (bound accounting).

    Every ``start`` and ``reelect`` launches one network-wide round;
    every ``restart`` boots one node whose START can trigger another.
    Each round costs at most Theorem 5's ``6n`` tour+return calls, so
    ``rounds * election_message_bound(n)`` bounds the whole scenario.
    """
    rounds = 0
    for event in spec.events:
        if event.op in ("start", "reelect", "restart"):
            rounds += 1
    return max(rounds, 1)


def search_report(
    spec: ScenarioSpec, rows: list[dict[str, Any]]
) -> dict[str, Any]:
    """Fold campaign rows into the search verdict vs the closed forms.

    ``rows`` must be in spec order (at-bounds first, then trials) —
    exactly what :meth:`CampaignOutcome.values` yields for
    :func:`delay_search_specs`.  The system-call bound is per-round
    Theorem 5 (``6n`` tour+return calls) times the number of rounds the
    scenario triggers; there is no closed form for elapsed time under
    churn, so the time side reports observations only.
    """
    from ..analysis.closed_forms import election_message_bound
    from ..network.builder import topology_from_spec

    if not rows:
        raise ValueError("search_report needs at least the at-bounds row")
    at_bounds = rows[0]
    worst_time = max(rows, key=lambda r: r["final_time"])
    worst_calls = max(rows, key=lambda r: r["tour_return_calls"])
    n = len(topology_from_spec(spec.topology).node_order())
    calls_bound: float | None = None
    if spec.protocol == "election":
        calls_bound = float(election_rounds(spec) * election_message_bound(n))
    return {
        "scenario": spec.name,
        "n": n,
        "trials": len(rows) - 1,
        "at_bounds_time": at_bounds["final_time"],
        "at_bounds_calls": at_bounds["tour_return_calls"],
        "worst_time": worst_time["final_time"],
        "worst_time_row": rows.index(worst_time),
        "worst_calls": worst_calls["tour_return_calls"],
        "worst_calls_row": rows.index(worst_calls),
        "calls_bound": calls_bound,
        "within_bounds": (
            calls_bound is None
            or worst_calls["tour_return_calls"] <= calls_bound + _EPS
        ),
        "violations": sum(r["violations"] for r in rows),
    }


def run_delay_search(
    spec: ScenarioSpec,
    *,
    trials: int = 20,
    root_seed: int = 0,
    bias: float = 0.5,
    jobs: int = 1,
    cache: Any = None,
    max_tasks: int | None = None,
    on_result: Any = None,
) -> tuple[Any, dict[str, Any] | None]:
    """Run the search as a campaign; returns ``(outcome, report)``.

    The report is ``None`` when the campaign did not complete (failed
    or interrupted by ``max_tasks`` — resume with the same cache to
    finish without recomputation).
    """
    from ..exec.engine import run_campaign

    specs = delay_search_specs(
        spec, trials=trials, root_seed=root_seed, bias=bias
    )
    outcome = run_campaign(
        specs, jobs=jobs, cache=cache, max_tasks=max_tasks, on_result=on_result
    )
    if outcome.failures or outcome.interrupted:
        return outcome, None
    report = search_report(spec, outcome.values())
    # Row 0 is the at-bounds run (seed None); others carry the derived
    # adversary seed, directly reusable with SeededAdversary.
    report["worst_time_seed"] = specs[report["worst_time_row"]].seed
    report["worst_calls_seed"] = specs[report["worst_calls_row"]].seed
    return outcome, report
