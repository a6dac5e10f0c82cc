"""The campaign engine: sharded execution with deterministic results.

:func:`run_campaign` takes an ordered list of :class:`TaskSpec`\\s and
returns one :class:`TaskResult` per spec, *in spec order*, no matter
how many shards ran or in what order they finished.  Determinism falls
out of three rules:

1. tasks are pure functions of their spec (params + derived seed), so
   where they run cannot change what they return;
2. every task value is normalised through canonical JSON the moment it
   is produced, so fresh, pickled-across-a-pool and read-from-cache
   values are the same Python objects;
3. results are assembled by spec index, never by completion order.

Scheduling is the fan-out/aggregate pattern: a
``ProcessPoolExecutor`` with ``jobs`` workers, topped up as futures
settle.  Worker crashes surface as ``BrokenProcessPool`` — the pool is
rebuilt and the victims retried up to ``retries`` extra attempts each.
A task exceeding ``timeout`` seconds gets its pool killed and is
marked failed; collateral tasks that died in the same kill are retried
without consuming a retry.  Completed work is written to the
:class:`~repro.exec.cache.ResultCache` as it lands, so an interrupted
campaign re-runs only what never finished.
"""

from __future__ import annotations

import json
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from .cache import ResultCache
from .task import TaskSpec, canonical_json

#: TaskResult.status values, in the order a task moves through them.
STATUSES = ("ok", "cached", "failed", "skipped")


class CampaignError(RuntimeError):
    """Raised by :meth:`CampaignOutcome.values` when tasks failed."""


@dataclass(frozen=True)
class TaskResult:
    """How one spec fared: its value plus execution provenance."""

    spec: TaskSpec
    status: str
    value: Any = None
    attempts: int = 0
    wall_ms: float = 0.0
    error: str | None = None
    key: str | None = None
    #: Serialised per-task perf registry (``PerfCounters.to_dict()``)
    #: when the campaign ran with ``perf=True``; ``None`` otherwise
    #: (cached and failed tasks never carry one).
    perf: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")

    @property
    def cache_hit(self) -> bool:
        return self.status == "cached"


@dataclass(frozen=True)
class CampaignOutcome:
    """Everything a campaign produced, results in spec order."""

    results: tuple[TaskResult, ...]
    jobs: int
    retries_used: int = 0
    wall_ms: float = 0.0

    @property
    def executed(self) -> int:
        return sum(1 for r in self.results if r.status == "ok")

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.status == "cached")

    @property
    def failures(self) -> tuple[TaskResult, ...]:
        return tuple(r for r in self.results if r.status == "failed")

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.results if r.status == "skipped")

    @property
    def interrupted(self) -> bool:
        """True when ``max_tasks`` stopped the campaign before the end."""
        return self.skipped > 0

    def merged_perf(self) -> dict[str, Any] | None:
        """All per-task perf registries folded into one serialised dict.

        Counters sum and histograms merge bin-exactly (fixed bounds),
        so the aggregate is independent of sharding.  ``None`` when no
        task carried perf data (campaign ran without ``perf=True``, or
        everything was cached).
        """
        perfs = [r.perf for r in self.results if r.perf]
        if not perfs:
            return None
        from ..obs.perf import merge_perf_dicts

        return merge_perf_dicts(perfs)

    def values(self, *, strict: bool = True) -> list[Any]:
        """Task values in spec order.

        With ``strict`` (the default) any failed or skipped task raises
        :class:`CampaignError` — silently dropping rows would corrupt a
        sweep's alignment with its parameter grid.
        """
        if strict:
            bad = [r for r in self.results if not r.ok]
            if bad:
                first = bad[0]
                raise CampaignError(
                    f"{len(bad)} of {len(self.results)} tasks did not "
                    f"complete (first: {first.spec.label!r} "
                    f"{first.status}{': ' + first.error if first.error else ''})"
                )
        return [r.value for r in self.results if r.ok]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _init_worker(paths: list[str]) -> None:
    """Replicate the parent's import path (spawn-safe)."""
    for p in reversed(paths):
        if p not in sys.path:
            sys.path.insert(0, p)


def _execute(
    canonical_spec: dict, label: str, collect_perf: bool = False
) -> tuple[Any, float, dict[str, Any] | None]:
    """Run one spec; returns ``(json-normalised value, wall_ms, perf)``.

    With ``collect_perf`` a process-global
    :class:`~repro.obs.perf.PerfCounters` registry is active for the
    duration of the task, so networks built *inside* the task function
    (including substrate-pool builds/resets) are attributed to it; the
    registry is returned serialised, ready to cross the pickle
    boundary.  Counter values are deterministic — only the wall-clock
    timers vary run to run — and collection never touches the task's
    value, so cache keys and results are identical either way.
    """
    spec = TaskSpec.from_canonical(canonical_spec, label)
    counters = None
    if collect_perf:
        from ..obs.perf import PerfCounters

        counters = PerfCounters().activate()
    t0 = time.perf_counter()
    try:
        value = spec.execute()
    finally:
        if counters is not None:
            counters.deactivate()
    wall_ms = (time.perf_counter() - t0) * 1000.0
    perf = counters.to_dict() if counters is not None else None
    return json.loads(canonical_json(value)), wall_ms, perf


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
@dataclass
class _Pending:
    index: int
    attempts: int = 0
    timeout_victim: bool = field(default=False, repr=False)


def run_campaign(
    specs: Sequence[TaskSpec] | Iterable[TaskSpec],
    *,
    jobs: int = 1,
    cache: ResultCache | str | Path | None = None,
    timeout: float | None = None,
    retries: int = 2,
    max_tasks: int | None = None,
    on_result: Callable[[TaskResult], None] | None = None,
    perf: bool = False,
) -> CampaignOutcome:
    """Execute ``specs`` across ``jobs`` shards; see module docstring.

    ``cache`` may be a :class:`ResultCache`, a directory path, or
    ``None`` (no persistence).  ``max_tasks`` caps the number of
    *fresh executions* this invocation performs — the tool behind
    resumability tests and incremental campaigns; tasks beyond the cap
    are reported ``skipped``.  ``on_result`` is called once per task as
    it settles (settlement order, for progress display only).  With
    ``perf`` each fresh execution carries a per-task
    :class:`~repro.obs.perf.PerfCounters` snapshot on
    :attr:`TaskResult.perf` (merge them via
    :meth:`CampaignOutcome.merged_perf`); values and cache keys are
    unaffected.
    """
    specs = list(specs)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)

    t_start = time.perf_counter()
    results: dict[int, TaskResult] = {}

    def settle(index: int, result: TaskResult) -> None:
        results[index] = result
        if on_result is not None:
            on_result(result)

    # Cache pass: anything already on disk settles immediately.
    todo: list[int] = []
    for index, spec in enumerate(specs):
        entry = cache.get(spec) if cache is not None else None
        if entry is not None:
            settle(index, TaskResult(
                spec=spec, status="cached", value=entry.value,
                wall_ms=entry.wall_ms, key=entry.key,
            ))
        else:
            todo.append(index)

    budget = len(todo) if max_tasks is None else max(0, min(max_tasks, len(todo)))
    for index in todo[budget:]:
        settle(index, TaskResult(spec=specs[index], status="skipped"))
    todo = todo[:budget]

    retries_used = 0

    def finish(
        index: int,
        value: Any,
        wall_ms: float,
        attempts: int,
        task_perf: dict[str, Any] | None = None,
    ) -> None:
        spec = specs[index]
        key = cache.put(spec, value, wall_ms) if cache is not None else None
        settle(index, TaskResult(
            spec=spec, status="ok", value=value,
            attempts=attempts, wall_ms=wall_ms, key=key, perf=task_perf,
        ))

    def fail(index: int, error: str, attempts: int) -> None:
        settle(index, TaskResult(
            spec=specs[index], status="failed", error=error, attempts=attempts,
        ))

    if jobs == 1:
        for index in todo:
            spec = specs[index]
            try:
                value, wall_ms, task_perf = _execute(
                    spec.canonical(), spec.label, perf
                )
            except Exception as exc:  # reported, not hidden
                fail(index, f"{type(exc).__name__}: {exc}", attempts=1)
                continue
            finish(index, value, wall_ms, attempts=1, task_perf=task_perf)
    elif todo:
        retries_used = _run_pool(
            specs, todo, jobs=jobs, timeout=timeout, retries=retries,
            finish=finish, fail=fail, perf=perf,
        )

    ordered = tuple(results[i] for i in range(len(specs)))
    return CampaignOutcome(
        results=ordered,
        jobs=jobs,
        retries_used=retries_used,
        wall_ms=(time.perf_counter() - t_start) * 1000.0,
    )


def _run_pool(
    specs: Sequence[TaskSpec],
    todo: Sequence[int],
    *,
    jobs: int,
    timeout: float | None,
    retries: int,
    finish: Callable[..., None],
    fail: Callable[[int, str, int], None],
    perf: bool = False,
) -> int:
    """The sharded execution loop; returns total retry attempts used."""
    from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    queue: deque[_Pending] = deque(_Pending(index) for index in todo)
    inflight: dict[Future, tuple[_Pending, float]] = {}
    retries_used = 0

    def make_executor() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(list(sys.path),),
        )

    def kill(executor: ProcessPoolExecutor) -> None:
        """Hard-stop every worker (timeout enforcement)."""
        processes: Mapping[int, Any] = getattr(executor, "_processes", {}) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:  # already dying
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    def crashed(pending: _Pending) -> None:
        """One pending task lost its worker; retry or fail it."""
        nonlocal retries_used
        if pending.timeout_victim:
            fail(pending.index, f"timeout after {timeout:g}s", pending.attempts)
        elif pending.attempts <= retries:
            retries_used += 1
            queue.append(pending)
        else:
            fail(
                pending.index,
                "worker crashed (retries exhausted)",
                pending.attempts,
            )

    def drain_broken() -> None:
        """Settle every in-flight future of a now-broken pool."""
        for future, (pending, _t0) in list(inflight.items()):
            try:
                value, wall_ms, task_perf = future.result(timeout=60)
            except Exception:  # pool is gone
                crashed(pending)
            else:
                finish(
                    pending.index, value, wall_ms, pending.attempts,
                    task_perf=task_perf,
                )
        inflight.clear()

    executor = make_executor()
    try:
        while queue or inflight:
            broken = False
            while queue and len(inflight) < jobs and not broken:
                pending = queue.popleft()
                pending.attempts += 1
                spec = specs[pending.index]
                try:
                    future = executor.submit(
                        _execute, spec.canonical(), spec.label, perf
                    )
                except (BrokenProcessPool, RuntimeError):
                    pending.attempts -= 1
                    queue.appendleft(pending)
                    broken = True
                else:
                    inflight[future] = (pending, time.monotonic())

            if inflight and not broken:
                done, _ = wait(
                    set(inflight),
                    timeout=0.05 if timeout is not None else None,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    pending, _t0 = inflight.pop(future)
                    try:
                        value, wall_ms, task_perf = future.result()
                    except BrokenProcessPool:
                        broken = True
                        crashed(pending)
                    except Exception as exc:  # task's own error
                        fail(
                            pending.index,
                            f"{type(exc).__name__}: {exc}",
                            pending.attempts,
                        )
                    else:
                        finish(
                            pending.index, value, wall_ms, pending.attempts,
                            task_perf=task_perf,
                        )

            if timeout is not None and not broken:
                now = time.monotonic()
                overdue = [
                    (future, pending)
                    for future, (pending, t0) in inflight.items()
                    if now - t0 > timeout and not future.done()
                ]
                if overdue:
                    for _future, pending in overdue:
                        pending.timeout_victim = True
                    # Everyone else in flight dies innocently in the
                    # kill below: hand their attempt back so collateral
                    # damage never consumes a retry.
                    for _future, (pending, _t0) in inflight.items():
                        if not pending.timeout_victim:
                            pending.attempts -= 1
                            queue.append(pending)
                    for _future, pending in overdue:
                        fail(
                            pending.index,
                            f"timeout after {timeout:g}s",
                            pending.attempts,
                        )
                    kill(executor)
                    inflight.clear()
                    executor = make_executor()
                    continue

            if broken:
                drain_broken()
                executor.shutdown(wait=True, cancel_futures=True)
                executor = make_executor()
    finally:
        # wait=True: a half-shut pool racing interpreter exit trips
        # concurrent.futures' atexit hook on closed pipes.
        executor.shutdown(wait=True, cancel_futures=True)
    return retries_used
