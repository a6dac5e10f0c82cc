"""Per-subsystem performance attribution: counters, timers, sampling.

Two complementary tools, both dormant-by-default:

* :class:`PerfCounters` — a registry of monotonic per-subsystem counters
  and wall-clock timers (scheduler push/pop, SS hops, NCU job service,
  trace emission, substrate build/reset).  Most are a read-out of
  counts the scheduler, metrics and trace keep anyway, folded in by
  ``Network.run()`` and ``reset()``; the NCU handler timer wraps
  ``Protocol.dispatch`` from the outside; the substrate pool, off the
  hot path, is the one place with hooks of its own.  Counters of
  parallel campaign workers merge losslessly
  (:meth:`PerfCounters.merge`), including the NCU handler wall-time
  histogram, whose bin bounds are fixed process-wide for exactly that
  reason.

* :class:`SamplingProfiler` — a thread-based stack sampler (configurable
  Hz) that emits collapsed-stack text and speedscope JSON flamegraphs.
  Unlike ``repro bench --profile`` (cProfile), sampling does not inflate
  every function call, so before/after attribution of kernel refactors
  stays honest; unlike counters it sees *all* Python frames, not just
  the pre-chosen subsystems.

Activation has one scope: ``counters.activate()`` (or ``with
counters:``) sets the ``Network.perf`` class attribute and wraps
``Protocol.dispatch``, so every network in this process feeds the
registry — how campaign workers attribute whole tasks.
``PerfCounters.deactivate()`` undoes the latest activation; an outer
registry collects again once an inner one exits.  The simulator never
imports this package, and with no registry active no hot path holds
any of its code.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import threading
import tracemalloc
from pathlib import Path
from time import perf_counter as _perf_counter
from typing import Any, Callable, Mapping

from ..metrics.report import format_table
from .live import Histogram

#: Fixed bin bounds (microseconds) for the NCU handler wall-time
#: histogram.  Deliberately not configurable per instance: histograms
#: collected by different campaign workers must always merge.
HANDLER_US_BOUNDS: tuple[float, ...] = Histogram.geometric(0.5, 50_000.0, 12).bounds

#: Monotonic event counters.  Five are folded from the scheduler,
#: metrics and trace (:meth:`PerfCounters.fold`), ``ncu_jobs`` is
#: counted by the ``dispatch`` wrapper, and the substrate pool counts
#: its builds and resets.
COUNTER_FIELDS = (
    "sched_push",
    "sched_pop",
    # Cancelled entries swept out of the queue without firing.  Closes
    # the queue ledger: after a network's fold,
    # ``sched_push == sched_pop + sched_cancelled_drops + pending``.
    "sched_cancelled_drops",
    "ss_hops",
    "ncu_jobs",
    "trace_records",
    "substrate_builds",
    "substrate_resets",
)

#: Cumulative wall-clock timers (seconds), one per timed region.
TIMER_FIELDS = (
    "sched_run_s",
    "ncu_handler_s",
    "substrate_build_s",
    "substrate_reset_s",
)

#: One entry per active registry, innermost last: the ``Network.perf``
#: and the ``Protocol.dispatch`` its activation replaced.
_ACTIVATIONS: list[tuple[Any, Callable[..., None]]] = []


class PerfCounters:
    """Per-subsystem monotonic counters, timers and a service histogram.

    All counter/timer fields are plain attributes so a hook pays one
    in-place add, nothing more.  ``handler_us`` is the NCU handler
    wall-time histogram (microseconds, fixed bounds).
    """

    __slots__ = COUNTER_FIELDS + TIMER_FIELDS + ("handler_us",)

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Zero every counter, timer and the histogram."""
        for name in COUNTER_FIELDS:
            setattr(self, name, 0)
        for name in TIMER_FIELDS:
            setattr(self, name, 0.0)
        self.handler_us = Histogram(HANDLER_US_BOUNDS)

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    def activate(self) -> "PerfCounters":
        """Collect from every network in this process; returns self.

        Sets ``Network.perf`` and wraps ``Protocol.dispatch``, which the
        NCU looks up on the protocol at every job, in the handler timer
        (``ncu_jobs``, ``ncu_handler_s``, ``handler_us``).  A subclass
        that overrides ``dispatch`` is timed where it calls the base
        one.  Each activation wraps the untimed function, so nested
        registries never time a job twice.
        """
        from ..network.network import Network
        from ..network.protocol import Protocol

        dispatch = Protocol.__dict__["dispatch"]
        untimed = _ACTIVATIONS[0][1] if _ACTIVATIONS else dispatch

        def timed_dispatch(protocol: Any, api: Any, job: Any) -> None:
            t0 = _perf_counter()
            try:
                untimed(protocol, api, job)
            finally:
                dt = _perf_counter() - t0
                self.ncu_jobs += 1
                self.ncu_handler_s += dt
                self.handler_us.add(dt * 1e6)

        _ACTIVATIONS.append((Network.perf, dispatch))
        Network.perf = self
        Protocol.dispatch = timed_dispatch
        return self

    @staticmethod
    def deactivate() -> None:
        """Undo the latest :meth:`activate` (a no-op when none is active)."""
        if not _ACTIVATIONS:
            return
        from ..network.network import Network
        from ..network.protocol import Protocol

        Network.perf, Protocol.dispatch = _ACTIVATIONS.pop()

    def __enter__(self) -> "PerfCounters":
        return self.activate()

    def __exit__(self, *exc: Any) -> bool:
        self.deactivate()
        return False

    def fold(
        self, pushed: int, fired: int, dropped: int, hops: int, records: int
    ) -> None:
        """Add one network's counts since its previous fold (``Network.run``)."""
        self.sched_push += pushed
        self.sched_pop += fired
        self.sched_cancelled_drops += dropped
        self.ss_hops += hops
        self.trace_records += records

    # ------------------------------------------------------------------
    # Aggregation and serialisation
    # ------------------------------------------------------------------
    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Fold another registry's totals into this one; returns self."""
        for name in COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in TIMER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.handler_us.merge(other.handler_us)
        return self

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict: counters, timers and the handler histogram."""
        return {
            "counters": {name: getattr(self, name) for name in COUNTER_FIELDS},
            "timers_s": {name: getattr(self, name) for name in TIMER_FIELDS},
            "handler_us": self.handler_us.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PerfCounters":
        """Inverse of :meth:`to_dict` (tolerates missing fields)."""
        self = cls()
        counters = data.get("counters", {})
        for name in COUNTER_FIELDS:
            setattr(self, name, int(counters.get(name, 0)))
        timers = data.get("timers_s", {})
        for name in TIMER_FIELDS:
            setattr(self, name, float(timers.get(name, 0.0)))
        hist = data.get("handler_us")
        if hist:
            self.handler_us = Histogram.from_dict(hist)
        return self

    def render(self, *, title: str = "perf attribution") -> str:
        """Text report in the repo's standard table style."""
        rows: list[list[Any]] = [
            [name, getattr(self, name)] for name in COUNTER_FIELDS
        ]
        rows += [
            [name, f"{getattr(self, name) * 1000.0:.3f} ms"]
            for name in TIMER_FIELDS
        ]
        out = [format_table(["counter", "value"], rows, title=title)]
        if self.handler_us.count:
            out.append(
                format_table(
                    ["measure", "count", "mean", "p50", "p95", "min", "max"],
                    [self.handler_us.summary_row("ncu handler wall (us)")],
                )
            )
        return "\n\n".join(out)


def measure_build_bytes_per_node(
    build: Callable[[], Any], *, nodes: int | None = None
) -> float:
    """Bytes per node that ``build()`` retains, read with tracemalloc.

    ``build`` is a zero-argument constructor (typically a ``Network``
    build).  The reading is tracemalloc's *current* traced total after
    ``build`` returns and one ``gc.collect()`` (which empties the
    interpreter's free lists): what the construction retained, not its
    transient peak.  It is divided by ``nodes``, which defaults to the
    built object's ``n`` attribute (ValueError when neither gives a
    count).  Incompatible with an already-running tracemalloc session
    (raises RuntimeError rather than corrupting it).
    """
    if tracemalloc.is_tracing():
        raise RuntimeError(
            "tracemalloc is already tracing; stop it before measuring a build"
        )
    tracemalloc.start()
    try:
        built = build()
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    count = nodes if nodes is not None else getattr(built, "n", None)
    if not count:
        raise ValueError(
            "node count unavailable: pass nodes= or build an object with .n"
        )
    return current / count


def merge_perf_dicts(dicts: list[Mapping[str, Any]]) -> dict[str, Any] | None:
    """Merge serialised per-task registries; ``None`` when none given."""
    dicts = [d for d in dicts if d]
    if not dicts:
        return None
    merged = PerfCounters.from_dict(dicts[0])
    for data in dicts[1:]:
        merged.merge(PerfCounters.from_dict(data))
    return merged.to_dict()


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------
class SamplingProfiler:
    """Thread-based stack sampler for flamegraph attribution.

    A daemon thread wakes every ``1/hz`` seconds and walks the target
    thread's current stack via ``sys._current_frames()``.  The sampled
    program runs unmodified — no per-call bookkeeping — so wall-clock
    attribution is honest where cProfile's is inflated; the price is
    statistical resolution (features shorter than a few sample periods
    are invisible).

    Output formats:

    * :meth:`write_collapsed` — Brendan Gregg collapsed-stack lines
      (``frame;frame;frame count``), ready for ``flamegraph.pl`` and
      most flamegraph viewers;
    * :meth:`write_speedscope` — a speedscope JSON "sampled" profile
      for https://www.speedscope.app.
    """

    def __init__(self, hz: float = 101.0) -> None:
        if hz <= 0:
            raise ValueError("sampling rate must be positive")
        self.interval = 1.0 / hz
        self._counts: dict[tuple[str, ...], int] = {}
        self._labels: dict[Any, str] = {}
        self._samples = 0
        self._target: int | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    @property
    def samples(self) -> int:
        """Stacks captured so far."""
        return self._samples

    def start(self) -> "SamplingProfiler":
        """Begin sampling the calling thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("profiler is already running")
        self._target = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampling thread (idempotent; data stays readable)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: Any) -> bool:
        self.stop()
        return False

    def _loop(self) -> None:
        target = self._target
        labels = self._labels
        counts = self._counts
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(target)
            if frame is None:
                continue
            stack = []
            while frame is not None:
                code = frame.f_code
                label = labels.get(code)
                if label is None:
                    label = labels[code] = (
                        f"{os.path.basename(code.co_filename)}:{code.co_name}"
                    )
                stack.append(label)
                frame = frame.f_back
            key = tuple(reversed(stack))  # root -> leaf
            counts[key] = counts.get(key, 0) + 1
            self._samples += 1

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def collapsed(self) -> dict[str, int]:
        """``{"root;child;leaf": samples}`` in deterministic order."""
        return {
            ";".join(stack): count
            for stack, count in sorted(self._counts.items())
        }

    def write_collapsed(self, path: str | Path) -> Path:
        """Write collapsed-stack lines; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [f"{stack} {count}" for stack, count in self.collapsed().items()]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path

    def speedscope_document(self, *, name: str = "repro") -> dict[str, Any]:
        """Build a speedscope JSON document (the "sampled" profile type)."""
        frame_index: dict[str, int] = {}
        samples: list[list[int]] = []
        weights: list[float] = []
        weight_ms = self.interval * 1000.0
        for stack, count in sorted(self._counts.items()):
            samples.append(
                [frame_index.setdefault(frame, len(frame_index)) for frame in stack]
            )
            weights.append(count * weight_ms)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "exporter": "repro-sampling-profiler",
            "name": name,
            "activeProfileIndex": 0,
            "shared": {"frames": [{"name": frame} for frame in frame_index]},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "milliseconds",
                    "startValue": 0.0,
                    "endValue": sum(weights),
                    "samples": samples,
                    "weights": weights,
                }
            ],
        }

    def write_speedscope(self, path: str | Path, *, name: str = "repro") -> Path:
        """Write the speedscope document as JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.speedscope_document(name=name)) + "\n")
        return path
