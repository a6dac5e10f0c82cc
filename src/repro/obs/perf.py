"""Per-subsystem performance attribution: counters, timers, sampling.

Two complementary tools, both dormant-by-default:

* :class:`PerfCounters` — a registry of monotonic per-subsystem counters
  and wall-clock timers (scheduler push/pop, SS hops, NCU job service,
  trace emission, substrate build/reset) that the hot path feeds behind
  the same ``is not None`` guard idiom the trace and probe hooks use.
  When nothing is installed every hook site costs one attribute load
  plus one identity check — ``benchmarks/bench_obs_overhead.py`` bounds
  the total at ≤5% of the stripped loop.  Counters of parallel campaign
  workers merge losslessly (:meth:`PerfCounters.merge`), including the
  NCU handler wall-time histogram, whose bin bounds are fixed
  process-wide for exactly that reason.

* :class:`SamplingProfiler` — a thread-based stack sampler (configurable
  Hz) that emits collapsed-stack text and speedscope JSON flamegraphs.
  Unlike ``repro bench --profile`` (cProfile), sampling does not inflate
  every function call, so before/after attribution of kernel refactors
  stays honest; unlike counters it sees *all* Python frames, not just
  the pre-chosen subsystems.

Activation comes in two scopes:

* ``counters.install(net)`` instruments one network (instance
  attributes on the network, its scheduler and its trace);
* ``counters.activate()`` patches the *class* attributes, so every
  network built afterwards in this process feeds the same registry —
  how campaign workers attribute whole tasks without threading a handle
  into task functions.  ``PerfCounters.deactivate()`` undoes it.

The simulator still never imports this package: the hot path only
pattern-matches on ``perf`` attributes that default to ``None``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import tracemalloc
from collections import deque
from pathlib import Path
from time import perf_counter as _perf_counter
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..metrics.report import format_table
from .live import Histogram

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network

#: Fixed bin bounds (microseconds) for the NCU handler wall-time
#: histogram.  Deliberately not configurable per instance: histograms
#: collected by different campaign workers must always merge.
HANDLER_US_BOUNDS: tuple[float, ...] = Histogram.geometric(0.5, 50_000.0, 12).bounds

#: Fixed bin bounds (packets) for the link queue-occupancy histogram.
#: Fixed process-wide for the same reason as ``HANDLER_US_BOUNDS``:
#: campaign workers merge bin-exactly.
OCCUPANCY_BOUNDS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0,
)

#: Monotonic event counters, one per instrumented subsystem hook.
COUNTER_FIELDS = (
    "sched_push",
    "sched_pop",
    # Cancelled entries swept out of the queue without firing.  Closes
    # the queue ledger: at any instant,
    # ``sched_push == sched_pop + sched_cancelled_drops + pending``.
    "sched_cancelled_drops",
    "ss_hops",
    "ncu_jobs",
    "trace_records",
    "substrate_builds",
    "substrate_resets",
    "link_xmits",
    "link_stalls",
)

#: Cumulative wall-clock timers (seconds), one per timed region.
TIMER_FIELDS = (
    "sched_run_s",
    "ncu_handler_s",
    "substrate_build_s",
    "substrate_reset_s",
)


class PerfCounters:
    """Per-subsystem monotonic counters, timers and a service histogram.

    All counter/timer fields are plain attributes so the hot path pays
    one in-place add per hook, nothing more.  ``handler_us`` is the NCU
    handler wall-time histogram (microseconds, fixed bounds).
    """

    __slots__ = COUNTER_FIELDS + TIMER_FIELDS + (
        "handler_us", "link_occupancy", "build_bytes_per_node", "_rate_samples",
    )

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Zero every counter, timer and the histograms."""
        for name in COUNTER_FIELDS:
            setattr(self, name, 0)
        for name in TIMER_FIELDS:
            setattr(self, name, 0.0)
        self.handler_us = Histogram(HANDLER_US_BOUNDS)
        self.link_occupancy = Histogram(OCCUPANCY_BOUNDS)
        #: Gauge: retained construction bytes per node, from the last
        #: (largest, across merges) :meth:`measure_build_bytes_per_node`
        #: call.  0.0 until measured.
        self.build_bytes_per_node = 0.0
        #: (wall seconds, sched_pop) samples for the rolling rate meter.
        self._rate_samples: deque[tuple[float, int]] = deque(maxlen=256)

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    def install(self, net: "Network") -> "PerfCounters":
        """Instrument one network (and its scheduler/trace); returns self.

        Instance-scoped: other networks in the process are untouched.
        The installation survives :meth:`Network.reset`, which points
        the fresh scheduler and trace at this registry; use
        :meth:`activate` for process-wide collection.
        """
        net.perf = self
        net.scheduler.perf = self
        net.trace.perf = self
        self.mark()
        return self

    def uninstall(self, net: "Network") -> None:
        """Undo :meth:`install` (idempotent; keeps collected data)."""
        for obj in (net, net.scheduler, net.trace):
            if obj.__dict__.get("perf") is self:
                del obj.__dict__["perf"]

    def activate(self) -> "PerfCounters":
        """Collect from every network in this process; returns self.

        Sets the ``perf`` *class* attributes on the substrate types, so
        networks built before or after this call all feed this registry
        (per-network :meth:`install`\\ ations shadow it).  Campaign
        workers use this to attribute whole tasks.
        """
        from ..network.network import Network
        from ..sim.scheduler import Scheduler
        from ..sim.trace import Trace

        Scheduler.perf = self
        Trace.perf = self
        Network.perf = self
        self.mark()
        return self

    @staticmethod
    def deactivate() -> None:
        """Undo :meth:`activate` for whatever registry is active."""
        from ..network.network import Network
        from ..sim.scheduler import Scheduler
        from ..sim.trace import Trace

        Scheduler.perf = None
        Trace.perf = None
        Network.perf = None

    def __enter__(self) -> "PerfCounters":
        return self.activate()

    def __exit__(self, *exc: Any) -> bool:
        self.deactivate()
        return False

    # ------------------------------------------------------------------
    # Rolling throughput meter
    # ------------------------------------------------------------------
    def mark(self) -> None:
        """Record a (wall-clock, events) sample for the rolling meter."""
        self._rate_samples.append((_perf_counter(), self.sched_pop))

    def events_per_sec(self, window: float = 5.0) -> float:
        """Rolling scheduler throughput over the last ``window`` seconds.

        Each read also records a sample, so a poll loop gets a fresh
        rate per call; between polls the meter costs nothing.
        """
        self.mark()
        now, events = self._rate_samples[-1]
        cutoff = now - window
        while len(self._rate_samples) > 1 and self._rate_samples[0][0] < cutoff:
            self._rate_samples.popleft()
        t0, e0 = self._rate_samples[0]
        if now <= t0:
            return 0.0
        return (events - e0) / (now - t0)

    # ------------------------------------------------------------------
    # Allocation snapshots (optional, tracemalloc-based)
    # ------------------------------------------------------------------
    def start_alloc_tracking(self, frames: int = 5) -> None:
        """Begin tracemalloc allocation tracking (process-wide, costly)."""
        tracemalloc.start(frames)

    def alloc_snapshot(self, top: int = 10) -> list[dict[str, Any]]:
        """Top allocation sites since tracking started.

        Returns ``[{"where", "size_kb", "blocks"}, ...]``; raises
        :class:`RuntimeError` when tracking is off.
        """
        if not tracemalloc.is_tracing():
            raise RuntimeError(
                "allocation tracking is off; call start_alloc_tracking() first"
            )
        snapshot = tracemalloc.take_snapshot()
        out = []
        for stat in snapshot.statistics("lineno")[:top]:
            frame = stat.traceback[0]
            out.append(
                {
                    "where": f"{os.path.basename(frame.filename)}:{frame.lineno}",
                    "size_kb": stat.size / 1024.0,
                    "blocks": stat.count,
                }
            )
        return out

    def stop_alloc_tracking(self) -> None:
        """Stop tracemalloc tracking (idempotent)."""
        tracemalloc.stop()

    def measure_build_bytes_per_node(
        self, build: Callable[[], Any], *, nodes: int | None = None
    ) -> Any:
        """Run ``build`` under tracemalloc and record retained bytes/node.

        ``build`` is a zero-argument constructor (typically a
        ``Network`` build); the gauge is tracemalloc's *current* traced
        total right after it returns — i.e. memory the construction
        retained, not its transient peak — divided by the node count.
        ``nodes`` defaults to the built object's ``n`` attribute.  The
        result of ``build`` is returned so the measured substrate can
        be used.  Incompatible with an already-running tracemalloc
        session (raises RuntimeError rather than corrupting it).
        """
        if tracemalloc.is_tracing():
            raise RuntimeError(
                "tracemalloc is already tracing; stop it before measuring a build"
            )
        tracemalloc.start()
        try:
            built = build()
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        count = nodes if nodes is not None else getattr(built, "n", None)
        if not count:
            raise ValueError(
                "node count unavailable: pass nodes= or build an object with .n"
            )
        per_node = current / count
        if per_node > self.build_bytes_per_node:
            self.build_bytes_per_node = per_node
        return built

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
        self.link_occupancy.merge(other.link_occupancy)
        # Gauge, not a counter: merged by max (the largest substrate
        # measured anywhere), never summed.
        if other.build_bytes_per_node > self.build_bytes_per_node:
            self.build_bytes_per_node = other.build_bytes_per_node
        return self

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict: counters, timers and both histograms."""
        return {
            "counters": {name: getattr(self, name) for name in COUNTER_FIELDS},
            "timers_s": {name: getattr(self, name) for name in TIMER_FIELDS},
            "handler_us": self.handler_us.to_dict(),
            "link_occupancy": self.link_occupancy.to_dict(),
            "gauges": {"build_bytes_per_node": self.build_bytes_per_node},
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
        occupancy = data.get("link_occupancy")
        if occupancy:
            self.link_occupancy = Histogram.from_dict(occupancy)
        gauges = data.get("gauges", {})
        self.build_bytes_per_node = float(gauges.get("build_bytes_per_node", 0.0))
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
        if self.build_bytes_per_node:
            rows.append(
                ["build_bytes_per_node", f"{self.build_bytes_per_node:.0f} B"]
            )
        out = [format_table(["counter", "value"], rows, title=title)]
        hist_rows = []
        if self.handler_us.count:
            hist_rows.append(self.handler_us.summary_row("ncu handler wall (us)"))
        if self.link_occupancy.count:
            hist_rows.append(self.link_occupancy.summary_row("link occupancy (pkts)"))
        if hist_rows:
            out.append(
                format_table(
                    ["measure", "count", "mean", "p50", "p95", "min", "max"],
                    hist_rows,
                )
            )
        return "\n\n".join(out)


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
