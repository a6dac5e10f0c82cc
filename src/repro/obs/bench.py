"""Timed microbenchmarks: the workloads behind ``repro bench``.

Three named :class:`Benchmark`\\s, each a deterministic workload that
reports a metric dict: simulation counters, which are
machine-independent, plus ``wall_ms`` / ``events_per_sec``, which are
not.  :func:`run_benchmark` runs one, optionally under
:class:`~repro.obs.perf.PerfCounters`; ``repro bench`` prints the
result and can run it under cProfile or the sampling profiler.

* ``kernel_scale`` — the event kernel alone at a 400k-event pending
  set;
* ``hotpath_forwarding`` — switching-fabric throughput, almost every
  event a hardware hop;
* ``congested_forwarding`` — the same stream through credit-based
  flow control, the workload behind ``--perf``'s link counters.

Nothing here gates: ``tests/test_bench.py`` pins the deterministic
counters with ``==`` (CI pins ``kernel_scale``'s, which take seconds),
and ``bench/`` measures wall clock end to end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..metrics.report import format_table


@dataclass(frozen=True)
class Benchmark:
    """One named benchmark: a zero-argument workload returning its
    metrics."""

    name: str
    description: str
    run: Callable[[], dict[str, float]]


def _timed(net, drive: Callable[[], None]) -> dict[str, float]:
    """Run ``drive`` and return the shared metric block for ``net``."""
    t0 = time.perf_counter()
    drive()
    wall = time.perf_counter() - t0
    events = net.scheduler.events_processed
    return {
        "system_calls": float(net.metrics.system_calls),
        "hops": float(net.metrics.hops),
        "sim_time": float(net.scheduler.now),
        "events": float(events),
        "wall_ms": wall * 1000.0,
        "events_per_sec": events / wall if wall > 0 else 0.0,
    }


def _bench_kernel_scale() -> dict[str, float]:
    """Pure event-kernel throughput at a large pending set.

    Preloads 400k no-op events spread over 13 distinct timestamps —
    the paper's (C, P) regime taken to pending-set sizes far beyond
    any end-to-end workload's (at most ~9k on a 9472-node fat tree):
    a handful of distinct delay values, huge same-timestamp cohorts.
    No protocol and no NCU, so the number isolates the heap itself,
    which pays an O(log n) sift with n in the hundreds of thousands
    for every push and pop.  CI pins its four counters.  (In the
    end-to-end workloads the kernel is at most ~17% of a traced run —
    see ``docs/PERFORMANCE.md`` § Event kernel.)
    """
    from ..network.builder import from_spec

    events, spread, repeats = 400_000, 13, 3
    # Timestamps are precomputed so the timed section is kernel work
    # (schedule + drain), not float arithmetic.
    times = [float(i % spread) for i in range(events)]

    def noop() -> None:
        pass

    # Best-of-3 on fresh networks, so single-shot scheduling jitter
    # does not set the throughput.  Deterministic counters are
    # cross-checked identical across repeats.
    best: dict[str, float] | None = None
    for _ in range(repeats):
        net = from_spec("line:2")
        sched = net.scheduler

        def drive() -> None:
            schedule = sched.schedule
            for t in times:
                schedule(t, noop, 2, "tick")
            net.run()

        metrics = _timed(net, drive)
        if best is not None and any(
            metrics[key] != best[key]
            for key in ("system_calls", "hops", "sim_time", "events")
        ):
            raise RuntimeError("kernel_scale repeats diverged")
        if best is None or metrics["wall_ms"] < best["wall_ms"]:
            best = metrics
    return best


def _bench_hotpath_forwarding() -> dict[str, float]:
    """Pure switching-fabric throughput: long ANR routes, idle NCUs.

    Streams packets end-to-end down a 64-node line with maximal source
    routes, so almost every event is a hardware hop (``receive`` →
    ``_forward`` → ``_deliver``).  This is the microbenchmark for the
    per-hop cost model in ``docs/PERFORMANCE.md``: header cursoring,
    port-table lookup and the closure-free hop scheduling show up here
    undiluted by protocol work.
    """
    from ..hardware.anr import build_anr
    from ..network.builder import from_spec
    from ..network.protocol import Protocol
    from ..sim import FixedDelays

    length, packets = 64, 200
    net = from_spec(f"line:{length}", delays=FixedDelays(0.1, 1.0))
    net.attach(lambda api: Protocol(api))  # deliveries terminate quietly
    header = build_anr(list(range(length)), net.id_lookup)
    source = net.node(0)

    def drive() -> None:
        # Staggered injections keep ~60 packets in flight at once, so
        # the heap churns under realistic interleaving, not lockstep.
        for i in range(packets):
            net.scheduler.schedule_at(
                0.01 * i, source.inject, args=(header, i), tag="inject"
            )
        net.run_to_quiescence(max_events=10_000_000)

    metrics = _timed(net, drive)
    metrics["hops_per_packet"] = float(net.metrics.hops) / packets
    return metrics


def _bench_congested_forwarding() -> dict[str, float]:
    """Flow-controlled bottleneck: the hotpath workload, over-driven.

    The same line-streaming shape as ``hotpath_forwarding``, but every
    link carries credit-based flow control (rate 2 packets per time
    unit, window 4) while the source injects at 20 per time unit — ten
    times the sustainable rate — so the first link's sender queue grows
    deep and drains at the bottleneck rate.  Exercises the entire
    congestion path: stall queueing, credit return, serialisation
    spacing and the occupancy/stall telemetry.  All congestion metrics
    (stalls, stalled simulated time, occupancy/delay watermarks) are
    deterministic.
    """
    from ..hardware.anr import build_anr
    from ..network.builder import from_spec
    from ..network.protocol import Protocol
    from ..sim import FixedDelays

    length, packets = 32, 240
    net = from_spec(f"line:{length}", delays=FixedDelays(0.1, 1.0))
    net.set_flow_control(rate=2.0, buffer=4)
    net.attach(lambda api: Protocol(api))  # deliveries terminate quietly
    header = build_anr(list(range(length)), net.id_lookup)
    source = net.node(0)

    def drive() -> None:
        for i in range(packets):
            net.scheduler.schedule_at(
                0.05 * i, source.inject, args=(header, i), tag="inject"
            )
        net.run_to_quiescence(max_events=10_000_000)

    metrics = _timed(net, drive)
    states = [state for _, state in net.flow_states()]
    metrics["stalls"] = float(sum(s.stalls for s in states))
    metrics["stall_sim_time"] = float(sum(s.stall_time for s in states))
    metrics["max_occupancy"] = float(max(s.max_occupancy for s in states))
    metrics["max_link_delay"] = float(max(s.max_delay for s in states))
    return metrics


#: The registry `repro bench` runs, in execution order.
BENCHMARKS: tuple[Benchmark, ...] = (
    Benchmark("kernel_scale", "pure kernel throughput, 400k-event pending set",
              _bench_kernel_scale),
    Benchmark("hotpath_forwarding", "end-to-end ANR streaming, line:64",
              _bench_hotpath_forwarding),
    Benchmark("congested_forwarding",
              "flow-controlled bottleneck line, over-driven source",
              _bench_congested_forwarding),
)

_BY_NAME = {bench.name: bench for bench in BENCHMARKS}


def benchmark_names() -> tuple[str, ...]:
    """Registered benchmark names, in execution order."""
    return tuple(bench.name for bench in BENCHMARKS)


def run_benchmark(name: str, *, perf: bool = False) -> dict[str, Any]:
    """Run one registered benchmark; returns its result document.

    The document is ``{"bench": name, "description": ..., "metrics":
    {...}}``.  With ``perf`` a process-global
    :class:`~repro.obs.perf.PerfCounters` registry runs alongside and
    its breakdown lands in a separate ``"perf"`` block; the deterministic
    metrics are identical either way (counters never touch behaviour,
    locked by the golden-equivalence suite).
    """
    try:
        bench = _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from "
            f"{', '.join(benchmark_names())}"
        ) from None
    counters = None
    if perf:
        from .perf import PerfCounters

        counters = PerfCounters().activate()
    try:
        metrics = bench.run()
    finally:
        if counters is not None:
            counters.deactivate()
    doc = {"bench": bench.name, "description": bench.description, "metrics": metrics}
    if counters is not None:
        doc["perf"] = counters.to_dict()
    return doc


def render_metrics(doc: Mapping[str, Any], *, title: str | None = None) -> str:
    """One benchmark's metric table."""
    rows = [[metric, f"{value:g}"] for metric, value in doc["metrics"].items()]
    return format_table(["metric", "value"], rows, title=title)
