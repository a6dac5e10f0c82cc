"""Observability: spans, exporters, live stats and run manifests.

Built on top of the :class:`~repro.sim.trace.Trace` flight recorder and
the substrate's probe hooks.  Everything here is *pull*: the simulator
never imports this package, so observability can evolve without
touching the hot path (whose only concession is one ``is not None``
check per hook site — see ``benchmarks/bench_obs_overhead.py``).
"""

from .bench import (
    BENCHMARKS,
    Benchmark,
    benchmark_names,
    render_metrics,
    run_benchmark,
)
from .exporters import (
    TraceLoadError,
    chrome_trace_document,
    record_from_dict,
    record_to_dict,
    records_from_jsonl,
    records_to_jsonl,
    write_chrome_trace,
)
from .congestion import CongestionProbe
from .live import Histogram, LiveStats
from .manifest import CampaignManifest, RunManifest, git_revision
from .perf import PerfCounters, SamplingProfiler, merge_perf_dicts
from .recorder import FlightRecorder
from .monitors import (
    MONITOR_NAMES,
    Alert,
    Budget,
    BudgetMonitor,
    ChurnMonitor,
    InvariantMonitor,
    Monitor,
    MonitorHost,
    NetCalcMonitor,
    ProgressWatchdog,
    broadcast_budgets,
    budgets_for,
    election_budgets,
    monitors_from_spec,
    render_alerts,
)
from .spans import Span, build_spans, children_index, makespan, span_counts
from .timeline import (
    render_congestion_heatmap,
    render_timeline,
    span_summary_table,
)

__all__ = [
    "Alert",
    "BENCHMARKS",
    "Benchmark",
    "Budget",
    "BudgetMonitor",
    "CampaignManifest",
    "ChurnMonitor",
    "CongestionProbe",
    "FlightRecorder",
    "Histogram",
    "InvariantMonitor",
    "LiveStats",
    "MONITOR_NAMES",
    "Monitor",
    "MonitorHost",
    "NetCalcMonitor",
    "PerfCounters",
    "ProgressWatchdog",
    "RunManifest",
    "SamplingProfiler",
    "Span",
    "TraceLoadError",
    "benchmark_names",
    "broadcast_budgets",
    "budgets_for",
    "build_spans",
    "children_index",
    "chrome_trace_document",
    "election_budgets",
    "git_revision",
    "makespan",
    "merge_perf_dicts",
    "monitors_from_spec",
    "record_from_dict",
    "record_to_dict",
    "records_from_jsonl",
    "records_to_jsonl",
    "render_alerts",
    "render_congestion_heatmap",
    "render_metrics",
    "render_timeline",
    "run_benchmark",
    "span_counts",
    "span_summary_table",
    "write_chrome_trace",
]
