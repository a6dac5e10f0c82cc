"""Observability: spans, exporters, live stats and run manifests.

Built on top of the :class:`~repro.sim.trace.Trace` flight recorder and
the substrate's probe hooks.  Everything here is *pull*: the simulator
never imports this package, so observability can evolve without
touching the hot path.  Its only concession is one dormant guard per
hook site: the scheduler's observers, the NCU's probe and the switch's
flow-control check, each gated against the same function without it
in ``benchmarks/bench_obs_overhead.py``.
"""

from .. import _lazy

#: Every public name and the submodule that defines it, imported when
#: first read.
_EXPORTS = {
    **dict.fromkeys(
        ["BENCHMARKS", "Benchmark", "benchmark_names", "render_metrics", "run_benchmark"],
        "bench",
    ),
    **dict.fromkeys(["CongestionProbe"], "congestion"),
    **dict.fromkeys([
        "TraceLoadError", "chrome_trace_document", "record_from_dict", "record_to_dict",
        "records_from_jsonl", "records_to_jsonl", "write_chrome_trace",
    ], "exporters"),
    **dict.fromkeys(["Histogram", "LiveStats"], "live"),
    **dict.fromkeys(["CampaignManifest", "RunManifest", "git_revision"], "manifest"),
    **dict.fromkeys([
        "MONITOR_NAMES", "Alert", "Budget", "BudgetMonitor", "ChurnMonitor",
        "InvariantMonitor", "Monitor", "MonitorHost", "NetCalcMonitor", "ProgressWatchdog",
        "broadcast_budgets", "budgets_for", "election_budgets", "monitors_from_spec",
        "render_alerts",
    ], "monitors"),
    **dict.fromkeys(["PerfCounters", "SamplingProfiler", "merge_perf_dicts"], "perf"),
    **dict.fromkeys(["FlightRecorder"], "recorder"),
    **dict.fromkeys(
        ["Span", "build_spans", "children_index", "makespan", "span_counts"], "spans"
    ),
    **dict.fromkeys(
        ["render_congestion_heatmap", "render_timeline", "span_summary_table"], "timeline"
    ),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.hooks(__name__, _EXPORTS)
