"""Package namespaces resolve their exports on first access (PEP 562).

``import repro`` imports no subpackage, and ``import repro.core`` (or
``analysis``, ``obs``, ``exec``, ``scenario``) imports none of its
submodules.  Each public name is imported when first read and is the
very object the module that defines it holds.
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

#: The public names of the package root.  Resolving them lazily must
#: not change this list.
PUBLIC = {
    "BranchingPathsBroadcast", "ChangRoberts", "DfsBroadcast", "DirectBroadcast",
    "FixedDelays", "FloodingBroadcast", "HirschbergSinclair", "LayeredBfsBroadcast",
    "LeaderElection", "MetricsCollector", "MetricsSnapshot", "Network",
    "OptTreeBuilder", "Protocol", "RandomDelays", "Scheduler", "TopologyMaintenance",
    "Tree", "TreeAggregation", "analysis", "attach_topology_maintenance", "bfs_tree",
    "converge_by_rounds", "core", "format_table", "hardware", "is_converged",
    "limiting_model", "metrics", "network", "optimal_spanning_tree",
    "parameterized_model", "run_standalone_broadcast", "run_tree_aggregation",
    "scenario", "sim", "topologies", "__version__",
}

#: The public names of each subpackage that resolves them lazily: the
#: names these packages exported when they imported every submodule.
SUBPACKAGE_PUBLIC = {
    "repro.core": {
        "AggregationRun", "Announce", "BranchingPathsBroadcast", "BroadcastMessage",
        "BroadcastPath", "BroadcastPlan", "BroadcastRun", "CallManager", "CallRecord",
        "CallTrace", "CandidateStatus", "ChangRoberts", "ChattyTreeAggregation",
        "ConvergenceResult", "DfsBroadcast", "DirectBroadcast", "DomainState",
        "FloodMessage", "FloodingBroadcast", "GroupData", "GroupMulticast",
        "GroupMulticastRun", "GroupSetup", "HirschbergSinclair", "LayeredBfsBroadcast",
        "LeaderElection", "Level", "OneWayPath", "OptTree", "OptTreeBuilder",
        "PathDirective", "PipelinedBroadcast", "ReturnToken", "StreamRun", "TopoMessage",
        "TopoRecord", "TopologyMaintenance", "TourToken", "TreeAggregation",
        "attach_topology_maintenance", "balanced_binary_tree", "binomial_tree",
        "check_label_growth", "check_lemma1", "converge_by_rounds", "coverage_rounds",
        "decompose_paths", "dfs_broadcast_header", "euler_tour", "exhaustive_min_rounds",
        "fibonacci_number", "fibonacci_tree", "greedy_schedule", "is_converged",
        "is_fully_sensitive", "is_globally_sensitive", "label_tree", "label_upper_bound",
        "layered_broadcast_header", "layered_tour", "max_chain_depth", "max_label",
        "optimal_spanning_tree", "path_tree", "paths_starting_at", "plan_broadcast",
        "predicted_completion", "prune_to_size", "run_call", "run_group_multicast",
        "run_pipelined_broadcast", "run_standalone_broadcast", "run_stop_and_wait",
        "run_tree_aggregation", "shape_catalog", "shape_spanning_tree", "star_tree",
        "theorem3_lower_bound", "to_spanning_tree", "traditional_model_time",
        "validate_schedule", "witness_uninformed_sets",
    },
    "repro.analysis": {
        "CausalEvent", "CausalLog", "CausalityRecorder", "ElectionInvariantChecker",
        "GROWTH_MODELS", "GrowthRow", "LinkBounds", "ModelFit", "NodeUtilization",
        "RateLatency", "SUMMARY_HEADERS", "Summary", "TokenBucket", "TradeoffRow",
        "TreeStats", "UtilizationReport", "backlog_bound", "best_model", "binomial_size",
        "broadcast_system_calls", "broadcast_time_bound", "broadcast_time_bound_general",
        "compute_causal_messages", "convolve", "delay_bound", "election_message_bound",
        "fibonacci_closed_form", "fit_constant", "flooding_system_calls_bounds",
        "flow_controlled_rate", "graph_tree_stats", "growth_rate", "is_stable",
        "last_causal_tree", "link_bounds", "link_service_curve", "load_json_rows",
        "loglog_slope", "message_counts", "oneway_lower_bound_rounds",
        "optimal_time_estimate", "output_burst", "render_labelled_tree", "render_opt_tree",
        "render_paths", "render_tree", "resolve_seeds", "rows_to_csv", "rows_to_json",
        "run_checked", "size_growth", "slugify", "sweep", "termination_event",
        "tradeoff_sweep", "tree_stats", "utilization_report",
    },
    "repro.obs": {
        "Alert", "BENCHMARKS", "Benchmark", "Budget", "BudgetMonitor", "CampaignManifest",
        "ChurnMonitor", "FlightRecorder", "Histogram",
        "InvariantMonitor", "LiveStats", "MONITOR_NAMES", "Monitor", "MonitorHost",
        "NetCalcMonitor", "PerfCounters", "ProgressWatchdog", "RunManifest",
        "SamplingProfiler", "Span", "TraceLoadError", "benchmark_names",
        "broadcast_budgets", "budgets_for", "build_spans", "children_index",
        "chrome_trace_document", "election_budgets", "git_revision", "makespan",
        "merge_perf_dicts", "monitors_from_spec", "record_from_dict", "record_to_dict",
        "records_from_jsonl", "records_to_jsonl", "render_alerts",
        "render_congestion_heatmap", "render_congestion_summary", "render_metrics",
        "render_timeline", "run_benchmark",
        "span_counts", "span_summary_table", "write_chrome_trace",
    },
    "repro.exec": {
        "CacheEntry", "CampaignError", "CampaignOutcome", "DEFAULT_CACHE_DIR",
        "ResultCache", "STATUSES", "SpecError", "SubstratePool", "TaskResult", "TaskSpec",
        "canonical_json", "code_fingerprint", "fn_path", "resolve_fn", "run_campaign",
        "worker_pool",
    },
    "repro.scenario": {
        "CompiledScenario", "OPS", "PROTOCOLS", "ScenarioEvent", "ScenarioSpec",
        "attach_protocol", "churn_scenario", "compile_scenario", "delay_search_specs",
        "election_rounds", "flapping_link", "random_link_failures", "run_delay_search",
        "run_scenario", "scenario_metrics", "search_report",
    },
}

NAMES = sorted(set(repro.__all__) - {"__version__"})
SUBPACKAGES = sorted(SUBPACKAGE_PUBLIC)


def _run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def _dir_lists_every_export(package) -> None:
    assert set(package.__all__) <= set(dir(package))


def _unknown_name_fails_when_accessed(package) -> None:
    message = f"'{package.__name__}' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=re.escape(message)):
        package.no_such_name
    assert not hasattr(package, "no_such_name")
    with pytest.raises(ImportError, match="no_such_name"):
        exec(f"from {package.__name__} import no_such_name", {})


def _star_import_binds_every_name(package) -> None:
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    for name in package.__all__:
        assert namespace[name] is getattr(package, name)


# ----------------------------------------------------------------------
# The package root
# ----------------------------------------------------------------------
def test_public_names_unchanged():
    assert set(repro.__all__) == PUBLIC
    assert len(repro.__all__) == len(PUBLIC)


@pytest.mark.parametrize("name", NAMES)
def test_export_is_the_object_its_subpackage_defines(name):
    home = repro._EXPORTS[name]
    if home is None:
        assert getattr(repro, name) is importlib.import_module(f"repro.{name}")
    else:
        subpackage = importlib.import_module(f"repro.{home}")
        assert name in subpackage.__all__
        # Read through the subpackage's own namespace, which may itself
        # bind the name only when it is first read.
        expected = getattr(subpackage, name)
        assert getattr(repro, name) is expected


def test_dir_lists_every_export():
    _dir_lists_every_export(repro)


def test_unknown_name_fails_when_accessed():
    _unknown_name_fails_when_accessed(repro)


def test_star_import_binds_every_name():
    _star_import_binds_every_name(repro)


def test_quickstart_in_the_docstring_runs():
    doc = repro.__doc__
    block = doc[doc.index("Quickstart::") + len("Quickstart::"):]
    namespace: dict = {}
    exec(textwrap.dedent(block), namespace)
    assert len(namespace["leader"]) == 1


def test_import_repro_loads_no_subpackage_until_a_name_is_read():
    _run_fresh(
        "import sys\n"
        "import repro\n"
        "assert [m for m in sys.modules if m.startswith('repro.')] == ['repro._lazy']\n"
        "assert 'Network' not in vars(repro)\n"
        "net_cls = repro.Network\n"
        "assert 'repro.network' in sys.modules and 'Network' in vars(repro)\n"
        "assert net_cls is sys.modules['repro.network.network'].Network\n"
        "assert 'repro.analysis' not in sys.modules\n"
        "assert 'repro.scenario' not in sys.modules\n"
    )


# ----------------------------------------------------------------------
# The subpackages that resolve their exports lazily
# ----------------------------------------------------------------------
@pytest.mark.parametrize("package", SUBPACKAGES)
def test_subpackage_public_names_unchanged(package):
    module = importlib.import_module(package)
    assert set(module.__all__) == SUBPACKAGE_PUBLIC[package]
    assert len(module.__all__) == len(SUBPACKAGE_PUBLIC[package])


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_subpackage_export_is_the_object_its_submodule_defines(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        home = importlib.import_module(f"{package}.{module._EXPORTS[name]}")
        assert getattr(module, name) is vars(home)[name], name
        assert vars(module)[name] is vars(home)[name], name


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_subpackage_import_loads_no_submodule_until_a_name_is_read(package):
    _run_fresh(
        "import importlib, sys\n"
        f"package = importlib.import_module({package!r})\n"
        f"prefix = {package + '.'!r}\n"
        "assert [m for m in sys.modules if m.startswith(prefix)] == []\n"
        "name = package.__all__[0]\n"
        "assert name not in vars(package)\n"
        "value = getattr(package, name)\n"
        "home = prefix + package._EXPORTS[name]\n"
        "assert vars(sys.modules[home])[name] is value is vars(package)[name]\n"
    )


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_subpackage_unknown_name_fails_when_accessed(package):
    _unknown_name_fails_when_accessed(importlib.import_module(package))


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_subpackage_star_import_and_dir_list_every_export(package):
    module = importlib.import_module(package)
    _star_import_binds_every_name(module)
    _dir_lists_every_export(module)
