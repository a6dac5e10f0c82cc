"""Closed forms, sweeps and tree statistics for the experiment harness."""

from .. import _lazy

#: Every public name and the submodule that defines it, imported when
#: first read.
_EXPORTS = {
    **dict.fromkeys([
        "CausalEvent", "CausalLog", "CausalityRecorder", "compute_causal_messages",
        "last_causal_tree", "message_counts", "termination_event",
    ], "causality"),
    **dict.fromkeys([
        "binomial_size", "broadcast_system_calls", "broadcast_time_bound",
        "broadcast_time_bound_general", "election_message_bound", "fibonacci_closed_form",
        "flooding_system_calls_bounds", "growth_rate", "oneway_lower_bound_rounds",
        "optimal_time_estimate",
    ], "closed_forms"),
    **dict.fromkeys(["load_json_rows", "rows_to_csv", "rows_to_json", "slugify"], "export"),
    **dict.fromkeys(
        ["GROWTH_MODELS", "ModelFit", "best_model", "fit_constant", "loglog_slope"], "fitting"
    ),
    **dict.fromkeys(["ElectionInvariantChecker", "run_checked"], "invariants"),
    **dict.fromkeys(["SUMMARY_HEADERS", "Summary", "resolve_seeds", "sweep"], "montecarlo"),
    **dict.fromkeys([
        "LinkBounds", "RateLatency", "TokenBucket", "backlog_bound", "convolve", "delay_bound",
        "flow_controlled_rate", "is_stable", "link_bounds", "link_service_curve",
        "output_burst",
    ], "netcalc"),
    **dict.fromkeys(
        ["render_labelled_tree", "render_opt_tree", "render_paths", "render_tree"], "render"
    ),
    **dict.fromkeys(["GrowthRow", "TradeoffRow", "size_growth", "tradeoff_sweep"], "sweeps"),
    **dict.fromkeys(["TreeStats", "graph_tree_stats", "tree_stats"], "trees"),
    **dict.fromkeys(
        ["NodeUtilization", "UtilizationReport", "utilization_report"], "utilization"
    ),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.hooks(__name__, _EXPORTS)
