"""The paper's algorithms: broadcast (§3), election (§4), global functions (§5)."""

from .. import _lazy

#: Every public name and the submodule that defines it.  A name is
#: imported when first read, so a command loads only the algorithms it
#: runs: a flood needs ``flooding`` and ``broadcast``, not ``election``.
_EXPORTS = {
    **dict.fromkeys(
        ["LayeredBfsBroadcast", "layered_broadcast_header", "layered_tour"], "bfs_layered"
    ),
    **dict.fromkeys([
        "BranchingPathsBroadcast", "BroadcastMessage", "BroadcastPlan", "BroadcastRun",
        "DirectBroadcast", "PathDirective", "plan_broadcast", "run_standalone_broadcast",
    ], "broadcast"),
    **dict.fromkeys(["CallManager", "CallRecord", "CallTrace", "run_call"], "call_setup"),
    **dict.fromkeys(["DfsBroadcast", "dfs_broadcast_header", "euler_tour"], "dfs_broadcast"),
    **dict.fromkeys(
        ["Announce", "CandidateStatus", "LeaderElection", "ReturnToken", "TourToken"],
        "election",
    ),
    **dict.fromkeys(["ChangRoberts", "HirschbergSinclair"], "election_baselines"),
    **dict.fromkeys(["DomainState", "Level"], "election_state"),
    **dict.fromkeys(["FloodMessage", "FloodingBroadcast"], "flooding"),
    **dict.fromkeys([
        "AggregationRun", "ChattyTreeAggregation", "TreeAggregation", "is_fully_sensitive",
        "is_globally_sensitive", "optimal_spanning_tree", "run_tree_aggregation",
        "shape_spanning_tree",
    ], "globalfn"),
    **dict.fromkeys(
        ["GroupData", "GroupMulticast", "GroupMulticastRun", "GroupSetup", "run_group_multicast"],
        "group_multicast",
    ),
    **dict.fromkeys(
        ["check_label_growth", "check_lemma1", "label_tree", "label_upper_bound", "max_label"],
        "labeling",
    ),
    **dict.fromkeys([
        "OneWayPath", "coverage_rounds", "exhaustive_min_rounds", "greedy_schedule",
        "theorem3_lower_bound", "validate_schedule", "witness_uninformed_sets",
    ], "lowerbound"),
    **dict.fromkeys([
        "OptTree", "OptTreeBuilder", "binomial_tree", "fibonacci_number", "fibonacci_tree",
        "prune_to_size", "traditional_model_time",
    ], "opt_tree"),
    **dict.fromkeys(
        ["BroadcastPath", "decompose_paths", "max_chain_depth", "paths_starting_at"], "paths"
    ),
    **dict.fromkeys(
        ["PipelinedBroadcast", "StreamRun", "run_pipelined_broadcast", "run_stop_and_wait"],
        "pipelined",
    ),
    **dict.fromkeys([
        "ConvergenceResult", "TopoMessage", "TopoRecord", "TopologyMaintenance",
        "attach_topology_maintenance", "converge_by_rounds", "is_converged",
    ], "topology_maintenance"),
    **dict.fromkeys([
        "balanced_binary_tree", "path_tree", "predicted_completion", "shape_catalog",
        "star_tree", "to_spanning_tree",
    ], "tree_shapes"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.hooks(__name__, _EXPORTS)
