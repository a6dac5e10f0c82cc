"""repro — a reproduction of Cidon, Gopal & Kutten (PODC 1988),
"New Models and Algorithms for Future Networks".

The package implements the paper's fast-network model — switching
hardware (SS) that forwards source-routed packets for free, a single
software processor (NCU) per node whose every involvement is a
*system call* — and the three algorithm suites studied under it:

* ``repro.core`` — branching-paths topology broadcast (§3), the O(n)
  system-call leader election (§4), and optimal trees for globally
  sensitive functions (§5), plus all the baselines the paper compares
  against;
* ``repro.hardware`` — the SS/NCU substrate: ANR source routing, link
  ID spaces, selective copy, reverse paths, the dmax restriction;
* ``repro.network`` — network assembly, topology generators, spanning
  trees, failure injection, data-link notifications;
* ``repro.sim`` — the deterministic discrete-event kernel and the
  (C, P) delay models;
* ``repro.metrics`` — system-call / hop / time complexity accounting;
* ``repro.analysis`` — closed forms and sweep drivers for the
  experiment harness;
* ``repro.scenario`` — declarative churn scenarios (crashes,
  partitions, re-elections) compiled to scheduler events, and the
  adversarial-delay search that hunts for bound-beating timings.

Quickstart::

    from repro import Network, topologies, LeaderElection

    net = Network(topologies.random_connected(32, 0.2, seed=1))
    net.attach(lambda api: LeaderElection(api))
    net.start()
    net.run_to_quiescence()
    leader = {k for k, v in net.outputs_for_key("is_leader").items() if v}
"""

from . import _lazy

__version__ = "1.0.0"

#: Every public name and the subpackage that defines it (``None`` for a
#: subpackage itself).  A name is imported when first read, so
#: ``import repro.cli`` loads only what the command it runs needs.
_EXPORTS: dict[str, str | None] = {
    **dict.fromkeys(["analysis", "core", "hardware", "metrics", "network", "scenario", "sim"]),
    **dict.fromkeys([
        "BranchingPathsBroadcast", "ChangRoberts", "DfsBroadcast", "DirectBroadcast",
        "FloodingBroadcast", "HirschbergSinclair", "LayeredBfsBroadcast", "LeaderElection",
        "OptTreeBuilder", "TopologyMaintenance", "TreeAggregation",
        "attach_topology_maintenance", "converge_by_rounds", "is_converged",
        "optimal_spanning_tree", "run_standalone_broadcast", "run_tree_aggregation",
    ], "core"),
    **dict.fromkeys(["MetricsCollector", "MetricsSnapshot", "format_table"], "metrics"),
    **dict.fromkeys(["Network", "Protocol", "Tree", "bfs_tree", "topologies"], "network"),
    **dict.fromkeys(
        ["FixedDelays", "RandomDelays", "Scheduler", "limiting_model", "parameterized_model"],
        "sim",
    ),
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = _lazy.hooks(__name__, _EXPORTS)
