"""Scenario engine: churn, partitions, and adversarial-delay search.

The first subsystem that *drives* the simulator rather than observing
it.  A :class:`ScenarioSpec` describes a failure story as plain data
(link/node failures, partitions and heals, NCU crashes with state loss,
restarts, START phases); the compiler turns it into closure-free
scheduler events; the runner executes it — optionally under a
:class:`~repro.obs.monitors.ChurnMonitor` — as a deterministic campaign
task; and the search driver explores adversarial delay assignments
within (C, P) bounds against the closed-form bounds.
"""

from .. import _lazy

#: Every public name and the submodule that defines it, imported when
#: first read.
_EXPORTS = {
    **dict.fromkeys(["CompiledScenario", "compile_scenario"], "compiler"),
    **dict.fromkeys(["attach_protocol", "run_scenario", "scenario_metrics"], "runner"),
    **dict.fromkeys(
        ["delay_search_specs", "election_rounds", "run_delay_search", "search_report"],
        "search",
    ),
    **dict.fromkeys([
        "OPS", "PROTOCOLS", "ScenarioEvent", "ScenarioSpec", "churn_scenario",
        "flapping_link", "random_link_failures",
    ], "spec"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.hooks(__name__, _EXPORTS)
