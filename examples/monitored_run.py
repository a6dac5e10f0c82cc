#!/usr/bin/env python3
"""Scenario: watching an election conform to its bounds, live.

The paper's theorems are budgets — Theorem 5 allows at most 6n
tour/return system calls for leader election.  This example attaches
all three online conformance monitors (`BudgetMonitor`,
`InvariantMonitor`, `ProgressWatchdog`) to an election that runs after
random link failures, and prints every alert next to the bound it
guards.  The honest run stays silent; a second run with a deliberately
tightened (wrong) budget shows what a breach looks like the moment it
happens.

Run:  python examples/monitored_run.py
"""

from __future__ import annotations

from repro import FixedDelays, LeaderElection, Network, format_table, topologies
from repro.obs import (
    Budget,
    BudgetMonitor,
    InvariantMonitor,
    MonitorHost,
    ProgressWatchdog,
    election_budgets,
    render_alerts,
)
from repro.scenario import random_link_failures


def build_network(seed: int = 7) -> Network:
    """A 32-node random network with three links failed before start."""
    g = topologies.random_connected(32, 0.15, seed=seed)
    net = Network(g, delays=FixedDelays(0.0, 1.0))
    for event in random_link_failures(net.topology(), count=3, seed=seed):
        net.fail_link(*event.target)
    return net


def monitored_election(net: Network, budgets) -> tuple[MonitorHost, dict]:
    """Run an all-starters election with monitors attached."""
    host = MonitorHost(
        net,
        [
            BudgetMonitor(net, budgets),
            InvariantMonitor(net, every=16),
            ProgressWatchdog(net, deadline=10_000.0),
        ],
        on_alert=lambda alert: print(
            f"  ALERT [{alert.monitor}] t={alert.time:g}: {alert.message}"
        ),
    ).install()
    net.attach(lambda api: LeaderElection(api))
    net.start()
    net.run_to_quiescence(max_events=5_000_000)
    host.finish()
    leaders = {
        node for node, flag in net.outputs_for_key("is_leader").items() if flag
    }
    snap = net.metrics.snapshot()
    tours = snap.system_calls_by_kind.get("tour", 0)
    returns = snap.system_calls_by_kind.get("return", 0)
    return host, {"leaders": leaders, "tour_return": tours + returns}


def main() -> None:
    print(__doc__)

    # ------------------------------------------------------------------
    # 1. The honest run: Theorem 5's real budget, no alerts expected.
    # ------------------------------------------------------------------
    net = build_network()
    budgets = election_budgets(net)
    print("election with the paper's budgets (alerts print as they fire):")
    host, result = monitored_election(net, budgets)
    rows = [
        [
            budget.claim,
            f"{budget.value():g}",
            f"{budget.bound:g}",
            "held" if not host.violations else "BREACHED",
        ]
        for budget in budgets
    ]
    rows.append(["Section 4 invariants (checked every 16 events)", "-", "-",
                 "held" if not host.alerts else "see alerts"])
    rows.append(["watchdog: quiescent by t=10000", f"{net.scheduler.now:g}",
                 "10000", "held"])
    print(format_table(
        ["guarantee", "observed", "bound", "verdict"],
        rows,
        title=f"\nleader {sorted(result['leaders'])}, "
              f"{result['tour_return']} tour+return calls on n={net.n}:",
    ))
    print()
    print(render_alerts(host.alerts, title="alerts (honest run)"))

    # ------------------------------------------------------------------
    # 2. The same run against a deliberately wrong budget — this is
    #    what a theorem violation would look like, caught mid-run.
    # ------------------------------------------------------------------
    net = build_network()
    tightened = [
        Budget(
            measure=b.measure,
            bound=net.n,  # pretend the bound were n instead of 6n
            claim=f"(wrong on purpose) {b.measure} <= n = {net.n}",
            value=b.value,
        )
        for b in election_budgets(net)
    ]
    print("\nsame election, budget tightened from 6n to n (wrong on purpose):")
    host, _ = monitored_election(net, tightened)
    print()
    print(render_alerts(host.alerts, title="alerts (tightened budget)"))
    print(
        "\nThe breach fired mid-run, at the first event past the fake "
        "bound — long before the election finished.  With the real 6n "
        "budget above, the same counters never tripped it."
    )


if __name__ == "__main__":
    main()
