"""Byte-identity guarantees for scenario replay.

The same :class:`~repro.scenario.ScenarioSpec` must yield the *same
bytes* — identical result rows — whether it runs on a fresh network, a
``Network.reset()`` survivor, a pooled substrate or a fresh build, or
sharded across campaign workers at any ``--jobs``.  These are the
determinism contracts the ISSUE's acceptance criteria pin.
"""

from __future__ import annotations

import json

from repro.exec.substrate import worker_pool
from repro.exec.engine import run_campaign
from repro.network import Network, topologies
from repro.scenario import (
    churn_scenario,
    delay_search_specs,
    run_scenario,
    scenario_metrics,
)
from repro.sim import FixedDelays


SPEC = churn_scenario("grid:4,4", seed=7)


def _dumps(row: dict) -> str:
    return json.dumps(row, sort_keys=True)


def test_reset_replay_matches_fresh_build():
    fresh = Network(topologies.grid(4, 4), delays=FixedDelays(0.0, 1.0))
    first = run_scenario(fresh, SPEC)

    survivor = Network(topologies.grid(4, 4), delays=FixedDelays(0.0, 1.0))
    run_scenario(survivor, SPEC)  # dirty it thoroughly (churn + crash)
    survivor.reset()
    second = run_scenario(survivor, SPEC)
    assert _dumps(first) == _dumps(second)


def test_scenario_metrics_identical_reuse_on_and_off():
    payload = SPEC.to_dict()
    worker_pool().clear()
    on = [scenario_metrics(seed, spec=payload) for seed in (None, 5, 9)]
    off = []
    for seed in (None, 5, 9):
        worker_pool().clear()  # nothing pooled: a fresh build
        off.append(scenario_metrics(seed, spec=payload))
    assert _dumps(on) == _dumps(off)
    # Adversarial seeds genuinely vary the timing.
    assert len({row["final_time"] for row in on}) > 1


def test_campaign_rows_identical_across_shard_counts():
    specs = delay_search_specs(SPEC, trials=4, root_seed=3)
    serial = run_campaign(specs, jobs=1, cache=None)
    sharded = run_campaign(specs, jobs=2, cache=None)
    assert not serial.failures and not sharded.failures
    assert _dumps(serial.values()) == _dumps(sharded.values())


def test_repeated_in_process_runs_are_identical():
    payload = SPEC.to_dict()
    rows = [scenario_metrics(spec=payload) for _ in range(3)]
    assert len({_dumps(row) for row in rows}) == 1
