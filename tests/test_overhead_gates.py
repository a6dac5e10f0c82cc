"""The overhead gates' rows, checked without timing.

``benchmarks/bench_obs_overhead.py`` times each row's live method
against a variant generated from its source minus the statements that
name the row's hooks.  A renamed hook would leave the gate timing a
function against itself, and a hook name that also did real work
would time a broken baseline; both fail here.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_obs_overhead.py"
_spec = importlib.util.spec_from_file_location("bench_obs_overhead", BENCH)
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)


@pytest.mark.parametrize("row", gates.ROWS, ids=lambda row: row.experiment)
def test_gate_row_strips_its_hook_from_the_live_function(row):
    target = f"{row.cls.__name__}.{row.method}"
    variant, tree, dropped = gates.stripped_variant(row)
    assert dropped, f"no statement of {target} names {row.hooks}"
    left = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not left & set(row.hooks), f"the {target} variant still names a hook"
    # The baseline does the live function's work: same events, same run.
    events = row.workload()
    with gates.swapped(row.cls, row.method, variant):
        assert row.workload() == events
    assert row.cls.__dict__[row.method] is not variant


def test_pairs_alternate_which_side_runs_first():
    # A clock that favours whichever run comes second in a pair: with
    # the order alternating, half the pairs read 0.8 and half 1.25, and
    # a gate on a one-sided order would read only one of them.
    calls = []

    def timer(side):
        def run():
            calls.append(side)
            return 1.0 if len(calls) % 2 else 0.8
        return run

    times = gates.paired_times(timer("live"), timer("base"), pairs=4)
    assert calls == ["live", "base", "base", "live"] * 2
    assert [t / b for t, b in times] == [1.25, 0.8, 1.25, 0.8]
