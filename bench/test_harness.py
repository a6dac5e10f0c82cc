"""Self-tests of the benchmark harness.

Run from the repository root::

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from child import Spans, read_spans, self_times  # noqa: E402
from compare import compare_metric  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Workload,
    fat_tree_nodes,
    parse_table,
    seeded_root,
)

ROOT = Path(__file__).resolve().parent.parent


def _tree() -> Spans:
    """A [0,10] > (B [1,4] > C [2,3]), D [5,9];  E [11,12] top level."""
    spans = Spans()
    for name in "ABCDE":
        spans.intern(name)
    rows = [(0, -1, 0, 10), (1, 0, 1, 4), (2, 1, 2, 3), (3, 0, 5, 9), (4, -1, 11, 12)]
    for name_id, parent, start, end in rows:
        spans.name_id.append(name_id)
        spans.parent.append(parent)
        spans.start.append(start)
        spans.end.append(end)
    return spans


def test_self_time_subtracts_child_spans():
    spans = _tree()
    calls, own, inclusive, top = self_times(
        spans.name_id, spans.parent, spans.start, spans.end, len(spans.names))
    assert calls == [1, 1, 1, 1, 1]
    assert own == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert inclusive == [10.0, 3.0, 1.0, 4.0, 1.0]
    assert top == 11.0
    assert sum(own) == top


def test_spans_round_trip_through_the_file(tmp_path):
    spans = _tree()
    spans.write(tmp_path / "spans")
    names, *columns = read_spans(tmp_path / "spans")
    assert names == spans.names
    for got, want in zip(columns, (spans.name_id, spans.parent, spans.start, spans.end)):
        assert got == want


def test_timed_wrapper_records_nesting_and_post_hook():
    spans = Spans()
    seen = []

    def inner(x):
        return x + 1

    inner_t = spans.timed(inner, spans.intern("inner"), post=seen.append)

    def outer(x):
        return inner_t(x) + inner_t(x)

    outer_t = spans.timed(outer, spans.intern("outer"))
    assert outer_t(1) == 4
    assert list(spans.name_id) == [1, 0, 0]
    assert list(spans.parent) == [-1, 0, 0]
    assert seen == [(1,), (1,)]
    assert all(e >= s for s, e in zip(spans.start, spans.end))
    assert spans.stack == [-1]


def test_percentile_needs_ten_samples_beyond_it():
    assert run.percentile(list(range(999)), 99) is None
    assert run.percentile(list(range(1000)), 99) is not None
    assert run.percentile(list(range(19)), 50) is None
    assert run.percentile(list(range(20)), 50) is not None


def test_summary_of_one_sample():
    assert run.summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def test_seeded_root_is_deterministic_and_in_range():
    n = fat_tree_nodes(32)
    assert n == 9472
    roots = [seeded_root("flood_fat_tree", seed, n) for seed in range(200)]
    assert roots == [seeded_root("flood_fat_tree", seed, n) for seed in range(200)]
    assert all(0 <= r < n for r in roots)
    assert len(set(roots)) > 150
    # Independent of the interpreter's hash seed.
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'bench'); from workloads import seeded_root; "
         "print(seeded_root('flood_fat_tree', 7, 9472))"],
        cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "12345"},
        capture_output=True, text=True, check=True)
    assert int(out.stdout) == roots[7]


def test_child_env_scrubs_repro_overrides(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_KERNEL", "wheel")
    monkeypatch.setenv("REPRO_SUBSTRATE_REUSE", "0")
    env = run.child_env(tmp_path)
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"] == str(run.SRC)
    assert env["TMPDIR"] == str(tmp_path)


def test_parse_table_keeps_cells_with_spaces():
    stdout = ("topology maintenance on torus:4,4\n"
              "          event  rounds  system_calls\n"
              "---------------  ------  ------------\n"
              "     cold start       4         25632\n"
              "4 link failures       2         39649\n"
              "\n"
              "trailer\n")
    assert parse_table(stdout) == [
        {"event": "cold start", "rounds": "4", "system_calls": "25632"},
        {"event": "4 link failures", "rounds": "2", "system_calls": "39649"},
    ]


def _ring(check, topology="ring:8") -> Workload:
    return Workload(
        name="ring", reps=1, why="test",
        argv=lambda seed, work, traced: ["broadcast", "--topology", topology,
                                         "--scheme", "flood", "--root", "0"],
        parse=lambda stdout, work: {"rows": parse_table(stdout)},
        check=check,
    )


def test_rep_records_timings_counters_and_kernel(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_KERNEL", "wheel")
    rep = run.run_rep(_ring(lambda c: []), 1, False, tmp_path / "rep")
    assert rep["ok"], rep["errors"]
    assert rep["kernel"] == "heap"  # REPRO_KERNEL did not reach the child
    assert 0 < rep["setup_s"] < rep["total_s"]
    assert 0 < rep["run_s"] < rep["total_s"]
    assert rep["events"] > 0 and rep["peak_rss_mb"] > 0
    assert rep["counters"]["rows"][0]["covered"] == "8"


def test_traced_rep_ledger_adds_up(tmp_path):
    rep = run.run_rep(_ring(lambda c: []), 1, True, tmp_path / "rep")
    assert rep["ok"], rep["errors"]
    layers = rep["layers"]
    assert layers["sum_error"] < 0.01
    m = layers["metrics"]
    # The CLI's count leaves out the START job; the ledger counts every call.
    row = rep["counters"]["rows"][0]
    assert m["hardware.ncu.system_calls"] == int(row["system_calls"]) + 1
    assert m["core.dispatch_calls"] == m["hardware.ncu.system_calls"]
    assert m["sim.events"] == rep["events"]
    assert m["traced.wall_s"] == rep["total_s"]
    assert _children() == []


def _children() -> list[int]:
    """Pids of this process's live children (Linux ``/proc``)."""
    pids = []
    for entry in os.listdir("/proc"):
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except (OSError, ValueError):
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            pids.append(int(entry))
    return pids


def test_failed_exit_and_failed_check_count_toward_fail_rate(tmp_path):
    ok = run.run_rep(_ring(lambda c: []), 1, False, tmp_path / "a")
    bad_exit = run.run_rep(_ring(lambda c: [], topology="nosuch:3"), 1, False,
                           tmp_path / "b")
    bad_check = run.run_rep(_ring(lambda c: ["boom"]), 1, False, tmp_path / "c")
    assert ok["ok"]
    assert not bad_exit["ok"] and bad_exit["exit"] != 0
    assert not bad_check["ok"] and "boom" in bad_check["errors"]
    summary = run.summarize_workload(_ring(lambda c: []), [ok, bad_exit, bad_check])
    assert summary["attempted"] == 3
    assert summary["failed"] == 2
    assert summary["fail_rate"] == pytest.approx(2 / 3)
    assert summary["end_to_end"]["total_s"]["n"] == 1


def _fake_rep(counters=None, **extra) -> dict:
    return {"seed": 1, "traced": False, "ok": True, "errors": [],
            "counters": counters or {}, **{m: 1.0 for m in run.REP_METRICS}, **extra}


def _campaign_summary() -> dict:
    """A campaign summary from two repetitions whose task walls differ:
    900 tasks of 1 ms, then 300 of 3 ms."""
    campaign = Workload(name="c", reps=2, why="test", argv=lambda *a: [],
                        parse=lambda *a: {}, check=lambda c: [], campaign=True)
    reps = [_fake_rep(task_ms=[1.0] * 900), _fake_rep(task_ms=[3.0] * 300)]
    return run.summarize_workload(campaign, reps)


def test_differing_counters_fail_the_repetition():
    reps = [_fake_rep({"x": 1}), _fake_rep({"x": 2})]
    summary = run.summarize_workload(_ring(lambda c: []), reps)
    assert summary["failed"] == 1


def test_campaign_task_percentiles_pool_the_repetitions():
    e2e = _campaign_summary()["end_to_end"]
    assert e2e["tasks_per_s"]["median"] == 600.0
    # The median of the two repetitions' medians would be 2 ms.
    assert e2e["task_p50_ms"] == {"median": 1.0, "q1": None, "q3": None, "n": 1200}
    assert e2e["task_p99_ms"]["median"] == 3.0


def test_compare_statuses():
    a = {"median": 1.0, "q1": 0.99, "q3": 1.01, "n": 10}
    assert compare_metric(a, {**a, "median": 1.05}, "lower", 0.10) == ("ok", pytest.approx(0.05))
    assert compare_metric(a, {**a, "median": 1.2}, "lower", 0.10)[0] == "BREACH"
    assert compare_metric(a, {**a, "median": 0.8}, "higher", 0.10)[0] == "BREACH"
    noisy = {"median": 1.0, "q1": 0.8, "q3": 1.2, "n": 10}
    assert compare_metric(a, noisy, "lower", 0.10)[0] == "unresolved"
    assert compare_metric(a, {**noisy, "median": 2.0}, "lower", None)[0] == "tracked"


def test_benchmark_json_lists_every_reported_metric(tmp_path):
    spec = run.load_spec()
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in WORKLOADS]
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS]
    traced = run.run_rep(_ring(lambda c: []), 1, True, tmp_path / "rep")
    assert traced["ok"], traced["errors"]
    reported = set(_campaign_summary()["end_to_end"]) | set(traced["layers"]["metrics"])
    reported.add("traced.overhead")  # set once untraced medians exist
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert listed.isdisjoint(run.UNLISTED)
    assert listed | set(run.UNLISTED) == reported
