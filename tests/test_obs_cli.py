"""CLI-level tests for the observability flags and the observe command."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import RunManifest, records_from_jsonl
from repro.sim import TraceKind


def test_broadcast_chrome_trace_spans_match_reported_total(tmp_path, capsys):
    out_path = tmp_path / "t.json"
    assert main([
        "broadcast", "--topology", "grid:8,8", "--compare",
        "--chrome-trace", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    ncu_spans = [
        e for e in doc["traceEvents"] if e.get("ph") == "X" and e.get("cat") == "ncu"
    ]
    assert f"{len(ncu_spans)} ncu-job spans = {len(ncu_spans)} system calls" in out
    # A manifest lands next to the trace and agrees with it.
    manifest = RunManifest.load(tmp_path / "t.manifest.json")
    assert manifest.command == "broadcast"
    assert manifest.system_calls == len(ncu_spans)
    assert manifest.topology == "grid:8,8"


def test_broadcast_trace_out_round_trips(tmp_path, capsys):
    out_path = tmp_path / "t.jsonl"
    assert main([
        "broadcast", "--topology", "ring:8", "--trace-out", str(out_path),
    ]) == 0
    records = records_from_jsonl(out_path)
    assert records, "trace export must not be empty"
    assert any(r.kind is TraceKind.NCU_JOB_START for r in records)


def test_broadcast_stats_prints_tables(capsys):
    assert main(["broadcast", "--topology", "ring:8", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "live run statistics" in out
    assert "queue depth" in out


def test_broadcast_without_obs_flags_prints_no_obs_output(capsys):
    assert main(["broadcast", "--topology", "ring:8"]) == 0
    out = capsys.readouterr().out
    assert "trace written" not in out
    assert "manifest" not in out


def test_election_stats(capsys):
    assert main(["election", "--topology", "ring:8", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "leader election" in out
    assert "live run statistics" in out


def test_converge_manifest_out(tmp_path, capsys):
    path = tmp_path / "m.json"
    assert main([
        "converge", "--topology", "grid:3,3", "--manifest-out", str(path),
    ]) == 0
    manifest = RunManifest.load(path)
    assert manifest.command == "converge"
    assert manifest.extra["strategy"] == "bpaths"


def test_observe_broadcast_timeline(capsys):
    assert main(["observe", "--topology", "grid:3,3", "--limit", "8"]) == 0
    out = capsys.readouterr().out
    assert "reconstructed spans" in out
    assert "timeline" in out
    assert "ncu:start" in out


def test_observe_election(capsys):
    assert main([
        "observe", "--topology", "ring:6", "--workload", "election",
        "--no-timeline",
    ]) == 0
    out = capsys.readouterr().out
    assert "election on ring:6" in out
    assert "reconstructed spans" in out
    assert "timeline" not in out


def test_observe_with_exports(tmp_path, capsys):
    trace_path = tmp_path / "obs.jsonl"
    chrome_path = tmp_path / "obs.json"
    assert main([
        "observe", "--topology", "ring:8", "--stats",
        "--trace-out", str(trace_path), "--chrome-trace", str(chrome_path),
    ]) == 0
    assert trace_path.exists() and chrome_path.exists()
    assert (tmp_path / "obs.manifest.json").exists()


def test_observe_trace_capacity_reports_drops(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    assert main([
        "observe", "--topology", "grid:4,4", "--trace-capacity", "10",
        "--trace-out", str(trace_path), "--no-timeline",
    ]) == 0
    out = capsys.readouterr().out
    assert "dropped" in out
    assert len(records_from_jsonl(trace_path)) == 10


# ----------------------------------------------------------------------
# Conformance monitors on the CLI
# ----------------------------------------------------------------------
def test_election_with_monitors_is_clean(capsys):
    assert main([
        "election", "--topology", "ring:8", "--monitor", "all",
    ]) == 0
    out = capsys.readouterr().out
    assert "no alerts" in out


def test_broadcast_with_budget_monitor_is_clean(capsys):
    assert main([
        "broadcast", "--topology", "grid:4,4", "--monitor", "budgets",
    ]) == 0
    assert "no alerts" in capsys.readouterr().out


def test_monitor_without_closed_form_prints_note(capsys):
    assert main([
        "multicast", "--topology", "grid:3,3", "--monitor", "budgets",
    ]) == 0
    out = capsys.readouterr().out
    assert "no closed-form budgets" in out


def test_unknown_monitor_name_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["election", "--topology", "ring:8", "--monitor", "nope"])
    assert excinfo.value.code == 2
    assert "unknown monitor" in capsys.readouterr().err


def test_monitor_alerts_reach_manifest_extra(tmp_path):
    path = tmp_path / "m.json"
    assert main([
        "election", "--topology", "ring:8", "--monitor", "watchdog",
        "--manifest-out", str(path),
    ]) == 0
    manifest = RunManifest.load(path)
    assert manifest.extra["alerts"] == 0
    assert manifest.extra["violations"] == 0


def test_monitored_trace_contains_alert_records(tmp_path, capsys):
    # An impossible deadline guarantees a watchdog violation: the CLI
    # must announce it mid-run, render the table, export the ALERT
    # record, and exit non-zero.
    trace_path = tmp_path / "t.jsonl"
    code = main([
        "election", "--topology", "ring:12", "--monitor", "budgets",
        "--trace-out", str(trace_path),
    ])
    assert code == 0  # the paper's election honours Theorem 5
    records = records_from_jsonl(trace_path)
    assert not [r for r in records if r.kind is TraceKind.ALERT]


# ----------------------------------------------------------------------
# observe --from-trace
# ----------------------------------------------------------------------
def test_observe_from_trace_round_trip(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    assert main([
        "broadcast", "--topology", "ring:8", "--trace-out", str(trace_path),
    ]) == 0
    capsys.readouterr()
    assert main(["observe", "--from-trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "loaded" in out and "reconstructed spans" in out


def test_observe_from_trace_corrupt_file_one_line_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"time": 0.0, "kind": "ncu_job_start", "node": 0, "de')
    assert main(["observe", "--from-trace", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "bad.jsonl:1" in err
    assert len(err.strip().splitlines()) == 1  # one line, not a traceback


def test_observe_from_trace_missing_file(tmp_path, capsys):
    assert main(["observe", "--from-trace", str(tmp_path / "gone.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "cannot read trace file" in err


def test_observe_from_trace_unknown_kind(tmp_path, capsys):
    bad = tmp_path / "kind.jsonl"
    bad.write_text('{"time": 0.0, "kind": "warp_drive", "node": 0, "detail": {}}\n')
    assert main(["observe", "--from-trace", str(bad)]) == 1
    assert "kind.jsonl:1" in capsys.readouterr().err


# ----------------------------------------------------------------------
# repro bench
# ----------------------------------------------------------------------
def test_bench_list(capsys):
    # --help names every registered entry with its description.
    from repro.obs import BENCHMARKS

    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for bench in BENCHMARKS:
        assert f"{bench.name:20}  {bench.description}" in out


def _metric_table(out: str) -> dict[str, float]:
    rows = (line.split() for line in out.splitlines())
    return {row[0]: float(row[1]) for row in rows
            if len(row) == 2 and row[0] != "metric" and not row[0].startswith("-")}


def test_bench_hotpath_forwarding_counters(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--name", "hotpath_forwarding"]) == 0
    out = capsys.readouterr().out
    assert "hotpath_forwarding: end-to-end ANR streaming, line:64" in out
    metrics = _metric_table(out)
    # 200 packets x 63 hops down the line:64, one delivery call each —
    # deterministic, so exact equality is the right assertion.
    assert metrics["hops"] == 200 * 63
    assert metrics["system_calls"] == 200
    assert metrics["hops_per_packet"] == 63.0
    assert list(tmp_path.iterdir()) == []  # prints only; writes nothing


def test_bench_profile_dumps_stats_and_prints_table(tmp_path, capsys):
    doc_dir = tmp_path / "out"
    assert main([
        "bench", "--name", "hotpath_forwarding", "--out-dir", str(doc_dir),
        "--profile", "--profile-top", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "profile: hotpath_forwarding" in out
    assert "cumulative" in out  # pstats table header made it to stdout
    assert "profiling inflates wall_ms" in out  # the wall-metric caveat
    # The metric table still prints; the dump is the only file written.
    assert "hotpath_forwarding: end-to-end ANR streaming, line:64" in out
    assert [p.name for p in doc_dir.iterdir()] == [
        "PROFILE_hotpath_forwarding.pstats"
    ]


def test_bench_usage_errors(capsys):
    assert main(["bench", "--name", "nope"]) == 2
    assert main(["bench", "--name", "hotpath_forwarding,broadcast_grid"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran before the name check
    assert captured.err.count("error: unknown benchmark") == 2
    # An empty selection is an error too, not a run of nothing.
    for selection in (",", "", " , "):
        assert main(["bench", "--name", selection]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "selects no benchmark" in line
    for removed in ("--compare", "--replay", "--threshold", "--jobs", "--list"):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", removed, "1"])
        assert exit_info.value.code == 2
