"""`--jobs 1` vs `--jobs N` equivalence and cache-based resume.

The campaign engine's hard requirement: sharding changes wall-clock,
never results.  These tests pin that for every routed workload —
trade-off sweeps, Monte-Carlo sweeps, benchmark counters — and prove
that a second campaign run executes nothing.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.montecarlo import sweep
from repro.analysis.sweeps import size_growth, tradeoff_sweep
from repro.cli import main
from repro.exec.workloads import NONDETERMINISTIC_METRICS, election_calls_per_node
from repro.obs import CampaignManifest, run_benchmark

JOB_COUNTS = (1, 2, 3)


def deterministic_metrics(doc: dict) -> dict:
    return {
        metric: value
        for metric, value in doc["metrics"].items()
        if metric not in NONDETERMINISTIC_METRICS
    }


# ----------------------------------------------------------------------
# Library-level equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", JOB_COUNTS)
def test_tradeoff_sweep_rows_identical_across_jobs(jobs):
    serial = tradeoff_sweep(20, [0, 1, 4, "1/2"], jobs=1)
    assert tradeoff_sweep(20, [0, 1, 4, "1/2"], jobs=jobs) == serial


@pytest.mark.parametrize("jobs", (1, 2))
def test_montecarlo_sweep_samples_identical_across_jobs(jobs):
    serial = sweep(election_calls_per_node, 4, jobs=1)
    sharded = sweep(election_calls_per_node, 4, jobs=jobs)
    assert sharded.samples == serial.samples


def test_montecarlo_sweep_rejects_lambdas_when_sharded():
    from repro.exec import SpecError

    with pytest.raises(SpecError):
        sweep(lambda seed: 0.0, 2, jobs=2)


def test_size_growth_identical_across_jobs():
    serial = size_growth(1, 1, 8)
    assert size_growth(1, 1, 8, jobs=2) == serial


@pytest.mark.parametrize("jobs", (1, 2))
def test_bench_counters_identical_across_jobs(tmp_path, jobs, capsys):
    names = "hotpath_forwarding,congested_forwarding"
    rows = {}
    for run_jobs in (1, jobs):
        path = tmp_path / f"rows{run_jobs}.json"
        assert main(["campaign", "bench", "--names", names, "--no-cache",
                     "--jobs", str(run_jobs), "--rows-out", str(path)]) == 0
        rows[run_jobs] = json.loads(path.read_text())["rows"]
    capsys.readouterr()
    assert rows[jobs] == rows[1]
    for row in rows[1]:
        assert row["metrics"] == deterministic_metrics(run_benchmark(row["bench"]))


# ----------------------------------------------------------------------
# Cache-based resume
# ----------------------------------------------------------------------
def test_second_sweep_run_executes_zero_tasks(tmp_path):
    from repro.analysis.sweeps import tradeoff_specs
    from repro.exec import run_campaign

    specs = tradeoff_specs(20, [0, 1, 4])
    first = run_campaign(specs, jobs=2, cache=tmp_path)
    assert first.executed == len(specs)
    second = run_campaign(specs, jobs=2, cache=tmp_path)
    assert second.executed == 0
    assert second.cache_hits == len(specs)
    assert second.values() == first.values()


# ----------------------------------------------------------------------
# CLI: campaign rows byte-identical, interrupt + resume
# ----------------------------------------------------------------------
def campaign(*argv: str) -> int:
    return main(["campaign", *argv])


@pytest.mark.parametrize("jobs", (2, 3))
def test_campaign_rows_byte_identical_across_jobs(tmp_path, jobs, capsys):
    serial_rows = tmp_path / "rows_serial.json"
    sharded_rows = tmp_path / "rows_sharded.json"
    base = ["tradeoff", "--n", "20", "--ratios", "0,1,4,8", "--no-cache"]
    assert campaign(*base, "--jobs", "1", "--rows-out", str(serial_rows)) == 0
    assert campaign(*base, "--jobs", str(jobs),
                    "--rows-out", str(sharded_rows)) == 0
    capsys.readouterr()
    assert serial_rows.read_bytes() == sharded_rows.read_bytes()


def test_campaign_interrupt_resume_and_full_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    manifest_path = tmp_path / "campaign.json"
    rows = tmp_path / "rows.json"
    base = ["tradeoff", "--n", "20", "--ratios", "0,1,2,4",
            "--cache-dir", str(cache)]

    # Interrupted: only 2 of 4 tasks may execute; exit code 3.
    assert campaign(*base, "--jobs", "2", "--max-tasks", "2",
                    "--rows-out", str(rows)) == 3
    assert not rows.exists(), "incomplete campaigns must not write rows"

    # Resume: the 2 cached tasks are not recomputed.
    assert campaign(*base, "--jobs", "2", "--rows-out", str(rows),
                    "--manifest-out", str(manifest_path)) == 0
    manifest = CampaignManifest.load(manifest_path)
    assert manifest.cache_hits == 2
    assert manifest.executed == 2
    assert manifest.jobs == 2
    assert not manifest.interrupted
    assert len(manifest.tasks) == 4
    assert {t["status"] for t in manifest.tasks} == {"ok", "cached"}

    # Fully cached: zero executions, identical rows.
    rows_again = tmp_path / "rows2.json"
    assert campaign(*base, "--jobs", "2", "--rows-out", str(rows_again),
                    "--manifest-out", str(manifest_path)) == 0
    capsys.readouterr()
    manifest = CampaignManifest.load(manifest_path)
    assert manifest.executed == 0
    assert manifest.cache_hits == 4
    assert rows_again.read_bytes() == rows.read_bytes()


def test_campaign_serial_and_resumed_rows_agree(tmp_path, capsys):
    # A campaign interrupted, resumed at --jobs 2 must equal a fresh
    # serial run byte for byte: the resume acceptance criterion.
    cache = tmp_path / "cache"
    resumed = tmp_path / "resumed.json"
    serial = tmp_path / "serial.json"
    base = ["montecarlo", "--seeds", "4", "--n", "16"]
    assert campaign(*base, "--jobs", "2", "--max-tasks", "2",
                    "--cache-dir", str(cache)) == 3
    assert campaign(*base, "--jobs", "2", "--cache-dir", str(cache),
                    "--rows-out", str(resumed)) == 0
    assert campaign(*base, "--jobs", "1", "--no-cache",
                    "--rows-out", str(serial)) == 0
    capsys.readouterr()
    assert resumed.read_bytes() == serial.read_bytes()


def test_campaign_manifest_records_per_task_wall_time(tmp_path, capsys):
    manifest_path = tmp_path / "m.json"
    assert campaign("tradeoff", "--n", "16", "--ratios", "0,1", "--no-cache",
                    "--manifest-out", str(manifest_path)) == 0
    capsys.readouterr()
    manifest = CampaignManifest.load(manifest_path)
    assert manifest.task_count == 2
    for task in manifest.tasks:
        assert task["wall_ms"] >= 0.0
        assert task["attempts"] == 1
        assert task["key"] is None  # --no-cache -> no content address


def test_campaign_rows_document_shape(tmp_path, capsys):
    rows_path = tmp_path / "rows.json"
    assert campaign("bench", "--names", "hotpath_forwarding", "--no-cache",
                    "--rows-out", str(rows_path)) == 0
    capsys.readouterr()
    doc = json.loads(rows_path.read_text())
    assert doc["workload"] == "bench"
    assert doc["params"] == {"names": ["hotpath_forwarding"]}
    [row] = doc["rows"]
    assert row["bench"] == "hotpath_forwarding"
    assert NONDETERMINISTIC_METRICS.isdisjoint(row["metrics"])
