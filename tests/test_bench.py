"""Tests for benchmark telemetry and the regression gate (repro.obs.bench)."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    bench_path,
    benchmark_names,
    compare_documents,
    load_bench_document,
    regressions,
    render_comparison,
    run_benchmark,
    write_bench_document,
)
from repro.obs.bench import DEFAULT_THRESHOLDS, HIGHER_IS_BETTER


def test_registry_names_are_stable():
    names = benchmark_names()
    assert "broadcast_grid" in names and "election_ring" in names
    assert len(names) == len(set(names))


def test_run_benchmark_produces_document_with_manifest():
    doc = run_benchmark("broadcast_grid")
    assert doc["bench"] == "broadcast_grid"
    metrics = doc["metrics"]
    # Theorem 2 counters on grid:8,8 — deterministic.
    assert metrics["system_calls"] == 64.0
    assert metrics["wall_ms"] > 0
    assert metrics["events_per_sec"] > 0
    manifest = doc["manifest"]
    assert manifest["command"] == "bench:broadcast_grid"
    assert manifest["topology"] == "grid:8,8"
    assert manifest["n"] == 64
    assert manifest["python"]


def test_run_benchmark_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown benchmark"):
        run_benchmark("nope")


def test_run_benchmark_records_kernel():
    assert "kernel_scale" in benchmark_names()
    doc = run_benchmark("broadcast_grid")
    assert doc["manifest"]["kernel"] == "heap"


def test_document_roundtrip(tmp_path):
    doc = run_benchmark("scheduler_churn")
    path = write_bench_document(doc, tmp_path)
    assert path == bench_path("scheduler_churn", tmp_path)
    assert path.name == "BENCH_scheduler_churn.json"
    loaded = load_bench_document(path)
    assert loaded["metrics"] == doc["metrics"]


def test_load_rejects_non_documents(tmp_path):
    missing = tmp_path / "gone.json"
    with pytest.raises(ValueError, match="cannot read"):
        load_bench_document(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_bench_document(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ValueError, match="not a benchmark document"):
        load_bench_document(wrong)


def _doc(metrics, name="x"):
    return {"bench": name, "metrics": metrics}


def test_compare_identical_documents_is_clean():
    doc = _doc({"system_calls": 10.0, "wall_ms": 5.0, "events_per_sec": 100.0})
    comparisons = compare_documents(doc, doc)
    assert regressions(comparisons) == []
    assert all(c.ratio == 1.0 for c in comparisons)


def test_compare_flags_deterministic_increase():
    baseline = _doc({"system_calls": 10.0})
    current = _doc({"system_calls": 11.0})
    bad = regressions(compare_documents(current, baseline))
    assert [c.metric for c in bad] == ["system_calls"]
    assert bad[0].ratio == pytest.approx(1.1)


def test_compare_direction_for_throughput():
    assert "events_per_sec" in HIGHER_IS_BETTER
    baseline = _doc({"events_per_sec": 100.0})
    # A throughput *drop* below the threshold ratio is the regression.
    assert regressions(compare_documents(_doc({"events_per_sec": 30.0}), baseline))
    # A rise never is, and wall noise within DEFAULT_THRESHOLDS passes.
    assert not regressions(
        compare_documents(_doc({"events_per_sec": 300.0}), baseline)
    )
    assert not regressions(
        compare_documents(
            _doc({"wall_ms": 1.9}), _doc({"wall_ms": 1.0})
        )
    )
    assert DEFAULT_THRESHOLDS["wall_ms"] == 2.0


def test_compare_threshold_override_and_zero_baseline():
    baseline = _doc({"hops": 10.0, "drops": 0.0})
    current = _doc({"hops": 14.0, "drops": 1.0})
    loose = compare_documents(current, baseline, {"hops": 1.5})
    assert [c.metric for c in regressions(loose)] == ["drops"]  # 0 -> 1 is inf
    strict = compare_documents(current, baseline, {"hops": 1.2})
    assert {c.metric for c in regressions(strict)} == {"hops", "drops"}


def test_compare_skips_new_metrics_and_rejects_mismatch():
    baseline = _doc({"hops": 10.0})
    current = _doc({"hops": 10.0, "brand_new": 99.0})
    assert len(compare_documents(current, baseline)) == 1
    with pytest.raises(ValueError, match="benchmark mismatch"):
        compare_documents(_doc({}, name="a"), _doc({}, name="b"))


def test_render_comparison_mentions_status():
    comparisons = compare_documents(
        _doc({"system_calls": 12.0}), _doc({"system_calls": 10.0})
    )
    out = render_comparison(comparisons, title="gate")
    assert "REGRESSION" in out and "system_calls" in out and "gate" in out


def test_substrate_scale_benchmark_and_gates():
    names = benchmark_names()
    assert "substrate_scale" in names
    doc = run_benchmark("substrate_scale")
    metrics = doc["metrics"]
    for key in (
        "nodes",
        "links",
        "build_ms",
        "legacy_build_ms",
        "nodes_per_sec",
        "build_speedup",
        "bytes_per_node",
        "legacy_bytes_per_node",
        "bytes_per_node_ratio",
    ):
        assert key in metrics, key
    assert metrics["nodes"] == 9472 and metrics["links"] == 24576
    # The issue's acceptance gates, asserted on live hardware with
    # slack: the committed baselines pin the real numbers.
    assert metrics["build_speedup"] >= 2.0
    assert metrics["bytes_per_node_ratio"] <= 0.6
    for key in ("build_speedup", "bytes_per_node_ratio", "legacy_build_ms"):
        assert key in DEFAULT_THRESHOLDS, key
    assert "build_speedup" in HIGHER_IS_BETTER
    assert "bytes_per_node_ratio" not in HIGHER_IS_BETTER
