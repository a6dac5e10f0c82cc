"""Tests for the campaign engine (`repro.exec`): specs, cache, execution."""

from __future__ import annotations

import gc
import json
import os
import sys
import time
import warnings

import pytest

from repro.exec import (
    CampaignError,
    ResultCache,
    SpecError,
    TaskSpec,
    canonical_json,
    code_fingerprint,
    fn_path,
    resolve_fn,
    run_campaign,
)


# ----------------------------------------------------------------------
# Worker-visible task functions (module level: specs address them by
# import path, so lambdas and closures cannot be campaign tasks).
# ----------------------------------------------------------------------
def square(*, x: int) -> int:
    return x * x


def seeded_pair(seed: int, *, offset: int = 0) -> list[int]:
    return [seed % 1000, offset]


def crash_until_marker(*, marker: str) -> int:
    """Dies hard on the first attempt, succeeds once the marker exists."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(13)
    return 42


def sleep_for(*, seconds: float) -> str:
    time.sleep(seconds)
    return "slept"


def explode() -> None:
    raise RuntimeError("intentional failure")


def always_crash() -> None:
    os._exit(13)


def unserialisable() -> object:
    return object()


# ----------------------------------------------------------------------
# TaskSpec
# ----------------------------------------------------------------------
def test_make_from_callable_and_path_agree():
    by_fn = TaskSpec.make(square, x=3)
    by_path = TaskSpec.make("test_exec:square", x=3)
    assert by_fn.fn == by_path.fn == "test_exec:square"
    assert by_fn.spec_hash == by_path.spec_hash


def test_spec_hash_depends_on_params_and_seed_only():
    base = TaskSpec.make(square, x=3)
    assert TaskSpec.make(square, x=3, label="other").spec_hash == base.spec_hash
    assert TaskSpec.make(square, x=4).spec_hash != base.spec_hash
    assert TaskSpec.make(square, x=3, seed=7).spec_hash != base.spec_hash


def test_spec_hash_ignores_param_order():
    a = TaskSpec.make(seeded_pair, seed=1, offset=2)
    b = TaskSpec.make("test_exec:seeded_pair", offset=2, seed=1)
    assert a.spec_hash == b.spec_hash


def test_canonical_round_trip():
    spec = TaskSpec.make(square, x=5, seed=9)
    again = TaskSpec.from_canonical(spec.canonical(), spec.label)
    assert again == spec
    assert again.spec_hash == spec.spec_hash


def test_execute_merges_seed_into_kwargs():
    assert TaskSpec.make(seeded_pair, seed=1234567, offset=5).execute() == [
        567, 5,
    ]


def test_lambdas_and_closures_are_rejected():
    with pytest.raises(SpecError):
        TaskSpec.make(lambda x: x)

    def local_fn():
        return 1

    with pytest.raises(SpecError):
        TaskSpec.make(local_fn)


def test_non_json_params_are_rejected_at_make_time():
    with pytest.raises(SpecError):
        TaskSpec.make(square, x=object())
    with pytest.raises(SpecError):
        TaskSpec.make(square, x={1: "non-str key"})


def test_resolve_fn_errors_are_one_liners():
    with pytest.raises(SpecError):
        resolve_fn("not-a-path")
    with pytest.raises(SpecError):
        resolve_fn("no.such.module:fn")
    with pytest.raises(SpecError):
        resolve_fn("test_exec:no_such_fn")


def test_fn_path_round_trips():
    assert resolve_fn(fn_path(square)) is square


def test_canonical_json_is_stable():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
def test_cache_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    spec = TaskSpec.make(square, x=6)
    assert cache.get(spec) is None
    key = cache.put(spec, 36, wall_ms=1.5)
    entry = cache.get(spec)
    assert entry is not None
    assert entry.value == 36
    assert entry.key == key
    assert len(cache) == 1


def test_cache_key_covers_code_fingerprint(tmp_path, monkeypatch):
    import repro.exec.cache as cache_mod

    cache = ResultCache(tmp_path)
    spec = TaskSpec.make(square, x=6)
    key = cache.key_for(spec)
    assert cache.key_for(spec) == key
    assert cache.path_for(key).name == f"{key}.json"
    # Editing the defining module changes the fingerprint -> new key,
    # so stale results are never reused across code changes.
    monkeypatch.setattr(
        cache_mod, "code_fingerprint", lambda path: "different-code"
    )
    assert cache.key_for(spec) != key


def test_code_fingerprint_closes_the_source_file(monkeypatch):
    """Fingerprinting reads the module source without leaking the file:
    an unclosed file's ``ResourceWarning`` is turned into an error,
    which surfaces through ``sys.unraisablehook``."""
    import repro.exec.task as task_mod

    unraisable = []
    monkeypatch.setattr(task_mod, "_fingerprints", {})
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        fingerprint = code_fingerprint("repro.exec.workloads:election_calls_per_node")
        gc.collect()
    assert not unraisable, unraisable[0].exc_value
    assert len(fingerprint) == 64


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = TaskSpec.make(square, x=7)
    key = cache.put(spec, 49, wall_ms=0.1)
    cache.path_for(key).write_text("{ truncated")
    assert cache.get(spec) is None


def test_cache_rejects_unserialisable_values(tmp_path):
    cache = ResultCache(tmp_path)
    with pytest.raises(TypeError):
        cache.put(TaskSpec.make(unserialisable), object(), wall_ms=0.0)


# ----------------------------------------------------------------------
# Inline execution (jobs=1)
# ----------------------------------------------------------------------
def test_inline_campaign_preserves_spec_order():
    specs = [TaskSpec.make(square, x=x) for x in (5, 3, 1)]
    outcome = run_campaign(specs, jobs=1)
    assert outcome.values() == [25, 9, 1]
    assert [r.status for r in outcome.results] == ["ok", "ok", "ok"]


def test_inline_failure_is_recorded_not_raised():
    outcome = run_campaign([TaskSpec.make(explode)], jobs=1)
    result = outcome.results[0]
    assert result.status == "failed"
    assert "intentional failure" in result.error
    with pytest.raises(CampaignError):
        outcome.values()
    assert outcome.values(strict=False) == []


def test_values_are_json_normalised_everywhere():
    # A task returning a tuple yields a list, exactly as a cache hit
    # would — fresh and resumed campaigns must be indistinguishable.
    outcome = run_campaign([TaskSpec.make(seeded_pair, seed=42)], jobs=1)
    assert outcome.values() == [[42, 0]]
    assert isinstance(outcome.values()[0], list)


def test_cache_hits_skip_execution(tmp_path):
    specs = [TaskSpec.make(square, x=x) for x in range(4)]
    first = run_campaign(specs, jobs=1, cache=tmp_path)
    assert first.executed == 4 and first.cache_hits == 0
    second = run_campaign(specs, jobs=1, cache=tmp_path)
    assert second.executed == 0 and second.cache_hits == 4
    assert second.values() == first.values()


def test_max_tasks_interrupts_and_resume_completes(tmp_path):
    specs = [TaskSpec.make(square, x=x) for x in range(5)]
    partial = run_campaign(specs, jobs=1, cache=tmp_path, max_tasks=2)
    assert partial.executed == 2 and partial.skipped == 3
    assert partial.interrupted
    resumed = run_campaign(specs, jobs=1, cache=tmp_path)
    assert resumed.executed == 3 and resumed.cache_hits == 2
    assert not resumed.interrupted
    assert resumed.values() == [0, 1, 4, 9, 16]


def test_on_result_sees_every_settlement(tmp_path):
    seen = []
    specs = [TaskSpec.make(square, x=x) for x in range(3)]
    run_campaign(specs, jobs=1, cache=tmp_path,
                 on_result=lambda r: seen.append(r.status))
    assert seen == ["ok", "ok", "ok"]
    seen.clear()
    run_campaign(specs, jobs=1, cache=tmp_path,
                 on_result=lambda r: seen.append(r.status))
    assert seen == ["cached", "cached", "cached"]


def test_bad_arguments_are_rejected():
    with pytest.raises(ValueError):
        run_campaign([], jobs=0)
    with pytest.raises(ValueError):
        run_campaign([], retries=-1)
    assert run_campaign([], jobs=1).results == ()


# ----------------------------------------------------------------------
# Sharded execution (jobs>1): determinism, crashes, timeouts
# ----------------------------------------------------------------------
def test_pool_matches_inline_results():
    specs = [TaskSpec.make(seeded_pair, seed=s, offset=s % 3)
             for s in (11, 22, 33, 44, 55)]
    inline = run_campaign(specs, jobs=1)
    pooled = run_campaign(specs, jobs=3)
    assert pooled.values() == inline.values()
    assert [r.spec for r in pooled.results] == [r.spec for r in inline.results]


def test_worker_crash_is_retried(tmp_path):
    marker = tmp_path / "crashed-once"
    spec = TaskSpec.make(crash_until_marker, marker=str(marker))
    outcome = run_campaign([spec], jobs=2, retries=2)
    result = outcome.results[0]
    assert result.status == "ok"
    assert result.value == 42
    assert result.attempts == 2
    assert outcome.retries_used == 1


def test_worker_crash_exhausts_retries():
    outcome = run_campaign([TaskSpec.make(always_crash)], jobs=2, retries=1)
    result = outcome.results[0]
    assert result.status == "failed"
    assert "crash" in result.error
    assert result.attempts == 2  # 1 try + 1 retry


def test_task_exception_in_pool_is_not_retried():
    outcome = run_campaign([TaskSpec.make(explode)], jobs=2, retries=3)
    result = outcome.results[0]
    assert result.status == "failed"
    assert result.attempts == 1
    assert "intentional failure" in result.error


def test_timeout_kills_slow_task_but_spares_fast_ones():
    specs = [TaskSpec.make(sleep_for, seconds=30.0, label="slow")] + [
        TaskSpec.make(sleep_for, seconds=0.01, label=f"fast{i}")
        for i in range(3)
    ]
    t0 = time.monotonic()
    outcome = run_campaign(specs, jobs=2, timeout=1.0, retries=1)
    assert time.monotonic() - t0 < 20.0
    statuses = {r.spec.label: r.status for r in outcome.results}
    assert statuses["slow"] == "failed"
    assert "timeout" in outcome.results[0].error
    assert all(statuses[f"fast{i}"] == "ok" for i in range(3))


def test_pool_overlaps_task_execution():
    # 8 half-second sleeps: serial floor is 4s, 4-way overlap ~1s.
    # Sleeping tasks parallelise even on one core, so this pins the
    # >=2x --jobs 4 speedup guarantee independent of CPU count.
    specs = [TaskSpec.make(sleep_for, seconds=0.5, label=f"s{i}")
             for i in range(8)]
    t0 = time.monotonic()
    outcome = run_campaign(specs, jobs=4)
    wall = time.monotonic() - t0
    assert outcome.values() == ["slept"] * 8
    assert wall < 2.5, f"4-way pool took {wall:.2f}s for 4s of sleeps"


def test_pool_writes_cache_for_resume(tmp_path):
    specs = [TaskSpec.make(square, x=x) for x in range(4)]
    run_campaign(specs, jobs=2, cache=tmp_path)
    resumed = run_campaign(specs, jobs=2, cache=tmp_path)
    assert resumed.executed == 0
    assert resumed.cache_hits == 4


def test_cache_entry_document_shape(tmp_path):
    cache = ResultCache(tmp_path)
    spec = TaskSpec.make(square, x=2, label="sq2")
    key = cache.put(spec, 4, wall_ms=0.5)
    doc = json.loads(cache.path_for(key).read_text())
    assert doc["key"] == key
    assert doc["fn"] == "test_exec:square"
    assert doc["label"] == "sq2"
    assert doc["spec"] == spec.canonical()
    assert doc["value"] == 4
