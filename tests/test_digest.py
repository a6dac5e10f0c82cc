"""The package's SHA-256 and the values it derives, pinned.

Seeds derived from string path components, task-spec hashes and cache
keys all go through ``repro._digest.sha256``.  The constants below were
recorded when these sites still called ``hashlib.sha256``: a change to
any of them shifts the campaign and churn seed streams, or orphans
every result already in a cache, and must be deliberate.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._digest import sha256
from repro.exec import ResultCache, TaskSpec
from repro.sim import derive_seed


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=4096), cut=st.integers(min_value=0, max_value=4096))
def test_sha256_equals_hashlib(data, cut):
    assert sha256(data).digest() == hashlib.sha256(data).digest()
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    incremental = sha256()
    incremental.update(data[:cut])
    incremental.update(data[cut:])
    assert incremental.hexdigest() == hashlib.sha256(data).hexdigest()


def test_churn_story_seeds_are_pinned():
    # churn_scenario(topology, seed, crashes=2) on the benchmark's Clos.
    assert derive_seed(1, "scenario", "clos:96,48,32", 2, 1) == 11562037663195122714
    assert derive_seed(5, "scenario", "clos:96,48,32", 2, 1) == 17536511402584216143


def test_montecarlo_seeds_are_pinned():
    assert [derive_seed(0, "montecarlo", i) for i in (0, 1, 399)] == [
        17923464137189613677, 7646876007393056977, 1769004021206704534,
    ]
    assert derive_seed(1, "montecarlo", 7) == 13024270752969452744


def test_spec_hash_is_pinned():
    spec = TaskSpec.make(
        "repro.exec.workloads:election_calls_per_node",
        seed=derive_seed(1, "montecarlo", 7),
        topology="random:64,16",
    )
    assert spec.spec_hash == (
        "08ab1addf51368999f757947c12afb9ed18522781e03ca7cd571dcc93fea8070"
    )


def test_cache_key_is_pinned(tmp_path, monkeypatch):
    # The key covers the defining module's source, so the task lives in
    # a module whose bytes the test fixes.
    import repro.exec.task as task_mod

    (tmp_path / "pinned_digest_task.py").write_text(
        "def task(seed):\n    return seed\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(task_mod, "_fingerprints", {})
    spec = TaskSpec.make("pinned_digest_task:task", seed=3)
    assert spec.spec_hash == (
        "1e93b28ec1ce2eb1926d780f4a0d50a74f26f55c766a2169ca2715395a0f9ad4"
    )
    assert task_mod.code_fingerprint(spec.fn) == (
        "188e05fd0bcbecc8cfd305b2fc739cfbf0c70b09b9e81b637c70b72859dcf86d"
    )
    assert ResultCache(tmp_path / "cache").key_for(spec) == (
        "c9ff0d6e4d09042ba53ba8bf420a12d65086ce18e430bb04faeeff25bc794ff1"
    )
