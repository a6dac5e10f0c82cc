"""Tests for the timed microbenchmarks (repro.obs.bench) and the exact
pins on every workload's deterministic counters.

The paper's results are exact counts, so a counter that moves in
either direction is a behaviour change: each pin below is asserted
with ``==``, never as a ratio or an upper bound.  A change that means
to move one updates the pin and says why.
"""

from __future__ import annotations

import pytest

from repro.core import (
    BranchingPathsBroadcast,
    FloodingBroadcast,
    LeaderElection,
    run_standalone_broadcast,
)
from repro.exec.workloads import bench_counters
from repro.network import Network, from_spec
from repro.network.protocol import Protocol
from repro.obs import RunManifest, benchmark_names, run_benchmark
from repro.sim import FixedDelays, RandomDelays


def test_registry_names_are_stable():
    assert benchmark_names() == (
        "kernel_scale", "hotpath_forwarding", "congested_forwarding",
    )


def test_run_benchmark_produces_document_with_manifest():
    # The result is an in-memory document: the workload's metrics, wall
    # clock included, and no run manifest or file on disk.
    doc = run_benchmark("hotpath_forwarding")
    assert doc["bench"] == "hotpath_forwarding"
    assert doc["description"]
    metrics = doc["metrics"]
    assert metrics["system_calls"] == 200.0
    assert metrics["wall_ms"] > 0
    assert metrics["events_per_sec"] > 0
    assert set(doc) == {"bench", "description", "metrics"}


def test_run_benchmark_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown benchmark"):
        run_benchmark("nope")


def test_run_benchmark_records_kernel():
    assert "kernel_scale" in benchmark_names()
    net = from_spec("line:2")
    manifest = RunManifest.collect(net, command="bench:kernel_scale", topology="line:2")
    assert manifest.to_dict()["kernel"] == "heap"


def test_kernel_scale_rejects_diverging_repeats(monkeypatch):
    # The repeat cross-check must survive ``python -O``: a RuntimeError,
    # not an assert.  Fake timings whose event counts drift per repeat.
    from repro.obs import bench

    repeats = iter(range(3))

    def diverging(net, drive):
        return {"system_calls": 0.0, "hops": 0.0, "sim_time": 0.0,
                "events": float(next(repeats)), "wall_ms": 1.0}

    monkeypatch.setattr(bench, "_timed", diverging)
    with pytest.raises(RuntimeError, match="kernel_scale repeats diverged"):
        bench._bench_kernel_scale()


@pytest.mark.parametrize("name", ["hotpath_forwarding", "congested_forwarding"])
def test_perf_counters_cover_the_benchmarks_own_counts(name):
    # Scheduler, hop and NCU counts reach the perf block only through
    # the fold in Network.run; a workload that drove the scheduler past
    # it would show fewer events than it reports.
    doc = run_benchmark(name, perf=True)
    metrics, counters = doc["metrics"], doc["perf"]["counters"]
    assert counters["sched_pop"] >= metrics["events"]
    assert counters["ss_hops"] >= metrics["hops"]
    assert counters["ncu_jobs"] >= metrics["system_calls"]


# ----------------------------------------------------------------------
# Exact counter pins, one workload each
# ----------------------------------------------------------------------
def _counters(net: Network) -> dict[str, float]:
    return {
        "system_calls": net.metrics.system_calls,
        "hops": net.metrics.hops,
        "sim_time": net.scheduler.now,
        "events": net.scheduler.events_processed,
    }


def _broadcast_grid() -> dict[str, float]:
    """Theorem 2: branching-paths broadcast on an 8×8 grid."""
    net = from_spec("grid:8,8", delays=FixedDelays(0.0, 1.0))
    adjacency = net.adjacency()
    run = run_standalone_broadcast(
        net,
        lambda api: BranchingPathsBroadcast(
            api, root=0, adjacency=adjacency, ids=net.id_lookup
        ),
        0,
    )
    return {**_counters(net), "completion_time": run.completion_time()}


def _flood_random() -> dict[str, float]:
    """Flooding's m..2m band on a random connected graph."""
    net = from_spec("random:64,16", delays=FixedDelays(0.0, 1.0))
    run_standalone_broadcast(net, lambda api: FloodingBroadcast(api, root=0), 0)
    return _counters(net)


def _election_ring() -> dict[str, float]:
    """Theorem 5: all-starters election on a 64-ring."""
    net = from_spec("ring:64", delays=FixedDelays(0.0, 1.0))
    net.attach(lambda api: LeaderElection(api))
    net.start()
    net.run_to_quiescence(max_events=10_000_000)
    by_kind = net.metrics.snapshot().system_calls_by_kind
    return {
        **_counters(net),
        "tour_return_calls": by_kind.get("tour", 0) + by_kind.get("return", 0),
    }


def _scheduler_churn() -> dict[str, float]:
    """Timer chains through a real network's NCUs, no packets."""
    chains, per_chain = 16, 400

    class Chain(Protocol):
        def on_start(self, payload):
            self.remaining = per_chain
            self.api.set_timer(1.0, "tick", None)

        def on_timer(self, tag, payload):
            self.remaining -= 1
            if self.remaining > 0:
                self.api.set_timer(1.0, "tick", None)

    net = from_spec("line:16", delays=FixedDelays(0.0, 1.0))
    net.attach(lambda api: Chain(api))
    net.start(list(range(chains)))
    net.run_to_quiescence(max_events=10_000_000)
    return _counters(net)


def _churn_recovery() -> dict[str, float]:
    """Partition, crash, heal, restart and re-elect on a 6×6 grid."""
    from repro.scenario import churn_scenario, run_scenario

    topology = "grid:6,6"
    spec = churn_scenario(topology, seed=11, C=0.0, P=1.0, crashes=2)
    net = from_spec(topology, delays=FixedDelays(0.0, 1.0))
    row = run_scenario(net, spec)
    return {
        **_counters(net),
        "tour_return_calls": row["tour_return_calls"],
        "drops": row["drops"],
        "leaders": len(row["leaders"]),
        "violations": row["violations"],
    }


def _substrate_reuse() -> dict[str, float]:
    """A 200-seed round-trip campaign on one topology, twice: one pooled
    substrate reset per seed, and a rebuild per seed.  Reuse must not
    change the simulation, so the two legs' totals are equal."""
    from repro.exec.substrate import SubstratePool
    from repro.exec.workloads import _roundtrip_route, _run_roundtrip

    topology, seeds = "random:64,16", 200
    route = _roundtrip_route(from_spec(topology), topology)

    def leg(acquire) -> dict[str, float]:
        totals = dict.fromkeys(
            ("system_calls", "hops", "sim_time", "rtt_total", "events"), 0
        )
        for seed in range(seeds):
            net = acquire(RandomDelays(hardware=0.4, software=1.0, seed=seed))
            row = _run_roundtrip(net, route)
            totals["system_calls"] += row["system_calls"]
            totals["hops"] += row["hops"]
            totals["sim_time"] += row["final_time"]
            totals["rtt_total"] += row["rtt"]
            totals["events"] += net.scheduler.events_processed
        return totals

    pool = SubstratePool()
    reused = leg(lambda delays: pool.acquire(topology, delays=delays))
    rebuilt = leg(lambda delays: from_spec(topology, delays=delays))
    assert reused == rebuilt
    return {"seeds": seeds, **reused}


def _substrate_scale() -> dict[str, float]:
    """A 10⁴-node fat tree builds every node and link."""
    net = from_spec("fat_tree:32", trace=False)
    return {"nodes": net.n, "links": net.m}


def _bench(name: str):
    return lambda: bench_counters(name=name)["metrics"]


#: workload -> (driver, every deterministic metric it yields).  The
#: drivers make the public calls the retired ``repro bench`` entries
#: made; the two live entries run through the campaign workload.
#: ``kernel_scale`` (400k events, seconds per run) is pinned in CI.
PINS = {
    "broadcast_grid": (_broadcast_grid, {
        "system_calls": 64, "hops": 63, "sim_time": 3.0, "events": 128,
        "completion_time": 3.0,
    }),
    "flood_random": (_flood_random, {
        "system_calls": 604, "hops": 603, "sim_time": 20.0, "events": 1208,
    }),
    "election_ring": (_election_ring, {
        "system_calls": 454, "hops": 2003, "sim_time": 69.0, "events": 2521,
        "tour_return_calls": 298,
    }),
    "scheduler_churn": (_scheduler_churn, {
        "system_calls": 6416, "hops": 0, "sim_time": 801.0, "events": 12832,
    }),
    "churn_recovery": (_churn_recovery, {
        "system_calls": 590, "hops": 758, "sim_time": 1050.0, "events": 1474,
        "tour_return_calls": 356, "drops": 0, "leaders": 1, "violations": 0,
    }),
    "substrate_reuse": (_substrate_reuse, {
        "seeds": 200, "system_calls": 600, "hops": 1200,
        "sim_time": 601.1124499472267, "rtt_total": 494.102986630228,
        "events": 2000,
    }),
    "substrate_scale": (_substrate_scale, {"nodes": 9472, "links": 24576}),
    "hotpath_forwarding": (_bench("hotpath_forwarding"), {
        "system_calls": 200, "hops": 12600, "sim_time": 206.3, "events": 13000,
        "hops_per_packet": 63.0,
    }),
    "congested_forwarding": (_bench("congested_forwarding"), {
        "system_calls": 240, "hops": 7440, "sim_time": 243.1, "events": 7920,
        "stalls": 235, "stall_sim_time": 12455.0, "max_occupancy": 216,
        "max_link_delay": 107.64999999999999,
    }),
}


@pytest.mark.parametrize("name", list(PINS))
def test_workload_counters_are_pinned(name):
    drive, expected = PINS[name]
    assert drive() == expected
