"""Substrate reuse: reset bit-identity, pooling, cached views.

The reuse layer's whole value rests on one promise: a workload run on a
``reset()`` substrate is byte-for-byte the run it would have been on a
fresh build.  This suite locks the promise against the same golden
documents as the hot-path equivalence suite — each golden scenario is
driven repeatedly on one network through ``reset()`` and every run must
serialise identically to the fresh-build run *and* to the committed
golden — and covers the satellites: pool hit/miss behaviour,
pristine-state details, the topology-version memoisation of
``diameter()``/``adjacency()`` (no BFS while link state is unchanged),
independent topology-generator results, and pooled runs of
the registered workloads equal to fresh builds, in process and across
campaign workers.
"""

from __future__ import annotations

import json

import pytest

from repro.exec import TaskSpec, run_campaign, workloads
from repro.exec.substrate import POOL_SIZE, SubstratePool, worker_pool
from repro.network.builder import from_spec
from repro.network import topologies
from repro.sim import FixedDelays, derive_seed

from test_hotpath_equivalence import GOLDEN_PATH, SCENARIO_PARTS


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


# ----------------------------------------------------------------------
# Reset bit-identity against the golden workloads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCENARIO_PARTS))
def test_reset_run_is_byte_identical_to_fresh_build(name: str) -> None:
    build, drive, delays = SCENARIO_PARTS[name]
    golden = _dumps(json.loads(GOLDEN_PATH.read_text())[name])

    net = build()
    fresh_doc = _dumps(drive(net))
    assert fresh_doc == golden

    # Same substrate, reset twice: run 2 and run 3 must not drift.
    for _ in range(2):
        net.reset(delays=delays())
        assert _dumps(drive(net)) == golden


def test_reset_restores_pristine_state() -> None:
    build, drive, delays = SCENARIO_PARTS["failures"]
    net = build()
    drive(net)
    # The failure scenario leaves real residue to wipe.
    assert any(not link.active for link in net.links.values())
    assert net.metrics.system_calls > 0

    net.reset(delays=delays())
    assert net.scheduler.now == 0.0
    assert net.scheduler.events_processed == 0
    assert net.scheduler.pending == 0
    assert net.metrics.system_calls == 0
    assert net.metrics.hops == 0
    assert net.outputs == {}
    assert net.probe is None
    assert len(net.trace) == 0
    assert net.next_packet_seq() == 1
    for link in net.links.values():
        assert link.active
    for node in net.nodes.values():
        assert node.protocol is None
        assert not node.ncu.busy
        assert node.ncu.queued == 0
        assert node._groups == {}


def test_reset_keeps_build_products() -> None:
    net = from_spec("grid:4,4")
    before = {node_id: node.ports for node_id, node in net.nodes.items()}
    links_before = dict(net.links)
    net.reset()
    assert dict(net.links) == links_before
    for node_id, node in net.nodes.items():
        assert node.ports == before[node_id]


def test_reset_returns_self_for_chaining() -> None:
    net = from_spec("ring:4")
    assert net.reset() is net


# ----------------------------------------------------------------------
# Cached derived views (diameter / adjacency)
# ----------------------------------------------------------------------
def test_diameter_repeat_calls_do_no_graph_rebuild(monkeypatch) -> None:
    net = from_spec("grid:4,4")
    sweeps = {"bfs": 0}
    real_eccentricity = topologies._eccentricity

    def counting_eccentricity(*args, **kwargs):
        sweeps["bfs"] += 1
        return real_eccentricity(*args, **kwargs)

    monkeypatch.setattr(topologies, "_eccentricity", counting_eccentricity)

    first = net.diameter()
    assert sweeps["bfs"] == net.n  # exact: one BFS per node
    for _ in range(5):
        assert net.diameter() == first
        assert net.adjacency() is net.adjacency()
    assert sweeps["bfs"] == net.n

    # A link-state change invalidates; the next call recomputes once.
    u, v = sorted(net.links, key=repr)[0]
    net.fail_link(u, v)
    changed = net.diameter()
    assert sweeps["bfs"] == 2 * net.n
    net.restore_link(u, v)
    assert net.diameter() >= 1
    assert sweeps["bfs"] == 3 * net.n
    assert changed >= first


def test_reset_keeps_view_caches_warm_when_no_link_failed() -> None:
    net = from_spec("grid:3,3")
    adjacency = net.adjacency()
    version = net._topology_version
    net.reset()
    assert net._topology_version == version
    assert net.adjacency() is adjacency

    # ... but a network that saw a failure gets invalidated on reset.
    u, v = sorted(net.links, key=repr)[0]
    net.fail_link(u, v)
    net.reset()
    assert net._topology_version > version
    assert net.adjacency() is not adjacency
    assert net.adjacency() == adjacency


# ----------------------------------------------------------------------
# SubstratePool
# ----------------------------------------------------------------------
def test_pool_builds_once_then_reuses() -> None:
    pool = SubstratePool()
    first = pool.acquire("ring:8")
    second = pool.acquire("ring:8")
    assert second is first
    assert (pool.builds, pool.reuses) == (1, 1)
    assert len(pool) == 1

    # A different spec is a different pool entry.
    other = pool.acquire("ring:9")
    assert other is not first
    assert (pool.builds, pool.reuses) == (2, 1)
    assert len(pool) == 2


def test_pool_acquire_hands_out_pristine_networks() -> None:
    pool = SubstratePool()
    net = pool.acquire("grid:3,3", delays=FixedDelays(0.0, 1.0))
    net.attach(lambda api: __import__("repro.network.protocol",
                                      fromlist=["Protocol"]).Protocol(api))
    net.start([0])
    net.run_to_quiescence()
    assert net.metrics.system_calls > 0

    again = pool.acquire("grid:3,3", delays=FixedDelays(0.0, 1.0))
    assert again is net
    assert again.metrics.system_calls == 0
    assert again.scheduler.now == 0.0
    assert all(node.protocol is None for node in again.nodes.values())


def test_pool_eviction_is_bounded() -> None:
    pool = SubstratePool()
    specs = [f"ring:{n}" for n in range(3, 4 + POOL_SIZE)]
    for spec in specs:
        pool.acquire(spec)
    assert len(pool) == POOL_SIZE
    # The first spec was evicted (FIFO), so acquiring it again is a build.
    pool.acquire(specs[0])
    assert pool.builds == POOL_SIZE + 2


# ----------------------------------------------------------------------
# Workloads: pooled runs equal fresh builds
# ----------------------------------------------------------------------
def _fresh(workload, seed: int, **params):
    """``workload`` on a fresh build: an empty pool has nothing to reset."""
    worker_pool().clear()
    return workload(seed, **params)


def test_roundtrip_workload_identical_reuse_on_and_off() -> None:
    worker_pool().clear()
    rows_on = [workloads.anr_roundtrip_time(seed, topology="random:24,7")
               for seed in range(4)]
    rows_off = [_fresh(workloads.anr_roundtrip_time, seed, topology="random:24,7")
                for seed in range(4)]
    assert rows_on == rows_off
    # Distinct seeds genuinely vary (the delays differ).
    assert len({row["rtt"] for row in rows_on}) > 1


def test_election_workload_fixed_topology_matches_modes() -> None:
    worker_pool().clear()
    on = [workloads.election_calls_per_node(seed, topology="random:16,3")
          for seed in range(3)]
    off = [_fresh(workloads.election_calls_per_node, seed, topology="random:16,3")
           for seed in range(3)]
    assert on == off


def test_pooled_campaign_matches_fresh_builds() -> None:
    # Two workers each build the substrate once and reset it for every
    # later task; the rows must equal fresh builds of the same seeds.
    specs = [
        TaskSpec.make(
            "repro.exec.workloads:election_calls_per_node",
            seed=derive_seed(0, "montecarlo", i),
            topology="random:32,5",
        )
        for i in range(8)
    ]
    pooled = run_campaign(specs, jobs=2, cache=None, perf=True)
    counters = pooled.merged_perf()["counters"]
    assert counters["substrate_builds"] <= 2
    assert counters["substrate_resets"] >= len(specs) - 2
    fresh = [
        _fresh(workloads.election_calls_per_node, spec.seed, topology="random:32,5")
        for spec in specs
    ]
    assert pooled.values() == fresh
    assert len(set(fresh)) > 1


def test_sweep_forwards_params_to_pooled_workload() -> None:
    from repro.analysis.montecarlo import resolve_seeds, sweep

    summary = sweep(workloads.election_calls_per_node, 3, topology="random:16,3")
    expected = [
        workloads.election_calls_per_node(seed, topology="random:16,3")
        for seed in resolve_seeds(3)
    ]
    assert list(summary.samples) == expected


# ----------------------------------------------------------------------
# Topology generators
# ----------------------------------------------------------------------
def test_generator_calls_return_independent_graphs() -> None:
    g1 = topologies.grid(4, 5)
    g2 = topologies.grid(4, 5)
    assert g1 is not g2
    assert g1 == g2
    g1.edges.clear()
    assert topologies.grid(4, 5) == g2


def test_topology_cache_invalid_params_still_raise() -> None:
    with pytest.raises(ValueError):
        topologies.ring(2)
    with pytest.raises(ValueError):
        topologies.grid(0, 3)


def test_clos_reset_run_is_byte_identical() -> None:
    # Datacenter-fabric reset identity: the bulk-built Clos substrate
    # must reproduce a fresh build byte-for-byte through reset(), same
    # contract as the golden scenarios above.
    from test_hotpath_equivalence import RecordingFlood, _document

    def build():
        return from_spec("clos:6,3,2", delays=FixedDelays(0.25, 1.0), trace=True)

    def drive(net):
        from repro.core import run_standalone_broadcast

        deliveries: list = []
        run_standalone_broadcast(
            net,
            lambda api: RecordingFlood(api, root=0, body="clos", sink=deliveries),
            0,
        )
        return _dumps(_document(net, deliveries))

    fresh = drive(build())
    net = build()
    assert drive(net) == fresh
    for _ in range(2):
        net.reset(delays=FixedDelays(0.25, 1.0))
        assert drive(net) == fresh
