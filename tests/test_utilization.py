"""Tests for NCU utilization analysis."""

from __future__ import annotations

import pytest

from conftest import limiting_net
from repro.analysis.utilization import utilization_report
from repro.core import (
    BranchingPathsBroadcast,
    DirectBroadcast,
    FloodingBroadcast,
    run_standalone_broadcast,
)
from repro.network import topologies
from repro.sim import Trace, TraceKind


def traced_broadcast(proto_cls, g, **kw):
    net = limiting_net(g, trace=True)
    adjacency = net.adjacency()
    if proto_cls is FloodingBroadcast:
        def factory(api):
            return FloodingBroadcast(api, root=0)
    else:
        def factory(api):
            return proto_cls(api, root=0, adjacency=adjacency, ids=net.id_lookup, **kw)
    run_standalone_broadcast(net, factory, 0)
    return net


def test_empty_trace():
    report = utilization_report(Trace())
    assert report.per_node == {}
    assert report.makespan == 0.0
    assert report.parallelism == 0.0
    assert report.busiest is None


def test_manual_trace_pairing():
    trace = Trace()
    trace.record(0.0, TraceKind.NCU_JOB_START, node="a")
    trace.record(1.0, TraceKind.NCU_JOB_END, node="a")
    trace.record(1.0, TraceKind.NCU_JOB_START, node="a")
    trace.record(2.0, TraceKind.NCU_JOB_END, node="a")
    trace.record(0.5, TraceKind.NCU_JOB_START, node="b")
    trace.record(1.5, TraceKind.NCU_JOB_END, node="b")
    report = utilization_report(trace)
    assert report.per_node["a"].jobs == 2
    assert report.per_node["a"].busy_time == pytest.approx(2.0)
    assert report.per_node["a"].utilization == pytest.approx(1.0)
    assert report.per_node["b"].busy_time == pytest.approx(1.0)
    assert report.makespan == pytest.approx(2.0)
    assert report.total_busy_time == pytest.approx(3.0)
    assert report.parallelism == pytest.approx(1.5)
    assert report.busiest.node == "a"


def test_unmatched_start_ignored():
    trace = Trace()
    trace.record(0.0, TraceKind.NCU_JOB_START, node="a")
    report = utilization_report(trace)
    assert report.per_node == {}


def test_since_filters_earlier_jobs():
    trace = Trace()
    trace.record(0.0, TraceKind.NCU_JOB_START, node="a")
    trace.record(1.0, TraceKind.NCU_JOB_END, node="a")
    trace.record(5.0, TraceKind.NCU_JOB_START, node="a")
    trace.record(6.0, TraceKind.NCU_JOB_END, node="a")
    report = utilization_report(trace, since=2.0)
    assert report.per_node["a"].jobs == 1


def test_bpaths_touches_each_ncu_once():
    net = traced_broadcast(BranchingPathsBroadcast, topologies.grid(5, 5))
    report = utilization_report(net.trace)
    # Every node exactly one job (node 0's is the START).
    assert all(u.jobs == 1 for u in report.per_node.values())
    assert len(report.per_node) == net.n


def test_flooding_pressure_exceeds_bpaths():
    g = topologies.random_connected(30, 0.25, seed=6)
    net_f = traced_broadcast(FloodingBroadcast, g)
    net_b = traced_broadcast(BranchingPathsBroadcast, g)
    flood = utilization_report(net_f.trace)
    bpaths = utilization_report(net_b.trace)
    assert flood.total_busy_time > 2 * bpaths.total_busy_time
    assert flood.busiest.jobs > bpaths.busiest.jobs


def test_direct_broadcast_is_serialized_at_root():
    net = traced_broadcast(DirectBroadcast, topologies.star(12))
    report = utilization_report(net.trace)
    # The root does nearly all the work (one job per destination);
    # receivers only overlap with the root's pipeline, so fleet
    # parallelism stays a small constant.
    assert report.busiest.node == 0
    assert report.busiest.jobs == 11  # START + 10 self-continuations
    assert report.parallelism < 2.5


def test_bpaths_parallelism_grows_with_n():
    small = utilization_report(
        traced_broadcast(BranchingPathsBroadcast, topologies.grid(3, 3)).trace
    )
    large = utilization_report(
        traced_broadcast(BranchingPathsBroadcast, topologies.grid(8, 8)).trace
    )
    # n / log n growth: the larger broadcast keeps more NCUs busy at once.
    assert large.parallelism > 2 * small.parallelism
