"""Unit tests for the trace recorder."""

from __future__ import annotations

import pytest

from repro.sim import Trace, TraceKind


def test_record_and_filter():
    trace = Trace()
    trace.record(1.0, TraceKind.PACKET_HOP, node=0, link=(0, 1))
    trace.record(2.0, TraceKind.PACKET_HOP, node=1, link=(1, 2))
    trace.record(3.0, TraceKind.NCU_JOB_START, node=1)
    assert len(trace) == 3
    assert trace.count(TraceKind.PACKET_HOP) == 2
    assert [r.node for r in trace.filter(kind=TraceKind.PACKET_HOP)] == [0, 1]
    assert trace.filter(node=1, kind=TraceKind.PACKET_HOP)[0].detail["link"] == (1, 2)
    assert trace.filter(predicate=lambda r: r.time > 2.5)[0].kind is TraceKind.NCU_JOB_START


def test_last():
    trace = Trace()
    trace.record(1.0, TraceKind.PACKET_DROPPED, reason="a")
    trace.record(2.0, TraceKind.PACKET_DROPPED, reason="b")
    assert trace.last(TraceKind.PACKET_DROPPED).detail["reason"] == "b"
    assert trace.last(TraceKind.TIMER_FIRED) is None


def test_disabled_trace_records_nothing():
    trace = Trace(enabled=False)
    trace.record(1.0, TraceKind.PACKET_HOP)
    assert len(trace) == 0


def test_capacity_limit_counts_dropped():
    trace = Trace(capacity=2)
    for i in range(5):
        trace.record(float(i), TraceKind.PACKET_HOP)
    assert len(trace) == 2
    assert trace.dropped == 3


def test_negative_capacity_is_rejected():
    with pytest.raises(ValueError, match="capacity"):
        Trace(capacity=-1)
    assert Trace(capacity=0).capacity == 0  # keeps nothing, counts drops


def test_clear_resets():
    trace = Trace(capacity=1)
    trace.record(0.0, TraceKind.PACKET_HOP)
    trace.record(0.0, TraceKind.PACKET_HOP)
    trace.clear()
    assert len(trace) == 0
    assert trace.dropped == 0


def test_iteration():
    trace = Trace()
    trace.record(1.0, TraceKind.TIMER_FIRED, node=3, tag="x")
    records = list(trace)
    assert records[0].detail == {"tag": "x"}
