"""Tests for the observability layer: spans, exporters, stats, manifests."""

from __future__ import annotations

import json
import warnings

import pytest

from repro.core import BranchingPathsBroadcast, run_standalone_broadcast
from repro.network.builder import from_spec
from repro.obs import (
    Histogram,
    LiveStats,
    RunManifest,
    build_spans,
    children_index,
    chrome_trace_document,
    makespan,
    records_from_jsonl,
    records_to_jsonl,
    render_timeline,
    span_counts,
    span_summary_table,
    write_chrome_trace,
)
from repro.sim import FixedDelays, Trace, TraceKind


def traced_broadcast(spec: str = "grid:4,4", root: int = 0):
    net = from_spec(spec, delays=FixedDelays(0.0, 1.0), trace=True)
    adjacency = net.adjacency()
    run = run_standalone_broadcast(
        net,
        lambda api: BranchingPathsBroadcast(
            api, root=root, adjacency=adjacency, ids=net.id_lookup
        ),
        root,
    )
    return net, run


# ----------------------------------------------------------------------
# Span reconstruction
# ----------------------------------------------------------------------
def test_ncu_span_count_equals_system_call_total():
    net, _ = traced_broadcast()
    spans = build_spans(net.trace)
    ncu = [s for s in spans if s.category == "ncu"]
    assert len(ncu) == net.metrics.system_calls


def test_packet_spans_parent_their_hops():
    net, _ = traced_broadcast()
    spans = build_spans(net.trace)
    by_sid = {s.sid: s for s in spans}
    hops = [s for s in spans if s.category == "hop"]
    assert hops, "a grid broadcast must hop"
    for hop in hops:
        assert by_sid[hop.parent].category == "packet"
        assert hop.end >= hop.start
    index = children_index(spans)
    packets = [s for s in spans if s.category == "packet"]
    assert sum(len(index.get(p.sid, [])) for p in packets) >= len(hops)


def test_packet_span_outcomes_and_counts():
    net, run = traced_broadcast()
    spans = build_spans(net.trace)
    packets = [s for s in spans if s.category == "packet"]
    assert all(s.args["outcome"] == "delivered" for s in packets)
    counts = span_counts(spans)
    assert counts["hop"] == net.metrics.hops
    assert makespan(spans) > 0


def test_packet_triggered_ncu_jobs_link_to_packet_spans():
    net, _ = traced_broadcast()
    spans = build_spans(net.trace)
    by_sid = {s.sid: s for s in spans}
    packet_jobs = [
        s for s in spans if s.category == "ncu" and s.args.get("packet") is not None
    ]
    assert packet_jobs, "broadcast relays are packet jobs"
    for job in packet_jobs:
        assert job.parent is not None
        assert by_sid[job.parent].category == "packet"


def test_phase_spans_from_protocol_notes():
    trace = Trace()
    trace.record(1.0, TraceKind.PROTOCOL_NOTE, node=3, phase="tour", mark="begin")
    trace.record(4.0, TraceKind.PROTOCOL_NOTE, node=3, phase="tour", mark="end")
    trace.record(5.0, TraceKind.PROTOCOL_NOTE, node=3, phase="late", mark="begin")
    spans = build_spans(trace)
    phases = {s.name: s for s in spans if s.category == "phase"}
    assert phases["tour"].start == 1.0 and phases["tour"].end == 4.0
    assert phases["late"].args.get("unclosed") is True


def test_unclosed_ncu_job_is_flagged():
    trace = Trace()
    trace.record(2.0, TraceKind.NCU_JOB_START, node=0, job="packet")
    spans = build_spans(trace)
    assert spans[0].category == "ncu"
    assert spans[0].args.get("unclosed") is True


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def test_jsonl_round_trip_real_trace(tmp_path):
    net, _ = traced_broadcast()
    path = records_to_jsonl(net.trace, tmp_path / "trace.jsonl")
    assert records_from_jsonl(path) == net.trace.records


def test_jsonl_round_trip_preserves_tuples(tmp_path):
    trace = Trace()
    trace.record(0.5, TraceKind.LINK_STATE, node=(1, 2), link=(3, 4), active=False)
    trace.record(1.0, TraceKind.PACKET_HOP, node=0, packet=7, link=(0, 1), to=1)
    path = records_to_jsonl(trace, tmp_path / "t.jsonl")
    back = records_from_jsonl(path)
    assert back == trace.records
    assert back[0].detail["link"] == (3, 4)
    assert back[0].node == (1, 2)


def test_jsonl_round_trip_capacity_limited_trace(tmp_path):
    trace = Trace(capacity=3)
    for i in range(10):
        trace.record(float(i), TraceKind.PACKET_HOP, node=i, packet=i)
    assert trace.dropped == 7
    path = records_to_jsonl(trace, tmp_path / "t.jsonl")
    assert len(records_from_jsonl(path)) == 3
    trace.clear()
    assert trace.dropped == 0 and len(trace) == 0


def test_chrome_trace_document_schema():
    net, _ = traced_broadcast()
    doc = chrome_trace_document(build_spans(net.trace))
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert complete and meta
    for event in complete:
        assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(event)
        assert isinstance(event["ts"], float) and event["dur"] >= 1.0
        assert json.dumps(event)  # strictly JSON-serialisable
    thread_names = [e for e in meta if e["name"] == "thread_name"]
    assert {e["tid"] for e in thread_names} >= {e["tid"] for e in complete}


def test_chrome_trace_ncu_span_count_matches_total(tmp_path):
    net, _ = traced_broadcast("grid:8,8")
    path = write_chrome_trace(tmp_path / "t.json", build_spans(net.trace))
    doc = json.loads(path.read_text())
    ncu_events = [
        e for e in doc["traceEvents"] if e["ph"] == "X" and e["cat"] == "ncu"
    ]
    assert len(ncu_events) == net.metrics.system_calls


# ----------------------------------------------------------------------
# Timeline rendering
# ----------------------------------------------------------------------
def test_timeline_renders_rows_and_truncates():
    net, _ = traced_broadcast()
    spans = build_spans(net.trace)
    out = render_timeline(spans, limit=5)
    assert "ncu:start" in out
    assert "more spans not shown" in out
    assert render_timeline([], limit=5).startswith("(no spans")


def test_span_summary_table_lists_categories():
    net, _ = traced_broadcast()
    out = span_summary_table(build_spans(net.trace))
    for category in ("packet", "hop", "ncu"):
        assert category in out


# ----------------------------------------------------------------------
# Histograms and live stats
# ----------------------------------------------------------------------
def test_histogram_basic_stats():
    hist = Histogram([1.0, 2.0, 4.0])
    for value in (0.5, 1.5, 3.0, 100.0):
        hist.add(value)
    assert hist.count == 4
    assert hist.minimum == 0.5 and hist.maximum == 100.0
    assert hist.mean == pytest.approx(26.25)
    assert hist.counts == [1, 1, 1, 1]  # one per bin incl. overflow
    assert hist.quantile(0.25) == 1.0
    assert hist.quantile(1.0) == 100.0  # overflow bin reports the max


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram([])
    with pytest.raises(ValueError):
        Histogram([1.0, 1.0])
    with pytest.raises(ValueError):
        Histogram([1.0]).quantile(2.0)
    with pytest.raises(ValueError):
        Histogram.geometric(0, 10, 4)


def test_histogram_empty_mean_and_quantile():
    hist = Histogram([1.0, 2.0])
    assert hist.count == 0
    assert hist.mean == 0.0
    assert hist.quantile(0.5) == 0.0
    assert hist.quantile(0.0) == 0.0 and hist.quantile(1.0) == 0.0


def test_histogram_single_value():
    hist = Histogram([10.0])
    hist.add(3.0)
    assert hist.count == 1
    assert hist.minimum == hist.maximum == 3.0
    assert hist.mean == pytest.approx(3.0)
    assert hist.quantile(0.0) == hist.quantile(1.0)


def test_histogram_out_of_bounds_adds():
    hist = Histogram([1.0, 2.0])
    hist.add(-50.0)   # far below the lowest bound: first bin
    hist.add(1e12)    # far above the highest: overflow bin
    assert hist.counts == [1, 0, 1]
    assert hist.count == 2
    assert hist.minimum == -50.0 and hist.maximum == 1e12
    assert hist.quantile(0.0) == 1.0  # underflow reports its bin edge
    assert hist.quantile(1.0) == 1e12  # overflow reports the true max


def test_histogram_geometric_bounds():
    hist = Histogram.geometric(1.0, 64.0, 7)
    assert hist.bounds[0] == pytest.approx(1.0)
    assert hist.bounds[-1] == pytest.approx(64.0)
    assert len(hist.bounds) == 7


def test_histogram_merge_empty_into_populated_is_identity():
    populated = Histogram([1.0, 2.0, 4.0])
    for value in (0.5, 3.0, 9.0):
        populated.add(value)
    before = populated.to_dict()
    populated.merge(Histogram([1.0, 2.0, 4.0]))
    assert populated.to_dict() == before


def test_histogram_merge_populated_into_empty_copies_everything():
    populated = Histogram([1.0, 2.0, 4.0])
    for value in (0.5, 3.0, 9.0):
        populated.add(value)
    empty = Histogram([1.0, 2.0, 4.0])
    empty.merge(populated)
    assert empty.to_dict() == populated.to_dict()
    assert empty.minimum == 0.5 and empty.maximum == 9.0
    assert empty.mean == populated.mean


def test_histogram_merge_two_empties_stays_empty():
    a, b = Histogram([1.0]), Histogram([1.0])
    a.merge(b)
    assert a.count == 0
    assert a.minimum is None and a.maximum is None
    assert a.mean == 0.0 and a.quantile(0.5) == 0.0


def test_histogram_merge_rejects_mismatched_bounds():
    with pytest.raises(ValueError):
        Histogram([1.0, 2.0]).merge(Histogram([1.0, 3.0]))


def test_live_stats_observe_a_run():
    net = from_spec("grid:4,4", delays=FixedDelays(0.0, 1.0))
    stats = LiveStats().install(net)
    adjacency = net.adjacency()
    run_standalone_broadcast(
        net,
        lambda api: BranchingPathsBroadcast(
            api, root=0, adjacency=adjacency, ids=net.id_lookup
        ),
        0,
    )
    assert stats.total_jobs == net.metrics.system_calls
    assert stats.total_hops == net.metrics.hops
    assert stats.events_seen == net.scheduler.events_processed
    assert stats.queue_depth.count > 0
    assert stats.busiest_node is not None
    assert stats.hottest_link is not None
    assert sum(stats.ncu_busy_by_node.values()) == pytest.approx(
        stats.total_jobs * 1.0  # P = 1 per job
    )
    rendered = stats.render()
    assert "queue depth" in rendered and "busiest NCU" in rendered
    stats.uninstall()
    assert net.probe is None


def test_live_stats_exclusive_probe():
    net = from_spec("ring:4", delays=FixedDelays(0.0, 1.0))
    LiveStats().install(net)
    with pytest.raises(RuntimeError, match="already installed"):
        LiveStats().install(net)


def test_live_stats_uninstall_is_idempotent():
    net = from_spec("ring:4", delays=FixedDelays(0.0, 1.0))
    stats = LiveStats().install(net)
    stats.uninstall()
    stats.uninstall()  # second uninstall must be a no-op
    assert net.probe is None
    assert stats.on_event not in net.scheduler._observers
    # Never-installed stats can be uninstalled without error too.
    LiveStats().uninstall()


def test_live_stats_double_install_same_instance_is_safe():
    net = from_spec("ring:4", delays=FixedDelays(0.0, 1.0))
    stats = LiveStats().install(net)
    stats.install(net)  # re-installing the same instance is allowed
    assert net.probe is stats
    assert net.scheduler._observers.count(stats.on_event) == 1
    stats.uninstall()
    # After a clean detach another collector may take the probe slot.
    other = LiveStats().install(net)
    assert net.probe is other


def test_live_stats_uninstall_stops_collection():
    net = from_spec("ring:8", delays=FixedDelays(0.0, 1.0))
    stats = LiveStats().install(net)
    stats.uninstall()
    adjacency = net.adjacency()
    run_standalone_broadcast(
        net,
        lambda api: BranchingPathsBroadcast(
            api, root=0, adjacency=adjacency, ids=net.id_lookup
        ),
        0,
    )
    assert stats.total_jobs == 0 and stats.events_seen == 0


def test_live_stats_zero_sample_finalization():
    """Install + uninstall with no run: render and totals stay sane."""
    net = from_spec("ring:4", delays=FixedDelays(0.0, 1.0))
    stats = LiveStats().install(net)
    stats.uninstall()
    assert stats.total_jobs == 0 and stats.total_hops == 0
    assert stats.busiest_node is None
    assert stats.hottest_link is None
    assert stats.queue_occupancy.count == 0
    assert stats.link_stall_time.count == 0
    rendered = stats.render()
    assert "events observed" in rendered
    # Empty histograms are omitted, not rendered as bogus zeros.
    assert "link occupancy" not in rendered


def test_live_stats_hottest_link_ties_go_to_link_table_order():
    # Two links with one hop each, the later one in the link table
    # traversed first: the tie goes to the link table's first link.
    from repro.hardware import build_anr
    from repro.network import Protocol

    net = from_spec("line:3", delays=FixedDelays(0.0, 1.0))
    net.attach(lambda api: Protocol(api))
    stats = LiveStats().install(net)
    net.node(2).inject(build_anr([2, 1], net.id_lookup), "x")
    net.node(0).inject(build_anr([0, 1], net.id_lookup), "y")
    net.run_to_quiescence()
    assert list(net.links) == [(0, 1), (1, 2)]
    assert stats.hottest_link == ((0, 1), 1)


def test_observers_installed_again_after_reset_see_the_next_run(tmp_path):
    # ``Network.reset()`` renews the scheduler, the metrics and the
    # probe; each observer installed again counts the next run too.
    from repro.core import FloodingBroadcast
    from repro.obs import FlightRecorder, Monitor, MonitorHost

    checked = []

    class Counting(Monitor):
        name = "counting"

        def check(self, event):
            checked.append(event)
            return ()

    net = from_spec("grid:3,3", delays=FixedDelays(0.0, 1.0))
    stats = LiveStats()
    recorder = FlightRecorder(net, capacity=10_000, path=tmp_path / "pm.jsonl")
    host = MonitorHost(net, [Counting()])
    runs = []
    for _ in range(2):
        stats.install(net)
        recorder.install()
        host.install()
        run_standalone_broadcast(net, lambda api: FloodingBroadcast(api, root=0), 0)
        runs.append((net.metrics.system_calls, net.metrics.hops,
                     net.scheduler.events_processed))
        net.reset()
    assert runs[0] == runs[1] and runs[0][1] == 16
    calls, hops, events = (sum(column) for column in zip(*runs))
    assert stats.total_jobs == calls
    assert stats.total_hops == hops == 32
    assert stats.events_seen == events
    assert len(recorder) == events
    assert len(checked) == events


def test_build_spans_warns_on_truncated_trace():
    trace = Trace(capacity=2)
    for i in range(5):
        trace.record(float(i), TraceKind.NCU_JOB_START, node=i, job="x")
    with pytest.warns(RuntimeWarning, match="capacity-truncated") as caught:
        build_spans(trace)
    # The warning names the configured capacity and the dropped count,
    # so the fix (--trace-capacity) is actionable without digging.
    message = str(caught[0].message)
    assert "at 2 records" in message
    assert "3 records dropped" in message
    # Full traces and bare record lists stay silent.
    full = Trace()
    full.record(0.0, TraceKind.NCU_JOB_START, node=0, job="x")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_spans(full)
        build_spans(list(trace))  # a record list has no dropped counter


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------
def test_manifest_collects_run_state(tmp_path):
    net, run = traced_broadcast()
    manifest = RunManifest.collect(
        net, command="test", topology="grid:4,4", C=0.0, P=1.0, scheme="bpaths"
    )
    assert manifest.n == 16 and manifest.m == 24
    assert manifest.system_calls == net.metrics.system_calls
    assert manifest.trace_records == len(net.trace)
    assert manifest.extra == {"scheme": "bpaths"}
    assert manifest.python
    path = manifest.write(tmp_path / "run.manifest.json")
    loaded = RunManifest.load(path)
    assert loaded == manifest
