"""Flow-controlled links, congestion telemetry and the netcalc monitor.

Covers the congestion-observability stack end to end:

* credit-based flow control on :class:`~repro.hardware.link.Link`
  (serialisation spacing, stalls, credit drain, reset, failure during
  a stall);
* the closed-form network-calculus bounds in
  :mod:`repro.analysis.netcalc`;
* :class:`~repro.obs.monitors.NetCalcMonitor` — silent on conforming
  traffic, one arrival-conformance alert (and a replayable flight
  recorder postmortem) on an over-driven source;
* the QUEUE records a flow-controlled link writes on every change of a
  direction's queue, and the views that read them: the text heatmap
  (live and replayed), the per-direction summary and the Chrome
  counter tracks.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from repro.analysis.netcalc import (
    RateLatency,
    TokenBucket,
    backlog_bound,
    convolve,
    delay_bound,
    flow_controlled_rate,
    is_stable,
    link_bounds,
    link_service_curve,
    output_burst,
)
from repro.cli import main
from repro.hardware.anr import build_anr
from repro.network.builder import from_spec
from repro.network.protocol import Protocol
from repro.obs import (
    FlightRecorder,
    Histogram,
    LiveStats,
    MonitorHost,
    NetCalcMonitor,
    chrome_trace_document,
    monitors_from_spec,
    records_from_jsonl,
    render_congestion_heatmap,
    render_congestion_summary,
)
from repro.sim import FixedDelays
from repro.sim.trace import TraceKind


def _line(length: int, *, rate=None, buffer=None, trace=False, C=0.1):
    net = from_spec(f"line:{length}", delays=FixedDelays(C, 1.0), trace=trace)
    if rate is not None or buffer is not None:
        net.set_flow_control(rate=rate, buffer=buffer)
    net.attach(lambda api: Protocol(api))
    return net


def _drive(net, length: int, packets: int, gap: float) -> None:
    header = build_anr(list(range(length)), net.id_lookup)
    source = net.node(0)
    for i in range(packets):
        net.scheduler.schedule_at(
            gap * i, source.inject, args=(header, i), tag="inject"
        )
    net.run_to_quiescence(max_events=10_000_000)


def _queue(net):
    return [r for r in net.trace if r.kind is TraceKind.QUEUE]


def _series(records):
    """``(stalled, in_flight, occupancy)`` per direction, in record order."""
    series = {}
    for rec in records:
        detail = rec.detail
        series.setdefault((detail["link"], rec.node), []).append(
            (detail["stalled"], detail["in_flight"], detail["occupancy"])
        )
    return series


def _state(net, link_key, sender):
    for link, state in net.flow_states():
        if link.key == link_key and state.sender == sender:
            return state
    raise AssertionError(f"no flow state for {link_key} from {sender}")


# ----------------------------------------------------------------------
# Flow-control semantics
# ----------------------------------------------------------------------
def test_default_links_carry_no_flow_state():
    net = _line(4)
    assert all(link.fc is None for link in net.links.values())
    assert net.flow_states() == []


def test_set_flow_control_validates_and_counts():
    net = _line(4)
    assert net.set_flow_control(rate=2.0, buffer=3) == 3
    assert len(net.flow_states()) == 6  # two directions per link
    with pytest.raises(ValueError):
        net.set_flow_control(rate=0.0)
    with pytest.raises(ValueError):
        net.set_flow_control(buffer=0)
    # Both None clears the state entirely.
    assert net.set_flow_control() == 3
    assert all(link.fc is None for link in net.links.values())


def test_rate_limit_serialises_departures():
    """At rate R each transmit occupies the wire for 1/R."""
    net = _line(2, rate=2.0)
    _drive(net, 2, packets=6, gap=0.01)  # burst far faster than the link
    state = _state(net, (0, 1), 0)
    assert state.xmits == 6
    # Departures back up behind the serialisation frontier: 6 packets
    # at 0.5 each, starting from t=0.
    assert state.busy_until == pytest.approx(6 * 0.5)
    # The last packet waited ~5 serialisation slots plus the C delay.
    assert state.max_delay == pytest.approx(5 * 0.5 - 0.05 + 0.1)


def test_bounded_buffer_stalls_and_drains():
    net = _line(2, rate=1.0, buffer=2)
    _drive(net, 2, packets=8, gap=0.0)  # all injected at t=0
    state = _state(net, (0, 1), 0)
    assert state.arrivals == 8
    assert state.xmits == 8          # every packet eventually crosses
    assert state.stalls == 8 - 2     # only the window fits immediately
    assert state.stall_time > 0
    assert state.max_occupancy == 8
    assert state.in_flight == 0      # fully drained at quiescence
    assert not state.pending
    # Everything was delivered despite the stalls.
    assert net.metrics.copies == 8


def test_unlimited_rate_with_buffer_only():
    """buffer-only flow control: no serialisation, credits still bound."""
    net = _line(2, buffer=4)
    _drive(net, 2, packets=6, gap=0.0)
    state = _state(net, (0, 1), 0)
    assert state.xmits == 6
    assert state.stalls == 2
    assert net.metrics.copies == 6


def test_flow_control_preserves_fifo_per_direction():
    net = _line(2, rate=1.0, buffer=1, trace=True)
    _drive(net, 2, packets=5, gap=0.0)
    hops = [r for r in net.trace
            if r.kind is TraceKind.PACKET_HOP and r.node == 0]
    seqs = [r.detail["packet"] for r in sorted(hops, key=lambda r: r.time)]
    assert seqs == sorted(seqs)


def test_reset_clears_flow_state_and_reruns_identically():
    net = _line(3, rate=1.0, buffer=2)
    _drive(net, 3, packets=6, gap=0.0)
    first = (net.metrics.system_calls, net.scheduler.now,
             _state(net, (0, 1), 0).stalls)
    net.reset()
    for link, state in net.flow_states():
        assert state.in_flight == 0
        assert state.arrivals == 0
        assert state.busy_until == 0.0
        assert not state.pending
    net.attach(lambda api: Protocol(api))
    _drive(net, 3, packets=6, gap=0.0)
    second = (net.metrics.system_calls, net.scheduler.now,
              _state(net, (0, 1), 0).stalls)
    assert second == first


def test_link_failure_drops_stalled_packets():
    """A link that dies mid-stall drops the queued waiters on transmit."""
    net = _line(2, rate=1.0, buffer=1, trace=True)
    header = build_anr([0, 1], net.id_lookup)
    source = net.node(0)
    for i in range(4):
        net.scheduler.schedule_at(0.0, source.inject, args=(header, i))
    net.scheduler.schedule_at(1.5, lambda: net.fail_link(0, 1), tag="fail")
    net.run_to_quiescence(max_events=10_000)
    # p0/p1 deliver; p2 dies in flight; p3 is dropped when its stalled
    # transmit finds the link inactive.
    assert net.metrics.copies == 2
    assert net.metrics.drops == 2
    state = _state(net, (0, 1), 0)
    assert state.xmits == 3
    assert not state.pending and state.in_flight == 0
    # The dropped waiter's leaving the stall queue is reported too.
    assert _series(_queue(net))[((0, 1), 0)][-1] == (0, 0, 0)


# ----------------------------------------------------------------------
# Network-calculus bounds (Zippo & Stea, arXiv:2203.02497)
# ----------------------------------------------------------------------
def test_curves_evaluate_and_validate():
    alpha = TokenBucket(rate=2.0, burst=3.0)
    assert alpha(0.0) == 0.0  # alpha is 0 at the origin by convention
    assert alpha(2.0) == 7.0
    beta = RateLatency(rate=4.0, latency=1.5)
    assert beta(1.0) == 0.0 and beta(2.5) == 4.0
    with pytest.raises(ValueError):
        TokenBucket(rate=-1.0, burst=0.0)
    with pytest.raises(ValueError):
        RateLatency(rate=0.0, latency=0.0)
    with pytest.raises(ValueError):
        RateLatency(rate=1.0, latency=-1.0)


def test_closed_form_bounds():
    alpha = TokenBucket(rate=1.0, burst=4.0)
    beta = RateLatency(rate=2.0, latency=0.5)
    assert is_stable(alpha, beta)
    assert delay_bound(alpha, beta) == pytest.approx(0.5 + 4.0 / 2.0)
    assert backlog_bound(alpha, beta) == pytest.approx(4.0 + 1.0 * 0.5)
    assert output_burst(alpha, beta) == pytest.approx(4.0 + 1.0 * 0.5)


def test_unstable_pair_gives_infinite_delay():
    alpha = TokenBucket(rate=3.0, burst=1.0)
    beta = RateLatency(rate=2.0, latency=0.0)
    assert not is_stable(alpha, beta)
    assert delay_bound(alpha, beta) == math.inf


def test_convolution_takes_min_rate_and_sums_latency():
    a = RateLatency(rate=2.0, latency=0.5)
    b = RateLatency(rate=3.0, latency=1.0)
    c = convolve(a, b)
    assert c.rate == 2.0 and c.latency == 1.5


def test_flow_controlled_rate_window_limit():
    # wire rate 10, latency 0.9, window 2: round trip = 0.1 + 0.9 = 1.0,
    # so the window sustains 2 packets per time unit despite the fast wire.
    eff = flow_controlled_rate(10.0, 0.9, 2)
    assert eff == pytest.approx(2.0)
    # A huge window leaves the wire the bottleneck.
    assert flow_controlled_rate(10.0, 0.9, None) == pytest.approx(10.0)
    assert flow_controlled_rate(None, 0.9, None) == math.inf


def test_link_bounds_bundle():
    bounds = link_bounds(
        arrival=TokenBucket(rate=1.0, burst=2.0),
        rate=2.0, latency=0.1, buffer=4,
    )
    assert bounds.service.rate <= 2.0
    assert bounds.delay >= bounds.service.latency
    assert bounds.backlog >= 2.0


def test_service_curve_latency_includes_serialisation():
    curve = link_service_curve(2.0, 0.1, None)
    assert curve.latency == pytest.approx(0.1 + 0.5)


# ----------------------------------------------------------------------
# NetCalcMonitor
# ----------------------------------------------------------------------
def test_netcalc_monitor_silent_on_conforming_traffic():
    length = 6
    net = _line(length, rate=2.0, buffer=4)
    monitor = NetCalcMonitor(net)
    assert monitor.tracked_count == 2 * (length - 1)
    host = MonitorHost(net, [monitor]).install()
    _drive(net, length, packets=20, gap=2.0)  # well under rate 2.0
    host.finish()
    assert host.alerts == []
    # Bounds held in actuality too, not just per the monitor.
    for link, state in net.flow_states():
        assert state.stalls == 0


def test_netcalc_monitor_flags_overdriven_source(tmp_path):
    length = 4
    net = _line(length, rate=1.0, buffer=2)
    path = tmp_path / "postmortem.jsonl"
    recorder = FlightRecorder(net, capacity=64, path=path).install()
    host = MonitorHost(
        net, [NetCalcMonitor(net)], on_alert=recorder.note_alert
    ).install()
    _drive(net, length, packets=30, gap=0.05)  # 20x the sustainable rate
    host.finish()
    assert host.alerts, "over-driven source must trip the monitor"
    first = host.alerts[0]
    assert first.monitor == "netcalc"
    assert first.measure == "arrival conformance"
    # Nonconformance disarms the bound checks for that direction: the
    # alert stream stays bounded by the direction count.
    assert len(host.alerts) <= 2 * (length - 1)
    # The alert tripped the recorder into a replayable postmortem.
    assert path.exists()
    records = records_from_jsonl(path)
    assert any(r.kind is TraceKind.ALERT for r in records)
    alert = next(r for r in records if r.kind is TraceKind.ALERT)
    assert alert.detail["monitor"] == "netcalc"


def test_netcalc_bounds_table_lists_directions():
    net = _line(3, rate=2.0, buffer=4)
    table = NetCalcMonitor(net).bounds_table()
    assert "(0, 1)" in table and "(1, 2)" in table


def test_monitors_from_spec_skips_netcalc_without_flow_control():
    net = _line(3)
    monitors, notes = monitors_from_spec(net, "netcalc", command="test")
    assert monitors == []
    assert any("netcalc" in note for note in notes)
    net.set_flow_control(rate=1.0, buffer=2)
    monitors, notes = monitors_from_spec(net, "netcalc", command="test")
    assert len(monitors) == 1 and monitors[0].name == "netcalc"


# ----------------------------------------------------------------------
# Queue records + rendering + export
# ----------------------------------------------------------------------
def test_queue_records_peak_at_the_watermark_and_end_drained():
    net = _line(4, rate=1.0, buffer=1, trace=True)
    _drive(net, 4, packets=12, gap=0.0)
    series = _series(_queue(net))
    carried = [(link, state) for link, state in net.flow_states() if state.xmits]
    assert len(carried) == len(series) == 3  # the source-to-sink directions
    assert _state(net, (0, 1), 0).stalls > 0
    for link, state in carried:
        steps = series[(link.key, state.sender)]
        assert all(occ == stalled + in_flight for stalled, in_flight, occ in steps)
        assert max(occ for _, _, occ in steps) == state.max_occupancy
        pairs = [step[:2] for step in steps]
        assert all(a != b for a, b in zip(pairs, pairs[1:]))
        assert pairs[-1] == (0, 0)


def test_congestion_probe_mirrors_into_trace():
    # The probe and the trace hear each change once, in one place.
    net = _line(3, rate=1.0, buffer=1, trace=True)
    stats = LiveStats().install(net)
    _drive(net, 3, packets=8, gap=0.0)
    queue = _queue(net)
    assert queue
    replayed = Histogram(stats.queue_occupancy.bounds)
    for rec in queue:
        replayed.add(rec.detail["occupancy"])
    assert replayed.to_dict() == stats.queue_occupancy.to_dict()


def test_heatmap_renders_occupancy():
    net = _line(3, rate=1.0, buffer=1, trace=True)
    _drive(net, 3, packets=10, gap=0.0)
    art = render_congestion_heatmap(net.trace, width=24)
    assert "(0, 1)" in art
    assert "peak=" in art
    assert render_congestion_heatmap([], width=24) == "(no queue samples)"


def test_probe_summary_reports_stalls():
    net = _line(3, rate=1.0, buffer=1)
    _drive(net, 3, packets=10, gap=0.0)
    summary = render_congestion_summary(net.flow_states())
    assert "stalls" in summary and "(0, 1) from 0" in summary
    assert _queue(net) == []  # untraced: the totals, and no QUEUE record
    assert render_congestion_summary(_line(3).flow_states()) == (
        "(no flow-controlled links)"
    )


def test_chrome_counters_from_queue_records():
    net = _line(3, rate=1.0, buffer=1, trace=True)
    _drive(net, 3, packets=10, gap=0.0)
    queue = _queue(net)
    doc = chrome_trace_document([], counters=queue)
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert len(counters) == len(queue)
    assert all(e["name"].startswith("queue ") for e in counters)
    assert all("stalled" in e["args"] and "in_flight" in e["args"]
               for e in counters)


def test_chrome_counter_tracks_end_at_zero(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["converge", "--topology", "torus:4,4", "--strategy", "bpaths",
                 "--fail", "4", "--seed", "1", "--link-rate", "1",
                 "--link-buffer", "2", "--chrome-trace", str(path)]) == 0
    capsys.readouterr()
    last = {}
    for event in json.loads(path.read_text())["traceEvents"]:
        if event["ph"] == "C":
            last[event["name"]] = event["args"]
    assert len(last) > 6
    assert all(args == {"stalled": 0, "in_flight": 0} for args in last.values())


def _block(out: str, title: str) -> list[str]:
    """The lines of the table titled ``title``, up to the blank line or
    the export note that ends it."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(title))
    end = next(i for i in range(start, len(lines))
               if not lines[i] or lines[i].startswith("trace written"))
    return lines[start + 1:end]


def _cells(block: list[str]) -> list[list[str]]:
    """Each row's cells, cut at the columns of the table's dash line."""
    columns = [m.span() for m in re.finditer(r"-+", block[1])]
    return [[row[a:b].strip() for a, b in columns] for row in block[2:]]


def test_live_heatmap_equals_its_replay_and_the_summary_peaks(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    view = ["--no-timeline", "--heat-limit", "0"]
    assert main(["observe", "--workload", "election", "--topology", "torus:4,4",
                 "--link-rate", "0.2", "--link-buffer", "1", "--congestion",
                 "--trace-out", str(path), *view]) == 0
    live = capsys.readouterr().out
    assert main(["observe", "--from-trace", str(path), *view]) == 0
    replayed = capsys.readouterr().out
    heatmap = _block(live, "queue occupancy (")
    assert heatmap == _block(replayed, "queue occupancy (")
    peak_occ = {row[0]: row[4] for row in _cells(_block(live, "link congestion"))}
    rows = _cells(heatmap)
    assert len(rows) == sum(1 for occ in peak_occ.values() if occ != "0")
    assert any(peak == "2" for _, _, peak, _ in rows)
    for link, sender, peak, _ in rows:
        assert peak == peak_occ[f"{link} from {sender}"]


def test_live_stats_histograms_see_congestion():
    net = _line(3, rate=1.0, buffer=1)
    stats = LiveStats().install(net)
    _drive(net, 3, packets=10, gap=0.0)
    assert stats.queue_occupancy.count > 0
    assert stats.link_stall_time.count > 0
    assert stats.stalls_by_link  # the bottleneck direction shows up
    rendered = stats.render()
    assert "link occupancy" in rendered
    assert "stall" in rendered


def test_ncu_queue_peak_watermark():
    """The NCU records its high-water queue depth; reset clears it."""
    net = _line(2, buffer=4)
    _drive(net, 2, packets=6, gap=0.0)
    # Deliveries arrive faster than the P=1.0 service time, so the
    # terminal NCU backs up.
    assert net.node(1).ncu.queue_peak >= 2
    net.reset()
    assert net.node(1).ncu.queue_peak == 0


def test_campaign_merged_perf_occupancy_identical_across_jobs(tmp_path):
    from repro.exec import TaskSpec, run_campaign

    specs = [
        TaskSpec.make(
            "repro.exec.workloads:bench_counters",
            name="congested_forwarding",
            label="bench:congested_forwarding",
        )
    ]
    serial = run_campaign(specs, jobs=1, cache=None, perf=True)
    pooled = run_campaign(specs, jobs=2, cache=None, perf=True)
    assert serial.merged_perf()["counters"] == pooled.merged_perf()["counters"]
    assert serial.results[0].value == pooled.results[0].value
    assert serial.results[0].value["metrics"]["stalls"] > 0


def _queue_records(n_links: int, samples: int = 3):
    from repro.sim.trace import TraceRecord

    records = []
    for i in range(n_links):
        for s in range(samples):
            records.append(
                TraceRecord(
                    time=float(s),
                    kind=TraceKind.QUEUE,
                    node=i,
                    # Link i peaks at occupancy i+1, so hotness follows
                    # the link index and truncation is predictable.
                    detail={"link": (i, i + 1), "occupancy": (i + 1) if s == 1 else 0},
                )
            )
    return records


def test_heatmap_truncates_to_hottest_links():
    art = render_congestion_heatmap(_queue_records(12), width=16, limit=5)
    lines = art.splitlines()
    assert lines[-1] == "… 7 links omitted (showing the 5 hottest)"
    # The hottest five directions survive, the coolest are dropped.
    assert "(11, 12)" in art and "(7, 8)" in art
    assert "(0, 1)" not in art and "(6, 7)" not in art
    # The intensity scale still spans all samples: the global peak
    # stays 12 even though only the top rows render.
    assert "peak=12" in art


def test_heatmap_limit_none_shows_everything():
    art = render_congestion_heatmap(_queue_records(12), width=16, limit=None)
    assert "omitted" not in art
    assert all(f"({i}, {i + 1})" in art for i in range(12))


def test_heatmap_under_limit_has_no_footer():
    art = render_congestion_heatmap(_queue_records(4), width=16, limit=40)
    assert "omitted" not in art


def test_a_truncated_trace_says_where_the_heatmap_stops(capsys):
    # --trace-capacity 300 keeps the run's first 300 records: the
    # heatmap ends at the last QUEUE record kept, while the table reads
    # the links' totals.  One line after the heatmap says so.
    argv = ["observe", "--workload", "election", "--topology", "torus:4,4",
            "--link-rate", "0.2", "--link-buffer", "1", "--congestion",
            "--heat-limit", "0"]
    with pytest.warns(RuntimeWarning, match="468 records dropped"):
        assert main([*argv, "--trace-capacity", "300"]) == 0
    lines = capsys.readouterr().out.splitlines()
    heatmap = next(i for i, line in enumerate(lines) if line.startswith("queue occupancy ("))
    table = next(i for i, line in enumerate(lines) if line.startswith("link congestion"))
    notes = [i for i, line in enumerate(lines) if line.startswith("note:")]
    assert len(notes) == 1 and heatmap < notes[0] < table
    assert lines[notes[0]] == (
        "note: the trace dropped 468 records, so the heatmap ends at t=12, its "
        "last kept QUEUE record; the table below covers the whole run"
    )
    assert "t=[1..12]" in lines[heatmap + 1]
    # Five records hold no QUEUE record: the note names no time.
    with pytest.warns(RuntimeWarning, match="763 records dropped"):
        assert main([*argv, "--trace-capacity", "5"]) == 0
    assert [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("note:")] == [
        "note: the trace dropped 763 records, so the heatmap kept no QUEUE "
        "record; the table below covers the whole run"
    ]
    # The whole run keeps every record, and prints no such line.
    assert main(argv) == 0
    assert "note:" not in capsys.readouterr().out
