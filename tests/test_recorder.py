"""Flight recorder: ring bound, dump triggers, replayable postmortems.

The dump contract is the important part: a postmortem JSONL must be
byte-deterministic for a fixed seed (records carry simulated time and
sequence numbers only, never wall-clock), must load through the normal
trace importer, and must replay through ``repro observe --from-trace``
with ALERT records surviving the Chrome-trace exporter and the
timeline's ``!`` glyph.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.cli import main
from repro.core import FloodingBroadcast, run_standalone_broadcast
from repro.network.builder import from_spec
from repro.obs import (
    Alert,
    FlightRecorder,
    MonitorHost,
    build_spans,
    chrome_trace_document,
    records_from_jsonl,
    render_timeline,
)
from repro.sim import FixedDelays, Scheduler
from repro.sim.trace import TraceKind


def _net(spec: str = "random:16,3"):
    return from_spec(spec, delays=FixedDelays(0.5, 1.0))


def _run_flood(net) -> None:
    run_standalone_broadcast(net, lambda api: FloodingBroadcast(api, root=0), 0)


def _recorded_run(path, capacity: int = 512) -> FlightRecorder:
    net = _net()
    recorder = FlightRecorder(net, capacity=capacity, path=path).install()
    _run_flood(net)
    return recorder


# ----------------------------------------------------------------------
# Ring semantics
# ----------------------------------------------------------------------
def test_ring_keeps_only_last_n_events(tmp_path):
    net = _net()
    recorder = FlightRecorder(net, capacity=16, path=tmp_path / "pm.jsonl")
    recorder.install()
    _run_flood(net)
    assert net.scheduler.events_processed > 16
    records = recorder.records()
    assert len(records) == len(recorder) == 16
    assert all(rec.kind is TraceKind.SCHED_EVENT for rec in records)
    seqs = [rec.detail["seq"] for rec in records]
    assert seqs == sorted(seqs)
    # The ring holds the *latest* events, not the earliest.
    assert records[-1].time == net.scheduler.now


def test_install_is_idempotent_and_uninstall_stops_recording(tmp_path):
    net = _net("ring:8")
    recorder = FlightRecorder(net, capacity=64, path=tmp_path / "pm.jsonl")
    recorder.install().install()
    _run_flood(net)
    count = len(recorder)
    assert count == net.scheduler.events_processed  # not double-counted
    recorder.uninstall()
    net.scheduler.schedule(0.0, lambda: None)
    net.scheduler.run()
    assert len(recorder) == count


def test_capacity_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        FlightRecorder(_net("ring:8"), capacity=0, path=tmp_path / "x")


# ----------------------------------------------------------------------
# Dump + replay
# ----------------------------------------------------------------------
def test_dump_round_trips_through_trace_importer(tmp_path):
    path = tmp_path / "pm.jsonl"
    recorder = _recorded_run(path, capacity=32)
    out = recorder.dump()
    assert out == path and recorder.last_reason == "manual"
    loaded = records_from_jsonl(path)
    assert [rec.detail for rec in loaded] == [
        rec.detail for rec in recorder.records()
    ]
    assert all(rec.kind is TraceKind.SCHED_EVENT for rec in loaded)


def test_dump_is_byte_deterministic_for_fixed_seed(tmp_path):
    a = _recorded_run(tmp_path / "a.jsonl", capacity=64).dump()
    b = _recorded_run(tmp_path / "b.jsonl", capacity=64).dump()
    assert a.read_bytes() == b.read_bytes()


def test_postmortem_replays_through_observe_cli(tmp_path, capsys):
    path = tmp_path / "pm.jsonl"
    _recorded_run(path, capacity=32).dump()
    code = main(["observe", "--from-trace", str(path), "--no-timeline"])
    assert code == 0
    assert f"{path}" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Triggers: alert, exception, signal
# ----------------------------------------------------------------------
def _breach(monitor: str = "budgets") -> Alert:
    return Alert(
        time=2.5,
        monitor=monitor,
        message="system_calls 9 exceeds bound 4",
        measure="system_calls",
        observed=9.0,
        bound=4.0,
    )


def test_alert_auto_dumps_and_renders_everywhere(tmp_path):
    """An alert-triggered postmortem keeps its ALERT span end to end."""
    net = from_spec("random:16,3", delays=FixedDelays(0.5, 1.0), trace=True)
    path = tmp_path / "pm.jsonl"
    recorder = FlightRecorder(net, capacity=64, path=path).install()
    host = MonitorHost(net, [], on_alert=recorder.note_alert).install()
    _run_flood(net)
    host.emit(_breach())
    assert path.exists() and recorder.last_reason == "alert:budgets"

    loaded = records_from_jsonl(path)
    alerts = [rec for rec in loaded if rec.kind is TraceKind.ALERT]
    assert len(alerts) == 1
    # Same detail shape as MonitorHost's own trace record.
    host_rec = net.trace.last(TraceKind.ALERT)
    assert alerts[0].detail == host_rec.detail

    spans = build_spans(loaded)
    alert_spans = [s for s in spans if s.category == "alert"]
    assert len(alert_spans) == 1 and alert_spans[0].name == "alert:budgets"
    chrome = chrome_trace_document(spans)
    assert any(ev.get("cat") == "alert" for ev in chrome["traceEvents"])
    assert "!" in render_timeline(spans, categories=("alert",))


def test_dump_on_alert_can_be_disabled(tmp_path):
    net = _net("ring:8")
    path = tmp_path / "pm.jsonl"
    recorder = FlightRecorder(
        net, capacity=16, path=path, dump_on_alert=False
    ).install()
    recorder.note_alert(_breach())
    assert not path.exists()
    assert any(rec.kind is TraceKind.ALERT for rec in recorder.records())


def test_capture_dumps_on_exception(tmp_path):
    net = _net("ring:8")
    path = tmp_path / "pm.jsonl"
    recorder = FlightRecorder(net, capacity=32, path=path).install()
    with pytest.raises(RuntimeError, match="boom"):
        with recorder.capture():
            _run_flood(net)
            raise RuntimeError("boom")
    assert path.exists() and recorder.last_reason == "exception"
    assert records_from_jsonl(path)


@pytest.mark.skipif(not hasattr(signal, "SIGUSR1"), reason="needs SIGUSR1")
def test_sigusr1_dumps_postmortem(tmp_path):
    net = _net("ring:8")
    path = tmp_path / "pm.jsonl"
    recorder = FlightRecorder(net, capacity=32, path=path).install()
    assert recorder.install_signal()
    try:
        _run_flood(net)
        os.kill(os.getpid(), signal.SIGUSR1)
        assert path.exists()
        assert recorder.last_reason == f"signal:{int(signal.SIGUSR1)}"
    finally:
        recorder.uninstall_signal()


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
def test_cli_flag_arms_recorder_without_dumping(tmp_path, capsys):
    path = tmp_path / "pm" / "fr.jsonl"
    code = main([
        "observe", "--topology", "grid:4,4", "--workload", "broadcast",
        "--no-timeline", "--flight-recorder", str(path),
    ])
    assert code == 0
    assert "flight recorder armed" in capsys.readouterr().out
    assert not path.exists()  # healthy run: no trigger, no dump


@pytest.mark.parametrize("command", ["broadcast", "election"])
def test_flight_recorder_alone_arms_it(tmp_path, capsys, command):
    # No other observability flag: the recorder must still be armed.
    path = tmp_path / "fr.jsonl"
    code = main([command, "--topology", "ring:8", "--flight-recorder", str(path)])
    assert code == 0
    assert "flight recorder armed" in capsys.readouterr().out


@pytest.mark.parametrize("crash", [False, True], ids=["clean", "crash"])
def test_cli_gives_sigusr1_back_when_the_command_ends(
    tmp_path, capsys, monkeypatch, crash
):
    # The handler keeps its recorder and network alive: a second run in
    # the same process must not chain onto the first one's.
    def before(signo, frame):
        pass

    def boom(self, **kwargs):
        raise RuntimeError("boom")

    path = tmp_path / "fr.jsonl"
    argv = ["broadcast", "--topology", "grid:3,3", "--flight-recorder", str(path)]
    previous = signal.signal(signal.SIGUSR1, before)
    try:
        if crash:
            monkeypatch.setattr(Scheduler, "run", boom)
            with pytest.raises(RuntimeError, match="boom"):
                main(argv)
            assert path.exists()  # the crash dump comes first
        else:
            assert main(argv) == 0
        assert signal.getsignal(signal.SIGUSR1) is before
    finally:
        signal.signal(signal.SIGUSR1, previous)


@pytest.mark.parametrize("command", ["broadcast", "election", "converge"])
@pytest.mark.parametrize("flag, value", [
    ("--trace-capacity", "-1"),
    ("--flight-capacity", "0"),
])
def test_capacity_flags_reject_out_of_range_values(
    tmp_path, capsys, command, flag, value
):
    argv = [command, "--topology", "ring:8", "--trace-out",
            str(tmp_path / "t.jsonl"), "--flight-recorder",
            str(tmp_path / "fr.jsonl"), flag, value]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"argument {flag}: must be >= " in capsys.readouterr().err
    assert not (tmp_path / "t.jsonl").exists()


def test_sched_event_records_survive_jsonl_round_trip(tmp_path):
    """The new TraceKind round-trips like every other kind."""
    path = tmp_path / "pm.jsonl"
    recorder = _recorded_run(path, capacity=8)
    recorder.dump()
    for line in path.read_text().splitlines():
        data = json.loads(line)
        assert data["kind"] == "sched_event"
        assert {"seq", "tag", "priority"} <= set(data["detail"])
