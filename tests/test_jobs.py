"""Unit tests for NCU job accounting labels."""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware import Job, JobKind, Packet


@dataclass(frozen=True)
class Tagged:
    kind: str = "my_tag"


def packet_with(payload):
    return Packet(seq=1, origin=0, header=(0,), payload=payload)


def test_packet_jobs_use_payload_kind():
    job = Job(kind=JobKind.PACKET, payload=packet_with(Tagged()))
    assert job.accounting_kind == "my_tag"


def test_packet_jobs_fall_back_to_generic_kind():
    job = Job(kind=JobKind.PACKET, payload=packet_with({"no": "kind"}))
    assert job.accounting_kind == "packet"


def test_timer_jobs_embed_their_tag():
    job = Job(kind=JobKind.TIMER, tag="heartbeat")
    assert job.accounting_kind == "timer:heartbeat"
    assert Job(kind=JobKind.TIMER).accounting_kind == "timer"


def test_start_and_link_event_kinds():
    assert Job(kind=JobKind.START).accounting_kind == "start"
    assert Job(kind=JobKind.LINK_EVENT).accounting_kind == "link_event"


def test_metric_kind_separation_end_to_end():
    from conftest import limiting_net
    from repro.network import Protocol, topologies

    net = limiting_net(topologies.line(2))

    class Sender(Protocol):
        def on_start(self, payload):
            info = self.api.active_links()[0]
            self.api.send((info.normal_at_u, 0), Tagged())

    net.attach(lambda api: Sender(api))
    net.start([0])
    net.run_to_quiescence()
    assert net.metrics.system_calls_of_kind("start") == 1
    assert net.metrics.system_calls_of_kind("my_tag") == 1
    assert net.metrics.system_calls == 2


def test_queued_deliveries_get_their_job_when_its_handler_runs(monkeypatch):
    # k packets reach node 1's NCU at once: the first starts service,
    # the other k - 1 wait as themselves, and each gets its Job only
    # when its own handler runs, at the end of its service: the one in
    # service holds none either.
    from conftest import limiting_net
    from repro.hardware import build_anr
    from repro.hardware import ncu as ncu_module
    from repro.network import Protocol, topologies

    made = 0

    class CountedJob(Job):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            nonlocal made
            made += 1
            return super().__new__(cls)

    net = limiting_net(topologies.line(2))
    net.attach(lambda api: Protocol(api))
    header = build_anr([0, 1], net.id_lookup)
    k = 5
    monkeypatch.setattr(ncu_module, "Job", CountedJob)
    for i in range(k):
        net.node(0).inject(header, i)
    net.run(until=0.5)  # every packet has arrived, the first is in service
    ncu = net.node(1).ncu
    assert ncu.busy and ncu.queued == k - 1
    assert made == 0
    net.run_to_quiescence()
    assert made == k == net.metrics.system_calls_at(1)


def test_a_crash_mid_service_cancels_the_completion_once():
    # line:3 at C = 0, P = 1: node 1 serves its START from t = 0 to 1
    # and crashes at t = 0.5.  The completion's entry is cancelled in
    # place and swept unfired: no handler runs, no NCU_JOB_END is
    # written, the ledger counts it once, and a later cancel() on the
    # swept handle moves nothing.
    from conftest import attach_recorders, limiting_net
    from repro.network import topologies
    from repro.sim.trace import TraceKind

    net = limiting_net(topologies.line(3), trace=True)
    recorders = attach_recorders(net)
    net.start([1])
    net.run(until=0.5)
    sched = net.scheduler
    ncu = net.node(1).ncu
    handle = ncu._service_event
    assert ncu.busy and handle is not None and not handle.cancelled
    live = sched.pending_live
    net.crash_node(1)
    assert handle.cancelled and ncu._service_event is None
    net.run_to_quiescence()

    def ledger():
        return (sched.scheduled, sched.events_processed, sched.cancelled_dropped,
                sched.pending, sched.pending_live)

    assert recorders[1].started == []
    assert net.trace.filter(kind=TraceKind.NCU_JOB_END, node=1) == []
    assert len(net.trace.filter(kind=TraceKind.NCU_JOB_START, node=1)) == 1
    assert live == 1 and sched.cancelled_dropped == 1
    assert sched.scheduled == sched.events_processed + sched.cancelled_dropped + sched.pending
    before = ledger()
    handle.cancel()
    assert ledger() == before
