"""Integration tests for the SS/NCU substrate: switching, copies,
drops, FIFO, reverse paths, the dmax restriction and the NCU queue."""

from __future__ import annotations

import pytest

from conftest import attach_recorders, limiting_net
from repro.hardware import NCU_ID, build_anr, path_broadcast_anr, reply_route
from repro.network import Network, Protocol, topologies
from repro.sim import FixedDelays, PathTooLongError, ProtocolError, RoutingError, TraceKind


def test_packet_travels_full_route_without_intermediate_ncu():
    net = limiting_net(topologies.line(5), trace=True)
    recorders = attach_recorders(net)
    header = build_anr([0, 1, 2, 3, 4], net.id_lookup)
    net.node(0).inject(header, payload="data")
    net.run_to_quiescence()
    assert [p.payload for p in recorders[4].packets] == ["data"]
    for mid in (1, 2, 3):
        assert recorders[mid].packets == []
    # 4 hardware hops, exactly 1 system call (the receiver's).
    assert net.metrics.hops == 4
    assert net.metrics.system_calls == 1


def test_selective_copy_reaches_intermediates_and_forwards():
    net = limiting_net(topologies.line(4))
    recorders = attach_recorders(net)
    header = path_broadcast_anr([0, 1, 2, 3], net.id_lookup)
    net.node(0).inject(header, payload="bcast")
    net.run_to_quiescence()
    for node in (1, 2, 3):
        assert [p.payload for p in recorders[node].packets] == ["bcast"]
    assert net.metrics.copies == 3


def test_reverse_path_enables_reply():
    net = limiting_net(topologies.line(4))
    recorders = attach_recorders(net)
    header = build_anr([0, 1, 2, 3], net.id_lookup)
    net.node(0).inject(header, "ping")
    net.run_to_quiescence()
    (ping,) = recorders[3].packets
    net.node(3).inject(reply_route(ping), "pong")
    net.run_to_quiescence()
    assert [p.payload for p in recorders[0].packets] == ["pong"]


def test_hardware_delay_accumulates_per_hop():
    net = Network(topologies.line(4), delays=FixedDelays(hardware=2.0, software=1.0))
    recorders = attach_recorders(net)
    header = build_anr([0, 1, 2, 3], net.id_lookup)
    net.node(0).inject(header, "x")
    net.run_to_quiescence()
    # 3 hops * C=2 + one software delay P=1 at the destination.
    assert net.scheduler.now == pytest.approx(7.0)
    assert len(recorders[3].packets) == 1


def test_unroutable_id_drops_packet():
    net = limiting_net(topologies.line(3), trace=True)
    attach_recorders(net)
    bogus = 13  # no link with this ID at node 0
    net.node(0).inject((bogus,), "lost")
    net.run_to_quiescence()
    assert net.metrics.drops == 1
    drop = net.trace.last(TraceKind.PACKET_DROPPED)
    assert drop.detail["reason"] == "unroutable_id"


def test_header_exhaustion_drops_packet():
    net = limiting_net(topologies.line(3), trace=True)
    attach_recorders(net)
    header = build_anr([0, 1, 2], net.id_lookup, deliver=False)
    net.node(0).inject(header, "no-deliver")
    net.run_to_quiescence()
    assert net.metrics.system_calls == 0
    drop = net.trace.last(TraceKind.PACKET_DROPPED)
    assert drop.detail["reason"] == "header_exhausted"


def test_inactive_link_loses_packet():
    net = limiting_net(topologies.line(3), trace=True)
    recorders = attach_recorders(net)
    net.fail_link(1, 2)
    net.run_to_quiescence()  # let the datalink notifications drain
    header = build_anr([0, 1, 2], net.id_lookup)
    net.node(0).inject(header, "doomed")
    net.run_to_quiescence()
    assert recorders[2].packets == []
    assert net.metrics.drops >= 1


def test_packet_in_flight_when_link_fails_is_lost():
    net = Network(topologies.line(2), delays=FixedDelays(hardware=5.0, software=1.0))
    recorders = attach_recorders(net)
    header = build_anr([0, 1], net.id_lookup)
    net.node(0).inject(header, "mid-flight")
    net.schedule_link_failure(0, 1, at=2.0)  # while the packet is on the wire
    net.run_to_quiescence()
    assert recorders[1].packets == []


def test_dmax_enforced_at_injection():
    net = limiting_net(topologies.line(3), dmax=2)
    attach_recorders(net)
    header = build_anr([0, 1, 2], net.id_lookup)  # 3 IDs > dmax=2
    with pytest.raises(PathTooLongError):
        net.node(0).inject(header, "too long")


def test_empty_header_rejected():
    net = limiting_net(topologies.line(2))
    attach_recorders(net)
    with pytest.raises(RoutingError):
        net.node(0).inject((), "empty")


def test_fifo_order_preserved_per_link():
    net = limiting_net(topologies.line(2))
    recorders = attach_recorders(net)
    header = build_anr([0, 1], net.id_lookup)
    for i in range(5):
        net.node(0).inject(header, i)
    net.run_to_quiescence()
    assert [p.payload for p in recorders[1].packets] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("buffer", [None, 2], ids=["free", "flow-controlled"])
def test_free_hop_arrives_at_the_send_time_itself(buffer):
    # C = 0: the arrival proposed for a hop is the scheduler's ``now``
    # object, not a fresh ``now + 0.0``; the link's watermark keeps it.
    net = limiting_net(topologies.line(2))
    attach_recorders(net)
    if buffer is not None:
        net.set_flow_control(buffer=buffer)
    link = net.link(0, 1)
    header = build_anr([0, 1], net.id_lookup)
    sent_at = []

    def send() -> None:
        sent_at.append(net.scheduler.now)
        net.node(0).inject(header, "x")

    net.scheduler.schedule_at(2.5, send)
    net.run_to_quiescence()
    watermark = link._arrival_u if link.node_u is net.node(0) else link._arrival_v
    assert watermark == 2.5 and watermark is sent_at[0]


def test_ncu_serves_jobs_sequentially():
    # Two packets arriving together are served P apart.
    net = limiting_net(topologies.star(3))
    times: dict[int, list[float]] = {}

    class Stamper(Protocol):
        def on_packet(self, packet):
            times.setdefault(self.api.node_id, []).append(self.api.now)

    net.attach(lambda api: Stamper(api))
    for leaf in (1, 2):
        net.node(leaf).inject(build_anr([leaf, 0], net.id_lookup), "x")
    net.run_to_quiescence()
    a, b = times[0]
    assert b - a == pytest.approx(1.0)


def test_send_to_self_via_ncu_id():
    net = limiting_net(topologies.line(2))
    recorders = attach_recorders(net)
    net.node(0).inject((NCU_ID,), "self")
    net.run_to_quiescence()
    assert [p.payload for p in recorders[0].packets] == ["self"]


def test_port_discipline_blocks_two_sends_on_one_link():
    net = limiting_net(topologies.line(2))

    class DoubleSender(Protocol):
        def on_start(self, payload):
            header = build_anr([0, 1], net.id_lookup)
            self.api.send(header, "first")
            self.api.send(header, "second")  # same port, same system call

    net.attach(lambda api: DoubleSender(api))
    net.start([0])
    with pytest.raises(ProtocolError, match="multicast"):
        net.run_to_quiescence()


def test_port_discipline_allows_distinct_links():
    net = limiting_net(topologies.star(4))
    received: dict[int, list] = {node: [] for node in net.nodes}

    class Multicaster(Protocol):
        def on_start(self, payload):
            for info in self.api.active_links():
                self.api.send((info.normal_at_u, NCU_ID), "fanout")

        def on_packet(self, packet):
            received[self.api.node_id].append(packet.payload)

    net.attach(lambda api: Multicaster(api))
    net.start([0])
    net.run_to_quiescence()
    assert all(received[leaf] == ["fanout"] for leaf in (1, 2, 3))


def _send_in_one_call(graph, headers):
    """Run one system call at node 0 that sends every header in turn."""
    net = limiting_net(graph)

    class Sender(Protocol):
        def on_start(self, payload):
            for header in headers:
                self.api.send(header, "x")

    net.attach(lambda api: Sender(api))
    net.start([0])
    net.run_to_quiescence()
    return net


def test_port_discipline_keys_groups_by_their_own_id():
    # ring:3 has flag 4 and groups from 8: group 8 and group 12 differ
    # only in the copy bit, yet are two groups, not one port.
    ring = topologies.ring(3)
    space = limiting_net(ring).id_space
    flag, base = space.flag, space.group_base
    assert (flag, base) == (4, 8)
    _send_in_one_call(ring, [(base,), (base + flag,)])
    _send_in_one_call(ring, [(base,), (base + 1,)])
    # The two refusals that hold: the same group twice, and a port's
    # normal ID together with its copy ID.
    with pytest.raises(ProtocolError, match="multicast"):
        _send_in_one_call(ring, [(base,), (base,)])
    with pytest.raises(ProtocolError, match="multicast"):
        _send_in_one_call(ring, [(1, NCU_ID), (flag | 1, NCU_ID)])


def test_send_outside_a_system_call_is_refused():
    # A send is NCU work: outside a handler no system call would pay
    # for it, so the API refuses it before a packet exists.
    net = limiting_net(topologies.ring(4))
    net.attach(lambda api: Protocol(api))
    with pytest.raises(ProtocolError, match="outside a system call"):
        net.node(0).ncu.send((1, NCU_ID), "x")
    assert net.metrics.snapshot().packets_injected == 0
    # Raw hardware injection stays open to drivers and is never charged:
    # the one system call is the receiver's delivery.
    net.node(0).inject((1, NCU_ID), "raw")
    net.run_to_quiescence()
    assert net.metrics.snapshot().packets_injected == 1
    assert net.metrics.system_calls == 1


def test_copy_and_forward_same_port_is_one_send():
    # A copy ID matches the link AND the NCU link: one send, two outputs.
    net = limiting_net(topologies.line(3))
    recorders = attach_recorders(net)
    header = build_anr([0, 1, 2], net.id_lookup, copy_at=[1])
    net.node(0).inject(header, "both")
    net.run_to_quiescence()
    assert [p.payload for p in recorders[1].packets] == ["both"]
    assert [p.payload for p in recorders[2].packets] == ["both"]


def test_timer_fires_and_counts_system_call():
    net = limiting_net(topologies.line(2))
    recorders = attach_recorders(net)
    net.node(0).ncu.set_timer(5.0, tag="tick", payload=42)
    net.run_to_quiescence()
    assert recorders[0].timers == [("tick", 42)]
    assert net.metrics.system_calls_of_kind("timer:tick") == 1


def test_cancelled_timer_never_fires():
    net = limiting_net(topologies.line(2))
    recorders = attach_recorders(net)
    event = net.node(0).ncu.set_timer(5.0, tag="tick")
    event.cancel()
    net.run_to_quiescence()
    assert recorders[0].timers == []
