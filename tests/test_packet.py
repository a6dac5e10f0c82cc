"""Unit tests for the Packet dataclass."""

from __future__ import annotations

from repro.hardware import Packet


def make(header=(1, 2, 0), payload="x"):
    return Packet(seq=1, origin=0, header=header, payload=payload)


def test_original_header_length_is_frozen():
    packet = make(header=(1, 2, 3, 0))
    assert packet.original_header_length == 4
    packet.header_pos += 1
    assert packet.original_header_length == 4
    assert packet.remaining_header == (2, 3, 0)


def test_original_header_length_empty_header():
    # An empty injected header is legitimately length zero.
    packet = make(header=())
    assert packet.original_header_length == 0
    assert packet.remaining_header == ()


def test_header_is_immutable_in_flight():
    packet = make(header=(1, 2, 0))
    packet.header_pos = 2
    assert packet.header == (1, 2, 0)
    assert packet.remaining_header == (0,)


def test_reverse_anr_round_trips_most_recent_first():
    packet = make()
    packet.reverse_anr = (5, 6)
    # The setter/getter pair preserves the paper's most-recent-first
    # ordering regardless of the internal append-order storage.
    assert packet.reverse_anr == (5, 6)
    packet._reverse.append(9)  # hardware records one more hop
    assert packet.reverse_anr == (9, 5, 6)


def test_delivery_copy_is_independent_snapshot():
    packet = make()
    packet.reverse_anr = (5, 6)
    copy = packet.delivery_copy()
    packet.header_pos = 3
    packet.reverse_anr = (7,)
    assert copy.header == (1, 2, 0)
    assert copy.header_pos == 0
    assert copy.remaining_header == (1, 2, 0)
    assert copy.hops == 2
    assert copy.reverse_anr == (5, 6)
    assert copy.payload == "x"
    assert copy.seq == packet.seq


def test_delivery_copy_reverse_list_not_aliased():
    packet = make()
    packet.reverse_anr = (5,)
    copy = packet.delivery_copy()
    packet._reverse.append(6)
    assert copy.reverse_anr == (5,)
    assert packet.reverse_anr == (6, 5)


def test_payload_shared_not_copied():
    payload = ["mutable"]
    packet = make(payload=payload)
    copy = packet.delivery_copy()
    assert copy.payload is payload  # contents never inspected by hardware


def _record_deliveries(monkeypatch):
    """Every packet the SS hands to an NCU, in delivery order."""
    from repro.hardware.ncu import NCU

    delivered = []
    enqueue = NCU.enqueue_packet

    def record(ncu, packet):
        delivered.append(packet)
        enqueue(ncu, packet)

    monkeypatch.setattr(NCU, "enqueue_packet", record)
    return delivered


def test_flood_deliveries_derive_hops_and_share_one_hop_routes(monkeypatch):
    # A packet stores neither its hop count nor its injected header's
    # length: both are read off what it carries.  Every one-hop
    # delivery through the same receiving normal ID holds one shared
    # route-back tuple.
    from repro.core import FloodingBroadcast, run_standalone_broadcast
    from repro.network import from_spec

    net = from_spec("fat_tree:4", trace=False)
    delivered = _record_deliveries(monkeypatch)
    run = run_standalone_broadcast(net, lambda api: FloodingBroadcast(api, root=0), 0)
    assert run.coverage == net.n
    routes: dict[tuple[int, ...], list] = {}
    for packet in delivered:
        assert packet.hops == len(packet.reverse_anr) == 1
        assert packet.original_header_length == len(packet.header) == 2
        routes.setdefault(packet.reverse_anr, []).append(packet._reverse)
    assert any(len(shared) > 1 for shared in routes.values())
    for shared in routes.values():
        assert all(route is shared[0] for route in shared)


def test_group_branches_carry_the_injected_header(monkeypatch):
    # The header reaches the group ID after one normal hop: 0 -> 1, then
    # the tree 1 -> 2 -> 3.  Each branch keeps its sender's header with
    # the cursor back on the group ID, so every delivery holds the
    # header node 0 injected.
    from repro.network import Protocol, from_spec
    from repro.network.spanning import bfs_tree

    net = from_spec("line:4", trace=False)
    net.attach(lambda api: Protocol(api))
    group_id = net.install_multicast_tree(bfs_tree(net.adjacency(), 0))
    delivered = _record_deliveries(monkeypatch)
    header = (net.id_lookup(0, 1)[0], group_id)
    net.node(0).inject(header, "group")
    net.run_to_quiescence()
    assert [packet.hops for packet in delivered] == [1, 2, 3]
    for packet in delivered:
        assert packet.header == header
        assert packet.remaining_header == ()
        assert packet.hops == len(packet.reverse_anr)
        assert packet.original_header_length == len(packet.header) == 2
