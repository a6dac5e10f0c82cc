"""Guard rails for the memory-lean substrate representation.

Construction at 10⁴–10⁵ nodes depends on the hot per-node/per-link
classes staying ``__slots__``-only: one accidental ``__dict__`` (a
subclass without slots, a stray attribute assignment in ``__init__``)
silently costs ~100+ bytes per instance and erases the scale-out
budget.  These tests pin the contract so a regression fails loudly
instead of showing up as a benchmark drift three PRs later.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.causality import _RecordingProtocol
from repro.core import (
    BranchingPathsBroadcast,
    CallManager,
    ChangRoberts,
    ChattyTreeAggregation,
    DfsBroadcast,
    DirectBroadcast,
    FloodingBroadcast,
    GroupMulticast,
    HirschbergSinclair,
    LayeredBfsBroadcast,
    LeaderElection,
    PipelinedBroadcast,
    TopologyMaintenance,
    TreeAggregation,
    run_standalone_broadcast,
)
from repro.exec.workloads import _ping_pong_factory
from repro.hardware.link import Link, LinkFlowState
from repro.hardware.ncu import NCU, Job, NodeApi
from repro.hardware.node import Node
from repro.hardware.packet import Packet
from repro.hardware.switch import SwitchingSubsystem
from repro.network import Network, Protocol, from_spec, topology_from_spec
from repro.sim import FixedDelays
from repro.sim.events import Event

#: The protocol classes under ``src/``: one instance lives on every
#: node, so each is as hot as the node itself.
PROTOCOL_CLASSES = [
    Protocol,
    FloodingBroadcast,
    BranchingPathsBroadcast,
    DirectBroadcast,
    DfsBroadcast,
    LayeredBfsBroadcast,
    PipelinedBroadcast,
    GroupMulticast,
    CallManager,
    LeaderElection,
    ChangRoberts,
    HirschbergSinclair,
    TopologyMaintenance,
    TreeAggregation,
    ChattyTreeAggregation,
    _RecordingProtocol,
    _ping_pong_factory((1, 0), 0),
]

#: Every class whose instances scale with the network or event count.
#: Each must declare ``__slots__`` in its own body and its instances
#: must not grow a ``__dict__`` through any base class.
HOT_CLASSES = [
    Node,
    NCU,
    NodeApi,
    Job,
    SwitchingSubsystem,
    Link,
    LinkFlowState,
    Packet,
    Event,
    *PROTOCOL_CLASSES,
]


@pytest.mark.parametrize("cls", HOT_CLASSES, ids=lambda c: c.__name__)
def test_hot_class_declares_slots(cls):
    assert "__slots__" in cls.__dict__, f"{cls.__name__} lost its __slots__"


@pytest.mark.parametrize("cls", HOT_CLASSES, ids=lambda c: c.__name__)
def test_hot_class_has_no_instance_dict(cls):
    # A __dict__ descriptor anywhere in the MRO means instances carry a
    # dict even if the leaf class declares __slots__.
    for base in cls.__mro__[:-1]:  # skip object
        assert "__dict__" not in base.__dict__, (
            f"{cls.__name__} inherits __dict__ via {base.__name__}"
        )


def test_protocol_classes_cover_every_src_protocol():
    # A protocol added under src/ without __slots__ would give every
    # node a __dict__ again; importing every module finds them all.
    import importlib
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    found, stack = set(), [Protocol]
    while stack:
        cls = stack.pop()
        if cls.__module__.startswith("repro."):
            found.add((cls.__module__, cls.__qualname__))
        stack += cls.__subclasses__()
    listed = {(cls.__module__, cls.__qualname__) for cls in PROTOCOL_CLASSES}
    assert found == listed


def test_hot_instances_reject_stray_attributes():
    net = from_spec("line:3", trace=False)
    node = net.nodes[0]
    net.attach(lambda api: FloodingBroadcast(api, root=0))
    for obj in (node, node.ncu, node.protocol, next(iter(net.links.values()))):
        with pytest.raises(AttributeError):
            obj.__not_a_slot__ = 1  # type: ignore[attr-defined]


def test_a_node_is_its_switch_and_its_ncu_is_the_protocol_api():
    # Two objects per node: the Node is its SwitchingSubsystem, and the
    # NCU is the NodeApi its protocol holds and is dispatched with.
    net = from_spec("grid:3,3", trace=False)
    net.attach(lambda api: FloodingBroadcast(api, root=0))
    for node in net.nodes.values():
        assert node.protocol.api is node.ncu
        assert isinstance(node, SwitchingSubsystem)
        assert isinstance(node.ncu, NodeApi)
    for gone in ("ss", "api"):
        assert not hasattr(Node, gone), gone
    for gone in ("_node", "_id_space", "id_space"):
        assert not hasattr(SwitchingSubsystem, gone), gone


def test_port_table_holds_links():
    # One tuple per node, entry i the Link with normal ID i and copy ID
    # flag | i, entry 0 (the NCU) empty: each link end is stored once.
    net = from_spec("grid:3,3", trace=False)
    flag = net.id_space.flag
    held = []
    for node_id, node in net.nodes.items():
        ports = node.ports
        assert type(ports) is tuple and ports[0] is None
        for index, link in enumerate(ports[1:], start=1):
            assert type(link) is Link
            assert link.ids_at(node_id) == (index, flag | index)
        held += ports[1:]
    assert Counter(map(id, held)) == {id(link): 2 for link in net.links.values()}


def test_link_declares_exactly_its_ten_slots():
    # Endpoint IDs are read off the nodes, a copy ID is flag | normal
    # and the key is derived from the endpoints in their repr order, so
    # a Link stores none of them: ten slots, 112 B instead of 144, and
    # no key tuple.
    assert Link.__slots__ == (
        "node_u", "node_v", "active", "_u_first", "fc",
        "_normal_u", "_normal_v", "_arrival_u", "_arrival_v", "hops",
    )


def test_packet_declares_exactly_its_six_slots():
    # A packet's hop count is the length of its route back and its
    # injected header's length is ``len(header)``, so it stores neither:
    # six slots, 80 B instead of 96.
    assert Packet.__slots__ == (
        "seq", "origin", "header", "payload", "header_pos", "_reverse",
    )


def test_delivered_copies_freeze_their_reverse_route(monkeypatch):
    # A copy handed to an NCU never moves again, so its reverse route is
    # a tuple; a multicast-group branch keeps moving and keeps a list.
    from repro.hardware import build_anr
    from repro.network.spanning import bfs_tree

    net = from_spec("line:4", trace=False)
    net.attach(lambda api: Protocol(api))
    group_id = net.install_multicast_tree(bfs_tree(net.adjacency(), 0))
    delivered, branches = [], []
    enqueue, forward = NCU.enqueue_packet, SwitchingSubsystem._forward

    def record_delivery(ncu, packet):
        delivered.append(packet)
        enqueue(ncu, packet)

    def record_branch(ss, packet, link):
        if packet.header[0] == group_id:
            branches.append(packet)
        forward(ss, packet, link)

    monkeypatch.setattr(NCU, "enqueue_packet", record_delivery)
    monkeypatch.setattr(SwitchingSubsystem, "_forward", record_branch)
    net.node(0).inject(build_anr([0, 1, 2], net.id_lookup), "unicast")
    net.node(0).inject((group_id,), "group")
    net.run_to_quiescence()
    assert sorted((p.payload, p.reverse_anr) for p in delivered) == [
        ("group", (1,)), ("group", (1, 1)), ("group", (1, 1, 1)), ("unicast", (1, 1)),
    ]
    assert all(type(p._reverse) is tuple for p in delivered)
    assert len(branches) == 3
    assert all(type(p._reverse) is list for p in branches)


def _bpaths(net):
    from repro.cli import _broadcast

    _broadcast("bpaths", net, 0)


def _aggregation(net):
    from operator import add

    from repro.core import run_tree_aggregation
    from repro.network.spanning import bfs_tree

    run_tree_aggregation(net, bfs_tree(net.adjacency(), 0), add, dict.fromkeys(net.nodes, 1))


def _pipelined(net):
    from repro.core import run_pipelined_broadcast

    run_pipelined_broadcast(net, 0, ["a", "b"])


@pytest.mark.parametrize("run", [_bpaths, _aggregation, _pipelined],
                         ids=["bpaths", "aggregation", "pipelined"])
def test_protocols_share_one_id_lookup(run):
    # The factory binds ``net.id_lookup`` once: every node's protocol
    # holds the same bound method, not one of its own.
    net = from_spec("fat_tree:4", trace=False)
    run(net)
    assert len({id(node.protocol._ids) for node in net.nodes.values()}) == 1


def test_fat_tree_build_retains_under_budget():
    # Retained heap per node of a fat_tree:16 build (1,344 nodes): the
    # node and its NCU, one port tuple, and the node's share of the
    # links and of the build's link tuple.  Read after one collection,
    # which empties the interpreter's free lists: the build's freed
    # tuples parked there are not what the network keeps.  It reads 609
    # B/node on Python 3.11 (737 with a key tuple per link, 841 with a
    # separate SS and API object per node too, 952 and 1,035 without
    # the collection); the budget is 609 plus 10%.  A per-node dict of
    # links or of port IDs would push it well past.
    import gc
    import tracemalloc

    topology = topology_from_spec("fat_tree:16")
    gc.collect()
    tracemalloc.start()
    try:
        net = Network(topology, trace=False)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.n == 1344
    assert retained / net.n <= 670, f"{retained / net.n:.0f} B/node"


def test_fat_tree_build_lets_go_of_its_scaffolding():
    # The traced peak of a fat_tree:16 build above what the build
    # retains.  The build drops its edge list, degree count, position
    # and repr maps once read, and each sort entry, pair and port list
    # as the link loop consumes it: ~150 B/node on Python 3.11, against
    # 571 when all of it lived until the build returned.
    import gc
    import tracemalloc

    topology = topology_from_spec("fat_tree:16")
    gc.collect()
    tracemalloc.start()
    try:
        net = Network(topology, trace=False)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - retained) / net.n <= 250, f"{(peak - retained) / net.n:.0f} B/node"


def test_fat_tree_build_makes_constant_python_calls_per_node():
    # Network._build inlines its per-link work, so a build's Python
    # calls are three per node (Node, its SwitchingSubsystem base and
    # its NCU) plus a few fixed ones: 4,056 on fat_tree:16 (5,400 with
    # a separate SS and API object per node).  One more call per link
    # would add 3,072.  Counted with a profile hook, not a clock.
    import sys

    topology = topology_from_spec("fat_tree:16")
    Network(topology, trace=False)  # first build loads modules and caches
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        net = Network(topology, trace=False)
    finally:
        sys.setprofile(None)
    assert net.n == 1344
    assert calls <= 3 * net.n + 64, calls


def test_fat_tree_build_tracks_two_objects_per_node_and_one_per_link():
    # What a full collection walks after a fat_tree:16 build: per node
    # the Node, its NCU and its port tuple, per link the Link, plus a
    # few fixed ones.  It reads 7,123 (9,811 with a separate SS and API
    # object per node).
    import gc

    topology = topology_from_spec("fat_tree:16")
    gc.collect()
    before = len(gc.get_objects())
    net = Network(topology, trace=False)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    assert (net.n, net.m) == (1344, 3072)
    assert tracked <= 3 * net.n + net.m + 64, tracked


def test_no_ncu_holds_a_set_after_a_flood():
    # The per-call port check uses the network's one scratch set.
    net = from_spec("fat_tree:4", delays=FixedDelays(0.1, 1.0), trace=False)
    run = run_standalone_broadcast(net, lambda api: FloodingBroadcast(api, root=0), 0)
    assert run.coverage == net.n
    for node in net.nodes.values():
        for slot in NCU.__slots__:
            assert not isinstance(getattr(node.ncu, slot, None), set), slot


def test_no_ncu_holds_a_deque_after_a_flood():
    # A queue that drains is let go; the next burst makes a fresh deque.
    net = from_spec("fat_tree:8", delays=FixedDelays(0.1, 1.0), trace=False)
    run = run_standalone_broadcast(net, lambda api: FloodingBroadcast(api, root=0), 0)
    assert run.coverage == net.n
    ncus = [node.ncu for node in net.nodes.values()]
    assert max(ncu.queue_peak for ncu in ncus) > 1  # some deliveries waited
    assert all(ncu._queue is None for ncu in ncus)


@pytest.mark.parametrize("cls", [Network], ids=lambda c: c.__name__)
def test_perf_shadow_classes_keep_dict(cls):
    # Network intentionally stays un-slotted: its ``graph`` and
    # ``links`` are ``cached_property``s, which store into the instance
    # ``__dict__``, and there are only a handful of networks per
    # simulation.
    assert "__slots__" not in cls.__dict__
    has_dict = any("__dict__" in base.__dict__ for base in cls.__mro__[:-1])
    assert has_dict, f"{cls.__name__} unexpectedly lost its instance __dict__"


def test_attach_holds_no_bound_method_in_a_node_or_ncu():
    # The protocol is the node's one attachment: the NCU dispatches
    # through ``node.protocol`` and keeps no bound ``dispatch``.
    import types

    net = from_spec("grid:3,3", trace=False)
    net.attach(lambda api: FloodingBroadcast(api, root=0))
    for node in net.nodes.values():
        for obj, cls in ((node, Node), (node.ncu, NCU)):
            for slot in cls.__slots__:
                value = getattr(obj, slot, None)
                assert not isinstance(value, types.MethodType), (cls.__name__, slot)


def test_attach_tracks_one_object_per_node():
    # A slotted flood protocol is one tracked object per node: no
    # __dict__, no set of seen keys, no bound method on the NCU.
    import gc

    net = from_spec("fat_tree:8", trace=False)
    gc.collect()
    before = len(gc.get_objects())
    net.attach(lambda api: FloodingBroadcast(api, root=0))
    gc.collect()
    assert len(gc.get_objects()) - before <= net.n + 16


def test_flood_protocol_state_and_run_peak_per_node():
    # fat_tree:16 (1,344 nodes) flooded at C = 0.  Protocol state after
    # attach reads 64 B/node on Python 3.11 (386 with a __dict__, a
    # seen-key set and a bound dispatch per node).  The traced run peak
    # above the build reads 768; its bound is that plus 8.7%.  It read
    # 842 with a heap tuple beside each Event and a Job per in-service
    # delivery, 966 with eight slots per packet and a route-back tuple
    # per one-hop delivery too, 1,063 with a list for each waiting
    # delivery's reverse route and an ``injected_at`` slot per packet,
    # and 1,630 with a tuple header per send and a fresh float per free
    # hop too.
    import gc
    import tracemalloc

    net = from_spec("fat_tree:16", delays=FixedDelays(0.0, 1.0), trace=False)
    gc.collect()
    tracemalloc.start()
    try:
        net.attach(lambda api: FloodingBroadcast(api, root=0))
        attached, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        net.start([0])
        net.run_to_quiescence()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.metrics.system_calls == 4802
    assert attached / net.n <= 100, f"{attached / net.n:.0f} B/node"
    assert peak / net.n <= 834, f"{peak / net.n:.0f} B/node"


def test_a_pending_event_is_one_object():
    # The tests/test_jobs.py setup: five packets reach node 1 of line:2
    # at once (C = 0, P = 1).  At t = 0.5 the first is in service and
    # four wait.  Every scheduler queue entry is the Event itself, the
    # in-service completion's handle is its own entry, and no Job is
    # alive: a delivery gets its Job only when its handler runs.
    import gc

    from conftest import limiting_net
    from repro.hardware import build_anr
    from repro.network import topologies

    gc.collect()
    # Held, so no new Job can reuse an old one's id.
    old_jobs = [obj for obj in gc.get_objects() if isinstance(obj, Job)]
    jobs_before = {id(obj) for obj in old_jobs}
    net = limiting_net(topologies.line(2))
    net.attach(lambda api: Protocol(api))
    header = build_anr([0, 1], net.id_lookup)
    for i in range(5):
        net.node(0).inject(header, i)
    net.run(until=0.5)
    ncu = net.node(1).ncu
    queue = net.scheduler._queue
    assert ncu.busy and ncu.queued == 4 and len(queue) == 1
    assert all(type(entry) is Event for entry in queue)
    assert queue[0] is ncu._service_event
    gc.collect()
    assert [obj for obj in gc.get_objects()
            if isinstance(obj, Job) and id(obj) not in jobs_before] == []
