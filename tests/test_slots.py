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

from repro.core import FloodingBroadcast, run_standalone_broadcast
from repro.hardware.link import Link, LinkFlowState
from repro.hardware.ncu import NCU, Job, NodeApi
from repro.hardware.node import Node
from repro.hardware.packet import Packet
from repro.hardware.switch import SwitchingSubsystem
from repro.network import Network, from_spec, topology_from_spec
from repro.sim import FixedDelays
from repro.sim.events import Event

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


def test_hot_instances_reject_stray_attributes():
    net = from_spec("line:3", trace=False)
    node = net.nodes[0]
    for obj in (node, node.ss, node.ncu, node.api, next(iter(net.links.values()))):
        with pytest.raises(AttributeError):
            obj.__not_a_slot__ = 1  # type: ignore[attr-defined]


def test_port_table_holds_links():
    # One tuple per node, entry i the Link with normal ID i and copy ID
    # flag | i, entry 0 (the NCU) empty: each link end is stored once.
    net = from_spec("grid:3,3", trace=False)
    flag = net.id_space.flag
    held = []
    for node_id, node in net.nodes.items():
        ports = node.ss.ports
        assert type(ports) is tuple and ports[0] is None
        for index, link in enumerate(ports[1:], start=1):
            assert type(link) is Link
            assert link.ids_at(node_id) == (index, flag | index)
        held += ports[1:]
    assert Counter(map(id, held)) == {id(link): 2 for link in net.links.values()}


def test_fat_tree_build_retains_under_budget():
    # Retained heap per node of a fat_tree:16 build (1,344 nodes): the
    # node, SS, NCU and API objects, one port tuple, and the node's
    # share of the links.  A per-node dict of links or of port IDs
    # would push it well past the budget.
    import gc
    import tracemalloc

    topology = topology_from_spec("fat_tree:16")
    gc.collect()
    tracemalloc.start()
    try:
        net = Network(topology, trace=False)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.n == 1344
    assert retained / net.n <= 1500, f"{retained / net.n:.0f} B/node"


def test_fat_tree_build_makes_constant_python_calls_per_node():
    # Network._build inlines its per-link work, so a build's Python
    # calls are the four per-node constructors (Node, SS, NCU, NodeApi)
    # plus a few fixed ones: 5,404 on fat_tree:16.  One more call per
    # link would add 3,072.  Counted with a profile hook, not a clock.
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
    assert calls <= 4 * net.n + 64, calls


def test_no_ncu_holds_a_set_after_a_flood():
    # The per-call port check uses the network's one scratch set.
    net = from_spec("fat_tree:4", delays=FixedDelays(0.1, 1.0), trace=False)
    run = run_standalone_broadcast(net, lambda api: FloodingBroadcast(api, root=0), 0)
    assert run.coverage == net.n
    for node in net.nodes.values():
        for slot in NCU.__slots__:
            assert not isinstance(getattr(node.ncu, slot, None), set), slot


@pytest.mark.parametrize("cls", [Network], ids=lambda c: c.__name__)
def test_perf_shadow_classes_keep_dict(cls):
    # Network intentionally stays un-slotted: its ``graph`` is a
    # ``cached_property``, which stores into the instance ``__dict__``,
    # and there are only a handful of networks per simulation.
    assert "__slots__" not in cls.__dict__
    has_dict = any("__dict__" in base.__dict__ for base in cls.__mro__[:-1])
    assert has_dict, f"{cls.__name__} unexpectedly lost its instance __dict__"
