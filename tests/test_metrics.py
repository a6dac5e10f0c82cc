"""Unit tests for complexity accounting and reporting."""

from __future__ import annotations

import tracemalloc
from collections import Counter

import pytest

from repro.core import FloodingBroadcast, run_standalone_broadcast
from repro.hardware import NCU, Link
from repro.metrics import (
    MetricsSnapshot,
    format_ratio,
    format_table,
    hop_complexity,
    max_system_calls_per_node,
    message_complexity,
    system_call_complexity,
    time_units,
)
from repro.network import Network, Topology, from_spec
from repro.sim import FixedDelays


def _path() -> Network:
    """A 3-node path ``a - b - c``: the collector counts on its NCUs and links."""
    return Network(Topology(("a", "b", "c"), (("a", "b"), ("b", "c"))))


def _call(net: Network, node_id: str, kind: str) -> None:
    net.metrics.count_system_call(net.node(node_id).ncu, kind)


def _hop(net: Network, u: str, v: str) -> None:
    net.metrics.count_hop(net.link(u, v))


def test_counters_accumulate():
    net = _path()
    m = net.metrics
    _call(net, "a", "packet")
    _call(net, "a", "start")
    _call(net, "b", "packet")
    _hop(net, "a", "b")
    _hop(net, "a", "b")
    m.count_injection("a")
    m.count_copy("b")
    m.count_drop("inactive_link")
    assert m.system_calls == 3
    assert m.system_calls_at("a") == 2
    assert m.system_calls_of_kind("packet") == 2
    assert m.hops == 2
    assert m.packets_injected == 1
    assert m.copies == 1
    assert m.drops == 1


def test_snapshot_is_immutable_copy():
    net = _path()
    m = net.metrics
    _call(net, "a", "packet")
    snap = m.snapshot()
    _call(net, "a", "packet")
    assert snap.system_calls == 1
    assert m.system_calls == 2


def test_since_computes_delta():
    net = _path()
    m = net.metrics
    _call(net, "a", "packet")
    _hop(net, "a", "b")
    before = m.snapshot()
    _call(net, "b", "tour")
    _hop(net, "b", "c")
    _hop(net, "b", "c")
    delta = m.since(before)
    assert delta.system_calls == 1
    assert delta.hops == 2
    assert delta.system_calls_per_node == {"b": 1}
    assert delta.system_calls_by_kind == {"tour": 1}
    assert delta.hops_per_link == {("b", "c"): 2}


def test_measures():
    net = _path()
    m = net.metrics
    for _ in range(5):
        _call(net, "a", "packet")
    _call(net, "a", "start")
    _hop(net, "a", "b")
    m.count_injection("a")
    snap = m.snapshot()
    assert system_call_complexity(snap) == 6
    assert system_call_complexity(snap, exclude_kinds=["start"]) == 5
    assert hop_complexity(snap) == 1
    assert message_complexity(snap) == 1
    assert max_system_calls_per_node(snap) == 6


def _flood(spec: str) -> Network:
    """A network that has run one flood from node 0 to quiescence."""
    net = from_spec(spec, delays=FixedDelays(0.1, 1.0))
    run_standalone_broadcast(net, lambda api: FloodingBroadcast(api, root=0), 0)
    return net


def test_reset_zeroes_the_per_object_counts_that_a_crash_keeps():
    net = _flood("grid:3,3")
    calls = net.node(4).ncu.system_calls
    assert calls == net.metrics.system_calls_at(4) > 0
    # The churn monitor reads a crashed node's count while it is down.
    net.crash_node(4)
    assert net.metrics.system_calls_at(4) == calls
    net.restart_node(4, start=False)
    assert net.metrics.system_calls_at(4) == calls
    net.reset()
    assert [link.hops for link in net.links.values()] == [0] * net.m
    assert [node.ncu.system_calls for node in net.nodes.values()] == [0] * net.n
    assert net.metrics.snapshot() == MetricsSnapshot(0, 0, 0, 0, 0, 0)


def test_since_allocates_little_beyond_its_result():
    # ``since`` reads each delta off its NCU or link: its peak is the
    # result being built, not copies of the maps it is computed from.
    net = from_spec("fat_tree:8", delays=FixedDelays(0.1, 1.0))
    net.attach(lambda api: FloodingBroadcast(api, root=0))
    before = net.metrics.snapshot()
    net.start([0])
    net.run_to_quiescence()
    tracemalloc.start()
    try:
        delta = net.metrics.since(before)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(delta.system_calls_per_node) == net.n
    assert len(delta.hops_per_link) == net.m
    assert peak <= 1.6 * size, f"peak {peak} B for a {size} B result"


def test_since_builds_no_per_link_dict_until_it_is_read():
    # ``since`` records each table as one array; the per-link dict of a
    # fat_tree:16 flood (3,072 links) is built when ``hops_per_link`` is
    # first read, and equals a full per-link count in keys, order, values
    # and repr.
    import sys

    net = from_spec("fat_tree:16", delays=FixedDelays(0.1, 1.0))
    net.attach(lambda api: FloodingBroadcast(api, root=0))
    before = net.metrics.snapshot()
    net.start([0])
    net.run_to_quiescence()
    full = {key: link.hops for key, link in net.links.items() if link.hops}
    assert len(full) == net.m == 3072
    dict_bytes = sys.getsizeof(full)
    tracemalloc.start()
    try:
        delta = net.metrics.since(before)
        unread, since_peak = tracemalloc.get_traced_memory()
        hops = delta.hops_per_link
        assert list(hops.items()) == list(full.items())
        read, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Two arrays and the network's two key tuples: ~72 kB against the
    # dict's ~148 kB (and ~259 kB when ``since`` built both dicts).
    assert since_peak < dict_bytes, f"since() peaked at {since_peak} B"
    assert read - unread >= dict_bytes, f"reading built {read - unread} B"
    assert hops == full and full == hops and repr(hops) == repr(full)
    assert delta.system_calls_per_node == {
        node_id: node.ncu.system_calls for node_id, node in net.nodes.items()
    }


def test_since_subtracts_only_a_snapshot_of_the_same_tables():
    net = _flood("grid:3,3")
    snap = net.metrics.snapshot()
    # An equal-shaped network's snapshot lines up entry for entry.
    assert net.metrics.since(_flood("grid:3,3").metrics.snapshot()).hops_per_link == {}
    with pytest.raises(ValueError, match="same network"):
        net.metrics.since(_flood("line:4").metrics.snapshot())
    # A snapshot at zero totals recorded no table, so any network's will do.
    assert net.metrics.since(_path().metrics.snapshot()) == snap


def test_snapshot_with_zero_totals_visits_no_ncu_and_no_link(monkeypatch):
    net = from_spec("fat_tree:8", delays=FixedDelays(0.1, 1.0))
    reads = Counter()

    def counting(cls, name):
        slot = getattr(cls, name)

        def read(obj):
            reads[name] += 1
            return slot.__get__(obj, cls)

        monkeypatch.setattr(cls, name, property(read, slot.__set__))

    counting(NCU, "system_calls")
    counting(Link, "hops")
    snap = net.metrics.snapshot()
    assert snap.system_calls_per_node == {} and snap.hops_per_link == {}
    assert reads == {}
    # Once something was counted, the snapshot reads every object once.
    net.attach(lambda api: FloodingBroadcast(api, root=0))
    net.start([0])
    net.run_to_quiescence()
    reads.clear()
    net.metrics.snapshot()
    assert reads == {"system_calls": net.n, "hops": net.m}


def test_time_units():
    assert time_units(10.0, 2.0) == 5.0
    with pytest.raises(ValueError):
        time_units(10.0, 0.0)


def test_format_table_alignment():
    table = format_table(
        ["name", "value"],
        [["alpha", 1], ["b", 123.4567]],
        title="demo",
    )
    lines = table.splitlines()
    assert lines[0] == "demo"
    assert "name" in lines[1] and "value" in lines[1]
    assert "123.457" in lines[-1]  # default 3-decimal float format
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1  # every row the same width


def test_format_ratio():
    assert format_ratio(6.0, 2.0) == "3.00x"
    assert format_ratio(1.0, 0.0) == "inf"
    assert format_ratio(0.0, 0.0) == "0.0x"


def test_header_ids_accounting():
    m = _path().metrics
    m.count_injection("a", header_len=5)
    m.count_injection("a", header_len=3)
    snap = m.snapshot()
    assert snap.header_ids == 8
    before = snap
    m.count_injection("b", header_len=2)
    assert m.since(before).header_ids == 2


def test_header_ids_end_to_end():
    from conftest import attach_recorders, limiting_net
    from repro.hardware import build_anr
    from repro.network import topologies

    net = limiting_net(topologies.line(4))
    attach_recorders(net)
    header = build_anr([0, 1, 2, 3], net.id_lookup)
    net.node(0).inject(header, "x")
    net.run_to_quiescence()
    assert net.metrics.header_ids == len(header) == 4
