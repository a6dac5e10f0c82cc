"""Tests for the pipelined broadcast stream (E15 extension)."""

from __future__ import annotations

import math

from repro.core.pipelined import run_pipelined_broadcast, run_stop_and_wait
from repro.network import Network, topologies
from repro.sim import FixedDelays, RandomDelays


def net_for(n, seed=None, delays=None):
    p = min(0.5, 2.5 * math.log(n) / n)
    g = topologies.random_connected(n, p, seed=seed if seed is not None else n)
    return Network(g, delays=delays or FixedDelays(0.0, 1.0))


def test_stream_delivers_every_message_to_every_node():
    net = net_for(40)
    run = run_pipelined_broadcast(net, 0, ["a", "b", "c"])
    assert run.complete
    for index in range(3):
        got = net.outputs_for_key(f"got:{index}")
        assert set(got) == set(net.nodes) - {0}


def test_stream_makespan_is_k_plus_latency():
    net = net_for(128)
    k = 16
    run = run_pipelined_broadcast(net, 0, list(range(k)))
    # One slot per message plus the path-chain latency (small constant).
    assert run.makespan <= (k - 1) + (2 + math.log2(net.n))
    assert run.makespan >= k  # can't beat one injection slot per message


def test_pipelining_beats_stop_and_wait():
    k = 12
    pipe = run_pipelined_broadcast(net_for(64), 0, list(range(k)))
    sw = run_stop_and_wait(net_for(64), 0, list(range(k)))
    assert pipe.complete and sw.complete
    assert pipe.makespan < sw.makespan / 2


def test_stream_system_calls_are_k_times_n():
    net = net_for(30)
    k = 5
    run = run_pipelined_broadcast(net, 0, list(range(k)))
    by_kind = run.metrics.system_calls_by_kind
    assert by_kind.get("stream", 0) == k * (net.n - 1)
    assert by_kind.get("stream_nudge", 0) == k - 1


def test_single_message_stream_equals_plain_broadcast():
    run = run_pipelined_broadcast(net_for(50), 0, ["only"])
    assert run.complete
    assert run.metrics.system_calls_by_kind.get("stream_nudge", 0) == 0


def test_empty_stream_is_a_no_op():
    net = net_for(10)
    run = run_pipelined_broadcast(net, 0, [])
    assert not run.complete
    assert run.metrics.packets_injected == 0


def test_stream_under_random_delays_stays_ordered():
    # FIFO links keep the stream in order even with jittered delays.
    net = net_for(25, delays=RandomDelays(hardware=0.3, software=1.0, seed=5))
    run = run_pipelined_broadcast(net, 0, list(range(6)))
    assert run.complete
    for node in net.nodes:
        if node == 0:
            continue
        arrivals = [net.output(node, f"got:{i}") for i in range(6)]
        assert arrivals == sorted(arrivals)
