#!/usr/bin/env python3
"""A guided tour of the hardware model (Section 2).

Shows, at the packet level, what the switching subsystem does: normal
IDs forward silently, copy IDs tee a copy into the local NCU, the NCU
ID terminates, reverse paths accumulate so receivers can reply, and
the dmax restriction rejects over-long source routes.  Every hop and
system call is shown from the simulator's trace.

Run:  python examples/anr_hardware_tour.py
"""

from __future__ import annotations

from repro import FixedDelays, Network, Protocol, topologies
from repro.hardware import build_anr, header_to_bits, path_broadcast_anr, reply_route
from repro.sim import PathTooLongError, TraceKind


class Narrator(Protocol):
    """Prints every NCU delivery it sees."""

    def on_packet(self, packet):
        print(
            f"    t={self.api.now:4.1f}  node {self.api.node_id} NCU got "
            f"{packet.payload!r}  (hops so far: {packet.hops}, "
            f"reverse route: {packet.reverse_anr})"
        )
        if packet.payload == "ping":
            print("           ... replying along the reverse path")
            self.api.send(reply_route(packet), "pong")


def main() -> None:
    print(__doc__)
    net = Network(topologies.line(5), delays=FixedDelays(0.0, 1.0), trace=True)
    net.attach(lambda api: Narrator(api))
    k = net.id_space.k

    print(f"Line of 5 nodes; IDs are {k} bits; copy flag = "
          f"{bin(net.id_space.flag)}.\n")

    # ------------------------------------------------------------------
    # 1. A plain source route: silent transit.
    # ------------------------------------------------------------------
    header = build_anr([0, 1, 2, 3, 4], net.id_lookup)
    print(f"1. direct message 0 -> 4, header {header} "
          f"(bits: {header_to_bits(header, k)})")
    net.node(0).inject(header, "ping")
    net.run_to_quiescence()
    hops = net.trace.count(TraceKind.PACKET_HOP)
    calls = net.metrics.system_calls
    print(f"   => {hops} hardware hops total, {calls} system calls "
          "(intermediate switches never woke their processors;\n"
          "      the receiver replied using the accumulated reverse path)\n")

    # ------------------------------------------------------------------
    # 2. Selective copy: one packet, every NCU on the path.
    # ------------------------------------------------------------------
    net.trace.clear()
    header = path_broadcast_anr([0, 1, 2, 3, 4], net.id_lookup)
    print(f"2. path broadcast 0 -> 4 with copies, header {header}")
    net.node(0).inject(header, "to-everyone")
    net.run_to_quiescence()
    print(f"   => copies delivered: {net.trace.count(TraceKind.PACKET_COPIED)}, "
          f"all in parallel at t=1 (one packet, n-1 informed NCUs)\n")

    # ------------------------------------------------------------------
    # 3. The dmax restriction.
    # ------------------------------------------------------------------
    print(f"3. dmax = {net.dmax}: a header of {net.dmax + 1} IDs is rejected")
    try:
        net.node(0).inject(tuple([1] * (net.dmax + 1)), "too long")
    except PathTooLongError as exc:
        print(f"   => PathTooLongError: {exc}\n")

    # ------------------------------------------------------------------
    # 4. Failure semantics: inactive links deliver nothing.
    # ------------------------------------------------------------------
    net.fail_link(2, 3)
    net.run_to_quiescence()
    net.trace.clear()
    header = build_anr([0, 1, 2, 3, 4], net.id_lookup)
    print("4. link (2,3) failed; resending the 0 -> 4 message")
    net.node(0).inject(header, "doomed")
    net.run_to_quiescence()
    drop = net.trace.last(TraceKind.PACKET_DROPPED)
    print(f"   => dropped at the switch: reason={drop.detail['reason']!r} "
          f"link={drop.detail.get('link')} — the hardware has no error channel;\n"
          "      recovering from this is the topology-maintenance protocol's job.")


if __name__ == "__main__":
    main()
