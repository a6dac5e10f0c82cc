"""Protocol base class: the software that runs on an NCU.

A protocol instance lives on exactly one node and owns that node's
algorithm state.  The NCU invokes :meth:`Protocol.dispatch` once per
job — i.e. once per system call — and the dispatcher fans out to the
four handler hooks.  Every handler invocation is one system call in the
metrics, runs for one software delay, and may send any number of
packets (they depart together when the handler finishes).
"""

from __future__ import annotations

from typing import Any, Callable

from ..hardware.link import LinkInfo
from ..hardware.ncu import Job, JobKind, NodeApi
from ..hardware.packet import Packet
from ..sim.errors import ProtocolError

#: A protocol factory creates one instance per node at attach time.
ProtocolFactory = Callable[[NodeApi], "Protocol"]


class Protocol:
    """Base class for node-local protocol logic.

    Subclasses override any of :meth:`on_start`, :meth:`on_packet`,
    :meth:`on_timer`, :meth:`on_link_change`.  The ``api`` attribute is
    the node's NCU, seen through :class:`repro.hardware.ncu.NodeApi`.

    A subclass declares ``__slots__`` for its own per-node fields: one
    instance lives on every node, and a slotted instance carries no
    ``__dict__``.  A subclass without ``__slots__`` still works (Python
    gives it a ``__dict__``); it only costs that dict per node.
    """

    __slots__ = ("api",)

    def __init__(self, api: NodeApi) -> None:
        self.api = api

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_start(self, payload: Any) -> None:
        """External trigger (the START signal)."""

    def on_packet(self, packet: Packet) -> None:
        """A packet copy was delivered to this NCU."""

    def on_timer(self, tag: str, payload: Any) -> None:
        """A timer set via ``api.set_timer`` fired."""

    def on_link_change(self, info: LinkInfo) -> None:
        """The data-link layer reports an adjacent link changed state."""

    # ------------------------------------------------------------------
    # NCU plumbing
    # ------------------------------------------------------------------
    def dispatch(self, api: NodeApi, job: Job) -> None:
        """Route one NCU job to the matching hook (called by the NCU).

        Branches ordered by frequency: packets and timers are the
        steady-state jobs; START fires once per node and link events
        only on topology changes.
        """
        kind = job.kind
        if kind is JobKind.PACKET:
            self.on_packet(job.payload)
        elif kind is JobKind.TIMER:
            self.on_timer(job.tag, job.payload)
        elif kind is JobKind.START:
            self.on_start(job.payload)
        elif kind is JobKind.LINK_EVENT:
            self.on_link_change(job.payload)
        else:  # pragma: no cover - enum is closed
            raise ProtocolError(f"unknown job kind {job.kind!r}")
