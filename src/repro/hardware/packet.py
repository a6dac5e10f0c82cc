"""Packets: an ANR header plus an opaque payload.

A packet is the paper's bit string ``p = xy``: the leading ``x`` is the
next link ID to consume and ``y`` is the rest (remaining header followed
by the payload).  We keep the header as a tuple of ints and the payload
as an arbitrary Python object; :mod:`repro.hardware.ids` provides the
bit-level view where it matters (header length accounting, tests).

Packets also accumulate a **reverse ANR** as they travel: at each hop
the normal ID of the traversed link *at the receiving side* is recorded,
so a receiver holds a ready-made route back to the sender (most recent
hop first).  This realises the paper's assumption (Section 2) that "a
receiver will be able to send a packet back to the sender" via one of
the known techniques (reverse-path accumulation is the one we model).

Hot-path layout
---------------
Forwarding a packet must be O(1) per hop, matching the paper's premise
that hardware switching is nearly free.  So:

* ``header`` is the **immutable** as-injected header; the switching
  subsystem consumes IDs by advancing the integer cursor
  ``header_pos`` instead of re-slicing a shrinking tuple (which made a
  d-hop route O(d²) in copied IDs).
* the reverse ANR grows by *appending* the hop's receiving-side ID to
  the internal ``_reverse`` list; the paper-ordered tuple (most recent
  hop first) is materialised only when :attr:`reverse_anr` is read —
  i.e. at delivery / ``reply_route`` time, never per hop.
* a delivered copy never moves again, so :meth:`Packet.delivery_copy`
  freezes its reverse route as a tuple: at the flood's peak tens of
  thousands of copies wait in NCU queues, and a tuple is the smaller
  container.  A one-hop route is the same shared ``(normal,)`` tuple
  for every copy delivered through that receiving normal ID.  A
  multicast-group branch keeps moving and gets a list.
* a packet stores nothing it can derive: :attr:`Packet.hops` is the
  length of the reverse route, and :attr:`Packet.original_header_length`
  the length of the as-injected ``header``.

``header_pos`` and ``_reverse`` are internal to the hardware layer (see
``docs/API.md``): protocols should read :attr:`remaining_header` and
:attr:`reverse_anr`, which preserve the original tuple semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: One shared ``(normal,)`` route back per receiving normal ID; see
#: :meth:`Packet.delivery_copy`.  Normal IDs run 1..max degree, so it
#: stays tiny, as ``anr._ONE_HOP`` does.
_ONE_HOP_ROUTES: dict[int, tuple[int]] = {}


@dataclass(slots=True)
class Packet:
    """A message in flight.

    Attributes
    ----------
    seq:
        Network-unique packet number (assigned at injection).
    origin:
        Node whose NCU injected the packet.
    header:
        The full ANR header as injected; never mutated in flight.  A
        multicast-group branch carries its sender's header too.
    payload:
        Opaque protocol data; never examined by the hardware, matching
        the paper's assumption that software delay does not depend on
        message content.
    header_pos:
        Cursor into ``header``: IDs before it have been consumed by
        switches.  Internal — use :attr:`remaining_header`.
    """

    seq: int
    origin: Any
    header: tuple[int, ...]
    payload: Any
    header_pos: int = 0
    #: Receiving-side normal IDs in hop order (oldest first): a list in
    #: flight, a tuple once delivered.  Internal — read
    #: :attr:`reverse_anr` for the paper's most-recent-first view.
    _reverse: list[int] | tuple[int, ...] = field(default_factory=list)

    @property
    def hops(self) -> int:
        """Links traversed so far: every hop appends to the route back."""
        return len(self._reverse)

    @property
    def original_header_length(self) -> int:
        """Length (in IDs) of the header as injected; compared to dmax."""
        return len(self.header)

    @property
    def remaining_header(self) -> tuple[int, ...]:
        """The IDs not yet consumed by a switch."""
        return self.header[self.header_pos:]

    @property
    def reverse_anr(self) -> tuple[int, ...]:
        """Accumulated route back to the origin (receiving-side normal
        IDs, most recent hop first).  Append ``NCU_ID`` to address the
        origin's NCU — see :func:`repro.hardware.anr.reply_route`."""
        return tuple(self._reverse[::-1])

    @reverse_anr.setter
    def reverse_anr(self, value: tuple[int, ...]) -> None:
        self._reverse = list(value)[::-1]

    def delivery_copy(self) -> "Packet":
        """Snapshot handed to an NCU when a copy ID (or the NCU ID) fires.

        The in-flight packet object keeps moving, so the NCU gets its
        own frozen view of the remaining header and reverse path; the
        reverse path is a tuple, since a delivered copy never moves.
        Every one-hop delivery through the same receiving normal ID
        gets the same tuple: at a flood's peak tens of thousands of
        them wait in NCU queues.
        Hand-rolled rather than ``dataclasses.replace`` — this runs once
        per selective copy and ``replace`` re-enters ``__init__`` with
        keyword plumbing the hot path can't afford.
        """
        copy = Packet.__new__(Packet)
        copy.seq = self.seq
        copy.origin = self.origin
        copy.header = self.header
        copy.payload = self.payload
        copy.header_pos = self.header_pos
        reverse = self._reverse
        if len(reverse) == 1:
            normal = reverse[0]
            route = _ONE_HOP_ROUTES.get(normal)
            if route is None:
                route = _ONE_HOP_ROUTES[normal] = (normal,)
            copy._reverse = route
        else:
            copy._reverse = tuple(reverse)
        return copy
