"""Event objects for the discrete-event scheduler.

An :class:`Event` couples a firing time with a callable (plus optional
pre-bound ``args``).  Events are totally ordered by ``(time, priority,
seq)`` where ``seq`` is a monotonically increasing insertion counter;
this makes simulation runs fully deterministic even when many events
share a firing time (which is the common case in the paper's limiting
model where hardware delays are zero).

The scheduler assigns ``seq`` from its **own** per-scheduler counter, so
an event stream — and anything exported from it — never depends on how
many simulations ran earlier in the same process (load-bearing for the
campaign engine's byte-identity guarantees with in-process workers).
All event construction goes through the scheduler's shared ``_push``
fast path; hand-constructed events (tests) default to ``seq=0`` and must
pass an explicit ``seq`` when FIFO order among equals matters.

Performance note: the scheduler's heap stores ``(time, priority, seq,
event)`` tuples, so heap sifts compare tuples in C instead of calling
the dataclass-generated ``__lt__`` — which used to dominate heap cost.
``order=True`` is kept for callers that heap raw events themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Simulated time at which the event fires.
    priority:
        Tie-breaker between events that share a firing time.  Lower
        priorities fire first.  The hardware layer uses priority ``0``
        for packet movement and the protocol layer uses ``1`` for NCU
        job completions, so that a packet arriving "at the same time" as
        a service completion is already enqueued when the NCU looks for
        its next job.
    seq:
        Insertion counter; guarantees FIFO order among otherwise equal
        events and makes the ordering total.
    action:
        Callable executed when the event fires, as ``action(*args)``.
    args:
        Pre-bound positional arguments for ``action``.  Hot paths pass a
        long-lived bound method plus ``args`` instead of allocating a
        fresh closure per event.
    tag:
        Free-form label used by traces and tests.
    cancelled:
        Cancelled events stay in the heap but are skipped when popped.
    on_cancel:
        Optional callback invoked the first time :meth:`cancel` takes
        effect.  The owning scheduler uses it to keep its live-event
        count exact without scanning the heap.
    """

    time: float
    priority: int = 0
    seq: int = 0
    action: Callable[..., None] = field(compare=False, default=lambda: None)
    args: tuple[Any, ...] = field(compare=False, default=())
    tag: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)
    on_cancel: Callable[[], None] | None = field(compare=False, default=None)

    def cancel(self) -> None:
        """Mark the event so the scheduler drops it instead of firing it."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.on_cancel is not None:
            self.on_cancel()
