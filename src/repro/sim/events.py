"""Event objects for the discrete-event scheduler.

An :class:`Event` couples a firing time with a callable (plus pre-bound
``args``).  Events are totally ordered by ``(time, priority, seq)``
where ``seq`` is a monotonically increasing insertion counter; this
makes simulation runs fully deterministic even when many events share a
firing time (which is the common case in the paper's limiting model
where hardware delays are zero).

The scheduler assigns ``seq`` from its **own** per-scheduler counter, so
an event stream — and anything exported from it — never depends on how
many simulations ran earlier in the same process (load-bearing for the
campaign engine's byte-identity guarantees with in-process workers).
All event construction goes through the scheduler's shared ``_push``
fast path.

Performance note: an event *is* its heap entry.  It is a ``list``
holding ``[time, priority, seq, action, args, tag, owner]``, so heap
sifts compare ``(time, priority, seq)`` in C (``seq`` is unique per
scheduler, so a comparison never reaches ``action``), and each schedule
makes one object of ~128 B instead of a heap tuple plus an event object
(~176 B).
"""

from __future__ import annotations

from operator import itemgetter


class Event(list):
    """A scheduled callback, and its own entry in the scheduler's heap.

    The items, in order, read through the properties below:

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
        Callable executed when the event fires, as ``action(*args)``;
        ``None`` once the event is cancelled.  Hot paths pass a
        long-lived function plus ``args`` instead of allocating a fresh
        closure per event.
    args:
        Pre-bound positional arguments for ``action``.
    tag:
        Free-form label used by traces and tests.

    The seventh item is the owning scheduler while the event is queued
    and live, ``None`` once it has fired or been cancelled: a
    :meth:`cancel` with no owner moves nothing.
    """

    __slots__ = ()

    time = property(itemgetter(0))
    priority = property(itemgetter(1))
    seq = property(itemgetter(2))
    action = property(itemgetter(3))
    args = property(itemgetter(4))
    tag = property(itemgetter(5))

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` took effect: the scheduler drops the
        event instead of firing it."""
        return self[3] is None

    def cancel(self) -> None:
        """Drop the event unfired, if it is still queued and live.

        Clears the action and the owner; a second cancel, or a cancel
        after the event fired, finds no owner and does nothing, so the
        owner's live count stays exact.
        """
        owner = self[6]
        if owner is not None:
            self[3] = self[6] = None
            owner._note_cancelled()
