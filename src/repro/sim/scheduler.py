"""A deterministic discrete-event scheduler.

The scheduler is the single source of time in a simulation.  All other
components (links, switching subsystems, NCUs, failure injectors) obtain
the current time from :attr:`Scheduler.now` and advance the world only
through :meth:`Scheduler.schedule`.

Determinism
-----------
Runs are reproducible bit-for-bit: events are ordered by
``(time, priority, insertion sequence)`` and any randomness lives in the
delay models, which take explicit seeds.  This property is load-bearing
for the test suite, which asserts exact system-call counts.  The
insertion sequence is **per scheduler**, so two networks simulated in
the same process produce identical event streams regardless of order.

Performance
-----------
The heap holds the events themselves: an
:class:`~repro.sim.events.Event` is a ``list`` led by ``(time,
priority, seq)``, so heap sifts compare in C and, ``seq`` being unique
per scheduler, never reach the action.  Each schedule makes that one
object, which is also the caller's handle.  The run loop sweeps
cancelled entries as they surface and clears the owner of each entry
it fires, so a late cancel finds none.  Hot callers avoid per-event
closures by passing a long-lived callable plus ``args``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator

from .errors import SimulationError
from .events import Event

#: Signature of a scheduler observer: called with each event just fired.
Observer = Callable[[Event], None]


class Scheduler:
    """Priority-queue driven simulation loop."""

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._now: float = 0.0
        self._seq: int = 0
        self._events_processed: int = 0
        self._running = False
        #: Cancelled events still sitting in the heap.  Counted by
        #: ``Event.cancel`` through :meth:`_note_cancelled`, so
        #: :attr:`pending_live` is O(1) instead of a heap scan.
        self._cancelled_pending = 0
        #: Cancels that took effect on a queued event, ever.
        self._cancels = 0
        #: Observability subscribers (empty tuple = disabled; the run
        #: loop's only cost then is one truthiness check per event).
        self._observers: tuple[Observer, ...] = ()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired since construction."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._queue)

    @property
    def pending_live(self) -> int:
        """Number of non-cancelled events still in the queue.

        O(1): cancelled-but-queued events are counted as they are
        cancelled, not by scanning the heap.  This is the depth metric
        observability samples — cancelled timers must not inflate it.
        It depends only on schedule/fire/cancel, never on when the run
        loop happens to sweep out cancelled entries.
        """
        return len(self._queue) - self._cancelled_pending

    @property
    def scheduled(self) -> int:
        """Number of events ever pushed onto the queue."""
        return self._seq

    @property
    def cancelled_dropped(self) -> int:
        """Number of cancelled events swept out of the queue unfired.

        Closes the ledger: ``scheduled == events_processed +
        cancelled_dropped + pending`` between operations.
        """
        return self._cancels - self._cancelled_pending

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def add_observer(self, observer: Observer) -> None:
        """Subscribe a callable invoked after every fired event.

        Observers registered mid-run take effect from the next
        :meth:`run` / :meth:`step` call (the run loop snapshots the
        subscriber list once, keeping the disabled path no-op cheap).
        """
        if observer not in self._observers:
            self._observers = self._observers + (observer,)

    def remove_observer(self, observer: Observer) -> None:
        """Unsubscribe a previously added observer (idempotent).

        Matches by equality, not identity: bound methods are recreated
        on every attribute access, so ``remove_observer(obj.hook)`` must
        still find the subscription made with ``add_observer(obj.hook)``.
        """
        self._observers = tuple(o for o in self._observers if o != observer)

    def peek_time(self) -> float | None:
        """Firing time of the next live event, or ``None`` if quiescent."""
        self._drop_cancelled()
        if not self._queue:
            return None
        return self._queue[0][0]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _push(
        self,
        time: float,
        action: Callable[..., None],
        priority: int,
        tag: str,
        args: tuple[Any, ...],
    ) -> Event:
        """Shared enqueue fast path behind ``schedule``/``schedule_at``.

        The hottest allocation in a simulation: one :class:`Event`,
        which is both the heap entry and the caller's handle.
        ``schedule``/``schedule_at`` are validation shims over it.
        Every call makes a fresh event, so a handle stays bound to its
        own event: a late ``cancel()`` on a fired event is a harmless
        no-op.
        """
        seq = self._seq
        self._seq = seq + 1
        event = Event((time, priority, seq, action, args, tag, self))
        heapq.heappush(self._queue, event)
        return event

    def schedule(
        self,
        delay: float,
        action: Callable[..., None],
        priority: int = 0,
        tag: str = "",
        args: tuple[Any, ...] = (),
    ) -> Event:
        """Schedule ``action(*args)`` to run ``delay`` time units from now.

        ``delay`` must be non-negative; zero-delay events are legal and
        fire after all events already queued for the current instant
        with the same priority (FIFO).

        ``priority``/``tag``/``args`` may be passed positionally — hot
        callers do, because a keyword call costs measurably more per
        event than a positional one at simulation volumes.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._push(self._now + delay, action, priority, tag, args)

    def schedule_at(
        self,
        time: float,
        action: Callable[..., None],
        priority: int = 0,
        tag: str = "",
        args: tuple[Any, ...] = (),
    ) -> Event:
        """Schedule ``action(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self._now}"
            )
        return self._push(time, action, priority, tag, args)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        until: float | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> float:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop before firing any event scheduled strictly after this
            time (events *at* ``until`` still fire).  The clock is
            advanced to ``until`` on return.
        max_events:
            Safety valve against runaway protocols; raises
            :class:`SimulationError` when exceeded.
        stop_when:
            Checked after every event; the run stops early as soon as it
            returns ``True``.

        Returns the simulated time at which the run stopped.
        """
        if self._running:
            raise SimulationError("scheduler is already running (re-entrant run)")
        self._running = True
        fired = 0
        # Hot-loop locals: attribute loads dominate a loop this tight,
        # and hoisting them pays for the observability checks below.
        observers = self._observers
        queue = self._queue
        pop = heapq.heappop
        try:
            while True:
                # A cancelled entry has no action (items: time,
                # priority, seq, action, args, tag, owner).
                while queue and queue[0][3] is None:
                    pop(queue)
                    self._cancelled_pending -= 1
                if not queue:
                    break
                event = queue[0]
                time = event[0]
                if until is not None and time > until:
                    self._now = max(self._now, until)
                    break
                pop(queue)
                # Fired: a late cancel() finds no owner and must not
                # skew the live count.
                event[6] = None
                self._now = time
                event[3](*event[4])
                self._events_processed += 1
                if observers:
                    for observer in observers:
                        observer(event)
                fired += 1
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "a protocol is probably not terminating"
                    )
                if stop_when is not None and stop_when():
                    break
        finally:
            self._running = False
        return self._now

    def step(self) -> bool:
        """Fire exactly one event.  Returns ``False`` when quiescent."""
        self._drop_cancelled()
        if not self._queue:
            return False
        event = heapq.heappop(self._queue)
        event[6] = None
        self._now = event[0]
        event[3](*event[4])
        self._events_processed += 1
        if self._observers:
            for observer in self._observers:
                observer(event)
        return True

    def iter_steps(self) -> Iterator[float]:
        """Yield the simulation time after each event; stops when quiescent."""
        while self.step():
            yield self._now

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by ``Event.cancel`` for a queued, live event."""
        self._cancelled_pending += 1
        self._cancels += 1

    def _drop_cancelled(self) -> None:
        while self._queue and self._queue[0][3] is None:
            heapq.heappop(self._queue)
            self._cancelled_pending -= 1
