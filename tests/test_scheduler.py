"""Unit tests for the discrete-event scheduler."""

from __future__ import annotations

import random

import pytest

from repro.sim import Event, Scheduler, SimulationError


def test_events_fire_in_time_order():
    sched = Scheduler()
    fired = []
    sched.schedule(3.0, lambda: fired.append("c"))
    sched.schedule(1.0, lambda: fired.append("a"))
    sched.schedule(2.0, lambda: fired.append("b"))
    sched.run()
    assert fired == ["a", "b", "c"]
    assert sched.now == 3.0


def test_same_time_events_fire_fifo():
    sched = Scheduler()
    fired = []
    for name in "abcde":
        sched.schedule(1.0, lambda name=name: fired.append(name))
    sched.run()
    assert fired == list("abcde")


def test_priority_breaks_ties_before_insertion_order():
    sched = Scheduler()
    fired = []
    sched.schedule(1.0, lambda: fired.append("low"), priority=2)
    sched.schedule(1.0, lambda: fired.append("high"), priority=0)
    sched.run()
    assert fired == ["high", "low"]


def test_zero_delay_event_fires_after_current_instant_peers():
    sched = Scheduler()
    fired = []

    def outer():
        fired.append("outer")
        sched.schedule(0.0, lambda: fired.append("inner"))

    sched.schedule(1.0, outer)
    sched.schedule(1.0, lambda: fired.append("peer"))
    sched.run()
    assert fired == ["outer", "peer", "inner"]


def test_negative_delay_rejected():
    sched = Scheduler()
    with pytest.raises(SimulationError):
        sched.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sched = Scheduler()
    sched.schedule(5.0, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.schedule_at(1.0, lambda: None)


def test_run_until_stops_clock_at_horizon():
    sched = Scheduler()
    fired = []
    sched.schedule(1.0, lambda: fired.append(1))
    sched.schedule(10.0, lambda: fired.append(10))
    sched.run(until=5.0)
    assert fired == [1]
    assert sched.now == 5.0
    sched.run()
    assert fired == [1, 10]


def test_run_until_fires_events_exactly_at_horizon():
    sched = Scheduler()
    fired = []
    sched.schedule(5.0, lambda: fired.append("at"))
    sched.run(until=5.0)
    assert fired == ["at"]


def test_stop_when_predicate():
    sched = Scheduler()
    fired = []
    for i in range(10):
        sched.schedule(float(i + 1), lambda i=i: fired.append(i))
    sched.run(stop_when=lambda: len(fired) >= 3)
    assert fired == [0, 1, 2]


def test_max_events_guard():
    sched = Scheduler()

    def rearm():
        sched.schedule(1.0, rearm)

    sched.schedule(1.0, rearm)
    with pytest.raises(SimulationError, match="max_events"):
        sched.run(max_events=100)


def test_cancelled_events_are_skipped():
    sched = Scheduler()
    fired = []
    event = sched.schedule(1.0, lambda: fired.append("cancelled"))
    sched.schedule(2.0, lambda: fired.append("kept"))
    event.cancel()
    sched.run()
    assert fired == ["kept"]


def test_step_advances_one_event():
    sched = Scheduler()
    fired = []
    sched.schedule(1.0, lambda: fired.append(1))
    sched.schedule(2.0, lambda: fired.append(2))
    assert sched.step() is True
    assert fired == [1]
    assert sched.step() is True
    assert sched.step() is False


def test_peek_time_skips_cancelled():
    sched = Scheduler()
    event = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    event.cancel()
    assert sched.peek_time() == 2.0


def test_events_processed_counter():
    sched = Scheduler()
    for _ in range(5):
        sched.schedule(1.0, lambda: None)
    sched.run()
    assert sched.events_processed == 5


def test_reentrant_run_rejected():
    sched = Scheduler()

    def reenter():
        sched.run()

    sched.schedule(1.0, reenter)
    with pytest.raises(SimulationError, match="re-entrant"):
        sched.run()


def test_iter_steps_yields_times():
    sched = Scheduler()
    sched.schedule(1.0, lambda: None)
    sched.schedule(2.5, lambda: None)
    assert list(sched.iter_steps()) == [1.0, 2.5]


# ----------------------------------------------------------------------
# Live-event accounting and observers (observability layer)
# ----------------------------------------------------------------------
def test_pending_live_excludes_cancelled():
    sched = Scheduler()
    keep = [sched.schedule(1.0, lambda: None) for _ in range(3)]
    doomed = [sched.schedule(2.0, lambda: None) for _ in range(2)]
    for event in doomed:
        event.cancel()
    assert sched.pending == 5  # cancelled events still occupy the heap
    assert sched.pending_live == 3
    keep[0].cancel()
    keep[0].cancel()  # double cancel must not double count
    assert sched.pending_live == 2


def test_pending_live_drains_to_zero():
    sched = Scheduler()
    event = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    event.cancel()
    sched.run()
    assert sched.pending == 0
    assert sched.pending_live == 0


def test_pending_live_unaffected_by_late_cancel_of_fired_event():
    sched = Scheduler()
    event = sched.schedule(1.0, lambda: None)
    sched.run()
    event.cancel()  # already fired: must not skew the live count
    sched.schedule(1.0, lambda: None)
    assert sched.pending_live == 1


def test_pending_live_with_peek_after_cancel():
    sched = Scheduler()
    event = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    event.cancel()
    assert sched.peek_time() == 2.0  # drops the cancelled head
    assert sched.pending == sched.pending_live == 1


def test_observers_see_every_fired_event():
    sched = Scheduler()
    seen = []
    sched.add_observer(lambda event: seen.append(event.time))
    sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    sched.run()
    assert seen == [1.0, 2.0]


def test_observer_fires_in_step_mode_and_removal_is_idempotent():
    sched = Scheduler()
    seen = []

    def observer(event):
        seen.append(event.tag)

    sched.add_observer(observer)
    sched.add_observer(observer)  # duplicate subscription is a no-op
    sched.schedule(1.0, lambda: None, tag="a")
    sched.step()
    assert seen == ["a"]
    sched.remove_observer(observer)
    sched.remove_observer(observer)
    sched.schedule(1.0, lambda: None, tag="b")
    sched.step()
    assert seen == ["a"]


def test_observer_exceptions_propagate():
    sched = Scheduler()

    def bad(event):
        raise RuntimeError("observer blew up")

    sched.add_observer(bad)
    sched.schedule(1.0, lambda: None)
    with pytest.raises(RuntimeError, match="observer blew up"):
        sched.run()


# ----------------------------------------------------------------------
# Handles, preemption and the queue ledger
# ----------------------------------------------------------------------
def test_stale_handle_cancel_leaves_later_events_alone():
    """A fired event's handle is dead: cancelling it is a no-op, and a
    later schedule() never hands back the same object."""
    sched = Scheduler()
    fired = []
    a = sched.schedule(1.0, lambda: fired.append("a"))
    sched.run()
    b = sched.schedule(1.0, lambda: fired.append("b"))
    a.cancel()
    assert b is not a
    assert sched.pending_live == 1
    sched.run()
    assert fired == ["a", "b"]


def test_zero_delay_lower_priority_preempts_same_instant_peers():
    """An action at priority 2 schedules a priority-0 event at the
    current instant; it fires before the remaining priority-2 peers."""
    sched = Scheduler()
    fired = []

    def first():
        fired.append("first")
        sched.schedule(0.0, lambda: fired.append("urgent"), 0, "urgent")

    sched.schedule(1.0, first, 2, "first")
    sched.schedule(1.0, lambda: fired.append("second"), 2, "second")
    sched.run()
    assert fired == ["first", "urgent", "second"]


def test_stop_when_mid_instant_then_same_instant_push_fires_last():
    sched = Scheduler()
    fired = []
    for name in "abcde":
        sched.schedule(1.0, lambda name=name: fired.append(name))
    sched.run(stop_when=lambda: len(fired) >= 2)
    assert fired == ["a", "b"]
    # Same-instant pushes after the early stop fire after the rest of
    # the instant's events (their seqs are higher).
    sched.schedule_at(1.0, lambda: fired.append("late"))
    sched.run()
    assert fired == ["a", "b", "c", "d", "e", "late"]


def test_run_until_then_earlier_push_fires_first():
    sched = Scheduler()
    fired = []
    sched.schedule(10.0, lambda: fired.append("late"))
    sched.run(until=5.0)
    assert sched.now == 5.0 and fired == []
    sched.schedule(2.0, lambda: fired.append("early"))  # t=7 < 10
    sched.run()
    assert fired == ["early", "late"]


def test_pending_ledger_balances_at_quiescence():
    sched = Scheduler()
    handles = [sched.schedule(float(i % 3), lambda: None) for i in range(20)]
    for handle in handles[::4]:
        handle.cancel()
    assert sched.pending_live == 15
    sched.run()
    assert sched.pending == sched.pending_live == 0
    assert sched.events_processed == 15


# ----------------------------------------------------------------------
# Randomized property: every fired event is the live minimum
# ----------------------------------------------------------------------
class _Script:
    """Seeded schedule/cancel workload checked against an order oracle.

    ``live`` maps each scheduled, not yet fired or cancelled event's
    ``seq`` to its handle.  When an event fires, its action first checks
    that it is the minimum ``(time, priority, seq)`` among ``live`` and
    that the clock reads its time; only then may it schedule children
    (zero-delay ones at mixed priorities can preempt the rest of the
    current instant).  Fired handles are kept and cancelled again at
    random: a stale cancel must never change the live count.
    """

    #: Delay mix: repeated constants (many events per instant), zero
    #: delays, and far-future values.
    DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 2.5, 7.0, 1500.0, 5000.0)

    def __init__(self, sched: Scheduler, rng: random.Random) -> None:
        self.sched = sched
        self.rng = rng
        self.live: dict[int, Event] = {}
        self.dead: list[Event] = []
        self.fired_keys: list[tuple[float, int, int]] = []

    def _add(self, delay: float, priority: int, spawn: bool) -> None:
        cell: list[Event] = []
        event = self.sched.schedule(delay, self._fire, priority, "", (cell, spawn))
        cell.append(event)
        self.live[event.seq] = event

    def _fire(self, cell: list[Event], spawn: bool) -> None:
        event = cell[0]
        key = (event.time, event.priority, event.seq)
        assert key == min((e.time, e.priority, e.seq) for e in self.live.values())
        assert self.sched.now == event.time
        del self.live[event.seq]
        self.dead.append(event)
        self.fired_keys.append(key)
        if spawn:
            rng = self.rng
            for _ in range(rng.randrange(3)):
                self._add(rng.choice((0.0, 0.0, 0.0, 1.0, 5000.0)),
                          rng.randrange(3), False)

    def push(self, count: int) -> None:
        rng = self.rng
        for _ in range(count):
            self._add(rng.choice(self.DELAYS), rng.randrange(3), rng.random() < 0.3)

    def cancel_some(self, count: int) -> None:
        rng = self.rng
        for _ in range(count):
            if not self.live:
                break
            event = self.live.pop(rng.choice(list(self.live)))
            event.cancel()
            event.cancel()  # double cancel must stay idempotent
        if self.dead:
            before = self.sched.pending_live
            rng.choice(self.dead).cancel()
            assert self.sched.pending_live == before

    def check(self) -> None:
        sched = self.sched
        assert sched.pending_live == len(self.live)
        expected = min((e.time for e in self.live.values()), default=None)
        assert sched.peek_time() == expected


@pytest.mark.parametrize("seed", range(8))
def test_randomized_scripts_fire_in_order(seed):
    sched = Scheduler()
    rng = random.Random(seed)
    script = _Script(sched, rng)
    for _ in range(10):
        script.push(rng.randrange(1, 40))
        script.cancel_some(rng.randrange(0, 6))
        script.check()
        mode = rng.random()
        if mode < 0.2:
            for _ in range(rng.randrange(1, 8)):
                assert sched.step() is bool(script.live)
        elif mode < 0.3:
            sched.peek_time()  # must not perturb anything
        elif mode < 0.8:
            until = sched.now + rng.choice((0.0, 1.0, 3.0, 50.0, 10000.0))
            sched.run(until=until)
            assert all(e.time > until for e in script.live.values())
        else:
            budget = rng.randrange(1, 15)
            base = sched.events_processed
            sched.run(stop_when=lambda: sched.events_processed - base >= budget)
            assert sched.events_processed - base == budget or not script.live
        script.check()
    script.push(5)
    sched.run()
    assert not script.live
    assert sched.pending == sched.pending_live == 0
    assert sched.peek_time() is None
    assert sched.events_processed == len(script.fired_keys)
    times = [key[0] for key in script.fired_keys]
    assert times == sorted(times)  # the clock never runs backwards
