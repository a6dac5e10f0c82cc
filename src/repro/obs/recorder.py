"""Flight recorder: a bounded postmortem ring of scheduler events.

The trace (:mod:`repro.sim.trace`) answers "what happened, in full" and
is therefore too expensive to leave on for big runs.  The flight
recorder answers the postmortem question — "what were the last N things
the scheduler did before it went wrong" — at ring-buffer cost: a
``deque(maxlen=N)`` of :class:`~repro.sim.trace.TraceRecord` entries
(kind :attr:`TraceKind.SCHED_EVENT`), fed by a scheduler observer, plus
any monitor alerts routed through :meth:`FlightRecorder.note_alert`.

Dump triggers:

* **monitor alert** — :meth:`note_alert` appends an ALERT record shaped
  exactly like :class:`~repro.obs.monitors.MonitorHost`'s trace records
  and (by default) dumps immediately;
* **uncaught exception** — wrap the risky region in
  ``with recorder.capture(): ...`` (the CLI arms this around every
  command when ``--flight-recorder`` is given);
* **SIGUSR1** — :meth:`install_signal` hooks the signal on platforms
  that have it, so a wedged run can be told to dump from another
  terminal.

Dumps are JSONL via :func:`~repro.obs.exporters.records_to_jsonl`, so a
postmortem replays through the standard pipeline::

    repro observe --from-trace postmortem.jsonl

Records carry only simulated time, sequence numbers, tags and
priorities — no wall-clock — so a dump is byte-deterministic for a
fixed seed (locked by ``tests/test_recorder.py``).
"""

from __future__ import annotations

import signal
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from ..sim.trace import TraceKind, TraceRecord
from .exporters import records_to_jsonl

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network
    from ..sim.events import Event
    from .monitors import Alert


class FlightRecorder:
    """Bounded ring of the last N scheduler events, dumpable postmortem."""

    def __init__(
        self,
        net: "Network",
        *,
        capacity: int = 512,
        path: str | Path = "postmortem.jsonl",
        dump_on_alert: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.net = net
        self.capacity = capacity
        self.path = Path(path)
        self.dump_on_alert = dump_on_alert
        self._ring: deque[TraceRecord] = deque(maxlen=capacity)
        self._signal_previous: Any = None
        self._signal_num: int | None = None
        #: Why the most recent dump happened (``None`` = never dumped).
        self.last_reason: str | None = None
        #: Paths written so far (repeat dumps to one path appear once per dump).
        self.dumps: list[Path] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def install(self) -> "FlightRecorder":
        """Subscribe to the network's scheduler; returns self (idempotent).
        Install again after ``Network.reset()``, which renews the scheduler."""
        self.net.scheduler.add_observer(self._on_event)
        return self

    def uninstall(self) -> None:
        """Unsubscribe (idempotent; the ring keeps its contents)."""
        self.net.scheduler.remove_observer(self._on_event)

    def _on_event(self, event: "Event") -> None:
        self._ring.append(
            TraceRecord(
                time=event.time,
                kind=TraceKind.SCHED_EVENT,
                node=None,
                detail={
                    "seq": event.seq,
                    "tag": event.tag,
                    "priority": event.priority,
                },
            )
        )

    def note_alert(self, alert: "Alert") -> None:
        """Record a monitor alert; dumps at once when ``dump_on_alert``.

        The record's detail is :meth:`Alert.trace_detail
        <repro.obs.monitors.Alert.trace_detail>`, as in the record
        :class:`~repro.obs.monitors.MonitorHost` writes to the trace, so
        alert spans from a postmortem render identically to live-traced
        ones.
        """
        self._ring.append(
            TraceRecord(
                time=alert.time,
                kind=TraceKind.ALERT,
                node=None,
                detail=alert.trace_detail(),
            )
        )
        if self.dump_on_alert:
            self.dump(reason=f"alert:{alert.monitor}")

    def records(self) -> list[TraceRecord]:
        """Current ring contents, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    # ------------------------------------------------------------------
    # Dump triggers
    # ------------------------------------------------------------------
    def dump(self, path: str | Path | None = None, *, reason: str = "manual") -> Path:
        """Write the ring as JSONL; returns the path written.

        The output is a valid ``--from-trace`` input for ``repro
        observe`` and is byte-deterministic for a deterministic run
        (records carry simulated time only, never wall-clock).
        """
        out = Path(path) if path is not None else self.path
        out.parent.mkdir(parents=True, exist_ok=True)
        records_to_jsonl(self._ring, out)
        self.last_reason = reason
        self.dumps.append(out)
        return out

    @contextmanager
    def capture(self) -> Iterator["FlightRecorder"]:
        """Context manager: dump the ring if the body raises, then re-raise."""
        try:
            yield self
        except BaseException:
            self.dump(reason="exception")
            raise

    def install_signal(self, signum: int | None = None) -> bool:
        """Dump on a signal (default ``SIGUSR1``); ``False`` if unavailable.

        Chains to any previously installed Python-level handler.  Must
        be called from the main thread (a :mod:`signal` restriction).
        """
        if signum is None:
            signum = getattr(signal, "SIGUSR1", None)
            if signum is None:  # pragma: no cover - non-POSIX platforms
                return False
        previous = signal.getsignal(signum)

        def _handler(signo: int, frame: Any) -> None:
            self.dump(reason=f"signal:{signo}")
            if callable(previous) and previous not in (
                signal.SIG_IGN,
                signal.SIG_DFL,
            ):
                previous(signo, frame)

        signal.signal(signum, _handler)
        self._signal_previous = previous
        self._signal_num = signum
        return True

    def uninstall_signal(self) -> None:
        """Restore the handler :meth:`install_signal` replaced (idempotent)."""
        if self._signal_num is not None:
            signal.signal(self._signal_num, self._signal_previous)
            self._signal_num = None
            self._signal_previous = None
