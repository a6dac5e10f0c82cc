"""Observing a run never changes what it simulates.

Any subset of the CLI's observability flags, with or without an active
:class:`~repro.obs.perf.PerfCounters`, leaves every network a run
command builds with the counters of the bare run: system calls, hops,
injections, drops (totals, per node, per link and per kind), the final
time and the number of events.  Exit codes are not compared:
``--monitor all`` exits 1 when a monitor objects.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.network.network import Network
from repro.obs.perf import PerfCounters

BASE = (
    ("broadcast", "--topology", "grid:3,3"),
    ("broadcast", "--topology", "grid:3,3", "--compare", "--scheme", "dfs"),
    ("election", "--topology", "ring:6", "--baselines"),
    ("election", "--topology", "grid:3,3"),
    ("converge", "--topology", "grid:3,3", "--fail", "2"),
    ("converge", "--topology", "torus:3,3", "--link-rate", "1", "--link-buffer", "2"),
    ("multicast", "--topology", "grid:3,3"),
    # Crash, restart and reelect events: --monitor all skips the
    # invariants monitor here and the churn monitor checks the run.
    ("scenario", "run", "--topology", "grid:4,4", "--churn-seed", "3"),
    ("scenario", "run", "--topology", "clos:8,4,2", "--churn-seed", "1", "--crashes", "2"),
)
FLAGS = {
    "stats": lambda d: ["--stats"],
    "monitor": lambda d: ["--monitor", "all"],
    "trace-out": lambda d: ["--trace-out", str(d / "t.jsonl")],
    "chrome-trace": lambda d: ["--chrome-trace", str(d / "c.json")],
    "flight-recorder": lambda d: ["--flight-recorder", str(d / "fr.jsonl")],
}


def counters(argv: list[str], *, perf: bool) -> list[tuple]:
    """What each network the command built simulated, in build order."""
    built = []
    init = Network.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    Network.__init__ = record
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), \
                (PerfCounters() if perf else contextlib.nullcontext()):
            main(argv)
    finally:
        Network.__init__ = init
    return [(net.n, net.m, net.metrics.snapshot(), net.scheduler.now,
             net.scheduler.events_processed) for net in built]


_BARE: dict[tuple, list[tuple]] = {}


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    base=st.sampled_from(BASE),
    flags=st.sets(st.sampled_from(sorted(FLAGS))),
    perf=st.booleans(),
)
def test_observability_flags_leave_the_simulated_counters_alone(base, flags, perf):
    if base not in _BARE:
        _BARE[base] = counters(list(base), perf=False)
    with tempfile.TemporaryDirectory() as tmp:
        extra = [arg for flag in sorted(flags) for arg in FLAGS[flag](Path(tmp))]
        observed = counters([*base, *extra], perf=perf)
    assert observed == _BARE[base]
