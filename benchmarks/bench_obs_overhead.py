"""E16 — dormant observability hooks cost nothing measurable.

Three hook sites stay on the hot path, each behind one guard that
reads ``None`` (or an empty tuple) when nothing is installed:

* E16: the scheduler's observers, checked once per fired event in
  ``Scheduler.run``;
* E16c: credit flow control, checked once per hop in
  ``SwitchingSubsystem._forward`` (``link.fc``);
* E16d: the network probe, checked once per system call in
  ``NCU._serve``.

Each gate row names a live method, the names its hook reads and a
workload.  The comparison variant is generated from the live
function's own source: an AST pass drops every statement that names a
hook, the result is compiled in the defining module's globals, and it
is swapped in on the class for the baseline runs.  So a gate times the
real code path against itself minus exactly the hook, and no copy of
a hot function has to follow the code it measures.  The PerfCounters
handler timer has no row: it wraps ``Protocol.dispatch`` only while a
registry is active, so a dormant run holds none of its code.

Methodology: the live method and its variant are timed in
interleaved pairs, and which of the two runs first alternates from pair
to pair.  The gate is the median of the per-pair ratios live/variant.
A pair's two runs see the same machine phase, so host drift cancels
within the pair and a first-run or second-run advantage cancels across
pairs; the median ignores the pairs an outside burst lands on.  The
quartiles of the ratios are printed as the run's measured noise band.
``tests/test_overhead_gates.py`` checks the rows and the pairing
without timing.
"""

from __future__ import annotations

import __future__
import ast
import inspect
import textwrap
import statistics
import timeit
from contextlib import contextmanager
from typing import Callable, NamedTuple

import pytest

from repro.hardware.ncu import NCU
from repro.hardware.switch import SwitchingSubsystem
from repro.sim.scheduler import Scheduler

CHAINS = 64
EVENTS_PER_CHAIN = 600
FWD_LENGTH = 64
FWD_PACKETS = 200
FLOOD_SPEC = "complete:64"
PAIRS = 21
TOLERANCE = 1.05


# ----------------------------------------------------------------------
# Workloads: each runs once and returns the events it fired
# ----------------------------------------------------------------------
def chains_workload() -> int:
    """64 self-rescheduling event chains (the shape protocol runs make)."""
    scheduler = Scheduler()
    remaining = [EVENTS_PER_CHAIN] * CHAINS

    def make_step(chain: int):
        def step() -> None:
            remaining[chain] -= 1
            if remaining[chain] > 0:
                scheduler.schedule(1.0, step, priority=chain % 3)
        return step

    for chain in range(CHAINS):
        scheduler.schedule(float(chain % 5), make_step(chain))
    scheduler.run()
    return scheduler.events_processed


def forwarding_workload() -> int:
    """The hotpath_forwarding shape: 200 packets down a 64-node line."""
    from repro.hardware.anr import build_anr
    from repro.network.builder import from_spec
    from repro.network.protocol import Protocol
    from repro.sim import FixedDelays

    net = from_spec(f"line:{FWD_LENGTH}", delays=FixedDelays(0.1, 1.0))
    net.attach(lambda api: Protocol(api))
    header = build_anr(list(range(FWD_LENGTH)), net.id_lookup)
    source = net.node(0)
    for i in range(FWD_PACKETS):
        net.scheduler.schedule_at(
            0.01 * i, source.inject, args=(header, i), tag="inject"
        )
    net.run_to_quiescence(max_events=10_000_000)
    return net.scheduler.events_processed


def flood_workload() -> int:
    """A flood on a complete graph: 3,970 system calls on 64 nodes."""
    from repro.core import FloodingBroadcast, run_standalone_broadcast
    from repro.network.builder import from_spec
    from repro.sim import FixedDelays

    net = from_spec(FLOOD_SPEC, delays=FixedDelays(0.0, 1.0))
    run_standalone_broadcast(net, lambda api: FloodingBroadcast(api, root=0), 0)
    return net.scheduler.events_processed


class Row(NamedTuple):
    """One gate: ``cls.method`` timed with and without its ``hooks``."""

    experiment: str
    cls: type
    method: str
    hooks: tuple[str, ...]
    workload: Callable[[], int]


ROWS = (
    Row("E16", Scheduler, "run", ("observers",), chains_workload),
    Row("E16c", SwitchingSubsystem, "_forward", ("fc",), forwarding_workload),
    Row("E16d", NCU, "_serve", ("probe",), flood_workload),
)


# ----------------------------------------------------------------------
# The generated variant
# ----------------------------------------------------------------------
def _names_hook(node: ast.AST, hooks: tuple[str, ...]) -> bool:
    """Whether ``node``'s own code (not its nested statements) names a hook."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            continue
        if isinstance(child, ast.Name) and child.id in hooks:
            return True
        if _names_hook(child, hooks):
            return True
    return False


def _strip(node: ast.AST, hooks: tuple[str, ...]) -> int:
    """Drop from ``node``'s blocks every statement that names a hook.

    A compound statement whose header names one goes whole (``if fc is
    not None:`` with its body); otherwise the pass recurses into its
    blocks.  Returns how many statements were dropped.
    """
    dropped = 0
    for field, value in ast.iter_fields(node):
        if not isinstance(value, list):
            continue
        kept = []
        for child in value:
            if isinstance(child, ast.stmt) and _names_hook(child, hooks):
                dropped += 1
                continue
            if isinstance(child, ast.AST):
                dropped += _strip(child, hooks)
            kept.append(child)
        if len(kept) < len(value):
            setattr(node, field, kept or [ast.Pass()])
    return dropped


def stripped_variant(row: Row) -> tuple[Callable, ast.FunctionDef, int]:
    """``row``'s live method minus every statement naming a hook.

    Returns the compiled function, its AST and the number of statements
    dropped.  It is compiled in the defining module's globals, with the
    live source's line numbers.
    """
    live = row.cls.__dict__[row.method]
    if live.__code__.co_freevars:
        raise TypeError(f"{row.cls.__name__}.{row.method} closes over "
                        f"{live.__code__.co_freevars}; it cannot be recompiled")
    tree = ast.parse(textwrap.dedent(inspect.getsource(live)))
    func = tree.body[0]
    func.decorator_list = []
    dropped = _strip(func, row.hooks)
    ast.fix_missing_locations(tree)  # a block left empty holds a new ``pass``
    ast.increment_lineno(tree, live.__code__.co_firstlineno - 1)
    code = compile(tree, inspect.getsourcefile(live), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace: dict = {}
    exec(code, live.__globals__, namespace)
    return namespace[row.method], func, dropped


@contextmanager
def swapped(cls: type, name: str, fn: Callable):
    """``cls.name`` replaced by ``fn`` in this block."""
    live = cls.__dict__[name]
    setattr(cls, name, fn)
    try:
        yield
    finally:
        setattr(cls, name, live)


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------
def _measure(row: Row, fn: Callable) -> float:
    """Seconds for one workload run with ``fn`` as the row's method."""
    with swapped(row.cls, row.method, fn):
        return timeit.timeit(row.workload, number=1)


def paired_times(live: Callable[[], float], base: Callable[[], float],
                 pairs: int = PAIRS) -> list[tuple[float, float]]:
    """``pairs`` interleaved ``(live, base)`` timings; pair ``i`` runs
    ``live`` first when ``i`` is even and ``base`` first when it is odd."""
    times = []
    for i in range(pairs):
        if i % 2:
            b = base()
            t = live()
        else:
            t = live()
            b = base()
        times.append((t, b))
    return times


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.experiment)
def test_dormant_hook_within_noise(row, capsys):
    from conftest import emit

    target = f"{row.cls.__name__}.{row.method}"
    stripped, _, _ = stripped_variant(row)
    live_fn = row.cls.__dict__[row.method]
    events = row.workload()
    _measure(row, live_fn)  # warm-up
    _measure(row, stripped)
    times = paired_times(lambda: _measure(row, live_fn),
                         lambda: _measure(row, stripped))
    # The middle quartile is the median: the gated figure.
    low, ratio, high = statistics.quantiles([t / b for t, b in times], n=4)
    hooks = ", ".join(row.hooks)
    emit(
        capsys,
        f"{row.experiment}: dormant hook overhead in {target} "
        f"({events} events, median of {PAIRS} alternating pairs)",
        ["variant", "ns_per_event", "vs_stripped", "pair_ratio_quartiles"],
        [[f"{hooks} stripped (generated)",
          statistics.median(b for _, b in times) * 1e9 / events, 1.0, "-"],
         [f"{hooks} present, dormant",
          statistics.median(t for t, _ in times) * 1e9 / events,
          ratio, f"{low:.3f}-{high:.3f}"]],
    )
    assert ratio <= TOLERANCE, (
        f"{row.experiment}: the dormant {'/'.join(row.hooks)} check costs "
        f"{ratio:.3f}x {target} without it, median of {PAIRS} pairs "
        f"(quartiles {low:.3f}-{high:.3f}; budget {TOLERANCE}x)"
    )


if __name__ == "__main__":  # pragma: no cover - manual runs
    import sys

    sys.exit(pytest.main([__file__, "-x", "-q", "-s"]))
