"""One benchmark repetition: a fresh interpreter that runs the repro CLI.

The harness (``bench/run.py``) spawns this file once per repetition::

    python bench/child.py LEDGER TRACE ARGV...

It imports ``repro.cli`` and calls ``repro.cli.main(ARGV)``, exactly as
``python -m repro ARGV...`` would, after wrapping a few public
functions from the outside; no file under ``src/`` changes.  What it
learns goes to ``LEDGER``, one JSON record per line:

``{"kind": "run", "pid", "t0", "t1", "events"}``
    One call of the event kernel's ``run``.  Campaign workers are
    forked from this process, inherit the wrappers and the open ledger,
    and append their own records (``O_APPEND`` keeps lines whole).
``{"kind": "campaign", "t0", "t1"}``
    One call of ``run_campaign``.
``{"kind": "exit", "code", "kernel", ...}``
    Written once, after ``main`` returns.

Timestamps are ``time.perf_counter()``, which on Linux reads
``CLOCK_MONOTONIC`` and so is comparable with the harness's stamps.

With ``TRACE`` = 1 every call in :data:`TIMED` also records a span
(name, start, end, parent) in flat arrays; they are written to
``LEDGER.spans`` when ``main`` returns and turned into per-layer self
times by :func:`layer_totals`.
"""

from __future__ import annotations

import gc
import importlib.abc
import importlib.machinery
import json
import os
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

#: Every public call the traced repetition times:
#: ``(layer, group, module, qualified name)``.  A method listed on a
#: class is also wrapped on each subclass that overrides it.  Groups
#: split a layer into the metrics the harness reports.
TIMED: tuple[tuple[str, str, str, str], ...] = (
    ("network", "build", "repro.network", "graph_from_spec"),
    ("network", "build", "repro.network.network", "Network.__init__"),
    ("network", "views", "repro.network.network", "Network.adjacency"),
    ("network", "views", "repro.network.network", "Network.active_graph"),
    ("network", "views", "repro.network.network", "Network.diameter"),
    ("network", "reset", "repro.network.network", "Network.reset"),
    ("network", "acquire", "repro.exec.substrate", "SubstratePool.acquire"),
    ("network", "link_state", "repro.network.network", "Network.fail_link"),
    ("network", "link_state", "repro.network.network", "Network.restore_link"),
    ("network", "link_state", "repro.network.network", "Network.partition"),
    ("network", "link_state", "repro.network.network", "Network.heal"),
    ("network", "link_state", "repro.network.network", "Network.crash_node"),
    ("network", "link_state", "repro.network.network", "Network.restart_node"),
    ("sim", "run", "repro.sim.scheduler", "Scheduler.run"),
    ("sim", "schedule", "repro.sim.scheduler", "Scheduler.schedule"),
    ("sim", "schedule", "repro.sim.scheduler", "Scheduler.schedule_at"),
    ("hardware.switch", "receive", "repro.hardware.switch",
     "SwitchingSubsystem.receive"),
    ("hardware.node", "send", "repro.hardware.ncu", "NodeApi.send"),
    ("hardware.node", "inject", "repro.hardware.node", "Node.inject"),
    ("hardware.link", "info_at", "repro.hardware.link", "Link.info_at"),
    ("hardware.link", "fc_forward", "repro.hardware.link", "Link.fc_forward"),
    ("hardware.link", "fifo_arrival", "repro.hardware.link", "Link.fifo_arrival"),
    ("hardware.ncu", "enqueue", "repro.hardware.ncu", "NCU.enqueue"),
    ("hardware.ncu", "enqueue_packet", "repro.hardware.ncu", "NCU.enqueue_packet"),
    ("hardware.ncu", "set_timer", "repro.hardware.ncu", "NodeApi.set_timer"),
    ("hardware.ncu", "report", "repro.hardware.ncu", "NodeApi.report"),
    ("metrics", "system_call", "repro.metrics.accounting",
     "MetricsCollector.count_system_call"),
    ("metrics", "hop", "repro.metrics.accounting", "MetricsCollector.count_hop"),
    ("metrics", "injection", "repro.metrics.accounting",
     "MetricsCollector.count_injection"),
    ("metrics", "copy", "repro.metrics.accounting", "MetricsCollector.count_copy"),
    ("metrics", "drop", "repro.metrics.accounting", "MetricsCollector.count_drop"),
    ("core", "dispatch", "repro.network.protocol", "Protocol.dispatch"),
    ("core", "plan", "repro.network.spanning", "bfs_tree"),
    ("core", "plan", "repro.core.broadcast", "plan_broadcast"),
    ("core", "converged", "repro.core.topology_maintenance", "is_converged"),
    ("obs", "check", "repro.obs.monitors", "Monitor.check"),
    ("obs", "finish", "repro.obs.monitors", "Monitor.finish"),
    ("scenario", "compile", "repro.scenario.compiler", "compile_scenario"),
    ("scenario", "run", "repro.scenario.runner", "run_scenario"),
    ("exec", "engine", "repro.exec.engine", "run_campaign"),
    ("exec", "task", "repro.exec.workloads", "election_calls_per_node"),
    ("cli", "main", "repro.cli", "main"),
)


class Spans:
    """Flat, append-only span storage: four parallel arrays.

    A span's index is its position; ``parent`` is the index of the
    enclosing span or -1.  Children are always appended after their
    parent, which is what :func:`self_times` relies on.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.stack: list[int] = [-1]

    def intern(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def add(self, name_id: int, start: float, end: float) -> None:
        """Record a finished span under the currently open one."""
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1])
        self.start.append(start)
        self.end.append(end)

    def timed(self, fn, name_id: int, post=None):
        """``fn`` wrapped to record one span per call.

        ``post(args)`` runs after the end stamp, so what it costs lands
        in the caller's span, not in ``fn``'s.
        """
        name_ids, parents = self.name_id.append, self.parent.append
        starts, ends = self.start.append, self.end
        stack = self.stack
        push, pop = stack.append, stack.pop

        def wrapper(*args, **kwargs):
            index = len(ends)
            name_ids(name_id)
            parents(stack[-1])
            ends.append(0.0)
            push(index)
            starts(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                pop()
                if post is not None:
                    post(args)

        return wrapper

    def write(self, path: Path) -> None:
        """Header line (names, count) followed by the four raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.end)}
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(fh)


def read_spans(path: Path) -> tuple[list[str], array, array, array, array]:
    """Inverse of :meth:`Spans.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        columns = []
        for code in ("i", "i", "d", "d"):
            column = array(code)
            column.fromfile(fh, count)
            columns.append(column)
    return (header["names"], *columns)


def self_times(name_id, parent, start, end, n_names: int):
    """Per-name ``(calls, self seconds, inclusive seconds)`` and the
    summed duration of top-level spans.

    A span's self time is its duration minus the time its child spans
    cover, so the self times of all spans add up to the top-level total.
    """
    count = len(end)
    covered = [0.0] * count
    for i in range(count):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    calls = [0] * n_names
    own = [0.0] * n_names
    inclusive = [0.0] * n_names
    top = 0.0
    for i in range(count):
        duration = end[i] - start[i]
        k = name_id[i]
        calls[k] += 1
        own[k] += duration - covered[i]
        inclusive[k] += duration
        if parent[i] < 0:
            top += duration
    return calls, own, inclusive, top


def layer_totals(path: Path) -> tuple[dict[str, list], float]:
    """``{"layer|group": [calls, self s, inclusive s]}`` of a spans file,
    and its top-level total."""
    names, name_id, parent, start, end = read_spans(path)
    calls, own, inclusive, top = self_times(name_id, parent, start, end, len(names))
    groups: dict[str, list] = {}
    for k, name in enumerate(names):
        acc = groups.setdefault(name.rsplit("|", 1)[0], [0, 0.0, 0.0])
        acc[0] += calls[k]
        acc[1] += own[k]
        acc[2] += inclusive[k]
    return groups, top


def _resolve(module, qualname: str):
    """``(owner, attribute)`` pairs to patch for one :data:`TIMED` entry."""
    if "." not in qualname:
        return [(module, qualname)]
    cls_name, attr = qualname.split(".")
    owners, todo = [], [getattr(module, cls_name)]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            owners.append((cls, attr))
        todo.extend(cls.__subclasses__())
    return owners


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's import of ``original`` at
    ``replacement`` (``from x import f`` copies the binding)."""
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Runs a callback right after a named module finishes loading."""

    def __init__(self, callbacks: dict) -> None:
        self.callbacks = callbacks

    def find_spec(self, name, path, target=None):
        callback = self.callbacks.pop(name, None)
        if callback is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        exec_module = spec.loader.exec_module

        def exec_then_patch(module):
            exec_module(module)
            callback(module)

        spec.loader.exec_module = exec_then_patch
        return spec


class Child:
    """State of one repetition: the ledger, and the spans when traced."""

    def __init__(self, ledger: Path, traced: bool) -> None:
        self.fd = os.open(ledger, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        self.spans = Spans() if traced else None
        self.networks: list = []
        self.pending_peak = 0
        self.queue_peak = 0

    def emit(self, **record) -> None:
        os.write(self.fd, json.dumps(record).encode() + b"\n")

    # -- the two wrappers every repetition carries ------------------------
    def stamp_run(self, run):
        emit = self.emit

        def stamped(sched, *args, **kwargs):
            before = sched.events_processed
            t0 = perf_counter()
            try:
                return run(sched, *args, **kwargs)
            finally:
                emit(kind="run", pid=os.getpid(), t0=t0, t1=perf_counter(),
                     events=sched.events_processed - before)

        return stamped

    def stamp_campaign(self, run_campaign):
        emit = self.emit

        def stamped(*args, **kwargs):
            t0 = perf_counter()
            try:
                return run_campaign(*args, **kwargs)
            finally:
                emit(kind="campaign", t0=t0, t1=perf_counter())

        return stamped

    def install_stamps(self) -> None:
        from repro.exec import engine
        from repro.sim import scheduler

        for owner, attr in _resolve(scheduler, "Scheduler.run"):
            setattr(owner, attr, self.stamp_run(owner.__dict__[attr]))
        original = engine.run_campaign
        stamped = self.stamp_campaign(original)
        engine.run_campaign = stamped
        _rebind(original, stamped)

    # -- traced repetition ----------------------------------------------
    def _post_hooks(self) -> dict:
        def note_pending(args):
            depth = args[0].pending_live
            if depth > self.pending_peak:
                self.pending_peak = depth

        def note_queue(args):
            depth = args[0].queue_peak
            if depth > self.queue_peak:
                self.queue_peak = depth

        return {
            "Scheduler.schedule": note_pending,
            "Scheduler.schedule_at": note_pending,
            "NCU.enqueue": note_queue,
            "Network.__init__": lambda args: self.networks.append(args[0]),
        }

    def install_spans(self) -> None:
        """Wrap every :data:`TIMED` call.

        Modules the CLI imports lazily (``repro.obs.monitors``,
        ``repro.exec.workloads``) are patched when they load, so the
        traced repetition imports nothing the untraced ones do not.
        """
        posts = self._post_hooks()
        by_module: dict[str, list] = {}
        for layer, group, module, qualname in TIMED:
            by_module.setdefault(module, []).append((layer, group, qualname))

        def patch(module) -> None:
            for layer, group, qualname in by_module[module.__name__]:
                for owner, attr in _resolve(module, qualname):
                    original = owner.__dict__[attr]
                    name = f"{layer}|{group}|{owner.__name__}.{attr}"
                    wrapped = self.spans.timed(
                        original, self.spans.intern(name), posts.get(qualname)
                    )
                    setattr(owner, attr, wrapped)
                    if isinstance(owner, type):
                        continue
                    _rebind(original, wrapped)

        lazy = {}
        for module in by_module:
            if module in sys.modules:
                patch(sys.modules[module])
            else:
                lazy[module] = patch
        if lazy:
            sys.meta_path.insert(0, _PatchOnImport(lazy))

    def link_totals(self) -> dict:
        """Flow-control counters of every network built, read after the run."""
        stalls, stall_time, occupancy = 0, 0.0, 0
        for net in self.networks:
            for _link, state in net.flow_states():
                stalls += state.stalls
                stall_time += state.stall_time
                occupancy = max(occupancy, state.max_occupancy)
        return {"stalls": stalls, "stall_sim_time": stall_time,
                "max_occupancy": occupancy}


def main(argv: list[str]) -> int:
    ledger, traced, cli_argv = Path(argv[0]), argv[1] == "1", argv[2:]
    child = Child(ledger, traced)
    spans = child.spans
    if spans is not None:
        t0 = perf_counter()
        import networkx  # noqa: F401
        t1 = perf_counter()
        import repro.cli
        t2 = perf_counter()
        spans.add(spans.intern("import|networkx|import networkx"), t0, t1)
        spans.add(spans.intern("import|repro|import repro.cli"), t1, t2)
    else:
        import repro.cli

    expected = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]).resolve()
    if expected not in Path(repro.cli.__file__).resolve().parents:
        print(f"error: imported {repro.cli.__file__}, not the checkout's "
              f"{expected}", file=sys.stderr)
        return 3

    child.install_stamps()
    if spans is not None:
        child.install_spans()
    try:
        code = repro.cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    sys.stdout.flush()

    from repro.sim.kernel import default_kernel

    record = {"kind": "exit", "code": code, "kernel": default_kernel()}
    if spans is not None:
        record.update(pending_peak=child.pending_peak, queue_peak=child.queue_peak,
                      link=child.link_totals())
        # What main left behind is cyclic garbage (nodes point at their
        # network): the untraced child frees it during interpreter
        # shutdown, where nothing can time it.  Collect it here instead,
        # as the ``exit`` layer.
        child.networks.clear()
        t0 = perf_counter()
        gc.collect()
        spans.add(spans.intern("exit|gc|gc.collect"), t0, perf_counter())
        spans_path = ledger.with_name(ledger.name + ".spans")
        spans.write(spans_path)
        record["spans"] = str(spans_path)
    child.emit(**record)
    os.close(child.fd)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
