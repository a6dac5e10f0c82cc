"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro broadcast --topology random:128,3 --scheme bpaths
    python -m repro broadcast --topology grid:8,8 --compare
    python -m repro election  --topology ring:64 --baselines
    python -m repro converge  --topology grid:6,6 --strategy bpaths --fail 4
    python -m repro globalfn  --n 64 --P 1 --C 2
    python -m repro lowerbound --max-depth 10
    python -m repro multicast --topology random:64,1 --messages 5
    python -m repro observe   --topology grid:8,8 --workload broadcast --stats
    python -m repro election  --topology ring:32 --monitor budgets,watchdog
    python -m repro bench --name hotpath_forwarding --perf
    python -m repro campaign tradeoff --n 48 --jobs 4 --rows-out rows.json

Campaigns (see ``docs/TUTORIAL.md`` §8): ``repro campaign`` turns a
sweep, Monte-Carlo run or bench workload into sharded tasks executed
across a process pool with a content-addressed result cache —
interrupt it freely, re-running resumes instead of recomputing, and
any ``--jobs`` count produces byte-identical rows.

All commands print the same row formats the benchmarks use, so shell
runs and `pytest benchmarks/` outputs are directly comparable.

Observability (see ``docs/API.md`` § Observability): every simulating
command accepts ``--trace-out`` (JSONL records), ``--chrome-trace``
(Perfetto/chrome://tracing JSON), ``--stats`` (live histograms) and
``--manifest-out``; any export also writes a run manifest recording the
seed, topology, ``(C, P)`` and git revision.  With ``--compare`` the
exports cover the ``--scheme`` run.

Conformance monitoring: ``--monitor budgets,invariants,watchdog`` (or
``--monitor all``) attaches online monitors that flag theorem-budget
breaches, invariant violations and stalls *while the run executes*;
any violation makes the command exit non-zero.  ``repro bench`` times
three microbenchmarks (the event kernel, the forwarding hot path and
flow control) and prints their metrics, optionally under perf
counters, cProfile or the sampling profiler; the exact counter pins
live in ``tests/test_bench.py`` and end-to-end timing in ``bench/``.

Congestion: ``--link-rate``/``--link-buffer`` enable credit-based
flow control on every link (senders stall when the downstream buffer
is full); ``repro observe --congestion`` renders the queue records the
links write to the trace as a text heatmap, next to each direction's
totals, and ``--monitor netcalc`` cross-checks the
live queues against closed-form network-calculus delay/backlog bounds
(see ``docs/TUTORIAL.md`` §9).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

from .metrics import format_table
from .network import bfs_tree, topologies
from .network.builder import TopologySpecError, from_spec, topology_from_spec
from .network.network import Network, UnknownNodeError
from .sim import FixedDelays

BROADCAST_SCHEMES = ("bpaths", "flood", "direct", "dfs")


def _broadcast(scheme: str, net, root):
    """Run one broadcast scheme on ``net`` from ``root``.

    Flooding needs no topology knowledge; the other schemes get the
    omniscient adjacency and ID lookup, computed only for them.  Only
    the scheme's own module is imported.
    """
    from .core.broadcast import run_standalone_broadcast

    if scheme == "flood":
        from .core.flooding import FloodingBroadcast

        return run_standalone_broadcast(
            net, lambda api: FloodingBroadcast(api, root=root), root
        )
    if scheme == "dfs":
        from .core.dfs_broadcast import DfsBroadcast as protocol
    else:
        from .core.broadcast import BranchingPathsBroadcast, DirectBroadcast

        protocol = BranchingPathsBroadcast if scheme == "bpaths" else DirectBroadcast
    adjacency = net.adjacency()
    ids = net.id_lookup  # one bound method for every node's protocol
    return run_standalone_broadcast(
        net, lambda api: protocol(api, root=root, adjacency=adjacency, ids=ids), root
    )


def _elect(net, factory, starters=None):
    """Run one leader election to quiescence; the leader, or ``-``."""
    net.attach(factory)
    net.start(starters)
    net.run_to_quiescence(max_events=10_000_000)
    winners = [v for v, f in net.outputs_for_key("is_leader").items() if f]
    return winners[0] if winners else "-"


# ----------------------------------------------------------------------
# Run context
# ----------------------------------------------------------------------
class _RunContext:
    """One run command's networks and the observability its flags ask for.

    :meth:`network` builds each network the command needs, with its
    delays, flow control and ``--scenario`` events.  On the observed
    network it also installs, in this order, live stats, the flight
    recorder and the monitors, which judge it as a ``command`` run of
    ``scheme``.  The recorder must see an event before a monitor alerts
    on it, since the alert dumps the ring.  :meth:`finish` renders the
    alerts, writes the exports and the manifest, and returns the exit
    code.  Each flag's hook installs nothing when the flag is absent.
    ``story`` is the scenario the command replays itself (``scenario
    run``); a ``--scenario`` file sets it when a network is built.
    """

    def __init__(self, args: argparse.Namespace, command: str,
                 scheme: str | None = None, *, trace: bool = False,
                 story=None) -> None:
        self.args, self.command, self.scheme = args, command, scheme
        self.trace = trace or bool(args.trace_out or args.chrome_trace)
        self.story = story
        self.net = self.stats = self.host = None

    def network(self, *, observed: bool = True):
        args = self.args
        net = from_spec(
            args.topology,
            delays=FixedDelays(args.C, args.P),
            trace=observed and self.trace,
            trace_capacity=args.trace_capacity,
        )
        if args.link_rate is not None or args.link_buffer is not None:
            net.set_flow_control(rate=args.link_rate, buffer=args.link_buffer)
        if args.scenario:
            # Events only: the command keeps its own topology and delays,
            # so any workload replays under any failure story.
            from .scenario.compiler import compile_scenario
            from .scenario.spec import ScenarioSpec

            self.story = ScenarioSpec.load(args.scenario)
            compiled = compile_scenario(net, self.story)
            print(
                f"scenario {compiled.name!r}: {compiled.events} event(s) scheduled "
                f"through t={compiled.last_event_time:g}"
            )
        if not observed:
            return net
        self.net = net
        if args.stats:
            from .obs.live import LiveStats

            self.stats = LiveStats().install(net)
        recorder = None
        if args.flight_recorder:
            from .obs.recorder import FlightRecorder

            recorder = FlightRecorder(
                net, capacity=args.flight_capacity, path=args.flight_recorder
            ).install()
            signals = "alert, uncaught exception"
            if recorder.install_signal():
                signals += ", or SIGUSR1"
            print(
                f"flight recorder armed: last {recorder.capacity} scheduler "
                f"events -> {args.flight_recorder} on {signals}"
            )
            args._recorder = recorder  # main() dumps it on a crash
        if args.monitor:
            from .obs.monitors import MonitorHost, monitors_from_spec

            monitors, notes = monitors_from_spec(
                net, args.monitor, command=self.command, scheme=self.scheme,
                churn=self.story is not None and self.story.churns,
            )
            for note in notes:
                print(note)

            def announce(alert) -> None:
                # Announced as it fires: before the run's summary table.
                print(f"ALERT [{alert.monitor}] t={alert.time:g}: {alert.message}")
                if recorder is not None:
                    recorder.note_alert(alert)

            self.host = MonitorHost(net, monitors, on_alert=announce).install()
        return net

    def finish(self, command: str, **extra) -> int:
        """Render the alerts, write the exports, print the live stats and
        write the manifest; exit code 1 if a monitor saw a violation."""
        args, net, code = self.args, self.net, 0
        if self.host is not None:
            from .obs.monitors import render_alerts

            print()
            print(render_alerts(self.host.finish()))
            code = 1 if self.host.violations else 0
            extra.update(alerts=len(self.host.alerts),
                         violations=len(self.host.violations))
        if args.trace_out:
            from .obs.exporters import records_to_jsonl

            path = records_to_jsonl(net.trace, args.trace_out)
            dropped = f", {net.trace.dropped} dropped" if net.trace.dropped else ""
            print(f"trace written to {path} ({len(net.trace)} records{dropped})")
        if args.chrome_trace:
            from .obs.exporters import write_chrome_trace
            from .obs.spans import build_spans
            from .sim.trace import TraceKind

            spans = build_spans(net.trace)
            ncu_spans = sum(1 for s in spans if s.category == "ncu")
            queue_records = [r for r in net.trace if r.kind is TraceKind.QUEUE]
            path = write_chrome_trace(args.chrome_trace, spans,
                                      counters=queue_records)
            queues = (f"; {len(queue_records)} queue counter samples"
                      if queue_records else "")
            print(
                f"chrome trace written to {path} ({len(spans)} spans; "
                f"{ncu_spans} ncu-job spans = {net.metrics.system_calls} "
                f"system calls total{queues})"
            )
        if self.stats is not None:
            self.stats.uninstall()
            print()
            print(self.stats.render())
        manifest_out = args.manifest_out
        if manifest_out is None and (args.trace_out or args.chrome_trace):
            anchor = Path(args.chrome_trace or args.trace_out)
            manifest_out = anchor.with_suffix(".manifest.json")
        if manifest_out is not None:
            from .obs.manifest import RunManifest

            if args.link_rate is not None:
                extra.setdefault("link_rate", args.link_rate)
            if args.link_buffer is not None:
                extra.setdefault("link_buffer", args.link_buffer)
            manifest = RunManifest.collect(
                net, command=command, topology=args.topology, C=args.C, P=args.P,
                seed=getattr(args, "seed", None), **extra,
            )
            print(f"run manifest written to {manifest.write(manifest_out)}")
        return code


# ----------------------------------------------------------------------
# Argument types
# ----------------------------------------------------------------------
def _monitor_spec(value: str) -> str:
    """argparse type for ``--monitor``: validate names at parse time."""
    from .obs.monitors import MONITOR_NAMES

    names = {part.strip() for part in value.split(",") if part.strip()}
    unknown = sorted(names - set(MONITOR_NAMES) - {"all"})
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown monitor(s) {', '.join(unknown)}; choose from "
            f"{', '.join(MONITOR_NAMES)} or 'all'"
        )
    return value


def _fraction(value: str):
    """An exact fraction such as ``1/3``.  An integer stays an ``int``,
    so parsing ``campaign --P``'s default imports no ``fractions`` (which
    loads ``decimal``) into a campaign that never reads it."""
    try:
        return int(value)
    except ValueError:
        pass
    from fractions import Fraction

    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def _bounded(kind, minimum=None, *, above=None, maximum=None):
    """argparse type: a ``kind`` number (int, float or fraction) that is
    ``>= minimum``, ``> above`` and ``<= maximum``, where given.  NaN
    fails every bound."""

    def parse(value: str):
        number = kind(value)
        if minimum is not None and not number >= minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if above is not None and not number > above:
            raise argparse.ArgumentTypeError(f"must be > {above}, got {value}")
        if maximum is not None and not number <= maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return number

    parse.__name__ = kind.__name__.lstrip("_")  # argparse's "invalid int value"
    return parse


def _starters(value: str) -> str:
    """argparse type: ``all`` or one node id, kept as given."""
    if value != "all":
        try:
            int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be 'all' or a node id, got {value!r}"
            ) from None
    return value


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_broadcast(args: argparse.Namespace) -> int:
    if args.show_plan:
        from .analysis.render import render_labelled_tree, render_paths

        net = from_spec(args.topology, delays=FixedDelays(args.C, args.P))
        if args.root not in net.nodes:
            raise UnknownNodeError(f"no node {args.root!r} in the network")
        tree = bfs_tree(net.adjacency(), args.root)
        print("spanning tree with Section 3.1 labels:")
        print(render_labelled_tree(tree))
        print("\npath decomposition (broadcast waves):")
        print(render_paths(tree))
        print()
    ctx = _RunContext(args, "broadcast", args.scheme)
    rows = []
    for scheme in BROADCAST_SCHEMES if args.compare else (args.scheme,):
        net = ctx.network(observed=scheme == args.scheme)
        run = _broadcast(scheme, net, args.root)
        rows.append(
            [scheme, net.n, net.m, run.coverage, run.system_calls,
             run.completion_time(), run.metrics.hops]
        )
    print(format_table(
        ["scheme", "n", "m", "covered", "system_calls", "time", "hops"],
        rows,
        title=f"broadcast from node {args.root} on {args.topology} "
              f"(C={args.C}, P={args.P})",
    ))
    return ctx.finish("broadcast", scheme=args.scheme, root=args.root)


def cmd_election(args: argparse.Namespace) -> int:
    from .core.election import LeaderElection

    contenders = [("new (Cidon-Gopal-Kutten)", lambda api: LeaderElection(api))]
    if args.baselines:
        from .core.election_baselines import ChangRoberts, HirschbergSinclair

        contenders += [
            ("Chang-Roberts", lambda api: ChangRoberts(api)),
            ("Chang-Roberts worst", lambda api: ChangRoberts(api, direction=-1)),
            ("Hirschberg-Sinclair", lambda api: HirschbergSinclair(api)),
        ]
    ctx = _RunContext(args, "election")
    rows = []
    for name, factory in contenders:
        # Exports cover the paper's algorithm (the first contender).
        net = ctx.network(observed=name == contenders[0][0])
        if args.baselines and name != contenders[0][0] and not _is_ring(net):
            rows.append([name, net.n, "-", "-", "-", "(needs a ring)"])
            continue
        leader = _elect(net, factory,
                        None if args.starters == "all" else [int(args.starters)])
        snap = net.metrics.snapshot()
        tours = snap.system_calls_by_kind.get("tour", 0) + snap.system_calls_by_kind.get("return", 0)
        rows.append(
            [name, net.n, leader, tours or "-", snap.system_calls, net.scheduler.now]
        )
    print(format_table(
        ["algorithm", "n", "leader", "tour+return", "total_sc", "time"],
        rows,
        title=f"leader election on {args.topology} "
              f"(Theorem 5 bound: 6n = {6 * rows[0][1]})",
    ))
    return ctx.finish("election", starters=args.starters)


def _is_ring(net) -> bool:
    return all(node.ncu.degree == 2 for node in net.nodes.values())


def cmd_converge(args: argparse.Namespace) -> int:
    from .core.topology_maintenance import attach_topology_maintenance, converge_by_rounds
    from .scenario.spec import random_link_failures

    ctx = _RunContext(args, "converge")
    net = ctx.network()
    attach_topology_maintenance(net, strategy=args.strategy, scope=args.scope)
    rows = []
    result = converge_by_rounds(net, max_rounds=args.max_rounds)
    rows.append(["cold start", result.rounds, result.system_calls])
    if args.fail:
        failures = random_link_failures(net.topology(), count=args.fail, seed=args.seed)
        for event in failures:
            net.fail_link(*event.target)
        net.run_to_quiescence()
        result = converge_by_rounds(net, max_rounds=args.max_rounds)
        rows.append([f"{len(failures)} link failures", result.rounds,
                     result.system_calls])
    print(format_table(
        ["event", "rounds", "system_calls"],
        rows,
        title=f"topology maintenance on {args.topology} "
              f"(strategy={args.strategy}, scope={args.scope})",
    ))
    return ctx.finish("converge", strategy=args.strategy, scope=args.scope,
                      failures=args.fail)


def cmd_globalfn(args: argparse.Namespace) -> int:
    from .analysis.sweeps import tradeoff_sweep
    from .core.opt_tree import OptTreeBuilder

    builder = OptTreeBuilder(args.P, args.C)
    t_opt, tree = builder.optimal_tree_for(args.n)
    print(f"optimal tree for n={args.n}, P={args.P}, C={args.C}:")
    print(f"  completion time : {float(t_opt)}")
    print(f"  root degree     : {tree.degree_of_root()}")
    print(f"  depth           : {tree.depth()}\n")
    ratios = [0, 1, 2, 4, 8, 16]
    rows = [
        [f"{row.ratio:g}:1", float(row.optimal_time), row.root_degree, row.depth,
         float(row.star_time), float(row.binary_time), float(row.path_time)]
        for row in tradeoff_sweep(args.n, ratios, P=args.P, jobs=args.jobs)
    ]
    print(format_table(
        ["C:P", "t_opt", "root_deg", "depth", "t_star", "t_binary", "t_path"],
        rows,
        title=f"trade-off sweep at n={args.n} (Section 5):",
    ))
    return 0


def cmd_lowerbound(args: argparse.Namespace) -> int:
    from .core.lowerbound import coverage_rounds, greedy_schedule, theorem3_lower_bound
    from .core.paths import decompose_paths, max_chain_depth

    rows = []
    for depth in range(1, args.max_depth + 1):
        adjacency = topologies.complete_binary_tree(depth).adjacency()
        tree = bfs_tree({u: tuple(sorted(nbrs)) for u, nbrs in adjacency.items()}, 0)
        rows.append(
            [depth, len(tree), theorem3_lower_bound(depth),
             coverage_rounds(tree, greedy_schedule(tree)),
             max_chain_depth(decompose_paths(tree))]
        )
    print(format_table(
        ["depth", "n", "thm3_lower", "greedy", "bpaths"],
        rows,
        title="one-way broadcast rounds on complete binary trees "
              "(Theorem 3 vs. achieved):",
    ))
    return 0


def cmd_multicast(args: argparse.Namespace) -> int:
    from .core.group_multicast import run_group_multicast

    ctx = _RunContext(args, "multicast")
    net = ctx.network()
    run = run_group_multicast(net, args.root, bodies=list(range(args.messages)))
    print(f"hardware multicast group on {args.topology}:")
    print(f"  setup: {run.setup_calls} system calls, {run.setup_time} time")
    print(f"  per message: {run.per_message_calls[0] if run.per_message_calls else '-'} "
          f"system calls, {run.per_message_time[0] if run.per_message_time else '-'} time")
    print(f"  coverage: {run.coverage}/{net.n - 1} non-root nodes")
    return ctx.finish("multicast", root=args.root, messages=args.messages)


def _alert_summary(records) -> str:
    """Per-monitor ALERT counts for a record stream (satellite of E17).

    Always one line, so trace readers can grep for it: either
    ``alerts by monitor: none`` or ``alerts by monitor: name=count, ...``.
    """
    from collections import Counter

    from .sim.trace import TraceKind

    counts = Counter(
        rec.detail.get("monitor", "?")
        for rec in records
        if rec.kind is TraceKind.ALERT
    )
    if not counts:
        return "alerts by monitor: none"
    return "alerts by monitor: " + ", ".join(
        f"{name}={count}" for name, count in sorted(counts.items())
    )


def _render_observation(args: argparse.Namespace, spans, queue_records,
                        footer: str | None, label: str) -> None:
    """The span summary, timeline and queue heatmap of one run, live or
    replayed; ``queue_records`` is None when no heatmap is wanted."""
    from .obs.timeline import render_congestion_heatmap, render_timeline, span_summary_table

    print()
    print(span_summary_table(spans, title="reconstructed spans"))
    if args.timeline:
        print()
        print(render_timeline(
            spans,
            width=args.timeline_width,
            limit=args.limit,
            title=f"timeline ({label})",
        ))
    if queue_records is not None:
        print()
        print(render_congestion_heatmap(
            queue_records,
            width=args.timeline_width,
            limit=args.heat_limit or None,
            title=f"queue occupancy ({label})",
        ))
    if footer is not None:
        print()
        print(footer)


def cmd_observe(args: argparse.Namespace) -> int:
    """Run one workload fully instrumented and render its timeline."""
    from .obs.spans import build_spans

    if args.from_trace:
        from .obs.exporters import TraceLoadError, records_from_jsonl
        from .sim.trace import TraceKind

        try:
            records = records_from_jsonl(args.from_trace)
        except TraceLoadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"loaded {len(records)} trace records from {args.from_trace}")
        queue_records = [r for r in records if r.kind is TraceKind.QUEUE]
        _render_observation(args, build_spans(records), queue_records or None,
                            _alert_summary(records), args.from_trace)
        return 0

    scheme = args.scheme if args.workload == "broadcast" else None
    ctx = _RunContext(args, args.workload, scheme, trace=True)
    net = ctx.network()
    if args.workload == "broadcast":
        run = _broadcast(args.scheme, net, args.root)
        print(
            f"{args.scheme} broadcast on {args.topology}: "
            f"covered {run.coverage}/{net.n}, {run.system_calls} system "
            f"calls, completed at t={run.completion_time():g}"
        )
    else:
        from .core.election import LeaderElection

        leader = _elect(net, lambda api: LeaderElection(api))
        print(
            f"election on {args.topology}: leader {leader}, "
            f"{net.metrics.system_calls} system calls, t={net.scheduler.now:g}"
        )
    queue_records = summary = None
    if args.congestion:
        from .obs.timeline import render_congestion_summary
        from .sim.trace import TraceKind

        # The records ``--from-trace`` replays: both render one heatmap.
        queue_records = [r for r in net.trace if r.kind is TraceKind.QUEUE]
        summary = render_congestion_summary(net.flow_states())
        dropped = net.trace.dropped
        if dropped:
            # A full trace keeps its first records: the heatmap stops
            # where they do, while the table reads the links' totals.
            stops = (
                f"ends at t={queue_records[-1].time:g}, its last kept QUEUE record"
                if queue_records else "kept no QUEUE record"
            )
            summary = (
                f"note: the trace dropped {dropped} records, so the heatmap "
                f"{stops}; the table below covers the whole run\n\n{summary}"
            )
    _render_observation(args, build_spans(net.trace), queue_records, summary,
                        f"{args.workload} on {args.topology}")
    return ctx.finish("observe", workload=args.workload, scheme=scheme)


def cmd_topology_info(args: argparse.Namespace) -> int:
    """Shape summary of a topology spec, without running anything."""
    try:
        topology = topology_from_spec(args.spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    adjacency = topology.adjacency()
    n = len(adjacency)
    degrees = [len(neighbors) for neighbors in adjacency.values()]
    m = sum(degrees) // 2
    rows: list[list[object]] = [
        ["nodes", n],
        ["links", m],
        ["degree min", min(degrees, default=0)],
        ["degree mean", f"{2 * m / n:.2f}" if n else "0"],
        ["degree max", max(degrees, default=0)],
    ]
    if args.exact_diameter:
        rows.append(["diameter (exact)", topologies.diameter(adjacency)])
    else:
        rows.append(["diameter (two-sweep bound)", topologies.pseudo_diameter(adjacency)])

    if args.build_memory:
        from .obs.perf import measure_build_bytes_per_node

        # Retained construction bytes (topology excluded).
        per_node = measure_build_bytes_per_node(
            lambda: Network(topology, trace=False), nodes=n
        )
        rows.append(["build bytes/node", f"{per_node:,.0f}"])
        rows.append(["build memory (est)", f"{per_node * n / 1e6:,.1f} MB"])

    print(format_table(["property", "value"], rows,
                       title=f"topology {args.spec}"))
    return 0


def _print_profile(name: str, profiler, args: argparse.Namespace) -> None:
    """Dump one benchmark's cProfile stats and print a top-N cumulative
    table.

    Perf work should start from data: this is the profiling entry point
    ``docs/PERFORMANCE.md`` points at.
    """
    import io
    import pstats

    dump = Path(args.out_dir) / f"PROFILE_{name}.pstats"
    dump.parent.mkdir(parents=True, exist_ok=True)
    profiler.dump_stats(dump)
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(args.profile_top)
    print(f"--- profile: {name} (top {args.profile_top} by cumulative "
          f"time; full dump: {dump}) ---")
    print(stream.getvalue())


def _write_flamegraph(name: str, sampler, args: argparse.Namespace) -> None:
    """Write one benchmark's sampled stacks as collapsed text and
    speedscope JSON."""
    base = Path(args.out_dir)
    collapsed = sampler.write_collapsed(base / f"FLAME_{name}.collapsed.txt")
    speedscope = sampler.write_speedscope(
        base / f"FLAME_{name}.speedscope.json", name=name
    )
    print(f"flamegraph: {speedscope} ({sampler.samples} samples; "
          f"collapsed stacks: {collapsed})")


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the timed microbenchmarks and print each one's metrics.

    ``--perf`` counters and the ``--flamegraph`` sampler leave the
    deterministic metrics as they are; ``--profile`` (cProfile) inflates
    the wall metrics.
    """
    from .obs.bench import benchmark_names, render_metrics, run_benchmark
    from .obs.perf import PerfCounters, SamplingProfiler

    registered = benchmark_names()
    if args.name is None:
        names = list(registered)
    else:
        names = [part.strip() for part in args.name.split(",") if part.strip()]
    unknown = [name for name in names if name not in registered]
    if not names or unknown:
        what = (f"unknown benchmark {unknown[0]!r}" if unknown
                else f"--name {args.name!r} selects no benchmark")
        print(f"error: {what}; choose from {', '.join(registered)}",
              file=sys.stderr)
        return 2
    if args.profile:
        import cProfile

        print("note: profiling inflates wall_ms / deflates events_per_sec\n")
    for name in names:
        profiler = cProfile.Profile() if args.profile else None
        sampler = (SamplingProfiler(hz=args.flamegraph_hz).start()
                   if args.flamegraph else None)
        if profiler is not None:
            profiler.enable()
        try:
            doc = run_benchmark(name, perf=args.perf)
        finally:
            if profiler is not None:
                profiler.disable()
            if sampler is not None:
                sampler.stop()
        if profiler is not None:
            _print_profile(name, profiler, args)
        if sampler is not None:
            _write_flamegraph(name, sampler, args)
        if args.perf:
            print(PerfCounters.from_dict(doc["perf"]).render(
                title=f"{name}: perf attribution"
            ))
            print()
        print(render_metrics(doc, title=f"{name}: {doc['description']}"))
        print()
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    """Run one scenario spec (``--spec FILE`` or the seeded churn preset),
    or search its adversarial delay space."""
    from .scenario.spec import ScenarioSpec, churn_scenario

    try:
        if args.spec:
            spec = ScenarioSpec.load(args.spec)
        else:
            spec = churn_scenario(
                args.topology,
                seed=args.churn_seed,
                C=args.C,
                P=args.P,
                crashes=args.crashes,
                partition=args.partition,
                spacing=args.spacing,
            )
        if args.spec_out:
            print(f"scenario spec written to {spec.save(args.spec_out)}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.action == "run":
        from .scenario.runner import run_scenario

        # The spec owns the substrate: its topology and (C, P) override
        # the command-line flags so a saved spec replays exactly.
        args.topology, args.C, args.P = spec.topology, spec.C, spec.P
        if args.monitor is None:
            args.monitor = "churn"
        ctx = _RunContext(args, "scenario", story=spec)
        row = run_scenario(ctx.network(), spec, monitor=False)
        print(format_table(
            ["scenario", "final_time", "system_calls", "tour+return",
             "drops", "leader(s)", "components"],
            [[row["scenario"], f"{row['final_time']:g}", row["system_calls"],
              row["tour_return_calls"], row["drops"],
              ",".join(row["leaders"]) or "-", row["components"]]],
            title=f"scenario on {spec.topology} (C={spec.C:g}, P={spec.P:g}, "
                  f"{len(spec.events)} events)",
        ))
        return ctx.finish("scenario", scenario=spec.name, events=len(spec.events))

    # action == "search": explore delay assignments via the campaign.
    from .scenario.search import run_delay_search

    def announce(result) -> None:
        status = "cache" if result.status == "cached" else result.status
        print(f"[{status:>5}] {result.spec.label}")

    outcome, report = run_delay_search(
        spec,
        trials=args.trials,
        root_seed=args.root_seed,
        bias=args.bias,
        jobs=args.jobs,
        cache=None if args.no_cache else args.cache_dir,
        max_tasks=args.max_tasks,
        on_result=announce,
    )
    print()
    print(format_table(
        ["tasks", "executed", "cached", "failed", "skipped"],
        [[len(outcome.results), outcome.executed, outcome.cache_hits,
          len(outcome.failures), outcome.skipped]],
        title=f"delay search on {spec.name!r} at --jobs {args.jobs}",
    ))
    manifest_fields = dict(command="scenario-search", scenario=spec.name,
                           trials=args.trials, root_seed=args.root_seed)
    if report is None:
        # Failed or interrupted: no report, and the tail campaign prints.
        _campaign_files(args, outcome, None, **manifest_fields)
        return _campaign_exit(outcome)
    bound = report["calls_bound"]
    print()
    print(format_table(
        ["measure", "at bounds", "worst found", "worst seed", "closed-form"],
        [
            ["final time", f"{report['at_bounds_time']:g}",
             f"{report['worst_time']:g}",
             report["worst_time_seed"] if report["worst_time_seed"] is not None
             else "(at-bounds)",
             "-"],
            ["tour+return calls", report["at_bounds_calls"],
             report["worst_calls"],
             report["worst_calls_seed"] if report["worst_calls_seed"] is not None
             else "(at-bounds)",
             f"{bound:g}" if bound is not None else "-"],
        ],
        title=f"adversarial-delay search: {report['trials']} trials on "
              f"n={report['n']} ({report['violations']} churn violations)",
    ))
    rows_doc = {
        "workload": "scenario-search",
        "params": {"scenario": spec.to_dict(), "trials": args.trials,
                   "root_seed": args.root_seed, "bias": args.bias},
        "report": report,
        "rows": outcome.values(),
    }
    _campaign_files(args, outcome, rows_doc, **manifest_fields)
    if report["violations"]:
        print(f"error: {report['violations']} churn invariant violation(s) "
              "across the search", file=sys.stderr)
        return 1
    if not report["within_bounds"]:
        print(f"error: worst-found tour+return calls {report['worst_calls']} "
              f"exceed the closed-form bound {bound:g}", file=sys.stderr)
        return 1
    return 0


def _campaign_files(args: argparse.Namespace, outcome, rows_doc: dict | None,
                    **manifest_fields) -> None:
    """Write ``--rows-out`` (only for a complete campaign, whose
    ``rows_doc`` is not ``None``) and ``--manifest-out``."""
    if args.rows_out:
        if all(r.ok for r in outcome.results):
            import json

            path = Path(args.rows_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(rows_doc, indent=2, sort_keys=True) + "\n")
            print(f"rows written to {path}")
        else:
            print(f"rows NOT written to {args.rows_out} "
                  "(campaign incomplete; resume to finish)")
    if args.manifest_out:
        from .obs.manifest import CampaignManifest

        manifest = CampaignManifest.from_outcome(outcome, **manifest_fields)
        print(f"campaign manifest written to {manifest.write(args.manifest_out)}")


def _campaign_exit(outcome) -> int:
    """0 for a finished campaign, 1 if a task failed, 3 if ``--max-tasks``
    interrupted it (re-running resumes from the cache)."""
    if outcome.failures:
        first = outcome.failures[0]
        print(f"error: {len(outcome.failures)} task(s) failed "
              f"(first: {first.spec.label}: {first.error})", file=sys.stderr)
        return 1
    if outcome.interrupted:
        print(f"interrupted after {outcome.executed} execution(s); "
              f"{outcome.skipped} task(s) pending — re-run to resume "
              "from the cache")
        return 3
    return 0


CAMPAIGN_WORKLOADS = ("tradeoff", "montecarlo", "bench")


class _ProgressTicker:
    """Single-line ``\\r``-rewritten stderr campaign progress display.

    Replaces the per-task announce lines under ``--progress``: one line
    carrying done/total, cache hits, retry count and an EWMA of task
    settlement rate, updated as each task settles.  Pure display —
    feeds off the engine's ``on_result`` callback and never touches
    results.
    """

    def __init__(self, total: int) -> None:
        self.total = total
        self.done = 0
        self.cache_hits = 0
        self.retries = 0
        self._rate: float | None = None
        self._last = time.monotonic()

    def update(self, result) -> None:
        now = time.monotonic()
        self.done += 1
        if result.status == "cached":
            self.cache_hits += 1
        if result.attempts > 1:
            self.retries += result.attempts - 1
        instant = 1.0 / max(now - self._last, 1e-9)
        self._last = now
        # EWMA smooths the burst of instant cache settlements against
        # slow fresh executions.
        self._rate = (
            instant if self._rate is None else 0.3 * instant + 0.7 * self._rate
        )
        sys.stderr.write(
            f"\r[campaign] {self.done}/{self.total} done | "
            f"{self.cache_hits} cached | {self.retries} retries | "
            f"{self._rate:.1f} tasks/s "
        )
        sys.stderr.flush()

    def finish(self) -> None:
        """Terminate the ticker line so later output starts clean."""
        if self.done:
            sys.stderr.write("\n")
            sys.stderr.flush()


def _campaign_specs(args: argparse.Namespace) -> tuple[list, dict]:
    """Build the spec list and the parameter block for one campaign.

    The parameter block goes into the campaign manifest and the rows
    file header; it names the grid, never the execution (no job count,
    no cache state), so rows files compare byte-identical across runs.
    """
    from .exec.task import TaskSpec

    if args.workload == "tradeoff":
        from .analysis.sweeps import tradeoff_specs

        ratios = [_fraction(part.strip())
                  for part in args.ratios.split(",") if part.strip()]
        specs = tradeoff_specs(args.n, ratios, P=args.P)
        params = {"n": args.n, "ratios": [str(r) for r in ratios],
                  "P": str(args.P)}
    elif args.workload == "montecarlo":
        from .sim import derive_seed

        if args.topology is not None:
            # Fixed topology: only the delays vary with the seed, so
            # every worker serves the campaign from its substrate pool.
            # A bad spec fails here, before any task runs.
            topology_from_spec(args.topology)
            graph, name = {"topology": args.topology}, args.topology
        else:
            graph, name = {"n": args.n, "edge_prob": args.edge_prob}, f"n={args.n}"
        specs = [
            TaskSpec.make(
                "repro.exec.workloads:election_calls_per_node",
                seed=derive_seed(args.root_seed, "montecarlo", i),
                **graph,
                label=f"mc[{i}]({name})",
            )
            for i in range(args.seeds)
        ]
        params = {"seeds": args.seeds, "root_seed": args.root_seed, **graph}
    else:  # bench
        from .obs.bench import benchmark_names

        names = ([part.strip() for part in args.names.split(",") if part.strip()]
                 if args.names else list(benchmark_names()))
        specs = [
            TaskSpec.make(
                "repro.exec.workloads:bench_counters",
                name=name,
                label=f"bench:{name}",
            )
            for name in names
        ]
        params = {"names": names}
    return specs, params


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run one sharded, cached campaign; see docs/TUTORIAL.md §8."""
    from .exec.engine import run_campaign

    try:
        specs, params = _campaign_specs(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not specs:
        print("error: campaign has no tasks", file=sys.stderr)
        return 2

    status_tags = {"ok": "ran  ", "cached": "cache", "failed": "FAIL ",
                   "skipped": "skip "}

    def announce(result) -> None:
        note = f"  ({result.error})" if result.error else ""
        retried = f"  [attempt {result.attempts}]" if result.attempts > 1 else ""
        print(f"[{status_tags[result.status]}] {result.spec.label}"
              f"{retried}{note}")

    ticker = _ProgressTicker(len(specs)) if args.progress else None
    outcome = run_campaign(
        specs,
        jobs=args.jobs,
        cache=None if args.no_cache else args.cache_dir,
        timeout=args.timeout,
        retries=args.retries,
        max_tasks=args.max_tasks,
        on_result=ticker.update if ticker is not None else announce,
        perf=args.perf,
    )
    if ticker is not None:
        ticker.finish()

    print()
    print(format_table(
        ["tasks", "executed", "cached", "failed", "skipped", "retries",
         "wall_ms"],
        [[len(outcome.results), outcome.executed, outcome.cache_hits,
          len(outcome.failures), outcome.skipped, outcome.retries_used,
          f"{outcome.wall_ms:.0f}"]],
        title=f"campaign {args.workload} at --jobs {args.jobs}",
    ))

    if args.perf:
        merged = outcome.merged_perf()
        if merged is not None:
            from .obs.perf import PerfCounters

            print()
            print(PerfCounters.from_dict(merged).render(
                title="campaign perf attribution (all tasks merged)"
            ))
        else:
            print("no perf data collected (every task came from the cache)")

    rows_doc = {
        "workload": args.workload,
        "params": params,
        "rows": [r.value for r in outcome.results],
    }
    _campaign_files(args, outcome, rows_doc, command="campaign",
                    workload=args.workload, **params)
    return _campaign_exit(outcome)


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def cmd_report(args: argparse.Namespace) -> int:
    from .reporting import generate_report

    path = generate_report(args.out)
    print(f"report written to {path}")
    for artifact in sorted(path.parent.glob("*.csv")):
        print(f"  {artifact.name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Cidon-Gopal-Kutten (PODC 1988): "
        "fast-network algorithms under the system-call cost measure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--topology", default="random:64,0",
                       help="e.g. ring:64, grid:6,8, random:128,7 (default %(default)s)")
        p.add_argument("--C", type=_bounded(float, 0), default=0.0,
                       help="hardware delay bound (default %(default)s)")
        p.add_argument("--P", type=_bounded(float, 0), default=1.0,
                       help="software delay bound (default %(default)s)")
        obs = p.add_argument_group("observability")
        obs.add_argument("--trace-out", metavar="PATH", default=None,
                         help="write the run's trace records as JSON Lines")
        obs.add_argument("--chrome-trace", metavar="PATH", default=None,
                         help="write a chrome://tracing / Perfetto span JSON")
        obs.add_argument("--stats", action="store_true",
                         help="stream bounded live statistics and print them")
        obs.add_argument("--manifest-out", metavar="PATH", default=None,
                         help="run-manifest path (default: next to a trace export)")
        obs.add_argument("--trace-capacity", type=_bounded(int, 0), default=None,
                         metavar="N",
                         help="cap retained trace records (excess is counted, "
                              "not stored)")
        obs.add_argument("--monitor", type=_monitor_spec, default=None,
                         metavar="LIST",
                         help="comma list of online conformance monitors "
                              "(budgets, invariants, watchdog, netcalc, "
                              "churn, or 'all'); violations make the "
                              "command exit non-zero")
        p.add_argument("--scenario", metavar="FILE", default=None,
                       help="compile a scenario spec's failure/churn events "
                            "onto this run (the command keeps its own "
                            "topology and delays; see 'repro scenario')")
        fc = p.add_argument_group("flow control")
        fc.add_argument("--link-rate", type=_bounded(float, above=0), default=None, metavar="R",
                        help="per-link bandwidth in packets per time unit; "
                             "enables credit-based flow control "
                             "(default: unlimited)")
        fc.add_argument("--link-buffer", type=_bounded(int, 1), default=None, metavar="B",
                        help="per-link buffer in packets; senders stall "
                             "while the downstream buffer is full "
                             "(default: unbounded)")
        obs.add_argument("--flight-recorder", metavar="PATH", default=None,
                         help="keep a bounded ring of the last scheduler "
                              "events; dump it as replayable JSONL on "
                              "monitor alert, uncaught exception or SIGUSR1")
        obs.add_argument("--flight-capacity", type=_bounded(int, 1), default=512,
                         metavar="N",
                         help="flight-recorder ring size "
                              "(default %(default)s events)")

    def pool(g) -> None:
        """The campaign engine's execution flags; results never depend on them."""
        g.add_argument("--jobs", type=_bounded(int, 1), default=1, metavar="N",
                       help="worker processes (default %(default)s); rows are "
                            "byte-identical for any N")
        g.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                       help="content-addressed result cache "
                            "(default %(default)s)")
        g.add_argument("--no-cache", action="store_true",
                       help="recompute everything; do not read or write the cache")

    p = sub.add_parser("broadcast", help="one topology broadcast (E1/E2)")
    common(p)
    p.add_argument("--scheme", choices=BROADCAST_SCHEMES, default="bpaths")
    p.add_argument("--compare", action="store_true",
                   help="run every scheme on the same graph")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--show-plan", action="store_true",
                   help="render the labelled tree and path decomposition")
    p.set_defaults(func=cmd_broadcast)

    p = sub.add_parser("election", help="leader election (E5/E6)")
    common(p)
    p.add_argument("--baselines", action="store_true",
                   help="also run the ring classics (ring topologies only)")
    p.add_argument("--starters", type=_starters, default="all",
                   help="'all' or a single initiating node id")
    p.set_defaults(func=cmd_election)

    p = sub.add_parser("converge", help="topology maintenance (E4)")
    common(p)
    p.add_argument("--strategy", choices=("bpaths", "flood", "dfs"),
                   default="bpaths")
    p.add_argument("--scope", choices=("local", "full"), default="full")
    p.add_argument("--fail", type=_bounded(int, 0), default=0,
                   help="random link failures to inject after convergence")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rounds", type=_bounded(int, 1), default=64)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("globalfn", help="optimal aggregation trees (E7-E10)")
    p.add_argument("--n", type=_bounded(int, 1), default=64)
    p.add_argument("--P", type=_bounded(float, above=0), default=1.0)
    p.add_argument("--C", type=_bounded(float, 0), default=1.0)
    p.add_argument("--jobs", type=_bounded(int, 1), default=1, metavar="N",
                   help="shard the trade-off sweep across N processes "
                        "(default %(default)s; rows are identical for any N)")
    p.set_defaults(func=cmd_globalfn)

    p = sub.add_parser("lowerbound", help="one-way broadcast bounds (E3)")
    p.add_argument("--max-depth", type=_bounded(int, 1), default=10)
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser(
        "report", help="run every experiment family, write REPORT.md + CSVs"
    )
    p.add_argument("--out", default="report",
                   help="output directory (default %(default)s)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("multicast", help="hardware multicast groups (E12)")
    common(p)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--messages", type=_bounded(int, 0), default=3)
    p.set_defaults(func=cmd_multicast)

    p = sub.add_parser(
        "observe",
        help="run one workload fully instrumented: spans, timeline, stats",
    )
    common(p)
    p.add_argument("--workload", choices=("broadcast", "election"),
                   default="broadcast")
    p.add_argument("--scheme", choices=BROADCAST_SCHEMES, default="bpaths",
                   help="broadcast scheme (broadcast workload only)")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--timeline", action=argparse.BooleanOptionalAction,
                   default=True, help="render the text timeline")
    p.add_argument("--timeline-width", type=_bounded(int, 1), default=56)
    p.add_argument("--limit", type=_bounded(int, 0), default=40,
                   help="max timeline rows (default %(default)s)")
    p.add_argument("--from-trace", metavar="PATH", default=None,
                   help="skip simulating: rebuild spans from a JSONL trace "
                        "written with --trace-out")
    p.add_argument("--congestion", action="store_true",
                   help="render the run's per-link queue records as a "
                        "congestion heatmap + per-link stall summary "
                        "(pairs with --link-rate/--link-buffer)")
    p.add_argument("--heat-limit", type=_bounded(int, 0), default=40, metavar="N",
                   help="max heatmap rows: only the N hottest link "
                        "directions are shown, the rest are summarised "
                        "in a footer (default %(default)s; 0 = no limit)")
    p.set_defaults(func=cmd_observe)

    p = sub.add_parser(
        "topology",
        help="topology utilities: shape summaries without simulating",
    )
    tsub = p.add_subparsers(dest="topology_command", required=True)
    tp = tsub.add_parser(
        "info",
        help="node/link counts, degree stats, diameter and estimated "
             "build memory for a spec",
    )
    tp.add_argument("spec",
                    help="topology spec, e.g. fat_tree:32, clos:16,8,4, "
                         "torus:8,8,8, dragonfly:9,4,2, grid:6,8")
    tp.add_argument("--exact-diameter", action="store_true",
                    help="compute the exact diameter (O(n*m) BFS sweep) "
                         "instead of the two-sweep pseudo-diameter bound")
    tp.add_argument("--build-memory", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="also build the substrate once under tracemalloc "
                         "and report retained bytes per node")
    tp.set_defaults(func=cmd_topology_info)

    p = sub.add_parser(
        "bench",
        help="time the in-package microbenchmarks and print their metrics",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="benchmarks:\n"
               "  kernel_scale          pure kernel throughput, "
               "400k-event pending set\n"
               "  hotpath_forwarding    end-to-end ANR streaming, line:64\n"
               "  congested_forwarding  flow-controlled bottleneck line, "
               "over-driven source",
    )
    p.add_argument("--name", default=None, metavar="LIST",
                   help="comma list of benchmarks (default: all three)")
    p.add_argument("--out-dir", default=".", metavar="DIR",
                   help="where --profile and --flamegraph write their files "
                        "(default: current directory)")
    p.add_argument("--profile", action="store_true",
                   help="run each benchmark under cProfile: dump "
                        "PROFILE_<name>.pstats into --out-dir and print a "
                        "top-N cumulative table (wall metrics include "
                        "profiler overhead)")
    p.add_argument("--profile-top", type=_bounded(int, 1), default=15, metavar="N",
                   help="rows in the --profile table (default %(default)s)")
    p.add_argument("--perf", action="store_true",
                   help="collect per-subsystem perf counters and print the "
                        "attribution table (metrics are unaffected)")
    p.add_argument("--flamegraph", action="store_true",
                   help="sample each benchmark's stack and write "
                        "FLAME_<name>.collapsed.txt + .speedscope.json "
                        "into --out-dir")
    p.add_argument("--flamegraph-hz", type=_bounded(float, above=0),
                   default=251.0, metavar="HZ",
                   help="sampling rate for --flamegraph "
                        "(default %(default)s)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "scenario",
        help="run a churn scenario (crashes, partitions, re-elections) "
             "or search its adversarial delay space against the "
             "closed-form bounds",
    )
    p.add_argument("action", choices=("run", "search"),
                   help="run: execute one spec under ChurnMonitor; "
                        "search: explore seeded delay assignments via a "
                        "resumable campaign")
    common(p)
    p.add_argument("--spec", metavar="FILE", default=None,
                   help="scenario spec JSON (default: generate the seeded "
                        "churn preset from the flags below)")
    p.add_argument("--spec-out", metavar="PATH", default=None,
                   help="save the spec (loaded or generated) as JSON")
    preset = p.add_argument_group("churn preset (without --spec)")
    preset.add_argument("--churn-seed", type=int, default=0,
                        help="seed for the generated churn story "
                             "(default %(default)s)")
    preset.add_argument("--crashes", type=_bounded(int, 1), default=1,
                        help="nodes to crash mid-partition "
                             "(default %(default)s)")
    preset.add_argument("--partition", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="include the partition/heal phase")
    preset.add_argument("--spacing", type=_bounded(float, above=0),
                        default=200.0,
                        help="time between scenario phases "
                             "(default %(default)s)")
    search = p.add_argument_group("delay search (action 'search')")
    search.add_argument("--trials", type=_bounded(int, 0), default=20,
                        help="seeded adversarial assignments to try, plus "
                             "the at-bounds run (default %(default)s)")
    search.add_argument("--root-seed", type=int, default=0,
                        help="root for trial-seed derivation "
                             "(default %(default)s)")
    search.add_argument("--bias", type=_bounded(float, 0, maximum=1), default=0.5,
                        help="probability a delay pins at its bound "
                             "(default %(default)s)")
    pool(search)
    search.add_argument("--max-tasks", type=_bounded(int, 0), default=None, metavar="K",
                        help="execute at most K fresh tasks then stop "
                             "(exit 3); re-running resumes from the cache")
    search.add_argument("--rows-out", default=None, metavar="PATH",
                        help="write the search rows + report as JSON")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser(
        "campaign",
        help="sharded, cached experiment campaign: sweeps, Monte-Carlo "
             "or bench counters across a process pool, resumable from "
             "its result cache",
    )
    p.add_argument("workload", choices=CAMPAIGN_WORKLOADS,
                   help="which task family to run")
    pool(p)
    p.add_argument("--timeout", type=_bounded(float, above=0), default=None,
                   metavar="SECONDS",
                   help="per-task wall-clock limit (worker is killed; "
                        "needs --jobs >= 2)")
    p.add_argument("--retries", type=_bounded(int, 0), default=2, metavar="K",
                   help="extra attempts per task after a worker crash "
                        "(default %(default)s)")
    p.add_argument("--max-tasks", type=_bounded(int, 0), default=None, metavar="K",
                   help="execute at most K fresh tasks then stop (exit 3); "
                        "re-running resumes from the cache")
    p.add_argument("--rows-out", default=None, metavar="PATH",
                   help="write the deterministic result rows as JSON "
                        "(only once the campaign is complete)")
    p.add_argument("--manifest-out", default=None, metavar="PATH",
                   help="write a campaign manifest (shards, cache hits, "
                        "retries, per-task wall time)")
    p.add_argument("--progress", action="store_true",
                   help="single-line stderr ticker (done/total, cache "
                        "hits, retries, EWMA tasks/sec) instead of "
                        "per-task lines")
    p.add_argument("--perf", action="store_true",
                   help="collect per-task perf counters in the workers, "
                        "merge them campaign-wide, print the attribution "
                        "table and record it in the manifest")
    grid = p.add_argument_group("workload parameters")
    grid.add_argument("--n", type=_bounded(int, 1), default=32,
                      help="problem size: tradeoff tree size / montecarlo "
                           "graph size (default %(default)s)")
    grid.add_argument("--ratios", default="0,1,2,4,8,16", metavar="LIST",
                      help="tradeoff: comma list of C/P ratios, exact "
                           "fractions allowed (default %(default)s)")
    grid.add_argument("--P", type=_bounded(_fraction, above=0), default="1",
                      metavar="FRACTION",
                      help="tradeoff: software delay bound "
                           "(default %(default)s)")
    grid.add_argument("--seeds", type=_bounded(int, 1), default=16,
                      help="montecarlo: number of derived seeds "
                           "(default %(default)s)")
    grid.add_argument("--root-seed", type=int, default=0,
                      help="montecarlo: root for seed derivation "
                           "(default %(default)s)")
    grid.add_argument("--edge-prob", type=_bounded(float, 0, maximum=1), default=0.18,
                      help="montecarlo: random-graph edge probability "
                           "(default %(default)s)")
    grid.add_argument("--topology", default=None, metavar="SPEC",
                      help="montecarlo: pin the topology to a builder spec "
                           "(e.g. random:64,16); only delays vary per seed, "
                           "and workers reuse pooled substrates (overrides "
                           "--n/--edge-prob)")
    grid.add_argument("--names", default=None, metavar="LIST",
                      help="bench: comma list of benchmarks (default: all)")
    p.set_defaults(func=cmd_campaign)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point (``python -m repro ...``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TopologySpecError, UnknownNodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # An armed flight recorder turns a crash into a postmortem:
        # dump the ring before the traceback propagates.
        recorder = getattr(args, "_recorder", None)
        if recorder is not None:
            path = recorder.dump(reason="exception")
            print(f"flight recorder dumped to {path} (uncaught exception)",
                  file=sys.stderr)
        raise
    finally:
        # SIGUSR1 goes back: its handler holds the recorder and network.
        recorder = getattr(args, "_recorder", None)
        if recorder is not None:
            recorder.uninstall_signal()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
