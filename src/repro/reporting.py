"""One-shot reproduction report: every experiment family, one command.

``python -m repro report --out report/`` runs a condensed version of
each experiment (E1–E14), writes a markdown report with all the tables,
and saves each table as CSV next to it.  Sizes are chosen so the whole
run finishes in well under a minute; the benches in ``benchmarks/``
remain the full-size versions.
"""

from __future__ import annotations

import math
import operator
import random
from pathlib import Path
from typing import Any, Sequence

from .analysis.causality import CausalityRecorder, last_causal_tree, message_counts
from .analysis.export import rows_to_csv, slugify
from .analysis.sweeps import size_growth, tradeoff_sweep
from .core.broadcast import BranchingPathsBroadcast, DirectBroadcast, run_standalone_broadcast
from .core.election import LeaderElection
from .core.election_baselines import ChangRoberts, HirschbergSinclair
from .core.flooding import FloodingBroadcast
from .core.globalfn import (
    ChattyTreeAggregation,
    TreeAggregation,
    optimal_spanning_tree,
    run_tree_aggregation,
)
from .core.group_multicast import run_group_multicast
from .core.lowerbound import coverage_rounds, greedy_schedule, theorem3_lower_bound
from .core.paths import decompose_paths, max_chain_depth
from .core.topology_maintenance import attach_topology_maintenance, converge_by_rounds
from .metrics import format_table
from .network import Network, bfs_tree, topologies
from .sim import FixedDelays, NotConvergedError


class ReportBuilder:
    """Accumulates titled tables; renders markdown and CSV artifacts."""

    def __init__(self, out_dir: str | Path) -> None:
        self.out_dir = Path(out_dir)
        self.sections: list[tuple[str, str, Sequence[str], list[list[Any]]]] = []

    def add(self, experiment: str, title: str, headers: Sequence[str],
            rows: list[list[Any]]) -> None:
        self.sections.append((experiment, title, headers, rows))

    def write(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        lines = [
            "# Reproduction report",
            "",
            "Generated by `python -m repro report`.  Paper: Cidon, Gopal,",
            "Kutten — *New Models and Algorithms for Future Networks*,",
            "PODC 1988.  See EXPERIMENTS.md for the claim-by-claim",
            "discussion; this file is the raw regenerated data.",
            "",
        ]
        for experiment, title, headers, rows in self.sections:
            csv_name = f"{slugify(experiment)}_{slugify(title, max_length=40)}.csv"
            rows_to_csv(self.out_dir / csv_name, headers, rows)
            lines.append(f"## {experiment} — {title}")
            lines.append("")
            lines.append("```")
            lines.append(format_table(headers, rows))
            lines.append("```")
            lines.append(f"(CSV: `{csv_name}`)")
            lines.append("")
        path = self.out_dir / "REPORT.md"
        path.write_text("\n".join(lines))
        return path


def _broadcast_rows() -> list[list[Any]]:
    rows = []
    for n in (15, 63, 255):
        p = min(0.5, 2.5 * math.log(n) / n)
        g = topologies.random_connected(n, p, seed=n)
        record = [n, len(g.edges)]
        for scheme in ("bpaths", "flood", "direct"):
            net = Network(g, delays=FixedDelays(0.0, 1.0))
            adjacency = net.adjacency()
            ids = net.id_lookup
            factory = {
                "bpaths": lambda api: BranchingPathsBroadcast(
                    api, root=0, adjacency=adjacency, ids=ids
                ),
                "flood": lambda api: FloodingBroadcast(api, root=0),
                "direct": lambda api: DirectBroadcast(
                    api, root=0, adjacency=adjacency, ids=ids
                ),
            }[scheme]
            run = run_standalone_broadcast(net, factory, 0)
            record.extend([run.system_calls, run.completion_time()])
        rows.append(record)
    return rows


def _lowerbound_rows() -> list[list[Any]]:
    rows = []
    for depth in range(1, 9):
        adjacency = topologies.complete_binary_tree(depth).adjacency()
        tree = bfs_tree({u: tuple(sorted(nbrs)) for u, nbrs in adjacency.items()}, 0)
        rows.append(
            [depth, len(tree), theorem3_lower_bound(depth),
             coverage_rounds(tree, greedy_schedule(tree)),
             max_chain_depth(decompose_paths(tree))]
        )
    return rows


def _convergence_rows() -> list[list[Any]]:
    rows = []
    for n in (9, 17, 33):
        record = [n, n - 1]
        for scope in ("local", "full"):
            net = Network(topologies.line(n), delays=FixedDelays(0.0, 1.0))
            attach_topology_maintenance(net, strategy="bpaths", scope=scope)
            record.append(converge_by_rounds(net, max_rounds=2 * n).rounds)
        rows.append(record)
    return rows


def _sixnode_rows() -> list[list[Any]]:
    def adversarial(node, children):
        return sorted(children, key=lambda c: (c - node) % 6)

    def run(strategy, child_order=None):
        net = Network(topologies.two_connected_example(),
                      delays=FixedDelays(0.0, 1.0))
        attach_topology_maintenance(
            net, strategy=strategy, scope="local", dfs_child_order=child_order
        )
        converge_by_rounds(net, max_rounds=10)
        for edge in [(0, 3), (1, 4), (2, 5)]:
            net.fail_link(*edge)
        net.run_to_quiescence()
        try:
            result = converge_by_rounds(net, max_rounds=25)
            return f"converged in {result.rounds}"
        except NotConvergedError:
            return "DEADLOCK"

    return [
        ["dfs (adversarial order)", run("dfs", adversarial)],
        ["bpaths (one-way)", run("bpaths")],
    ]


def _election_rows() -> list[list[Any]]:
    rows = []
    for n in (16, 64, 128):
        rng = random.Random(n)
        perm = list(range(n))
        rng.shuffle(perm)
        record = [n, 6 * n]
        for name, factory in [
            ("new", lambda api: LeaderElection(api)),
            ("cr_worst", lambda api: ChangRoberts(api, direction=-1)),
            ("hs", lambda api: HirschbergSinclair(api, priority=perm[api.node_id])),
        ]:
            net = Network(topologies.ring(n), delays=FixedDelays(0.0, 1.0))
            net.attach(factory)
            net.start()
            net.run_to_quiescence(max_events=10_000_000)
            if name == "new":
                snap = net.metrics.snapshot()
                record.append(
                    snap.system_calls_by_kind.get("tour", 0)
                    + snap.system_calls_by_kind.get("return", 0)
                )
            record.append(net.metrics.system_calls)
        rows.append(record)
    return rows


def _growth_rows() -> list[list[Any]]:
    binomial = size_growth(1, 0, 10)
    fib = size_growth(1, 1, 10)
    return [
        [b.k, b.size, 2 ** (b.k - 1), f.size]
        for b, f in zip(binomial, fib)
    ]


def _tradeoff_rows() -> list[list[Any]]:
    return [
        [f"{row.ratio:g}:1", float(row.optimal_time), row.root_degree,
         row.depth, float(row.star_time), float(row.binary_time),
         float(row.path_time)]
        for row in tradeoff_sweep(32, ratios=[0, 1, 4, 16])
    ]


def _theory_vs_sim_rows() -> list[list[Any]]:
    rows = []
    for n in (13, 34):
        for P, C in [(1.0, 0.0), (1.0, 1.0), (2.0, 1.0)]:
            net = Network(topologies.complete(n), delays=FixedDelays(C, P))
            t_opt, tree = optimal_spanning_tree(net, P, C)
            run = run_tree_aggregation(net, tree, operator.add,
                                       {i: i for i in net.nodes})
            rows.append([n, P, C, float(t_opt), run.completion_time,
                         "yes" if abs(run.completion_time - float(t_opt)) < 1e-9
                         else "NO"])
    return rows


def _multicast_rows() -> list[list[Any]]:
    rows = []
    for n in (32, 128):
        p = min(0.5, 2.5 * math.log(n) / n)
        net = Network(topologies.random_connected(n, p, seed=n),
                      delays=FixedDelays(0.0, 1.0))
        run = run_group_multicast(net, 0, bodies=["m"])
        rows.append([n, run.setup_calls, run.setup_time,
                     run.per_message_calls[0], run.per_message_time[0]])
    return rows


def _causality_rows() -> list[list[Any]]:
    rows = []
    for cls, label in [(TreeAggregation, "tree-based"),
                       (ChattyTreeAggregation, "chatty")]:
        net = Network(topologies.complete(21), delays=FixedDelays(1.0, 1.0))
        _, tree = optimal_spanning_tree(net, 1.0, 1.0)
        recorder = CausalityRecorder()
        inputs = {i: 1 for i in net.nodes}
        ids = net.id_lookup
        net.attach(
            recorder.wrap(
                lambda api, cls=cls: cls(
                    api, tree=tree, op=operator.add, inputs=inputs, ids=ids,
                )
            )
        )
        net.start()
        net.run_to_quiescence()
        total, causal = message_counts(recorder.log, tree.root)
        extracted = last_causal_tree(recorder.log, tree.root)
        rows.append([label, total, causal,
                     "yes" if extracted.parent == dict(tree.parent) else "NO"])
    return rows


def generate_report(out_dir: str | Path) -> Path:
    """Run every experiment family and write REPORT.md (+ CSVs)."""
    report = ReportBuilder(out_dir)
    report.add("E1/E2", "broadcast schemes on random graphs",
               ["n", "m", "sc_bpaths", "t_bpaths", "sc_flood", "t_flood",
                "sc_direct", "t_direct"],
               _broadcast_rows())
    report.add("E3", "one-way broadcast rounds on complete binary trees",
               ["depth", "n", "thm3_lower", "greedy", "bpaths"],
               _lowerbound_rows())
    report.add("E4", "convergence rounds on paths (local vs full scope)",
               ["n", "diam", "rounds_local", "rounds_full"],
               _convergence_rows())
    report.add("E4b", "the six-node deadlock example",
               ["strategy", "outcome"], _sixnode_rows())
    report.add("E5/E6", "election system calls on rings",
               ["n", "6n", "new_tour+ret", "new_total", "cr_worst", "hs_random"],
               _election_rows())
    report.add("E7/E8", "S(k) growth",
               ["k", "S(k) C=0", "2^(k-1)", "S(k) C=1 (Fib)"],
               _growth_rows())
    report.add("E10", "optimal vs fixed shapes as C/P varies (n=32)",
               ["C:P", "t_opt", "root_deg", "depth", "t_star", "t_binary",
                "t_path"],
               _tradeoff_rows())
    report.add("E10b", "simulator vs OT(t) theory",
               ["n", "P", "C", "t_opt", "measured", "exact"],
               _theory_vs_sim_rows())
    report.add("E12", "hardware multicast groups",
               ["n", "setup_sc", "setup_t", "sc_per_msg", "t_per_msg"],
               _multicast_rows())
    report.add("E14", "appendix: causal messages and tree extraction (n=21)",
               ["algorithm", "messages", "causal", "tree_recovered"],
               _causality_rows())
    return report.write()
