"""The five workloads: seed -> CLI argv, output parsing, output checks.

Each workload runs one real ``repro`` command.  The seed only picks the
input (a broadcast root, a churn story, which links fail, the campaign's
seed stream); the command receives the generated arguments and nothing
else.  ``parse`` turns the command's output into simulated counters —
deterministic for a seed, so every repetition, traced or not, must
produce the same ones — and ``check`` holds them against the paper's
closed forms.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def seeded_root(workload: str, seed: int, n: int) -> int:
    """Deterministic broadcast root in ``range(n)`` for a seed.

    String seeding hashes with SHA-512, so the choice does not depend
    on ``PYTHONHASHSEED`` or on the process.
    """
    return random.Random(f"{workload}:{seed}").randrange(n)


def fat_tree_nodes(k: int) -> int:
    """Node count of ``fat_tree:k``: (k/2)² cores, k² switches in pods,
    k³/4 hosts."""
    return 5 * k * k // 4 + k ** 3 // 4


def parse_table(stdout: str) -> list[dict[str, str]]:
    """Rows of the first table the CLI printed, keyed by column header.

    ``format_table`` underlines the header with one dash run per
    column; the runs give the column spans, so cells may hold spaces.
    """
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        if line and set(line) <= {"-", " "} and i > 0:
            spans, col = [], 0
            for run in line.split(" "):
                if run:
                    spans.append((col, col + len(run)))
                col += len(run) + 1
            header = [lines[i - 1][a:b].strip() for a, b in spans]
            rows = []
            for row in lines[i + 1:]:
                if not row.strip():
                    break
                rows.append({h: row[a:b].strip() for h, (a, b) in zip(header, spans)})
            return rows
    return []


def _broadcast_counters(stdout: str) -> dict:
    (row,) = parse_table(stdout)
    return {key: float(row[key]) if key == "time" else int(row[key])
            for key in ("n", "m", "covered", "system_calls", "time", "hops")}


def _check_flood(c: dict) -> list[str]:
    errors = []
    if c["covered"] != c["n"]:
        errors.append(f"covered {c['covered']} != n {c['n']}")
    if not c["m"] <= c["system_calls"] <= 2 * c["m"]:
        errors.append(f"system_calls {c['system_calls']} outside [m, 2m] "
                      f"= [{c['m']}, {2 * c['m']}]")
    return errors


def _check_bpaths(c: dict) -> list[str]:
    errors = []
    if c["covered"] != c["n"]:
        errors.append(f"covered {c['covered']} != n {c['n']}")
    bound = 1 + math.log2(c["n"])
    if c["time"] > bound:
        errors.append(f"completion time {c['time']} > 1 + log2 n = {bound:.3f}")
    return errors


def _churn_counters(stdout: str) -> dict:
    (row,) = parse_table(stdout)
    return {
        "final_time": float(row["final_time"]),
        "system_calls": int(row["system_calls"]),
        "tour_return": int(row["tour+return"]),
        "drops": int(row["drops"]),
        "leaders": [v for v in row["leader(s)"].split(",") if v not in ("", "-")],
        "components": int(row["components"]),
    }


def _check_churn(c: dict) -> list[str]:
    errors = []
    if len(c["leaders"]) != 1:
        errors.append(f"{len(c['leaders'])} leaders, expected 1")
    if c["components"] != 1:
        errors.append(f"{c['components']} components, expected 1")
    return errors


def _converge_counters(stdout: str) -> dict:
    return {
        "phases": [[row["event"], int(row["rounds"]), int(row["system_calls"])]
                   for row in parse_table(stdout)]
    }


def _check_converge(c: dict) -> list[str]:
    labels = [phase[0] for phase in c["phases"]]
    if labels != ["cold start", f"{MAINTAIN_FAILURES} link failures"]:
        return [f"expected both phases converged, got {labels}"]
    return []


def _campaign_counters(stdout: str, work: Path) -> dict:
    rows = json.loads((work / "rows.json").read_text())["rows"]
    return {
        "rows": len(rows),
        "rows_sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
        "max_calls_per_node": max(rows, default=0.0),
    }


def _check_campaign(c: dict) -> list[str]:
    errors = []
    if c["rows"] != MONTECARLO_SEEDS:
        errors.append(f"{c['rows']} rows, expected {MONTECARLO_SEEDS}")
    if c["max_calls_per_node"] > 6:
        errors.append(f"{c['max_calls_per_node']} tour+return calls per node "
                      "> 6 (Theorem 5)")
    return errors


def campaign_task_ms(work: Path) -> list[float]:
    """Per-task wall times from the campaign manifest."""
    manifest = json.loads((work / "manifest.json").read_text())
    return [task["wall_ms"] for task in manifest["tasks"]]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``argv(seed, work, traced)`` builds the CLI arguments (``work`` is
    the repetition's private directory); ``parse(stdout, work)`` returns
    the simulated counters; ``check(counters)`` returns failed checks.
    """

    name: str
    reps: int
    why: str
    argv: Callable[[int, Path, bool], list[str]]
    parse: Callable[[str, Path], dict]
    check: Callable[[dict], list[str]]
    campaign: bool = False


FLOOD_K, BPATHS_K = 32, 28
MAINTAIN_FAILURES = 4
MONTECARLO_SEEDS = 400

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="flood_fat_tree",
        reps=10,
        why="flooding broadcast on a 9472-node fat tree: kernel, switch and "
            "NCU send path do the work, protocol code almost none",
        argv=lambda seed, work, traced: [
            "broadcast", "--topology", f"fat_tree:{FLOOD_K}", "--scheme", "flood",
            "--root", str(seeded_root("flood_fat_tree", seed, fat_tree_nodes(FLOOD_K))),
        ],
        parse=lambda stdout, work: _broadcast_counters(stdout),
        check=_check_flood,
    ),
    Workload(
        name="bpaths_fat_tree",
        reps=5,
        why="branching-paths broadcast on a 6468-node fat tree: n-1 hops, "
            "run time dominated by per-node plan lookup in core",
        argv=lambda seed, work, traced: [
            "broadcast", "--topology", f"fat_tree:{BPATHS_K}", "--scheme", "bpaths",
            "--root", str(seeded_root("bpaths_fat_tree", seed, fat_tree_nodes(BPATHS_K))),
        ],
        parse=lambda stdout, work: _broadcast_counters(stdout),
        check=_check_bpaths,
    ),
    Workload(
        name="churn_clos",
        reps=5,
        why="Theorem-5 election under crash, partition, heal and restart on a "
            "3216-node Clos fabric, checked live by ChurnMonitor",
        argv=lambda seed, work, traced: [
            "scenario", "run", "--topology", "clos:96,48,32",
            "--churn-seed", str(seed), "--crashes", "2",
        ],
        parse=lambda stdout, work: _churn_counters(stdout),
        check=_check_churn,
    ),
    Workload(
        name="maintain_torus",
        reps=5,
        why="topology maintenance with link failures on a 144-node torus under "
            "credit flow control: links shared, senders stall",
        argv=lambda seed, work, traced: [
            "converge", "--topology", "torus:12,12", "--strategy", "bpaths",
            "--fail", str(MAINTAIN_FAILURES), "--seed", str(seed),
            "--link-rate", "1", "--link-buffer", "2",
        ],
        parse=lambda stdout, work: _converge_counters(stdout),
        check=_check_converge,
    ),
    Workload(
        name="montecarlo_campaign",
        reps=5,
        why="400-seed Theorem-5 Monte-Carlo campaign on 2 workers: many short "
            "runs on a substrate that is reset, not rebuilt",
        argv=lambda seed, work, traced: [
            "campaign", "montecarlo", "--seeds", str(MONTECARLO_SEEDS),
            "--root-seed", str(seed), "--topology", "random:64,16",
            "--jobs", "1" if traced else "2", "--no-cache",
            "--rows-out", str(work / "rows.json"),
            "--manifest-out", str(work / "manifest.json"),
        ],
        parse=_campaign_counters,
        check=_check_campaign,
        campaign=True,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
