"""End-to-end benchmark of the repro CLI on five of the paper's workloads.

Run from the repository root::

    python bench/run.py                          # every workload, table reps
    python bench/run.py --seed 7 --out results.json
    python bench/run.py --workload churn_clos --seed 3 --seconds 20 --trace 0

Every repetition is a fresh interpreter (``bench/child.py``) that
imports ``repro.cli`` and calls ``repro.cli.main(argv)``, timed from
spawn until it is reaped.  One client runs one experiment at a time
(closed loop), and repetitions are interleaved round-robin across the
workloads.

Without ``--seconds`` each workload runs the repetitions its table entry
asks for; with it, repetitions continue while the next one is expected
to fit in that many seconds per workload.  ``--trace 1`` (the default)
adds one traced repetition per workload, whose timed calls give the
per-layer ledger.  With ``--workload`` only that workload runs, and the
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the metrics
``BENCHMARK.json`` lists under ``end_to_end`` with ``--trace 0`` and
under ``per_layer`` with ``--trace 1``.

``BENCHMARK.json`` is the one source of each listed metric's unit,
direction and bound; :data:`UNLISTED` covers the metrics it leaves out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from time import perf_counter

from workloads import BY_NAME, WORKLOADS, campaign_task_ms

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
#: Scratch space for ledgers, spans and campaign rows; emptied per run.
WORK = ROOT / ".bench_work"
#: A repetition still running after this long is killed and counts as
#: failed.
REP_TIMEOUT_S = 60.0

#: End-to-end metrics every workload reports, one value per untraced
#: repetition.
REP_METRICS = ("setup_s", "run_s", "total_s", "events_per_s", "peak_rss_mb")

#: Metrics the harness reports but ``BENCHMARK.json`` does not list:
#: unit and direction.  Every metric listed there must be reported on
#: every workload, and a time listed there must not read the same on
#: every run, which leaves these out.
UNLISTED = {
    # Campaign only.  ``run_s`` is listed, and on the campaign it is the
    # wall of its fixed 400 tasks, so campaign throughput is tracked.
    "tasks_per_s": ("tasks/s", "higher"),
    "task_p50_ms": ("ms", "lower"),
    "task_p99_ms": ("ms", "lower"),
    # Times that are exactly 0 on some workload.
    "network.views_s": ("s", "lower"),
    "network.reset_s": ("s", "lower"),
    "network.link_state_s": ("s", "lower"),
    "core.plan_s": ("s", "lower"),
    "obs.self_s": ("s", "lower"),
    "scenario.self_s": ("s", "lower"),
    "exec.self_s": ("s", "lower"),
    "exec.task_s": ("s", "lower"),
    # Simulated time, which repeats exactly for a seed.
    "hardware.link.stall_sim_time": ("simtime", "lower"),
}

#: Layers in report order (the share table lists each one's self time).
LAYERS = ("import", "network", "sim", "hardware.switch", "hardware.node",
          "hardware.link", "hardware.ncu", "metrics", "core", "obs",
          "scenario", "exec", "cli", "exit")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_table(spec: dict) -> dict[str, tuple[str, str, float | None]]:
    """Unit, direction and bound of every metric the harness reports.

    The bound is ``None`` for metrics no bound gates: those
    ``BENCHMARK.json`` lists under ``per_layer``, and :data:`UNLISTED`.
    """
    table = {name: (unit, better, None) for name, (unit, better) in UNLISTED.items()}
    for metric in spec["end_to_end"]:
        table[metric["name"]] = (metric["unit"], metric["better"], metric["bound"])
    for metric in spec["per_layer"]:
        table[metric["name"]] = (metric["unit"], metric["better"], None)
    return table


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], p: int) -> float | None:
    """The ``p``-th percentile, or ``None`` when fewer than ten samples
    lie beyond it (the estimate would rest on a handful of points)."""
    if len(values) * (100 - p) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100)[p - 1]


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
def child_env(work: Path) -> dict:
    """The child's environment: ours without ``REPRO_*`` overrides, so
    the default kernel and substrate reuse are what gets measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        TMPDIR=str(work),
        # The campaign manifest asks git for a revision; keep git's
        # repository search inside the checkout.
        GIT_CEILING_DIRECTORIES=str(ROOT.parent),
    )
    return env


def _kill_group(pgid: int) -> None:
    """SIGKILL a repetition's process group and wait until it is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def read_ledger(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def run_rep(workload, seed: int, traced: bool, work: Path) -> dict:
    """Spawn one repetition, time it, and check its output."""
    work.mkdir(parents=True)
    argv = workload.argv(seed, work, traced)
    ledger = work / "ledger.jsonl"
    cmd = [sys.executable, str(CHILD), str(ledger), "1" if traced else "0", *argv]
    timed_out = threading.Event()
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        t_spawn = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(work), stdout=out,
                                stderr=err, start_new_session=True)

        def expire() -> None:
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(REP_TIMEOUT_S, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (Ctrl-C, SIGTERM): take the repetition down too.
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        t_reaped = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)

    rep = {"seed": seed, "traced": traced, "exit": proc.returncode,
           "total_s": t_reaped - t_spawn,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "errors": []}
    errors = rep["errors"]
    if timed_out.is_set():
        errors.append(f"timed out after {REP_TIMEOUT_S:g} s")
    elif proc.returncode != 0:
        tail = (work / "stderr.txt").read_text(errors="replace").strip()[-400:]
        errors.append(f"exit {proc.returncode}: {tail}")

    records = read_ledger(ledger)
    runs = [r for r in records if r["kind"] == "run"]
    campaign = [r for r in records if r["kind"] == "campaign"]
    exits = [r for r in records if r["kind"] == "exit"]
    span = campaign or [r for r in runs if r["pid"] == proc.pid]
    if span:
        rep["setup_s"] = min(r["t0"] for r in span) - t_spawn
        rep["run_s"] = sum(r["t1"] - r["t0"] for r in span)
        rep["events"] = sum(r["events"] for r in runs)
        if rep["events"] > 0:
            rep["events_per_s"] = rep["events"] / rep["run_s"]
        else:
            errors.append("no simulated events recorded")
    else:
        errors.append("the event kernel never ran")
    if exits:
        rep["kernel"] = exits[0]["kernel"]

    if not errors:
        stdout = (work / "stdout.txt").read_text()
        try:
            counters = workload.parse(stdout, work)
            if workload.campaign:
                rep["task_ms"] = campaign_task_ms(work)
        except (ValueError, KeyError, OSError) as exc:
            errors.append(f"unparseable output: {exc!r}")
        else:
            counters["events"] = rep["events"]
            rep["counters"] = counters
            errors.extend(workload.check(counters))
    if traced and exits and not errors:
        rep["layers"] = layer_ledger(exits[0], rep)
    rep["ok"] = not errors
    return rep


# ----------------------------------------------------------------------
# The per-layer ledger of a traced repetition
# ----------------------------------------------------------------------
#: Prints :func:`child.layer_totals` of the spans file ``argv[1]`` as
#: JSON; run with the benchmark's directory as working directory.
TOTALS_SCRIPT = ("import json, sys; from child import layer_totals; "
                 "print(json.dumps(layer_totals(sys.argv[1])))")


def layer_ledger(exit_record: dict, rep: dict) -> dict:
    """Per-layer metrics from the spans and counters the child wrote."""
    # Aggregating 10⁶ spans takes ~100 MB.  A child's ru_maxrss counts
    # its parent's peak RSS at exec, so this process must stay small:
    # aggregate in a plain subprocess of its own, which subprocess.run
    # waits for.  (A multiprocessing pool would also start a resource
    # tracker that outlives this process.)
    out = subprocess.run([sys.executable, "-c", TOTALS_SCRIPT, exit_record["spans"]],
                         cwd=CHILD.parent, stdout=subprocess.PIPE, check=True).stdout
    totals, top = json.loads(out)
    groups = {tuple(key.split("|")): value for key, value in totals.items()}

    def pick(layer: str, groups_: tuple, index: int):
        return sum(v[index] for (lay, grp), v in groups.items()
                   if lay == layer and (not groups_ or grp in groups_))

    def n_calls(layer, *grp):
        return pick(layer, grp, 0)

    def self_s(layer, *grp):
        return pick(layer, grp, 1)

    def per(value, count, scale):
        return value / count * scale if count else 0.0

    events = rep["events"]
    inject = n_calls("hardware.node", "inject")
    dispatch = n_calls("core", "dispatch")
    link = exit_record["link"]
    wall = rep["total_s"]
    m = {
        "import.networkx_s": pick("import", ("networkx",), 2),
        "import.repro_s": pick("import", ("repro",), 2),
        "network.build_s": self_s("network", "build"),
        "network.views_s": self_s("network", "views"),
        "network.reset_calls": n_calls("network", "reset"),
        "network.reset_s": self_s("network", "reset", "acquire"),
        "network.link_state_calls": n_calls("network", "link_state"),
        "network.link_state_s": self_s("network", "link_state"),
        "sim.events": events,
        "sim.pending_peak": exit_record["pending_peak"],
        "sim.schedule_calls": n_calls("sim", "schedule"),
        "sim.self_s": self_s("sim"),
        "sim.ns_per_event": per(self_s("sim"), events, 1e9),
        "hardware.switch.calls": n_calls("hardware.switch"),
        "hardware.switch.self_s": self_s("hardware.switch"),
        "hardware.switch.ns_per_call": per(self_s("hardware.switch"),
                                           n_calls("hardware.switch"), 1e9),
        "hardware.node.inject_calls": inject,
        "hardware.node.self_s": self_s("hardware.node"),
        "hardware.node.ns_per_call": per(self_s("hardware.node"), inject, 1e9),
        "hardware.link.info_at_calls": n_calls("hardware.link", "info_at"),
        "hardware.link.info_at_per_send": per(n_calls("hardware.link", "info_at"),
                                              inject, 1),
        "hardware.link.self_s": self_s("hardware.link"),
        "hardware.link.stalls": link["stalls"],
        "hardware.link.stall_sim_time": link["stall_sim_time"],
        "hardware.link.max_occupancy": link["max_occupancy"],
        "hardware.ncu.system_calls": n_calls("metrics", "system_call"),
        "hardware.ncu.drops": n_calls("metrics", "drop"),
        "hardware.ncu.queue_peak_max": exit_record["queue_peak"],
        "hardware.ncu.calls": n_calls("hardware.ncu"),
        "hardware.ncu.self_s": self_s("hardware.ncu"),
        "metrics.calls": n_calls("metrics"),
        "metrics.self_s": self_s("metrics"),
        "core.dispatch_calls": dispatch,
        "core.self_s": self_s("core"),
        "core.us_per_dispatch": per(self_s("core"), dispatch, 1e6),
        "core.plan_s": self_s("core", "plan"),
        "obs.check_calls": n_calls("obs", "check"),
        "obs.self_s": self_s("obs"),
        "scenario.self_s": self_s("scenario"),
        "exec.tasks": n_calls("exec", "task"),
        "exec.self_s": self_s("exec"),
        "exec.task_s": pick("exec", ("task",), 2),
        "cli.self_s": self_s("cli"),
        "exit.gc_s": self_s("exit"),
        "traced.wall_s": wall,
        "traced.unattributed_s": wall - top,
    }
    shares = {layer: self_s(layer) for layer in LAYERS}
    accounted = sum(shares.values()) + m["traced.unattributed_s"]
    return {
        "metrics": m,
        "self_s": shares,
        "sum_error": abs(accounted - wall) / wall,
        "cli_unattributed_share": (m["cli.self_s"] + m["traced.unattributed_s"]) / wall,
    }


# ----------------------------------------------------------------------
# A run: repetitions of one or more workloads
# ----------------------------------------------------------------------
def run_workloads(workloads, seed: int, seconds: float | None, trace: bool,
                  work: Path) -> dict:
    """Run the repetitions round-robin; returns reps per workload."""
    reps: dict[str, list[dict]] = {w.name: [] for w in workloads}
    spent = {w.name: 0.0 for w in workloads}
    counter = 0

    def one(w, traced: bool) -> None:
        nonlocal counter
        counter += 1
        t0 = perf_counter()
        rep = run_rep(w, seed, traced, work / f"{counter:03d}-{w.name}")
        spent[w.name] += perf_counter() - t0
        shutil.rmtree(work / f"{counter:03d}-{w.name}", ignore_errors=True)
        reps[w.name].append(rep)
        status = "ok" if rep["ok"] else "FAIL " + "; ".join(rep["errors"])
        print(f"  {w.name:<20} {'traced' if traced else 'rep':>6} "
            f"{rep['total_s']:7.3f} s  {status}", file=sys.stderr)

    if trace:
        for w in workloads:
            one(w, True)

    def wants_more(w) -> bool:
        untraced = [r for r in reps[w.name] if not r["traced"]]
        if not untraced:
            return True
        if seconds is None:
            return len(untraced) < w.reps
        expected = statistics.median(r["total_s"] for r in untraced)
        return spent[w.name] + expected <= seconds

    while True:
        due = [w for w in workloads if wants_more(w)]
        if not due:
            break
        for w in due:
            one(w, False)
    return reps


def summarize_workload(workload, reps: list[dict]) -> dict:
    """End-to-end metrics, checks and the traced ledger of one workload."""
    # Simulated counters repeat exactly for a seed: any repetition that
    # disagrees with the first one is marked failed.
    reference = next((r["counters"] for r in reps if r["ok"]), None)
    for r in reps:
        if r["ok"] and r["counters"] != reference:
            r["ok"] = False
            r["errors"].append("simulated counters differ between repetitions")
    failed = sum(1 for r in reps if not r["ok"])
    untraced = [r for r in reps if not r["traced"] and r["ok"]]
    traced = next((r for r in reps if r["traced"]), None)

    e2e = {}
    if untraced:
        for name in REP_METRICS:
            e2e[name] = summarize([r[name] for r in untraced])
        if workload.campaign:
            e2e["tasks_per_s"] = summarize(
                [len(r["task_ms"]) / r["run_s"] for r in untraced])
            # Task walls are pooled over the repetitions; a pooled
            # percentile has no spread.
            pooled = [ms for r in untraced for ms in r["task_ms"]]
            for name, p in (("task_p50_ms", 50), ("task_p99_ms", 99)):
                value = percentile(pooled, p)
                if value is not None:
                    e2e[name] = {"median": value, "q1": None, "q3": None,
                                 "n": len(pooled)}

    layers = None
    if traced is not None and traced["ok"] and "layers" in traced:
        layers = traced["layers"]
        if "total_s" in e2e:
            layers["metrics"]["traced.overhead"] = (
                traced["total_s"] / e2e["total_s"]["median"])
    return {
        "argv": workload.argv(reps[0]["seed"], Path("WORK"), False) if reps else [],
        "attempted": len(reps),
        "failed": failed,
        "fail_rate": failed / len(reps) if reps else 1.0,
        "kernel": next((r["kernel"] for r in reps if "kernel" in r), None),
        "counters": reference,
        "end_to_end": e2e,
        "layers": layers,
        "errors": sorted({e for r in reps for e in r["errors"]}),
        "reps": [{k: v for k, v in r.items() if k not in ("layers", "task_ms")}
                 for r in reps],
    }


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(results: dict, table: dict) -> None:
    for name, res in results["workloads"].items():
        print(f"\n== {name}  (seed {results['seed']}, kernel {res['kernel']}, "
              f"fail_rate {res['failed']}/{res['attempted']})")
        print("   argv: repro " + " ".join(res["argv"]))
        for error in res["errors"]:
            print(f"   FAILED: {error}")
        print(f"   {'metric':<16} {'unit':<9} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'n':>5}")
        for metric, s in res["end_to_end"].items():
            print(f"   {metric:<16} {table[metric][0]:<9} {_fmt(s['median']):>12} "
                  f"{_fmt(s['q1']):>12} {_fmt(s['q3']):>12} {s['n']:>5}")
        layers = res["layers"]
        if layers is None:
            continue
        m = layers["metrics"]
        print(f"   traced ledger (host seconds unless noted): layers + "
              f"unattributed = wall within {layers['sum_error']:.2e}; "
              f"cli + unattributed = "
              f"{layers['cli_unattributed_share']:.1%} of wall")
        for metric, value in m.items():
            print(f"   {metric:<32} {_fmt(value):>14} {table[metric][0]}")
        wall = m["traced.wall_s"]
        shares = ", ".join(f"{layer} {s / wall:.1%}"
                           for layer, s in layers["self_s"].items() if s > 0)
        print(f"   self-time shares: {shares}, "
              f"unattributed {m['traced.unattributed_s'] / wall:.1%}")


def final_line(res: dict, listed: list[dict]) -> dict:
    """The one-line JSON summary of one workload's results, with the
    ``listed`` metrics of ``BENCHMARK.json`` it has values for."""
    values = {k: s["median"] for k, s in res["end_to_end"].items()}
    if res["layers"] is not None:
        values.update(res["layers"]["metrics"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in values}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="run only this workload and end with its one-line "
                             "JSON summary (default: all five, no summary)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget per workload (default: the "
                             "workload's table repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add one traced repetition per workload")
    parser.add_argument("--out", default=None, help="write results as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a repro checkout",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the running repetition is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    workloads = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    # Compile once up front so no repetition pays for bytecode (in a
    # process of its own, for the reason given in layer_ledger).
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        reps = run_workloads(workloads, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "workloads": {w.name: summarize_workload(w, reps[w.name]) for w in workloads},
    }
    print_report(results, metric_table(spec))
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
        print(f"\nresults written to {args.out}")
    if args.workload:
        listed = spec["per_layer" if args.trace else "end_to_end"]
        print(json.dumps(final_line(results["workloads"][args.workload], listed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
