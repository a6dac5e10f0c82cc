"""Compare two result files written by ``bench/run.py --out``.

    python bench/compare.py A.json B.json

For each workload in both files and each end-to-end metric it prints
both medians, both quartile ranges, the ratio B/A and the metric's
bound, which ``BENCHMARK.json`` sets.  A pair is *unresolved* when
either side's quartile spread (as a share of its median) exceeds the
bound: the runs are too noisy to tell.  Otherwise it is a *breach* when
B is worse than A by more than the bound, as a share of A's median.
Metrics without a bound are *tracked*: printed, never a breach.  A
higher ``fail_rate``, or different simulated counters at the same seed,
is a breach too.  Exit status 1 on any breach, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import load_spec, metric_table


def worsening(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def spread(summary: dict) -> float | None:
    if summary.get("q1") is None:
        return None
    return (summary["q3"] - summary["q1"]) / summary["median"]


def compare_metric(a: dict, b: dict, better: str,
                   bound: float | None) -> tuple[str, float]:
    """``(status, worsening)`` for one metric's two summaries."""
    worse = worsening(a["median"], b["median"], better)
    if bound is None:
        return "tracked", worse
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        return "unresolved", worse
    return ("BREACH" if worse > bound else "ok"), worse


def _range(s: dict) -> str:
    if s.get("q1") is None:
        return f"{s['median']:.6g} (pooled, n={s['n']})"
    return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}"


def compare(a: dict, b: dict, table: dict) -> list[str]:
    """Print the comparison; returns the breaches."""
    breaches = []
    same_seed = a["seed"] == b["seed"]
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        print(f"== {name}")
        for metric, sa in wa["end_to_end"].items():
            sb = wb["end_to_end"].get(metric)
            if sb is None:
                continue
            unit, better, bound = table[metric]
            status, worse = compare_metric(sa, sb, better, bound)
            shown = "-" if bound is None else f"{bound:.0%}"
            print(f"   {metric:<13} {unit:<9} A {_range(sa):<44} B {_range(sb):<44} "
                  f"B/A {sb['median'] / sa['median']:.4f}  bound {shown:>4}  "
                  f"worse {worse:+.2%}  {status}")
            if status == "BREACH":
                breaches.append(f"{name}.{metric} worse by {worse:.2%} > {bound:.0%}")
        print(f"   fail_rate     A {wa['fail_rate']:.3f}  B {wb['fail_rate']:.3f}")
        if wb["fail_rate"] > wa["fail_rate"]:
            breaches.append(f"{name}.fail_rate rose to {wb['fail_rate']:.3f}")
        if not same_seed:
            print("   counters: not compared (different seeds)")
        elif wa["counters"] != wb["counters"]:
            print(f"   counters DIFFER:\n     A {wa['counters']}\n     B {wb['counters']}")
            breaches.append(f"{name}: simulated counters differ")
        else:
            print("   counters: identical")
    return breaches


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    breaches = compare(a, b, metric_table(load_spec()))
    for breach in breaches:
        print(f"BREACH: {breach}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
