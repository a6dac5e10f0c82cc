"""Parameter-sweep drivers shared by benchmarks and examples.

These produce the rows behind the E10 trade-off study: how the optimal
aggregation tree, and its advantage over fixed shapes, changes with the
hardware/software delay ratio C/P.

Both sweeps are *campaigns*: each grid point becomes one
:class:`~repro.exec.task.TaskSpec` run through
:func:`~repro.exec.engine.run_campaign`, so ``jobs=N`` shards the grid
across processes and ``cache`` makes re-runs and interrupted sweeps
incremental — with rows guaranteed identical to the serial path
because every point is a pure function of ``(n, ratio, P)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..core.opt_tree import Number, OptTreeBuilder, _frac
from ..core.tree_shapes import predicted_completion, shape_catalog


@dataclass(frozen=True)
class TradeoffRow:
    """One (n, P, C) point of the trade-off study."""

    n: int
    P: Fraction
    C: Fraction
    optimal_time: Fraction
    root_degree: int
    depth: int
    star_time: Fraction
    path_time: Fraction
    binary_time: Fraction

    @property
    def ratio(self) -> float:
        """C / P, the knob the study turns."""
        return float(self.C / self.P)

    @property
    def best_baseline(self) -> str:
        """Which fixed shape comes closest to optimal."""
        times = {
            "star": self.star_time,
            "path": self.path_time,
            "binary": self.binary_time,
        }
        return min(times, key=lambda k: times[k])

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form: Fractions as exact strings."""
        return {
            "n": self.n,
            "P": str(self.P),
            "C": str(self.C),
            "optimal_time": str(self.optimal_time),
            "root_degree": self.root_degree,
            "depth": self.depth,
            "star_time": str(self.star_time),
            "path_time": str(self.path_time),
            "binary_time": str(self.binary_time),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TradeoffRow":
        """Exact inverse of :meth:`to_dict` (cache/worker round-trip)."""
        return cls(
            n=int(data["n"]),
            P=Fraction(data["P"]),
            C=Fraction(data["C"]),
            optimal_time=Fraction(data["optimal_time"]),
            root_degree=int(data["root_degree"]),
            depth=int(data["depth"]),
            star_time=Fraction(data["star_time"]),
            path_time=Fraction(data["path_time"]),
            binary_time=Fraction(data["binary_time"]),
        )


def tradeoff_rows_for_ratio(*, n: int, ratio: str, P: str = "1") -> dict[str, Any]:
    """Compute one trade-off point; the campaign task behind the sweep.

    ``ratio`` and ``P`` are exact fraction strings so the row is a pure
    JSON function of its parameters.
    """
    Pf = Fraction(P)
    C = Fraction(ratio) * Pf
    shapes = shape_catalog(n)
    builder = OptTreeBuilder(Pf, C)
    t_opt, tree = builder.optimal_tree_for(n)
    return TradeoffRow(
        n=n,
        P=Pf,
        C=C,
        optimal_time=t_opt,
        root_degree=tree.degree_of_root(),
        depth=tree.depth(),
        star_time=predicted_completion(shapes["star"], Pf, C),
        path_time=predicted_completion(shapes["path"], Pf, C),
        binary_time=predicted_completion(shapes["binary"], Pf, C),
    ).to_dict()


def tradeoff_specs(
    n: int, ratios: Sequence[Number], *, P: Number = 1
) -> list[Any]:
    """The sweep's :class:`~repro.exec.task.TaskSpec` list, in grid order."""
    from ..exec.task import TaskSpec

    Pf = _frac(P)
    return [
        TaskSpec.make(
            "repro.exec.workloads:tradeoff_point",
            n=n,
            ratio=str(_frac(ratio)),
            P=str(Pf),
            label=f"tradeoff(n={n},C/P={_frac(ratio)})",
        )
        for ratio in ratios
    ]


def tradeoff_sweep(
    n: int,
    ratios: Sequence[Number],
    *,
    P: Number = 1,
    jobs: int = 1,
    cache: str | Path | None = None,
) -> list[TradeoffRow]:
    """Optimal vs. fixed shapes across C/P ratios at fixed ``n``.

    As C/P grows the optimal tree flattens toward a star (hardware hops
    dominate, parallelism in transit is cheap); as it shrinks toward 0
    the tree deepens toward the binomial shape (software serialisation
    dominates).  The paper's point — a complete graph under the new
    model is *not* the traditional model — shows up as the star being
    optimal only in the degenerate limit.

    ``jobs`` shards the grid across worker processes; ``cache`` (a
    directory) makes the sweep resumable.  Rows are byte-identical for
    any ``jobs``.
    """
    from ..exec.engine import run_campaign

    outcome = run_campaign(tradeoff_specs(n, ratios, P=P), jobs=jobs, cache=cache)
    return [TradeoffRow.from_dict(value) for value in outcome.values()]


@dataclass(frozen=True)
class GrowthRow:
    """One point of the S(t) growth table (E7/E8)."""

    k: int
    size: int


def size_growth(
    P: Number,
    C: Number,
    steps: int,
    *,
    jobs: int = 1,
    cache: str | Path | None = None,
) -> list[GrowthRow]:
    """S at the first ``steps`` integer multiples of P (plus C offsets).

    For (P=1, C=0) this is the ``2^(k-1)`` table; for (P=1, C=1) the
    Fibonacci table.  Sharding (``jobs``) recomputes the builder per
    task — worth it only for expensive (P, C); the default stays
    in-process and shares one memoised builder.
    """
    Pf, Cf = _frac(P), _frac(C)
    if jobs <= 1 and cache is None:
        builder = OptTreeBuilder(Pf, Cf)
        return [
            GrowthRow(k=k, size=builder.size(k * Pf))
            for k in range(1, steps + 1)
        ]
    from ..exec.engine import run_campaign
    from ..exec.task import TaskSpec

    specs = [
        TaskSpec.make(
            "repro.exec.workloads:growth_point",
            P=str(Pf),
            C=str(Cf),
            k=k,
            label=f"growth(P={Pf},C={Cf},k={k})",
        )
        for k in range(1, steps + 1)
    ]
    outcome = run_campaign(specs, jobs=jobs, cache=cache)
    return [
        GrowthRow(k=int(value["k"]), size=int(value["size"]))
        for value in outcome.values()
    ]
