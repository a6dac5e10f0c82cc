"""Monte-Carlo aggregation: an experiment across many seeds.

The paper's bounds are worst-case; practice cares about distributions.
``sweep`` runs a seeded experiment function many times and summarises
the observed metric — used, e.g., to report the election's tour+return
calls per node as a distribution against the 6n ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from ..sim.seeding import derive_seed


@dataclass(frozen=True)
class Summary:
    """Distribution summary of one observed metric across seeds."""

    samples: tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def stdev(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((x - mu) ** 2 for x in self.samples) / (len(self.samples) - 1)
        )

    @property
    def minimum(self) -> float:
        return min(self.samples)

    @property
    def maximum(self) -> float:
        return max(self.samples)

    def quantile(self, q: float) -> float:
        """Inclusive linear-interpolation quantile, q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1 - fraction) + ordered[high] * fraction

    def row(self) -> list[float]:
        """[mean, stdev, min, p50, p95, max] — a ready table row."""
        return [
            round(self.mean, 3),
            round(self.stdev, 3),
            self.minimum,
            round(self.quantile(0.5), 3),
            round(self.quantile(0.95), 3),
            self.maximum,
        ]


#: Column headers matching :meth:`Summary.row`.
SUMMARY_HEADERS = ["mean", "stdev", "min", "p50", "p95", "max"]


def resolve_seeds(
    seeds: Sequence[int] | int, *, root: int = 0
) -> tuple[int, ...]:
    """Materialise and validate a seed set *before* any work runs.

    An int ``n`` means *n independent samples*: seed ``i`` is
    ``derive_seed(root, "montecarlo", i)`` (SplitMix64 derivation, see
    :mod:`repro.sim.seeding`) rather than the raw ``range(n)``
    enumeration this module used to ship — raw small-int seeds collide
    with every other ``range``-seeded sweep in a campaign, derived ones
    do not.  Explicit seed iterables pass through unchanged.
    """
    if isinstance(seeds, int):
        resolved = tuple(
            derive_seed(root, "montecarlo", i) for i in range(seeds)
        )
    else:
        resolved = tuple(seeds)
    if not resolved:
        raise ValueError("at least one seed is required")
    return resolved


def sweep(
    experiment: Callable[[int], float],
    seeds: Sequence[int] | int,
    *,
    root: int = 0,
    jobs: int = 1,
    cache: str | Path | None = None,
    **params: object,
) -> Summary:
    """Run ``experiment(seed, **params)`` per seed and summarise.

    ``seeds`` may be an iterable of seeds or an int n, meaning n
    independent seeds derived from ``root`` (see :func:`resolve_seeds`).
    The seed set is validated up front, so an empty sweep fails before
    the first experiment runs.

    Extra keyword arguments are forwarded to every experiment call —
    e.g. ``sweep("repro.exec.workloads:election_calls_per_node", 200,
    topology="random:64,16")`` pins the topology so only the delays
    vary, which lets the workload serve every seed from its worker's
    substrate pool (built once, reset per seed) instead of rebuilding.

    With ``jobs > 1`` or a ``cache`` directory, the sweep becomes a
    campaign (:mod:`repro.exec`): ``experiment`` must then be a
    module-level function taking ``seed`` as a keyword — lambdas and
    closures cannot cross process boundaries — and per-sample floats
    are identical to the serial path for any job count.
    """
    resolved = resolve_seeds(seeds, root=root)
    if jobs <= 1 and cache is None:
        return Summary(
            samples=tuple(float(experiment(seed, **params)) for seed in resolved)
        )
    from ..exec.engine import run_campaign
    from ..exec.task import TaskSpec, fn_path

    path = experiment if isinstance(experiment, str) else fn_path(experiment)
    specs = [
        TaskSpec.make(path, seed=seed, label=f"mc[{i}]:{path}", **params)
        for i, seed in enumerate(resolved)
    ]
    outcome = run_campaign(specs, jobs=jobs, cache=cache)
    return Summary(samples=tuple(float(v) for v in outcome.values()))
