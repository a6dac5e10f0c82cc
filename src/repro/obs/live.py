"""Live streaming statistics: observe a run without retaining its trace.

:class:`LiveStats` subscribes to the two instrumentation surfaces the
substrate exposes —

* the scheduler's observer hook (fired after every simulation event),
* the network's probe (NCU job start, flow-controlled link queues) —

and folds everything into **bounded** state: fixed-bin histograms plus
per-node / per-link counters whose cardinality is capped by the network
size.  Memory is O(bins + n + m) regardless of run length, so live
stats stay on for month-long simulations where a full trace would not.

Collected measures:

* event-queue depth (live events only — cancelled timers excluded),
* wall-clock microseconds per simulated event (simulator throughput),
* NCU service time per job and cumulative busy time per node,
* hop counts per link (read from the network's metrics, not re-counted),
* queue occupancy and credit-stall times on flow-controlled links.

When nothing is installed the hooks cost the substrate one truthiness
check per event and one identity check per system call;
``benchmarks/bench_obs_overhead.py`` gates both (E16, E16d) against
the live functions with the check stripped.
"""

from __future__ import annotations

import time as _time
from bisect import bisect_left
from collections import Counter
from typing import TYPE_CHECKING, Any, Hashable, Mapping, Sequence

from ..metrics.report import format_table

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics.accounting import MetricsCollector
    from ..network.network import Network
    from ..sim.events import Event


class Histogram:
    """Fixed-bin histogram with O(bins) memory and O(log bins) insert.

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    bins; one overflow bin is appended automatically.  Quantiles are
    approximated by the upper edge of the bin where the cumulative count
    crosses the requested rank (exact enough for dashboards).
    """

    __slots__ = ("bounds", "counts", "count", "total", "minimum", "maximum")

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError("a histogram needs at least one bin bound")
        ordered = tuple(sorted(bounds))
        if len(set(ordered)) != len(ordered):
            raise ValueError("histogram bounds must be distinct")
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None

    @classmethod
    def geometric(cls, lo: float, hi: float, bins: int) -> "Histogram":
        """Geometrically spaced bounds from ``lo`` to ``hi``."""
        if lo <= 0 or hi <= lo or bins < 2:
            raise ValueError("need 0 < lo < hi and bins >= 2")
        ratio = (hi / lo) ** (1 / (bins - 1))
        return cls([lo * ratio**i for i in range(bins)])

    def add(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (upper bin edge; max for overflow)."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            cumulative += n
            if cumulative >= rank and n:
                if i < len(self.bounds):
                    return self.bounds[i]
                break
        return self.maximum if self.maximum is not None else 0.0

    def summary_row(self, name: str) -> list[Any]:
        """One table row: name, count, mean, p50, p95, min, max."""
        return [
            name,
            self.count,
            self.mean,
            self.quantile(0.5),
            self.quantile(0.95),
            self.minimum if self.minimum is not None else 0.0,
            self.maximum if self.maximum is not None else 0.0,
        ]

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram; returns self.

        Bin-exact: both histograms must have identical bounds (a
        :class:`ValueError` otherwise — resampling across bin layouts
        would silently distort quantiles).  Merging an empty histogram
        is the identity.  This is how per-worker campaign histograms
        aggregate into one campaign-wide distribution.
        """
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds "
                f"({len(self.bounds)} vs {len(other.bounds)} bins)"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        if other.minimum is not None and (
            self.minimum is None or other.minimum < self.minimum
        ):
            self.minimum = other.minimum
        if other.maximum is not None and (
            self.maximum is None or other.maximum > self.maximum
        ):
            self.maximum = other.maximum
        return self

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot; inverse of :meth:`from_dict`."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        hist = cls(data["bounds"])
        counts = [int(n) for n in data["counts"]]
        if len(counts) != len(hist.counts):
            raise ValueError(
                f"count vector has {len(counts)} bins, "
                f"bounds imply {len(hist.counts)}"
            )
        hist.counts = counts
        hist.count = int(data["count"])
        hist.total = float(data["total"])
        hist.minimum = data.get("min")
        hist.maximum = data.get("max")
        return hist


#: Bin bounds of the :class:`LiveStats` histograms.
_DEPTH_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384)
_WALLCLOCK_BOUNDS_US = Histogram.geometric(0.1, 100_000.0, 16).bounds
_SERVICE_BOUNDS = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
_OCCUPANCY_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
_STALL_BOUNDS = Histogram.geometric(0.01, 1_000.0, 12).bounds


class LiveStats:
    """Streaming run statistics; install on a network, read any time.

    Implements both the scheduler-observer and the network-probe
    protocols.  Every event is sampled.
    """

    def __init__(self) -> None:
        self.queue_depth = Histogram(_DEPTH_BOUNDS)
        self.wallclock_us = Histogram(_WALLCLOCK_BOUNDS_US)
        self.service_time = Histogram(_SERVICE_BOUNDS)
        #: Link queue occupancy (stalled + in flight), one sample per
        #: flow-control transition; only fed on flow-controlled links.
        self.queue_occupancy = Histogram(_OCCUPANCY_BOUNDS)
        #: Simulated time each stalled packet waited for a credit.
        self.link_stall_time = Histogram(_STALL_BOUNDS)
        self.events_seen = 0
        self.ncu_busy_by_node: dict[Any, float] = {}
        self.jobs_by_kind: Counter = Counter()
        self.stalls_by_link: Counter = Counter()
        self._scheduler = None
        self._net: "Network | None" = None
        self._last_wall: float | None = None
        #: ``hops_by_link`` = frozen hops + (metrics now - at install).
        self._metrics: "MetricsCollector | None" = None
        self._hops_at_install: Counter = Counter()
        self._hops: Counter = Counter()

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, net: "Network") -> "LiveStats":
        """Attach to a network's scheduler and probe; returns self."""
        if net.probe is not None and net.probe is not self:
            raise RuntimeError("another probe is already installed")
        if self._metrics is None:
            self._metrics = net.metrics
            self._hops_at_install = Counter(net.metrics.snapshot().hops_per_link)
        self._net = net
        self._scheduler = net.scheduler
        net.probe = self
        net.scheduler.add_observer(self.on_event)
        return self

    def uninstall(self) -> None:
        """Detach (idempotent); collected statistics remain readable."""
        if self._net is None:
            return
        self._hops = self.hops_by_link
        self._metrics = None
        self._net.scheduler.remove_observer(self.on_event)
        if self._net.probe is self:
            self._net.probe = None
        self._net = None
        self._scheduler = None

    # ------------------------------------------------------------------
    # Scheduler observer
    # ------------------------------------------------------------------
    def on_event(self, event: "Event") -> None:
        """Called by the scheduler after each fired event."""
        self.events_seen += 1
        wall = _time.perf_counter()
        if self._last_wall is not None:
            self.wallclock_us.add((wall - self._last_wall) * 1e6)
        self._last_wall = wall
        if self._scheduler is not None:
            self.queue_depth.add(self._scheduler.pending_live)

    # ------------------------------------------------------------------
    # Network probe
    # ------------------------------------------------------------------
    def ncu_job_start(self, node: Any, kind: str, now: float, service: float) -> None:
        """One NCU job entered service (= one system call)."""
        self.service_time.add(service)
        self.ncu_busy_by_node[node] = self.ncu_busy_by_node.get(node, 0.0) + service
        self.jobs_by_kind[kind] += 1

    def link_queue(self, link_key: Hashable, depth: int, now: float) -> None:
        """A flow-controlled link's occupancy changed (stall or xmit)."""
        self.queue_occupancy.add(depth)

    def link_stall(self, link_key: Hashable, waited: float, now: float) -> None:
        """A stalled packet finally got a credit after ``waited`` time."""
        self.link_stall_time.add(waited)
        self.stalls_by_link[link_key] += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def hops_by_link(self) -> Counter:
        """Link traversals per link while installed.

        Read from the network's metrics, which count every hop; frozen
        at :meth:`uninstall`.
        """
        if self._metrics is None:
            return Counter(self._hops)
        now = Counter(self._metrics.snapshot().hops_per_link)
        return self._hops + (now - self._hops_at_install)

    @property
    def total_jobs(self) -> int:
        """NCU jobs observed (equals system calls while installed)."""
        return sum(self.jobs_by_kind.values())

    @property
    def total_hops(self) -> int:
        """Link traversals observed while installed."""
        return sum(self.hops_by_link.values())

    @property
    def busiest_node(self) -> tuple[Any, float] | None:
        """(node, busy time) of the most-loaded NCU, if any."""
        if not self.ncu_busy_by_node:
            return None
        node = max(self.ncu_busy_by_node, key=lambda k: self.ncu_busy_by_node[k])
        return node, self.ncu_busy_by_node[node]

    @property
    def hottest_link(self) -> tuple[Hashable, int] | None:
        """(link key, hops) of the most-traversed link, if any.

        Ties go to the link that comes first in the link table
        (``Network.links``, repr-sorted), not to the one traversed first.
        """
        hops_by_link = self.hops_by_link
        if not hops_by_link:
            return None
        link, hops = hops_by_link.most_common(1)[0]
        return link, hops

    def render(self, *, title: str = "live run statistics") -> str:
        """Text report in the repo's standard table style."""
        rows = [
            self.queue_depth.summary_row("queue depth (live events)"),
            self.wallclock_us.summary_row("wall-clock per event (us)"),
            self.service_time.summary_row("ncu service time"),
        ]
        if self.queue_occupancy.count:
            rows.append(self.queue_occupancy.summary_row("link occupancy (pkts)"))
        if self.link_stall_time.count:
            rows.append(self.link_stall_time.summary_row("link stall time (sim)"))
        out = [
            format_table(
                ["measure", "count", "mean", "p50", "p95", "min", "max"],
                rows,
                title=title,
            )
        ]
        extras: list[list[Any]] = [
            ["events observed", self.events_seen],
            ["ncu jobs (system calls)", self.total_jobs],
            ["hops", self.total_hops],
        ]
        busiest = self.busiest_node
        if busiest is not None:
            extras.append(["busiest NCU", f"{busiest[0]} ({busiest[1]:g} busy)"])
        hottest = self.hottest_link
        if hottest is not None:
            extras.append(["hottest link", f"{hottest[0]} ({hottest[1]} hops)"])
        if self.stalls_by_link:
            link, stalls = self.stalls_by_link.most_common(1)[0]
            extras.append(["most-stalled link", f"{link} ({stalls} stalls)"])
        out.append(format_table(["total", "value"], extras))
        return "\n\n".join(out)
