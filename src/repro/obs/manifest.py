"""Run manifests: make every observed run attributable.

A manifest freezes everything needed to re-run or audit a measurement:
the command, topology spec, ``(C, P)`` delay bounds, seed, network
shape, final counter totals, the git revision of the code, and the
interpreter.  The CLI writes one next to each trace export so a
``.json`` trace found on disk months later still says where it came
from.

:class:`CampaignManifest` is the sharded-campaign counterpart: one
document per ``repro campaign`` invocation recording the shard count,
cache hits, retries, failures and per-task wall time, so a resumed
campaign's provenance shows exactly which tasks were recomputed and
which came from the cache.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..sim.kernel import default_kernel as _default_kernel

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network


def git_revision() -> str | None:
    """``git describe --always --dirty`` of the working tree, if any."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = out.stdout.strip()
    return revision if out.returncode == 0 and revision else None


@dataclass(frozen=True)
class RunManifest:
    """Provenance and totals for one simulated run."""

    command: str
    topology: str | None = None
    C: float | None = None
    P: float | None = None
    seed: int | None = None
    n: int | None = None
    m: int | None = None
    dmax: int | None = None
    sim_time: float | None = None
    events_processed: int | None = None
    system_calls: int | None = None
    hops: int | None = None
    packets_injected: int | None = None
    drops: int | None = None
    trace_records: int | None = None
    trace_dropped: int | None = None
    #: State of the ``REPRO_SUBSTRATE_REUSE`` gate when the run was
    #: made — deliberately outside spec hashes (PR 5), so manifests are
    #: the only provenance record of which mode produced a result.
    substrate_reuse: bool | None = None
    #: This process's substrate-pool counters (``None`` if the pool was
    #: never used): ``{"builds": ..., "reuses": ...}``.
    substrate_pool: dict[str, int] | None = None
    #: Event kernel that ran the simulation (always ``"heap"``).  Kept
    #: because :meth:`load` passes every stored field to the
    #: constructor, so older manifests that record a kernel must load.
    kernel: str | None = None
    git: str | None = None
    python: str = ""
    platform: str = ""
    created_at: str = ""
    extra: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        net: "Network",
        *,
        command: str,
        topology: str | None = None,
        C: float | None = None,
        P: float | None = None,
        seed: int | None = None,
        **extra: Any,
    ) -> "RunManifest":
        """Capture a network's current state plus environment stamps."""
        from ..exec.substrate import pool_stats, reuse_enabled

        snap = net.metrics.snapshot()
        return cls(
            command=command,
            topology=topology,
            C=C,
            P=P,
            seed=seed,
            n=net.n,
            m=net.m,
            dmax=net.dmax,
            sim_time=net.scheduler.now,
            events_processed=net.scheduler.events_processed,
            system_calls=snap.system_calls,
            hops=snap.hops,
            packets_injected=snap.packets_injected,
            drops=snap.drops,
            trace_records=len(net.trace),
            trace_dropped=net.trace.dropped,
            substrate_reuse=reuse_enabled(),
            substrate_pool=pool_stats(),
            kernel=_default_kernel(),
            git=git_revision(),
            python=sys.version.split()[0],
            platform=platform.platform(),
            created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            extra=dict(extra),
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (what :meth:`write` serialises)."""
        return asdict(self)

    def write(self, path: str | Path) -> Path:
        """Write as pretty-printed JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, default=str) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        """Read back a manifest written by :meth:`write`."""
        data = json.loads(Path(path).read_text())
        return cls(**data)


if TYPE_CHECKING:  # pragma: no cover
    from ..exec.engine import CampaignOutcome


@dataclass(frozen=True)
class CampaignManifest:
    """Provenance for one sharded-campaign invocation.

    ``tasks`` holds one record per spec, in spec order:
    ``{label, key, status, cache_hit, attempts, wall_ms}`` — enough to
    audit a resume (which tasks were cached), a flaky worker (attempt
    counts) and the shard pool's load balance (per-task wall time).
    """

    command: str
    workload: str | None = None
    jobs: int = 1
    task_count: int = 0
    executed: int = 0
    cache_hits: int = 0
    failures: int = 0
    skipped: int = 0
    retries: int = 0
    interrupted: bool = False
    wall_ms: float = 0.0
    tasks: list[dict[str, Any]] = field(default_factory=list)
    #: State of the ``REPRO_SUBSTRATE_REUSE`` gate in the driver when
    #: the campaign ran (workers inherit the environment).
    substrate_reuse: bool | None = None
    #: Event kernel the campaign ran on (see :class:`RunManifest`).
    kernel: str | None = None
    #: Campaign-wide perf attribution: every task's
    #: :class:`~repro.obs.perf.PerfCounters` merged
    #: (:meth:`CampaignOutcome.merged_perf`); ``None`` unless the
    #: campaign ran with ``--perf``.
    perf: dict[str, Any] | None = None
    git: str | None = None
    python: str = ""
    platform: str = ""
    created_at: str = ""
    extra: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_outcome(
        cls,
        outcome: "CampaignOutcome",
        *,
        command: str,
        workload: str | None = None,
        **extra: Any,
    ) -> "CampaignManifest":
        """Summarise a :class:`~repro.exec.engine.CampaignOutcome`."""
        from ..exec.substrate import reuse_enabled

        tasks = [
            {
                "label": result.spec.label,
                "key": result.key,
                "status": result.status,
                "cache_hit": result.cache_hit,
                "attempts": result.attempts,
                "wall_ms": round(result.wall_ms, 3),
            }
            for result in outcome.results
        ]
        return cls(
            command=command,
            workload=workload,
            jobs=outcome.jobs,
            task_count=len(outcome.results),
            executed=outcome.executed,
            cache_hits=outcome.cache_hits,
            failures=len(outcome.failures),
            skipped=outcome.skipped,
            retries=outcome.retries_used,
            interrupted=outcome.interrupted,
            wall_ms=round(outcome.wall_ms, 3),
            tasks=tasks,
            substrate_reuse=reuse_enabled(),
            kernel=_default_kernel(),
            perf=outcome.merged_perf(),
            git=git_revision(),
            python=sys.version.split()[0],
            platform=platform.platform(),
            created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            extra=dict(extra),
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (what :meth:`write` serialises)."""
        return asdict(self)

    def write(self, path: str | Path) -> Path:
        """Write as pretty-printed JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, default=str) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "CampaignManifest":
        """Read back a manifest written by :meth:`write`."""
        data = json.loads(Path(path).read_text())
        return cls(**data)
