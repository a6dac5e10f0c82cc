"""Campaign execution: sharded, cached, deterministic experiment runs.

The engine behind ``repro campaign`` and every ``--jobs N`` flag.  A
campaign is an ordered list of :class:`TaskSpec`\\s — pure functions by
import path, frozen JSON params, derived seeds — executed across a
process-pool shard set with per-task timeout, bounded crash retry and
a content-addressed on-disk :class:`ResultCache`, so interrupted
campaigns resume instead of recomputing and ``--jobs 8`` produces
byte-identical rows to ``--jobs 1``.  See ``docs/API.md`` § Campaign
execution.
"""

from .cache import DEFAULT_CACHE_DIR, CacheEntry, ResultCache
from .engine import (
    STATUSES,
    CampaignError,
    CampaignOutcome,
    TaskResult,
    run_campaign,
)
from .substrate import SubstratePool, worker_pool
from .task import (
    SpecError,
    TaskSpec,
    canonical_json,
    code_fingerprint,
    fn_path,
    resolve_fn,
)

__all__ = [
    "CampaignError",
    "CampaignOutcome",
    "CacheEntry",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "STATUSES",
    "SpecError",
    "SubstratePool",
    "TaskResult",
    "TaskSpec",
    "canonical_json",
    "code_fingerprint",
    "fn_path",
    "resolve_fn",
    "run_campaign",
    "worker_pool",
]
