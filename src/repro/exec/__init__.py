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

from .. import _lazy

#: Every public name and the submodule that defines it, imported when
#: first read.
_EXPORTS = {
    **dict.fromkeys(["DEFAULT_CACHE_DIR", "CacheEntry", "ResultCache"], "cache"),
    **dict.fromkeys(
        ["STATUSES", "CampaignError", "CampaignOutcome", "TaskResult", "run_campaign"],
        "engine",
    ),
    **dict.fromkeys(["SubstratePool", "worker_pool"], "substrate"),
    **dict.fromkeys([
        "SpecError", "TaskSpec", "canonical_json", "code_fingerprint", "fn_path", "resolve_fn",
    ], "task"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.hooks(__name__, _EXPORTS)
