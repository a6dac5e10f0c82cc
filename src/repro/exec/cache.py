"""Content-addressed result cache: interrupted campaigns resume for free.

Every completed task is written to ``<root>/<key[:2]>/<key>.json``
where ``key = sha256(spec_hash + code_fingerprint)``: the same task
under the same code always lands on the same file, a changed parameter
or edited workload module lands elsewhere.  There is no index, no
eviction and no lock — the key *is* the lookup, concurrent writers of
the same key write identical bytes, and writes are atomic
(``os.replace`` of a same-directory temp file) so a campaign killed
mid-write never leaves a corrupt entry, only a missing one.

Values must round-trip through JSON; anything the cache returns is
exactly what a fresh execution would have returned (this is what makes
``--jobs N`` resume byte-identical to a serial run).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from .task import TaskSpec, canonical_json, code_fingerprint

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass(frozen=True)
class CacheEntry:
    """One cached task result, as read back from disk."""

    key: str
    value: Any
    wall_ms: float
    created_at: str


class ResultCache:
    """The on-disk store; all methods are safe under concurrent use."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    def key_for(self, spec: TaskSpec) -> str:
        """Content address of ``spec`` under the current code."""
        from .._digest import sha256

        material = spec.spec_hash + code_fingerprint(spec.fn)
        return sha256(material.encode()).hexdigest()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, spec: TaskSpec) -> CacheEntry | None:
        """The cached entry for ``spec``, or ``None`` (corrupt = miss)."""
        key = self.key_for(spec)
        path = self.path_for(key)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(data, dict) or "value" not in data:
            return None
        return CacheEntry(
            key=key,
            value=data["value"],
            wall_ms=float(data.get("wall_ms", 0.0)),
            created_at=str(data.get("created_at", "")),
        )

    def put(self, spec: TaskSpec, value: Any, wall_ms: float) -> str:
        """Store ``value`` for ``spec``; returns the cache key.

        The JSON round-trip happens *here*, so a task returning
        something unserialisable fails loudly at store time rather
        than succeeding now and resuming differently later.
        """
        key = self.key_for(spec)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = json.dumps(
            {
                "key": key,
                "fn": spec.fn,
                "label": spec.label,
                "spec": spec.canonical(),
                "value": json.loads(canonical_json(value)),
                "wall_ms": wall_ms,
                "created_at": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
            },
            indent=2,
            sort_keys=True,
        )
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(body + "\n")
        os.replace(tmp, path)
        return key

    def __len__(self) -> int:
        """Number of entries currently on disk (walks the tree)."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
