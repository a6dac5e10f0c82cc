"""The CLI identity corpus (``tests/cli_corpus.py``) still matches.

The check runs in fresh interpreters, one per ``PYTHONHASHSEED``, so
no output may depend on set or dict-of-str order, nor on what an
earlier test left in the process.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

CORPUS = Path(__file__).resolve().parent / "cli_corpus.py"


def test_cli_corpus_matches_under_two_hash_seeds():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    procs = {
        seed: subprocess.Popen(
            [sys.executable, str(CORPUS), "check"],
            env=dict(os.environ, PYTHONHASHSEED=seed,
                     PYTHONPATH=src + (os.pathsep + path if path else "")),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for seed in ("0", "1")
    }
    for seed, proc in procs.items():
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"PYTHONHASHSEED={seed}:\n{out}"


def test_mask_rerenders_a_table_whose_widths_a_wall_clock_cell_set():
    sys.path.insert(0, str(CORPUS.parent))
    try:
        from cli_corpus import mask
    finally:
        sys.path.pop(0)
    from repro.metrics import format_table

    def table(wall: str, wall_ms: str) -> str:
        return format_table(
            ["measure", "count", "mean"],
            [["queue depth", 3, "1.5"], ["wall-clock per event (us)", 2, wall]],
        ) + "\n" + format_table(["tasks", "wall_ms"], [[4, wall_ms]])

    fast, slow = table("7.1", "9"), table("123456.7", "12345")
    assert fast != slow
    assert mask(fast) == mask(slow)
    assert "   queue depth      3       1.5\n" in mask(fast)
    assert mask('{"wall_ms": 1.5, "hops": 3}') == '{"wall_ms": "<masked>", "hops": 3}'
    assert mask("[ran  ] b\n[ran  ] a\nend") == "[ran  ] a\n[ran  ] b\nend"
