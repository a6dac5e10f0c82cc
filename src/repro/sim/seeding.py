"""Deterministic seed derivation: one root seed, many independent streams.

Sharded campaigns (``repro.exec``) need every task to carry its own
seed, derived from a single root so the whole campaign is reproducible
from one number — and *stable under partitioning*: the seed of task
``("montecarlo", 7)`` must not depend on how many shards run, which
shard executes it, or which tasks came before.  ``range(n)`` seed
enumeration has neither property (seed 3 collides with the unrelated
sweep that also used seed 3), so everything seeded here goes through
:func:`derive_seed` instead.

The mixer is SplitMix64 (Steele, Lea & Flood, *Fast Splittable
Pseudorandom Number Generators*, OOPSLA 2014): a 64-bit finalizer with
full avalanche, so adjacent path components (``i`` and ``i+1``) yield
statistically unrelated seeds.  It is tiny, dependency-free and exactly
reproducible across platforms and Python versions.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One SplitMix64 output step for a 64-bit ``state``.

    Pure function: ``splitmix64(x)`` is the finalizer applied to
    ``x + GOLDEN_GAMMA``; callers wanting a stream feed the result back
    in.  Always returns an int in ``[0, 2**64)``.
    """
    z = (state + _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _component(part: int | str) -> int:
    """Map one path component to a 64-bit integer."""
    if isinstance(part, bool):  # bool is an int subclass; be explicit
        return int(part)
    if isinstance(part, int):
        return part & _MASK64
    if isinstance(part, str):
        from .._digest import sha256

        digest = sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
    raise TypeError(
        f"seed path components must be int or str, not {type(part).__name__}"
    )


def derive_seed(root: int, *path: int | str) -> int:
    """Derive the seed for ``path`` under ``root``.

    ``path`` names a position in the experiment tree — e.g.
    ``derive_seed(0, "montecarlo", 7)`` is sample 7 of the Monte-Carlo
    family under root seed 0.  Properties:

    * deterministic: same ``(root, *path)`` → same seed, everywhere;
    * independent: distinct paths give unrelated 64-bit seeds (full
      SplitMix64 avalanche per component);
    * hierarchical: a campaign can hand ``derive_seed(root, name)`` to
      a sub-family as *its* root without colliding with siblings.

    Returns an int in ``[0, 2**64)``.
    """
    state = splitmix64(root & _MASK64)
    for part in path:
        state = splitmix64(state ^ splitmix64(_component(part)))
    return state


def seed_sequence(root: int, *path: int | str, count: int) -> tuple[int, ...]:
    """The first ``count`` sibling seeds under ``(root, *path)``.

    ``seed_sequence(root, "montecarlo", count=n)`` is the campaign-safe
    replacement for ``range(n)`` seed enumeration: element ``i`` equals
    ``derive_seed(root, *path, i)``, so any subset of the sequence can
    be recomputed without the rest.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return tuple(derive_seed(root, *path, i) for i in range(count))
