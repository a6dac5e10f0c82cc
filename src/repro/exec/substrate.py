"""Per-worker substrate pooling: build a network once, reset per run.

Monte-Carlo campaigns run the same parameterised topology for hundreds
of seeds.  Building the substrate — sampling the graph, assigning link
IDs, wiring port tables — dominates the cost of a short per-seed
workload, yet every build from the same spec produces an identical
network.  :class:`SubstratePool` exploits :meth:`Network.reset
<repro.network.network.Network.reset>`: the first acquisition of a
spec builds, every later acquisition resets, and the reset
contract guarantees byte-identical results either way.

Pooling composes with the campaign engine for free: each process-pool
worker imports this module independently, so the module-level pool from
:func:`worker_pool` is naturally per-worker — no locking, no sharing.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter

from ..network.builder import from_spec
from ..network.network import Network
from ..sim.delays import DelayModel

#: Networks one pool keeps; the oldest entry is evicted first.
POOL_SIZE = 8


class SubstratePool:
    """Bounded cache of built networks, keyed by their spec.

    ``acquire`` returns a pristine network for the given spec: a fresh
    build on the first request, a :meth:`Network.reset
    <repro.network.network.Network.reset>` of the pooled instance on
    every later one.  Callers own the returned network until they call
    ``acquire`` again with the same spec — the pool hands out the *same*
    object each time, which is exactly right for the sequential
    per-worker loops it serves and exactly wrong for concurrent use of
    one pool (use one pool per worker, as :func:`worker_pool` does).

    ``delays`` is applied on every acquisition (both build and reset)
    because delay models may carry RNG state; pass a freshly seeded
    model per run to reproduce fresh-build behaviour exactly, or omit
    it for the constructor default (the C/P limiting model).
    """

    def __init__(self) -> None:
        self._entries: dict[str, Network] = {}
        #: Networks built from scratch (pool misses).
        self.builds = 0
        #: Networks handed out via reset (pool hits).
        self.reuses = 0
        #: Cumulative wall seconds spent in builds / resets.
        self.build_seconds = 0.0
        self.reset_seconds = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def acquire(self, spec: str, *, delays: DelayModel | None = None) -> Network:
        """A pristine network for ``spec`` — built once, reset thereafter."""
        net = self._entries.get(spec)
        if net is None:
            t0 = _perf_counter()
            net = from_spec(spec, delays=delays)
            self._note_build(_perf_counter() - t0)
            if len(self._entries) >= POOL_SIZE:
                # FIFO eviction; dict preserves insertion order.
                self._entries.pop(next(iter(self._entries)))
            self._entries[spec] = net
        else:
            # Mirror the Network constructor: no model given means the
            # C/P limiting model, freshly made so no RNG state leaks
            # between runs.
            t0 = _perf_counter()
            net.reset(delays=delays if delays is not None else _default_delays())
            self._note_reset(_perf_counter() - t0)
        return net

    def _note_build(self, dt: float) -> None:
        self.builds += 1
        self.build_seconds += dt
        # Feed an activated perf registry (repro.obs.perf): build and
        # reset counts exist nowhere else, so the pool hooks them itself.
        perf = Network.perf
        if perf is not None:
            perf.substrate_builds += 1
            perf.substrate_build_s += dt

    def _note_reset(self, dt: float) -> None:
        self.reuses += 1
        self.reset_seconds += dt
        perf = Network.perf
        if perf is not None:
            perf.substrate_resets += 1
            perf.substrate_reset_s += dt

    def clear(self) -> None:
        """Drop all pooled networks (counters are kept)."""
        self._entries.clear()


def _default_delays() -> DelayModel:
    from ..sim.delays import limiting_model

    return limiting_model()


#: Lazily created module-level pool; per process, hence per campaign
#: worker.
_WORKER_POOL: SubstratePool | None = None


def worker_pool() -> SubstratePool:
    """This process's substrate pool (created on first use)."""
    global _WORKER_POOL
    if _WORKER_POOL is None:
        _WORKER_POOL = SubstratePool()
    return _WORKER_POOL


def pool_stats() -> dict[str, int] | None:
    """Provenance counters of this process's pool, or ``None`` if unused.

    Deliberately does not create the pool: a run that never touched
    :func:`worker_pool` reports ``None``, not zeros.
    """
    if _WORKER_POOL is None:
        return None
    return {"builds": _WORKER_POOL.builds, "reuses": _WORKER_POOL.reuses}
