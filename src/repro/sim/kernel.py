"""Name of the event kernel, for provenance records.

The binary-heap :class:`repro.sim.scheduler.Scheduler` is the only
event kernel.  Run and campaign manifests, benchmark documents and the
end-to-end benchmark harness still record a ``kernel`` field, so
artifacts written by older versions (which shipped a second kernel)
keep loading and stay comparable.
"""

from __future__ import annotations


def default_kernel() -> str:
    """The event kernel every scheduler runs: always ``"heap"``."""
    return "heap"
