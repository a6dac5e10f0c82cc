"""Data-link control: how NCUs learn adjacent link states.

The paper assumes (Section 2, "Changing topology") that if an adjacent
link remains active or inactive for a sufficiently long period, the NCU
becomes aware of that state — "typically realised through a data link
control protocol".  This module is that protocol's abstraction: after a
link changes state and then stays stable for ``delay`` time units, both
endpoint NCUs receive a LINK_EVENT job carrying the new state.

A change that is reverted within the stabilisation window is never
reported (the per-link epoch counter filters stale notifications), which
models flapping links that the real protocol would debounce.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..hardware.link import Link
from ..hardware.ncu import Job, JobKind

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network


class DataLinkMonitor:
    """Debounced link-state notifier."""

    def __init__(self, net: "Network", *, delay: float = 0.0) -> None:
        if delay < 0:
            raise ValueError("stabilisation delay must be non-negative")
        self._net = net
        self._delay = delay
        #: Per-link change counter; a notification fires only if no
        #: further change happened in the meantime.
        self._epoch: dict[tuple, int] = {}

    def reset(self) -> None:
        """Forget all pending/stale notifications (substrate reuse).

        The epoch counters only exist to invalidate notifications that
        are still in flight on the *old* scheduler; after a network
        reset that scheduler is gone, so a clean slate reproduces the
        freshly built monitor exactly.
        """
        self._epoch.clear()

    def link_changed(self, link: Link) -> None:
        """Called by the network whenever a link flips state."""
        epoch = self._epoch.get(link.key, 0) + 1
        self._epoch[link.key] = epoch
        state = link.active

        def notify() -> None:
            if self._epoch.get(link.key) != epoch or link.active != state:
                return  # the link changed again; this report is stale
            for node in (link.node_u, link.node_v):
                if node.protocol is None:
                    continue  # no protocol attached yet
                node.ncu.enqueue(
                    Job(kind=JobKind.LINK_EVENT, payload=link.info_at(node.node_id))
                )

        self._net.scheduler.schedule(self._delay, notify, priority=2, tag="datalink")
