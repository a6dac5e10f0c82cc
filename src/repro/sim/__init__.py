"""Discrete-event simulation kernel.

Provides the deterministic scheduler, the (C, P) delay models of the
paper, and structured tracing.  Nothing in this package knows about
networks or protocols; it is the substrate everything else runs on.
"""

from .adversary import SearchResult, SeededAdversary, random_delay_search
from .delays import (
    DelayModel,
    FixedDelays,
    PerturbedDelays,
    RandomDelays,
    limiting_model,
    parameterized_model,
)
from .errors import (
    NotConvergedError,
    PathTooLongError,
    ProtocolError,
    ReproError,
    RoutingError,
    SimulationError,
)
from .events import Event
from .kernel import default_kernel
from .scheduler import Scheduler
from .seeding import derive_seed, seed_sequence, splitmix64
from .trace import Trace, TraceKind, TraceRecord

__all__ = [
    "DelayModel",
    "SearchResult",
    "SeededAdversary",
    "random_delay_search",
    "Event",
    "FixedDelays",
    "NotConvergedError",
    "PathTooLongError",
    "PerturbedDelays",
    "ProtocolError",
    "RandomDelays",
    "ReproError",
    "RoutingError",
    "Scheduler",
    "SimulationError",
    "Trace",
    "TraceKind",
    "TraceRecord",
    "default_kernel",
    "derive_seed",
    "limiting_model",
    "parameterized_model",
    "seed_sequence",
    "splitmix64",
]
