"""Distributed computation of globally sensitive functions (Section 5).

The tree-based algorithm (Theorem 6's optimal form): leaves send their
inputs to their parents at initialisation; every internal node waits for
all children, folds the partial results with its own input, and forwards
the partial up; the root terminates with the function value.

The protocol runs on the simulator, so its measured completion time
under ``FixedDelays(C, P)`` is the worst case the ``OT(t)`` recursion
predicts — the tests assert exact agreement, which is the strongest
check that the model implementation and the theory coincide.

Also provided: a brute-force :func:`is_globally_sensitive` checker for
the paper's definition (there is an input vector on which every single
coordinate can change the output).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..hardware.anr import IdLookup, build_anr
from ..hardware.ncu import NodeApi
from ..hardware.packet import Packet
from ..metrics.accounting import MetricsSnapshot
from ..network.network import Network
from ..network.protocol import Protocol
from ..network.spanning import Tree
from ..sim.errors import ProtocolError
from .opt_tree import Number, OptTreeBuilder
from .tree_shapes import OptTree, to_spanning_tree


@dataclass(frozen=True)
class AggMessage:
    """A partial result travelling up the aggregation tree."""

    value: Any
    sender: Any
    kind: str = "agg"


class TreeAggregation(Protocol):
    """The tree-based algorithm over a predefined spanning tree.

    Every node knows the whole tree (it is predefined — the same tree
    for all input vectors, per the Theorem 6 definition), its own input,
    and an ANR ID lookup for tree edges (on the Section 5 complete graph
    that is simply each node's local topology).
    """

    __slots__ = (
        "_tree", "_op", "_ids", "_value", "_pending", "_started", "_done",
    )

    def __init__(
        self,
        api: NodeApi,
        *,
        tree: Tree,
        op: Callable[[Any, Any], Any],
        inputs: Mapping[Any, Any],
        ids: IdLookup,
    ) -> None:
        super().__init__(api)
        self._tree = tree
        self._op = op
        self._ids = ids
        self._value = inputs[api.node_id]
        self._pending = len(tree.children[api.node_id])
        self._started = False
        self._done = False

    def on_start(self, payload: Any) -> None:
        if self._started:
            return
        self._started = True
        if self._pending == 0:
            self._finish_or_forward()

    def on_packet(self, packet: Packet) -> None:
        message = packet.payload
        if not isinstance(message, AggMessage) or self._done:
            return
        if self._pending <= 0:
            raise ProtocolError(
                f"node {self.api.node_id!r} received an unexpected partial "
                f"from {message.sender!r}"
            )
        self._value = self._op(self._value, message.value)
        self._pending -= 1
        if self._pending == 0 and self._started:
            self._finish_or_forward()

    def _finish_or_forward(self) -> None:
        self._done = True
        me = self.api.node_id
        parent = self._tree.parent[me]
        if parent is None:
            self.api.report("result", self._value)
            self.api.report("completed_at", self.api.now)
            return
        header = build_anr((me, parent), self._ids, deliver=True)
        self.api.send(header, AggMessage(value=self._value, sender=me))


@dataclass(frozen=True)
class AckMessage:
    """A redundant acknowledgement (never influences the result)."""

    child: Any
    kind: str = "agg_ack"


class ChattyTreeAggregation(TreeAggregation):
    """Tree aggregation plus redundant downward acknowledgements.

    Functionally identical to :class:`TreeAggregation`, but every
    internal node acknowledges each child's partial result with a
    message the child ignores.  The extra traffic roughly doubles the
    message count without changing the output or delaying it — exactly
    the kind of noise the appendix's causal-message analysis is built
    to strip: the ACKs arrive after their receivers' last causal sends,
    so none of them is causal, and the extracted last-causal tree is
    the underlying aggregation tree (see the causality tests).
    """

    __slots__ = ()

    def on_packet(self, packet: Packet) -> None:
        message = packet.payload
        if isinstance(message, AckMessage):
            return  # ignored; exists purely as non-causal noise
        if isinstance(message, AggMessage) and not self._done:
            header = build_anr(
                (self.api.node_id, message.sender), self._ids, deliver=True
            )
            self.api.send(header, AckMessage(child=message.sender))
        super().on_packet(packet)


@dataclass(frozen=True)
class AggregationRun:
    """Outcome of one tree-based aggregation."""

    result: Any
    completion_time: float
    metrics: MetricsSnapshot

    @property
    def system_calls(self) -> int:
        """Total NCU involvements, including the START at every node."""
        return self.metrics.system_calls


def run_tree_aggregation(
    net: Network,
    tree: Tree,
    op: Callable[[Any, Any], Any],
    inputs: Mapping[Any, Any],
    *,
    max_events: int = 5_000_000,
) -> AggregationRun:
    """Attach, trigger all nodes at time 0, run, and collect the result."""
    ids = net.id_lookup
    net.attach(
        lambda api: TreeAggregation(api, tree=tree, op=op, inputs=inputs, ids=ids)
    )
    before = net.metrics.snapshot()
    net.start()
    net.run_to_quiescence(max_events=max_events)
    result = net.output(tree.root, "result")
    completed = net.output(tree.root, "completed_at")
    if completed is None:
        raise ProtocolError("aggregation did not complete at the root")
    return AggregationRun(
        result=result,
        completion_time=completed,
        metrics=net.metrics.since(before),
    )


def optimal_spanning_tree(net: Network, P: Number, C: Number) -> tuple[Any, Tree]:
    """The optimal aggregation tree for this network's size under (P, C).

    Returns ``(t_opt, tree)`` where the tree is mapped onto the
    network's node IDs (in node-table order, which is repr order, root
    first).  Intended for complete graphs, where every tree edge is a
    single hop, as in Section 5.
    """
    builder = OptTreeBuilder(P, C)
    t_opt, shape = builder.optimal_tree_for(net.n)
    return t_opt, to_spanning_tree(shape, list(net.nodes))


def shape_spanning_tree(net: Network, shape: OptTree) -> Tree:
    """Map an abstract shape onto this network's node IDs."""
    return to_spanning_tree(shape, list(net.nodes))


# ----------------------------------------------------------------------
# Globally sensitive functions (Section 5.1)
# ----------------------------------------------------------------------
def is_globally_sensitive(
    f: Callable[[Sequence[Any]], Any],
    alphabet: Iterable[Any],
    n: int,
) -> bool:
    """Brute-force check of the paper's definition.

    ``f`` is globally sensitive for ``n`` inputs over ``alphabet`` if
    some input vector ``I`` exists such that for *every* position ``j``
    there is a value ``m`` with ``f(I with I_j := m) != f(I)``.
    Exponential in ``n`` — intended for small test instances.
    """
    symbols = tuple(alphabet)
    if not symbols:
        raise ValueError("alphabet must be non-empty")
    for vector in itertools.product(symbols, repeat=n):
        base = f(vector)
        if all(
            any(
                f(vector[:j] + (m,) + vector[j + 1 :]) != base
                for m in symbols
                if m != vector[j]
            )
            for j in range(n)
        ):
            return True
    return False


def is_fully_sensitive(
    f: Callable[[Sequence[Any]], Any],
    alphabet: Iterable[Any],
    n: int,
) -> bool:
    """The stronger sensitivity notion the paper attributes to
    [KMZ84, ALSY90]: *every* input vector is globally sensitive.

    Parity and sum (over distinct-enough alphabets) are fully
    sensitive; ``max`` is globally sensitive but not fully so (with two
    maxima, lowering one coordinate changes nothing).  Exponential in
    ``n`` — for small test instances.
    """
    symbols = tuple(alphabet)
    if not symbols:
        raise ValueError("alphabet must be non-empty")
    for vector in itertools.product(symbols, repeat=n):
        base = f(vector)
        for j in range(n):
            if not any(
                f(vector[:j] + (m,) + vector[j + 1 :]) != base
                for m in symbols
                if m != vector[j]
            ):
                return False
    return True
