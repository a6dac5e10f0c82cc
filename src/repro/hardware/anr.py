"""Automatic Network Routing (ANR) header construction.

ANR is the paper's source routing: the sender prefixes the data with
the concatenation of link IDs along the computed path.  The ID for the
hop leaving node ``a`` toward ``b`` is the ID of link ``(a, b)`` *at
a's switching subsystem*; using the copy variant of that ID delivers a
copy into ``a``'s NCU as the packet passes through.

Builders here are pure functions over an :class:`IdLookup` — any
callable ``(a, b) -> (normal_id, copy_id)`` giving the IDs of the link
``(a, b)`` at ``a``'s side.  Protocols supply lookups backed by their
*learned* topology databases; tests and drivers may use the omniscient
network-backed lookup.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from ..sim.errors import RoutingError
from .ids import NCU_ID
from .packet import Packet

#: ``(a, b) -> (normal_id_at_a, copy_id_at_a)`` for the link a-b.
IdLookup = Callable[[Any, Any], tuple[int, int]]


#: One shared ``(normal_id, NCU_ID)`` header per normal ID; see
#: :func:`one_hop_anr`.  Normal IDs run 1..max degree, so it stays tiny.
_ONE_HOP: dict[int, tuple[int, int]] = {}


def one_hop_anr(normal_id: int) -> tuple[int, int]:
    """Header delivering to the neighbour across the link ``normal_id``.

    The same tuple object every time for the same ID: a flood sends
    one such header per link, and the packets it leaves queued share
    their port's header instead of each holding a copy.
    """
    header = _ONE_HOP.get(normal_id)
    if header is None:
        header = _ONE_HOP[normal_id] = (normal_id, NCU_ID)
    return header


def build_anr(
    route: Sequence[Any],
    ids: IdLookup,
    *,
    copy_at: Iterable[Any] = (),
    deliver: bool = True,
) -> tuple[int, ...]:
    """ANR header for a node route ``[sender, v1, v2, ..., dest]``.

    Parameters
    ----------
    route:
        Nodes along the path, starting at the sender.  Consecutive nodes
        must be adjacent according to ``ids`` (a lookup failure raises
        :class:`RoutingError`).
    ids:
        Link-ID lookup (see module docstring).
    copy_at:
        Intermediate nodes whose NCU should receive a selective copy.
        A node ``v`` receives a copy when the ID consumed at ``v`` — the
        one for the hop leaving ``v`` — is the copy variant.  The sender
        cannot appear here (its NCU originates the packet), and listing
        the final node is unnecessary: use ``deliver`` instead.
    deliver:
        Append the NCU ID so the final node's NCU receives the packet.
        With ``deliver=False`` the header routes *through* the final
        node's neighbourhood only if concatenated with more IDs.

    Returns the header as a tuple of IDs, ready for ``api.send``.
    """
    route = list(route)
    if len(route) < 1:
        raise RoutingError("route must contain at least the sender")
    copy_set = set(copy_at)
    if route and route[0] in copy_set:
        raise RoutingError("the sender cannot be a copy target of its own packet")
    unknown = copy_set - set(route[1:-1] if deliver else route[1:])
    if unknown:
        raise RoutingError(
            f"copy targets {sorted(unknown, key=repr)} are not intermediate "
            "nodes of the route"
        )

    header: list[int] = []
    for a, b in zip(route, route[1:]):
        try:
            normal, copy = ids(a, b)
        except KeyError as exc:
            raise RoutingError(f"no known link {a!r}-{b!r} at {a!r}") from exc
        header.append(copy if a in copy_set else normal)
    if deliver:
        header.append(NCU_ID)
    return tuple(header)


def path_broadcast_anr(route: Sequence[Any], ids: IdLookup) -> tuple[int, ...]:
    """Header delivering a copy to *every* node on the route but the sender.

    This is the primitive the branching-paths broadcast sends over each
    decomposed path: copy IDs at every intermediate node plus final
    delivery at the last node.
    """
    if len(route) < 2:
        raise RoutingError("a path broadcast needs at least one hop")
    return build_anr(route, ids, copy_at=route[1:-1], deliver=True)


def reply_route(packet: Packet) -> tuple[int, ...]:
    """Header that routes a reply from the receiver back to the origin.

    Uses the reverse ANR the hardware accumulated while the packet
    travelled (Section 2's receiver-can-reply assumption).  Must be
    called at the node where the packet was delivered.
    """
    return packet.reverse_anr + (NCU_ID,)


def concat_anr(*parts: tuple[int, ...]) -> tuple[int, ...]:
    """Concatenate header fragments into one source route.

    Interior fragments must not end in the NCU ID (that would terminate
    routing mid-way); the caller strips delivery markers first, e.g. by
    building interior fragments with ``deliver=False``.
    """
    for part in parts[:-1]:
        if part and part[-1] == NCU_ID:
            raise RoutingError(
                "interior ANR fragment ends with the NCU ID; "
                "build it with deliver=False"
            )
    out: list[int] = []
    for part in parts:
        out.extend(part)
    return tuple(out)
