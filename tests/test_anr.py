"""Unit tests for ANR header construction."""

from __future__ import annotations

import pytest

from repro.hardware import NCU_ID, build_anr, concat_anr, one_hop_anr, path_broadcast_anr
from repro.sim import RoutingError


def fake_ids(a, b):
    """Deterministic toy ID lookup: normal = 10a+b style, copy = +100."""
    if abs(a - b) != 1:
        raise KeyError((a, b))
    normal = 1 + (b > a)
    return (normal, normal + 100)


def test_build_anr_plain_route():
    header = build_anr([0, 1, 2, 3], fake_ids)
    assert header == (2, 2, 2, NCU_ID)


def test_build_anr_without_delivery():
    header = build_anr([0, 1, 2], fake_ids, deliver=False)
    assert header == (2, 2)
    assert NCU_ID not in header


def test_build_anr_copy_at_intermediates():
    header = build_anr([0, 1, 2, 3], fake_ids, copy_at=[1, 2])
    assert header == (2, 102, 102, NCU_ID)


def test_build_anr_rejects_copy_at_sender():
    with pytest.raises(RoutingError):
        build_anr([0, 1, 2], fake_ids, copy_at=[0])


def test_build_anr_rejects_copy_at_non_route_node():
    with pytest.raises(RoutingError):
        build_anr([0, 1, 2], fake_ids, copy_at=[7])


def test_build_anr_rejects_copy_at_final_when_delivering():
    with pytest.raises(RoutingError):
        build_anr([0, 1, 2], fake_ids, copy_at=[2], deliver=True)


def test_build_anr_unknown_link():
    with pytest.raises(RoutingError):
        build_anr([0, 5], fake_ids)


def test_build_anr_empty_route_rejected():
    with pytest.raises(RoutingError):
        build_anr([], fake_ids)


def test_path_broadcast_anr_copies_everyone_but_sender():
    header = path_broadcast_anr([0, 1, 2, 3], fake_ids)
    # Copy variants at 1 and 2, delivery at 3.
    assert header == (2, 102, 102, NCU_ID)


def test_path_broadcast_anr_single_hop():
    assert path_broadcast_anr([0, 1], fake_ids) == (2, NCU_ID)


def test_path_broadcast_anr_needs_a_hop():
    with pytest.raises(RoutingError):
        path_broadcast_anr([0], fake_ids)


def test_concat_anr_joins_fragments():
    first = build_anr([0, 1, 2], fake_ids, deliver=False)
    second = (7, 8, NCU_ID)
    assert concat_anr(first, second) == (2, 2, 7, 8, NCU_ID)


def test_concat_anr_rejects_interior_delivery():
    with pytest.raises(RoutingError):
        concat_anr((1, NCU_ID), (2, NCU_ID))


def test_one_hop_anr_is_one_shared_tuple_per_id():
    assert one_hop_anr(3) == (3, NCU_ID)
    assert one_hop_anr(3) is one_hop_anr(3)
    assert one_hop_anr(4) is not one_hop_anr(3)
