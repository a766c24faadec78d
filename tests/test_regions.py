"""Region semantics: membership conventions, closure, boundary, overlap, config round-trip."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from glevy import Box, InvalidInputError, Region


def test_interval_membership_half_open_default():
    a = Region.interval(1.0, 2.0)  # [1, 2)
    assert bool(a.contains(1.0))
    assert not bool(a.contains(2.0))
    assert bool(a.contains(1.999))
    assert not bool(a.contains(0.999))


def test_open_and_closed_interval_endpoints():
    assert not bool(Region.open_interval(1.0, 2.0).contains(1.0))
    assert not bool(Region.open_interval(1.0, 2.0).contains(2.0))
    assert bool(Region.closed_interval(1.0, 2.0).contains(2.0))
    assert bool(Region.closed_interval(1.0, 2.0).contains(1.0))


def test_point_set_membership():
    a = Region.point_set([1.0, 2.0])
    assert bool(a.contains(1.0)) and bool(a.contains(2.0))
    assert not bool(a.contains(1.5))


def test_contains_vectorized():
    a = Region.interval(0.5, 1.5)
    got = a.contains(np.array([[0.4], [0.5], [1.0], [1.5]]))
    assert got.tolist() == [False, True, True, False]


def test_contains_answers_each_point_of_a_1d_batch():
    a = Region.open_interval(0.0, 2.0)
    got = a.contains(np.array([1.0, 3.0]))
    assert isinstance(got, np.ndarray) and got.tolist() == [True, False]
    assert Region.full_space().contains(np.array([0.0, 1.0])).tolist() == [False, True]
    assert Region.point_set([1.0]).contains([1.0, 2.0, 1.0]).tolist() == [True, False, True]
    assert a.contains(np.empty(0)).shape == (0,)
    # a scalar, or a single (d,) point, is one point
    assert a.contains(1.0) is True and a.contains(np.array([3.0])) is False
    box = Region(boxes=(Box(np.zeros(2), np.ones(2)),))
    assert box.contains(np.array([0.5, 0.5])) is True
    assert box.contains(np.array([[0.5, 0.5], [2.0, 0.5]])).tolist() == [True, False]


def test_empty_and_full():
    assert Region.empty().is_empty()
    assert not Region.full_space().is_empty()
    assert bool(Region.full_space().contains(123.0))
    assert not bool(Region.empty().contains(0.0))


def test_closure_adds_endpoints():
    a = Region.open_interval(1.0, 2.0).closure()
    assert bool(a.contains(1.0)) and bool(a.contains(2.0))


def test_boundary_of_interval_is_endpoint_pair():
    b = Region.open_interval(0.5, 1.5).boundary()
    assert bool(b.contains(0.5)) and bool(b.contains(1.5))
    assert not bool(b.contains(1.0))


def test_overlaps_basic():
    assert Region.interval(0.0, 1.0).overlaps(Region.interval(0.5, 2.0))
    assert not Region.interval(0.0, 1.0).overlaps(Region.interval(2.0, 3.0))
    assert not Region.empty().overlaps(Region.full_space())
    assert Region.full_space().overlaps(Region.point_set([3.0]))


def test_overlaps_touching_intervals_respects_openness():
    # [0,1) and [1,2) share only the point 1, which the first excludes.
    assert not Region.interval(0.0, 1.0).overlaps(Region.interval(1.0, 2.0))
    # [0,1] and [1,2] both contain 1.
    assert Region.closed_interval(0.0, 1.0).overlaps(Region.closed_interval(1.0, 2.0))


def test_overlaps_atoms_against_boxes():
    a = Region.point_set([1.0])
    assert a.overlaps(Region.interval(0.5, 1.5))
    assert not a.overlaps(Region.open_interval(1.0, 2.0))


def test_dict_round_trip_forms():
    cases = [
        Region.interval(-1.0, 2.0),
        Region.closed_interval(0.5, 1.5),
        Region.point_set([1.0, 2.0]),
        Region.empty(),
        Region.full_space(),
    ]
    for r in cases:
        back = Region.from_dict(r.as_dict())
        for z in (-1.0, 0.5, 1.0, 1.5, 2.0, 3.0):
            assert bool(back.contains(z)) == bool(r.contains(z))


def test_from_dict_sugar_forms():
    r = Region.from_dict({"interval": [1.0, 2.0], "closed": "both"})
    assert bool(r.contains(1.0)) and bool(r.contains(2.0))
    r = Region.from_dict({"points": [1.5]})
    assert bool(r.contains(1.5)) and not bool(r.contains(1.0))
    assert Region.from_dict({"full": True}).contains(42.0)
    assert Region.from_dict({"empty": True}).is_empty()


def test_degenerate_interval_rejected():
    with pytest.raises(InvalidInputError):
        Region.interval(2.0, 1.0)


def test_box_contains_matches_flags():
    b = Box(lo=np.array([0.0]), hi=np.array([1.0]), closed_lo=False, closed_hi=True)
    got = b.contains(np.array([[0.0], [0.5], [1.0]]))
    assert got.tolist() == [False, True, True]


@given(
    lo1=st.floats(-5, 5), w1=st.floats(0.1, 3),
    lo2=st.floats(-5, 5), w2=st.floats(0.1, 3),
)
def test_overlaps_symmetric(lo1, w1, lo2, w2):
    a = Region.interval(lo1, lo1 + w1)
    b = Region.interval(lo2, lo2 + w2)
    assert a.overlaps(b) == b.overlaps(a)


@given(
    lo1=st.floats(-5, 5), w1=st.floats(0.1, 3),
    lo2=st.floats(-5, 5), w2=st.floats(0.1, 3),
    z=st.floats(-6, 7),
)
def test_common_point_implies_overlap(lo1, w1, lo2, w2, z):
    a = Region.interval(lo1, lo1 + w1)
    b = Region.interval(lo2, lo2 + w2)
    if bool(a.contains(z)) and bool(b.contains(z)):
        assert a.overlaps(b)
