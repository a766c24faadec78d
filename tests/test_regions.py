"""Region semantics: membership conventions, the point contract, closure, boundary, overlap, config round-trip."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from glevy import Box, InvalidInputError, Region

BOX_2D = Region(boxes=(Box(np.zeros(2), np.ones(2)),))  # [0, 1)^2


def test_interval_membership_half_open_default():
    a = Region.interval(1.0, 2.0)  # [1, 2)
    assert 1.0 in a
    assert 2.0 not in a
    assert 1.999 in a
    assert 0.999 not in a


def test_open_and_closed_interval_endpoints():
    assert 1.0 not in Region.open_interval(1.0, 2.0)
    assert 2.0 not in Region.open_interval(1.0, 2.0)
    assert 2.0 in Region.closed_interval(1.0, 2.0)
    assert 1.0 in Region.closed_interval(1.0, 2.0)


def test_point_set_membership():
    a = Region.point_set([1.0, 2.0])
    assert 1.0 in a and 2.0 in a
    assert 1.5 not in a


def test_contains_vectorized():
    a = Region.interval(0.5, 1.5)
    got = a.contains(np.array([[0.4], [0.5], [1.0], [1.5]]))
    assert got.tolist() == [False, True, True, False]


def test_contains_answers_each_row_of_a_batch():
    a = Region.open_interval(0.0, 2.0)
    got = a.contains(np.array([[1.0], [3.0]]))
    assert isinstance(got, np.ndarray) and got.tolist() == [True, False]
    assert Region.full_space().contains(np.array([[0.0], [1.0]])).tolist() == [False, True]
    assert Region.point_set([1.0]).contains([[1.0], [2.0], [1.0]]).tolist() == [True, False, True]
    assert a.contains(np.empty((0, 1))).shape == (0,)
    assert BOX_2D.contains(np.array([[0.5, 0.5], [2.0, 0.5]])).tolist() == [True, False]
    atoms = Region.point_set([[1.0, 2.0], [3.0, 4.0]])
    assert atoms.contains([[1.0, 2.0], [1.0, 4.0], [3.0, 4.0]]).tolist() == [True, False, True]


def test_in_answers_one_point():
    a = Region.open_interval(0.0, 2.0)
    assert 1.0 in a and np.array([3.0]) not in a
    assert np.array([0.5, 0.5]) in BOX_2D and [2.0, 0.5] not in BOX_2D
    assert [1.0, 2.0] in Region.point_set([[1.0, 2.0]])
    assert [0.0, 0.0] not in Region.full_space() and [0.0, 3.0] in Region.full_space()
    # a (d,) vector is one point, never d points in d = 1
    assert np.array([1.0, 0.0]) in Region.full_space()


REFUSED = {
    "contains-rank-0": (Region.interval(0.0, 1.0).contains, 0.5),
    "contains-rank-1": (Region.interval(0.0, 1.0).contains, np.array([0.5, 0.7])),
    "contains-rank-1-full": (Region.full_space().contains, np.array([1.0, 0.0])),
    "contains-rank-3": (Region.interval(0.0, 1.0).contains, np.zeros((2, 1, 1))),
    "contains-no-columns": (Region.full_space().contains, np.empty((1, 0))),
    # a 2-D box used to broadcast the one coordinate, an interval to compare both
    "contains-box-fewer-columns": (BOX_2D.contains, [[0.5]]),
    "contains-box-more-columns": (Region.interval(0.0, 1.0).contains, [[0.5, 5.0]]),
    "contains-atoms-fewer-columns": (Region.point_set([[1.0, 2.0]]).contains, [[1.0]]),
    "contains-atoms-more-columns": (Region.point_set([1.0]).contains, [[1.0, 2.0]]),
    "in-batch": (lambda z: z in Region.interval(0.0, 1.0), np.array([[0.5], [0.7]])),
    "in-batch-full": (lambda z: z in Region.full_space(), np.ones((2, 2))),
    "in-wrong-length": (lambda z: z in BOX_2D, np.array([0.5, 0.5, 0.5])),
}


@pytest.mark.parametrize("query, points", REFUSED.values(), ids=REFUSED.keys())
def test_membership_refuses_other_shapes(query, points):
    with pytest.raises(InvalidInputError):
        query(points)


def test_empty_and_full():
    assert Region.empty().is_empty()
    assert not Region.full_space().is_empty()
    assert 123.0 in Region.full_space()
    assert 0.0 not in Region.empty()


def test_closure_adds_endpoints():
    a = Region.open_interval(1.0, 2.0).closure()
    assert 1.0 in a and 2.0 in a


def test_boundary_of_interval_is_endpoint_pair():
    b = Region.open_interval(0.5, 1.5).boundary()
    assert 0.5 in b and 1.5 in b
    assert 1.0 not in b


@pytest.mark.parametrize("d", [1, 2])
def test_full_space_has_empty_boundary(d):
    # regions live in the punctured space, where the full space is closed and open
    b = Region.full_space().boundary()
    assert b.is_empty()
    assert np.zeros(d) not in b


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
            assert (z in back) == (z in r)


def test_from_dict_sugar_forms():
    r = Region.from_dict({"interval": [1.0, 2.0], "closed": "both"})
    assert 1.0 in r and 2.0 in r
    r = Region.from_dict({"points": [1.5]})
    assert 1.5 in r and 1.0 not in r
    assert 42.0 in Region.from_dict({"full": True})
    assert Region.from_dict({"empty": True}).is_empty()


# each of these was once read as a region: a flag by its truth value, an unknown key ignored
MALFORMED = {
    "full-text": ({"full": "false"}, "region.full: expected true or false, got 'false'"),
    "empty-text": ({"empty": "no", "points": [1.0]}, "region.empty: expected true or false, got 'no'"),
    "closed_hi-text": (
        {"boxes": [{"lo": [0.0], "hi": [1.0], "closed_hi": "false"}]},
        r"region.boxes\[0\].closed_hi: expected true or false, got 'false'",
    ),
    "clossed": (
        {"interval": [0.0, 1.0], "clossed": "both"},
        "region has undeclared key 'clossed'; the nearest declared key is 'closed'",
    ),
    "box-clossed_lo": (
        {"boxes": [{"lo": [0.0], "hi": [1.0], "clossed_lo": False}]},
        "undeclared key 'clossed_lo'; the nearest declared key is 'closed_lo'",
    ),
    "box-without-lo": ({"boxes": [{"hi": [1.0]}]}, r"region.boxes\[0\] needs 'lo'"),
    "list": ([{"full": True}], "region must be a mapping, got list"),
    # an interval is two numbers (was a bare ValueError from unpacking)
    "interval-3": ({"interval": [0, 1, 2]}, r"region.interval: expected two numbers, got \[0, 1, 2\]"),
    "interval-1": ({"interval": [0]}, r"region.interval: expected two numbers, got \[0\]"),
}


@pytest.mark.parametrize("doc, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_from_dict_refusals(doc, message):
    with pytest.raises(InvalidInputError, match=message):
        Region.from_dict(doc)


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
    if z in a and z in b:
        assert a.overlaps(b)


# -- membership against the reference of every row and atom ---------------------

COORDS = st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0, 3.5, 1e-200])


@st.composite
def regions_and_points(draw):
    """A region of one kind in d = 1 or 2 and points from its atoms, its box ends, +-0.0, 1e-200 and NaN."""
    d = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["atoms", "boxes", "mixed", "full"]))
    rows = st.lists(COORDS, min_size=d, max_size=d)
    atoms = np.array(draw(st.lists(rows, min_size=1, max_size=4)) if kind in ("atoms", "mixed") else np.empty((0, d)))
    boxes = []
    for _ in range(draw(st.integers(1, 3)) if kind in ("boxes", "mixed") else 0):
        ends = np.sort(np.array([draw(rows), draw(rows)]), axis=0)
        boxes.append(Box(ends[0], ends[1], closed_lo=draw(st.booleans()), closed_hi=draw(st.booleans())))
    region = Region.full_space() if kind == "full" else Region(boxes=tuple(boxes), atoms=atoms)
    pool = [0.0, -0.0, 1e-200, np.nan, *atoms.ravel().tolist()] + [x for b in boxes for x in (*b.lo.tolist(), *b.hi.tolist())]
    whole = [row.tolist() for row in atoms] + [end.tolist() for b in boxes for end in (b.lo, b.hi)]
    point = st.lists(st.sampled_from(pool), min_size=d, max_size=d)
    points = draw(st.lists(st.sampled_from(whole) | point if whole else point, max_size=8))
    return region, np.array(points, dtype=float).reshape(len(points), d)


def reference_contains(region, pts):
    """Each row's membership: any atom equal in every coordinate, or any box; the full space takes every row that is not zero and has no NaN."""
    if region.full:
        return (pts != 0.0).any(axis=1) & ~np.isnan(pts).any(axis=1)
    out = (pts[:, None, :] == region.atoms).all(axis=2).any(axis=1)
    for b in region.boxes:
        out = out | b.contains(pts)
    return out


@given(case=regions_and_points())
def test_contains_matches_the_reference(case):
    region, pts = case
    got = region.contains(pts)
    assert got.dtype == bool and got.shape == (pts.shape[0],)
    assert got.tolist() == reference_contains(region, pts).tolist()


def test_tiny_points_are_not_the_origin():
    # the square of 1e-200 underflows to 0, which a norm would take for the origin
    full = Region.full_space()
    assert full.contains([[1e-200], [-1e-200], [0.0], [-0.0]]).tolist() == [True, True, False, False]
    assert full.contains([[0.0, 1e-200], [0.0, -0.0], [np.nan, 1.0]]).tolist() == [True, False, False]
    assert full.overlaps(Region.point_set([1e-200]))
    assert Region.point_set([[0.0, 1e-200]]).overlaps(full)
    assert not full.overlaps(Region.point_set([[0.0, -0.0]]))
