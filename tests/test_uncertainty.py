"""Measure families: construction invariants, moment validation, sup operators, transport."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from glevy import (
    DiscreteLevyMeasure,
    EvaluationError,
    InvalidInputError,
    InverseSquareTail,
    LevyTriple,
    Region,
    UncertaintySet,
    sup_integral,
    transport_map,
    uncertainty_set_from_config,
    v_capacity,
    validate,
)
from glevy.uncertainty import _merge_atoms, mass_layout
from conftest import location_family, mixture_family, point_mass_family


# -- construction invariants ------------------------------------------------

def test_measure_rejects_origin_atom():
    with pytest.raises(InvalidInputError):
        DiscreteLevyMeasure(atoms=np.array([[0.0]]), weights=np.array([1.0]))


def test_measure_takes_a_tiny_atom_for_a_point_off_the_origin():
    # the square of 1e-200 underflows to 0, which a norm would take for the origin
    assert DiscreteLevyMeasure.delta(1e-200).atoms.tolist() == [[1e-200]]
    assert DiscreteLevyMeasure.delta([0.0, -1e-200]).atoms.tolist() == [[0.0, -1e-200]]
    with pytest.raises(InvalidInputError, match="^atoms must avoid the origin$"):
        DiscreteLevyMeasure.delta([0.0, -0.0])


def test_measure_rejects_nonpositive_weight():
    with pytest.raises(InvalidInputError):
        DiscreteLevyMeasure(atoms=np.array([[1.0]]), weights=np.array([0.0]))
    with pytest.raises(InvalidInputError):
        DiscreteLevyMeasure(atoms=np.array([[1.0]]), weights=np.array([-0.5]))


def test_measure_rejects_duplicate_atoms():
    with pytest.raises(InvalidInputError):
        DiscreteLevyMeasure(atoms=np.array([[1.0], [1.0]]), weights=np.array([1.0, 2.0]))


def test_empty_measure_allowed():
    m = DiscreteLevyMeasure.empty()
    assert m.n_atoms == 0 and m.total_mass == 0.0


def test_empty_uncertainty_set_rejected():
    with pytest.raises(InvalidInputError):
        UncertaintySet(())


def test_triple_shapes_validated():
    m = DiscreteLevyMeasure.delta(1.0)
    with pytest.raises(InvalidInputError):
        LevyTriple(m, drift=np.array([1.0, 2.0]))  # wrong dimension


# -- validate ----------------------------------------------------------------

def test_validate_two_delta_one():
    uset = point_mass_family([2.0])
    rep = validate(uset, q=0.5, p=2.0)
    assert rep.uniform_bound == pytest.approx(2.0, abs=1e-12)
    assert rep.small_jump_moment == pytest.approx(0.0, abs=1e-12)
    assert rep.large_jump_moment == pytest.approx(2.0, abs=1e-12)
    assert rep.ok


def test_validate_location_grid_bound():
    rep = validate(location_family((1.0, 1.5, 2.0)), q=0.5, p=2.0)
    assert rep.uniform_bound == pytest.approx(2.0, abs=1e-12)
    assert rep.ok


def test_validate_moments_of_tiny_and_huge_atoms():
    # the squares of 1e-200 underflow to 0 and those of 1e308 overflow
    tiny = validate(UncertaintySet((LevyTriple(DiscreteLevyMeasure.delta(1e-200, 2.0)),)), q=0.5, p=2.0)
    assert tiny.small_jump_moment == pytest.approx(2e-100, rel=1e-12)
    assert tiny.uniform_bound == pytest.approx(2e-200, rel=1e-12)
    huge = validate(UncertaintySet((LevyTriple(DiscreteLevyMeasure.delta(1e308, 1e-300)),)), q=0.5, p=1.5)
    assert huge.uniform_bound == pytest.approx(1e8, rel=1e-12)
    assert huge.large_jump_moment == np.inf and not huge.ok


def test_validate_moment_arguments_checked():
    uset = point_mass_family([1.0])
    with pytest.raises(InvalidInputError):
        validate(uset, q=1.5, p=2.0)
    with pytest.raises(InvalidInputError):
        validate(uset, q=0.5, p=0.5)


def test_validate_bound_matches_brute_force():
    rng = np.random.default_rng(7)
    triples = []
    for _ in range(6):
        n = rng.integers(1, 4)
        atoms = rng.uniform(0.2, 3.0, size=(n, 1)) * rng.choice([-1.0, 1.0], size=(n, 1))
        weights = rng.uniform(0.1, 2.0, size=n)
        drift = rng.normal()
        q = rng.normal() * 0.5
        triples.append(LevyTriple(DiscreteLevyMeasure(atoms=atoms, weights=weights), drift=drift, cov_root=q))
    uset = UncertaintySet(tuple(triples))
    rep = validate(uset, q=0.5, p=2.0)
    brute = max(
        float(np.sum(np.abs(t.measure.atoms[:, 0]) * t.measure.weights))
        + abs(float(t.drift[0]))
        + float(t.cov_root[0, 0]) ** 2
        for t in triples
    )
    assert rep.uniform_bound == pytest.approx(brute, rel=1e-12)


# -- v_capacity / sup_integral ----------------------------------------------

def test_v_capacity_location_grid():
    res = v_capacity(location_family((1.0, 1.5, 2.0)), Region.closed_interval(0.9, 1.1))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.argmax == 0


def test_v_capacity_empty_region_zero():
    res = v_capacity(location_family(), Region.empty())
    assert res.value == 0.0


def test_v_capacity_mixture_point():
    res = v_capacity(mixture_family((0.25, 0.5, 0.75)), Region.point_set([1.0]))
    assert res.value == pytest.approx(0.75, abs=1e-12)
    assert res.argmax == 2


def test_sup_integral_intensity_grid():
    res = sup_integral(point_mass_family([1.0, 1.5, 2.0]), lambda z: z)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.argmax == 2


def test_sup_integral_zero_integrand():
    res = sup_integral(point_mass_family([1.0, 2.0]), lambda z: 0.0 * z)
    assert res.value == 0.0


def test_sup_integral_mixture_attained_at_low_alpha():
    res = sup_integral(mixture_family((0.25, 0.75)), lambda z: z)
    assert res.value == pytest.approx(1.75, abs=1e-12)
    assert res.argmax == 0


def test_sup_integral_nonfinite_integrand_rejected():
    with pytest.raises(EvaluationError):
        sup_integral(point_mass_family([1.0]), lambda z: np.inf * z)


def test_sup_integral_indicator_equals_capacity():
    fam = mixture_family((0.25, 0.5, 0.75))
    region = Region.interval(0.5, 1.5)
    cap = v_capacity(fam, region)
    ind = sup_integral(fam, lambda z: np.ones_like(z), region)
    assert ind.value == pytest.approx(cap.value, abs=1e-12)


@given(
    lam=st.floats(0.0, 3.0),
    table=st.lists(st.floats(-2, 2), min_size=2, max_size=2),
    other=st.lists(st.floats(-2, 2), min_size=2, max_size=2),
)
def test_sup_integral_homogeneous_and_subadditive(lam, table, other):
    fam = mixture_family((0.25, 0.5, 0.75))

    def phi(z):
        return np.where(np.abs(z - 1.0) < 0.5, table[0], table[1])

    def psi(z):
        return np.where(np.abs(z - 1.0) < 0.5, other[0], other[1])

    base = sup_integral(fam, phi).value
    scaled = sup_integral(fam, lambda z: lam * phi(z)).value
    assert scaled == pytest.approx(lam * base, rel=1e-9, abs=1e-9)
    lhs = sup_integral(fam, lambda z: phi(z) + psi(z)).value
    rhs = base + sup_integral(fam, psi).value
    assert lhs <= rhs + 1e-9


# -- measure helpers ---------------------------------------------------------

def test_restrict_and_mass_in():
    m = DiscreteLevyMeasure.from_pairs([(1.0, 0.5), (2.0, 1.5)])
    a = Region.interval(1.5, 3.0)
    assert m.mass_in(a) == pytest.approx(1.5)
    r = m.restrict(a)
    assert r.n_atoms == 1 and r.atoms[0, 0] == 2.0


def test_same_as_tolerant_to_ordering():
    a = DiscreteLevyMeasure.from_pairs([(1.0, 0.5), (2.0, 1.5)])
    b = DiscreteLevyMeasure.from_pairs([(2.0, 1.5), (1.0, 0.5)])
    assert a.same_as(b)
    c = DiscreteLevyMeasure.from_pairs([(2.0, 1.5), (1.0, 0.6)])
    assert not a.same_as(c)


# -- transport ---------------------------------------------------------------

@pytest.mark.parametrize(
    "atoms, want",
    [
        # the squares of 1e-200 underflow to 0 and those of 1e308 overflow
        ([[1e-200], [2e-200], [-3e-200]], [[-3e-200], [2e-200], [1e-200]]),
        ([[1e308], [1.0], [-1e308]], [[-1e308], [1e308], [1.0]]),
        ([[4.9e200, 0.0], [3e200, 4e200], [0.0, -5.1e-200], [-3e-200, 4e-200]],
         [[3e200, 4e200], [4.9e200, 0.0], [0.0, -5.1e-200], [-3e-200, 4e-200]]),
    ],
)
def test_mass_layout_ranks_tiny_and_huge_atoms_by_modulus(atoms, want):
    m = DiscreteLevyMeasure(np.array(atoms), np.arange(1.0, len(atoms) + 1.0))
    got, weights, _ = mass_layout(m)
    assert got.tolist() == want
    assert weights.tolist() == [float(atoms.index(a) + 1) for a in want]


def test_transport_single_atom_shell():
    tm = transport_map(DiscreteLevyMeasure.from_pairs([(1.0, 2.0)]))
    assert len(tm.shells) == 1
    shell = tm.shells[0]
    assert shell.lo == pytest.approx(0.5, abs=1e-12)
    assert np.isinf(shell.hi)
    assert shell.target == pytest.approx(1.0)
    base = InverseSquareTail()
    assert base.tail(0.5) == pytest.approx(2.0, abs=1e-12)


def test_transport_two_atoms_nested_shells():
    tm = transport_map(DiscreteLevyMeasure.from_pairs([(1.0, 1.0), (2.0, 1.0)]))
    # outer shell carries the larger jump
    assert tm.shells[0].target == pytest.approx(2.0)
    assert tm.shells[0].lo == pytest.approx(1.0, abs=1e-12)
    assert tm.shells[1].target == pytest.approx(1.0)
    assert tm.shells[1].lo == pytest.approx(0.5, abs=1e-12)
    assert tm.shells[1].hi == pytest.approx(1.0, abs=1e-12)


def test_transport_zero_measure_maps_to_zero():
    tm = transport_map(DiscreteLevyMeasure.empty())
    assert len(tm.shells) == 0
    assert tm.preimage_mass(1.0) == 0.0


def test_transport_pushforward_exact():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        zs = rng.uniform(0.2, 4.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        zs = np.unique(zs)
        ws = rng.uniform(0.1, 2.0, size=zs.size)
        v = DiscreteLevyMeasure.from_pairs(list(zip(zs, ws)))
        tm = transport_map(v)
        assert float(np.max(np.abs(tm.pushforward_errors(v)))) < 1e-12


def test_transport_separation_radius_positive():
    tm = transport_map(DiscreteLevyMeasure.from_pairs([(1.0, 1.0), (2.0, 1.0), (-0.5, 3.0)]))
    for eps in (0.1, 0.5, 1.0):
        eta = tm.separation_radius(eps)
        assert eta > 0.0
        for shell in tm.shells:
            if abs(shell.target) > eps:
                assert shell.lo >= eta - 1e-15


def test_transport_refuses_multidimensional_targets():
    v = DiscreteLevyMeasure(atoms=np.array([[1.0, 0.0]]), weights=np.array([1.0]))
    with pytest.raises(Exception):
        transport_map(v)


# -- config loading ----------------------------------------------------------

def test_config_explicit_triples():
    uset = uncertainty_set_from_config(
        {"triples": [{"measure": {"atoms": [[1.0, 2.0]]}, "drift": 0.5}]}
    )
    assert len(uset) == 1
    t = uset.triples[0]
    assert t.measure.atoms[0, 0] == 1.0 and t.measure.weights[0] == 2.0
    assert t.drift[0] == 0.5


def test_config_parametric_family():
    uset = uncertainty_set_from_config(
        {
            "family": {
                "rule": "scaled_point_mass",
                "fixed": {"location": 1.0},
                "params": {"intensity": {"min": 1.0, "max": 2.0, "count": 3}},
            }
        }
    )
    lams = sorted(float(t.measure.weights[0]) for t in uset.triples)
    assert lams == pytest.approx([1.0, 1.5, 2.0])


def test_config_rejects_unknown_rule():
    with pytest.raises(InvalidInputError):
        uncertainty_set_from_config({"family": {"rule": "nope", "params": {}}})


def _family(rule, fixed, **params):
    return {"family": {"rule": rule, "fixed": fixed, "params": params}}


def test_config_intensity_zero_endpoint_is_the_empty_measure():
    uset = uncertainty_set_from_config(
        _family("scaled_point_mass", {"location": 1.0}, intensity={"min": 0.0, "max": 2.0, "count": 3})
    )
    assert uset.triples[0].measure.n_atoms == 0 and uset.dim == 1
    assert [t.measure.weights.tolist() for t in uset.triples[1:]] == [[1.0], [2.0]]


def test_config_two_point_mixture_keeps_only_atoms_of_nonzero_weight():
    uset = uncertainty_set_from_config(
        _family(
            "two_point_mixture",
            {"location_a": 1.0, "location_b": -2.0, "total_mass": 2.0},
            alpha={"min": 0.0, "max": 1.0, "count": 3},
        )
    )
    measures = [t.measure for t in uset.triples]
    assert measures[0].atoms.tolist() == [[-2.0]] and measures[0].weights.tolist() == [2.0]
    assert measures[1].atoms.tolist() == [[1.0], [-2.0]] and measures[1].weights.tolist() == [1.0, 1.0]
    assert measures[2].atoms.tolist() == [[1.0]] and measures[2].weights.tolist() == [2.0]


def test_config_moving_point_mass():
    uset = uncertainty_set_from_config(
        _family("moving_point_mass", {"weight": 0.5, "drift": 0.1}, location={"min": 1.0, "max": 3.0, "count": 3})
    )
    assert [t.measure.atoms.tolist() for t in uset.triples] == [[[1.0]], [[2.0]], [[3.0]]]
    assert all(t.measure.weights.tolist() == [0.5] and t.drift1 == 0.1 for t in uset.triples)


@pytest.mark.parametrize(
    "doc",
    [
        _family("scaled_point_mass", {"location": 1.0}, intensity={"min": -1.0, "max": 2.0, "count": 2}),
        _family("scaled_point_mass", {"location": 1.0}, intensity={"min": 1.0, "max": float("nan"), "count": 2}),
        _family("moving_point_mass", {"weight": -0.5}, location={"min": 1.0, "max": 2.0, "count": 2}),
        _family("two_point_mixture", {}, alpha={"min": 0.0, "max": 1.5, "count": 2}),
    ],
    ids=["negative-intensity", "nan-intensity", "negative-weight", "alpha-above-1"],
)
def test_config_rules_still_refuse_negative_and_non_finite_weights(doc):
    with pytest.raises(InvalidInputError, match="weights must be finite and strictly positive"):
        uncertainty_set_from_config(doc)


def test_config_locations_weights_measure_form():
    uset = uncertainty_set_from_config(
        {"triples": [{"measure": {"locations": [[1.0], [-0.5]], "weights": [0.25, 2.0]}, "cov_root": 0.3}]}
    )
    m = uset.triples[0].measure
    assert m.atoms.tolist() == [[1.0], [-0.5]] and m.weights.tolist() == [0.25, 2.0]
    assert uset.triples[0].cov_root1 == 0.3


MALFORMED = {
    "unknown-measure-keys": (
        {"triples": [{"measure": {"points": [1.0]}}]},
        r"uncertainty.triples\[0\].measure has undeclared key 'points'",
    ),
    "measure-list": ({"triples": [{"measure": [[1.0, 2.0]]}]}, r"uncertainty.triples\[0\].measure must be a mapping"),
    "undeclared-section": ({"measures": []}, "uncertainty has undeclared key 'measures'"),
    "no-section": ({}, "needs a 'triples' or 'family' section"),
    "list": ([{"measure": {"atoms": [[1.0, 1.0]]}}], "must be a mapping"),
    # each of these once raised a bare KeyError, was ignored or did not name its key
    "triple-without-measure": ({"triples": [{"drift": 0.0}]}, r"uncertainty.triples\[0\] needs 'measure'"),
    "locations-without-weights": (
        {"triples": [{"measure": {"locations": [[1.0]]}}]},
        "needs 'atoms', or 'locations' and 'weights'",
    ),
    "atoms-and-locations": (
        {"triples": [{"measure": {"atoms": [[1.0, 1.0]], "locations": [[1.0]], "weights": [1.0]}}]},
        "needs 'atoms', or 'locations' and 'weights'",
    ),
    "triple-drfit": (
        {"triples": [{"measure": {"atoms": [[1.0, 1.0]]}, "drfit": 0.5}]},
        "undeclared key 'drfit'; the nearest declared key is 'drift'",
    ),
    "family-fixd": (
        {"family": {"rule": "scaled_point_mass", "fixd": {"location": 2.0}, "params": {"intensity": {"min": 1.0, "max": 2.0, "count": 2}}}},
        "undeclared key 'fixd'; the nearest declared key is 'fixed'",
    ),
    "fixed-not-a-keyword": (
        {"family": {"rule": "scaled_point_mass", "fixed": {"locaton": 2.0}, "params": {"intensity": {"min": 1.0, "max": 2.0, "count": 2}}}},
        "uncertainty.family.fixed has undeclared key 'locaton'; the nearest declared key is 'location'",
    ),
    "param-not-a-keyword": (
        {"family": {"rule": "scaled_point_mass", "params": {"intensty": {"min": 1.0, "max": 2.0, "count": 2}}}},
        "uncertainty.family.params has undeclared key 'intensty'; the nearest declared key is 'intensity'",
    ),
    "count-fraction": (
        {"family": {"rule": "scaled_point_mass", "params": {"intensity": {"min": 1.0, "max": 2.0, "count": 2.7}}}},
        "uncertainty.family.params.intensity.count: expected an integer, got 2.7",
    ),
    "rule-missing": ({"family": {"params": {}}}, "uncertainty.family needs 'rule'"),
    "fixed-and-param": (
        {"family": {"rule": "moving_point_mass", "fixed": {"location": 1.0}, "params": {"location": {"min": 1.0, "max": 2.0, "count": 2}}}},
        "uncertainty.family.params.location: 'location' is also in uncertainty.family.fixed",
    ),
}


@pytest.mark.parametrize("doc, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_config_refusals(doc, message):
    with pytest.raises(InvalidInputError, match=message):
        uncertainty_set_from_config(doc)


# -- atom merge ----------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2])
def test_merge_atoms_at_tolerance_0_matches_the_pair_graph(d):
    # the pair graph of the tol > 0 path at the least positive tolerance joins
    # exactly the equal points here, coordinates -0.0 and 0.0 among them
    least = np.nextafter(0.0, 1.0)
    rng = np.random.default_rng(10 + d)
    for _ in range(200):
        pts = rng.choice([-0.0, 0.0, -2.0, 1.0, 1.5, 3.0], size=(int(rng.integers(0, 40)), d))
        pts = pts[(pts != 0.0).any(axis=1)]  # no atom at the origin
        ws = rng.uniform(0.1, 2.0, size=pts.shape[0])
        got, want = _merge_atoms(pts, ws, 0.0), _merge_atoms(pts, ws, least)
        assert got.atoms.tobytes() == want.atoms.tobytes() and got.weights.tobytes() == want.weights.tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_merge_atoms_at_tolerance_0_is_unique_and_add_at(d):
    # the merge relabel used before: np.unique rows, weights added with np.add.at
    rng = np.random.default_rng(d)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        pts = rng.choice([-2.0, -0.5, 1.0, 3.0], size=(n, d))
        ws = rng.uniform(0.1, 2.0, size=n)
        uniq, inv = np.unique(pts, axis=0, return_inverse=True)
        want = np.zeros(uniq.shape[0])
        np.add.at(want, inv.reshape(-1), ws)
        got = _merge_atoms(pts, ws, 0.0)
        assert got.atoms.tobytes() == uniq.tobytes() and got.weights.tobytes() == want.tobytes()


def test_merge_atoms_chains_near_points_and_keeps_the_first():
    pts = np.array([[1.0 + 1.6e-12], [3.0], [1.0], [1.0 + 0.8e-12], [3.0 + 2e-12]])
    got = _merge_atoms(pts, np.array([0.5, 1.0, 0.25, 0.125, 2.0]), 1e-12)
    # 1 + 1.6e-12 lies 1.6e-12 from 1 but joins through 1 + 0.8e-12; 3 + 2e-12 is a gap apart
    assert got.atoms.tolist() == [[1.0], [3.0], [3.0 + 2e-12]]
    assert got.weights.tolist() == [0.25 + 0.125 + 0.5, 1.0, 2.0]
    assert _merge_atoms(np.empty((0, 2)), np.empty(0), 0.0).atoms.shape == (0, 2)


def test_merge_atoms_joins_points_within_tolerance_in_two_dimensions():
    # (1, 5) and (1 + 2e-13, 5) are 2e-13 apart, with (1 + 1e-13, 0.5) between them in sorted order
    pts = np.array([[1.0, 5.0], [1.0 + 1e-13, 0.5], [1.0 + 2e-13, 5.0]])
    got = _merge_atoms(pts, np.array([1.0, 2.0, 4.0]), 1e-12)
    assert got.atoms.tolist() == [[1.0, 5.0], [1.0 + 1e-13, 0.5]]
    assert got.weights.tolist() == [1.0 + 4.0, 2.0]


def test_merge_atoms_in_one_dimension_is_the_sorted_gap_rule():
    # in 1-D a component is a run of sorted points with gaps <= tol
    rng = np.random.default_rng(5)
    for tol in (1e-12, 0.3):
        for _ in range(50):
            n = int(rng.integers(1, 30))
            pts = np.sort(rng.choice([-2.0, -1.0, 1.0, 1.0 + 4e-13, 1.0 + 8e-13, 1.2, 1.4, 3.0], size=(n, 1)), axis=0)
            ws = rng.uniform(0.1, 2.0, size=n)
            starts = np.ones(n, dtype=bool)
            starts[1:] = np.diff(pts[:, 0]) > tol
            got = _merge_atoms(pts, ws, tol)
            assert got.atoms.tobytes() == pts[starts].tobytes()
            assert got.weights.tobytes() == np.bincount(np.cumsum(starts) - 1, weights=ws).tobytes()
