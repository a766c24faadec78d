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
from glevy.uncertainty import _merge_atoms
from conftest import location_family, mixture_family, point_mass_family


# -- construction invariants ------------------------------------------------

def test_measure_rejects_origin_atom():
    with pytest.raises(InvalidInputError):
        DiscreteLevyMeasure(atoms=np.array([[0.0]]), weights=np.array([1.0]))


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


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"triples": [{"measure": {"points": [1.0]}}]}, "cannot parse measure config"),
        ({"triples": [{"measure": [[1.0, 2.0]]}]}, "cannot parse measure config"),
        ({"measures": []}, "needs a 'triples' or 'family' section"),
        ([{"measure": {"atoms": [[1.0, 1.0]]}}], "must be a mapping"),
    ],
    ids=["unknown-measure-keys", "measure-list", "no-section", "list"],
)
def test_config_refusals(doc, message):
    with pytest.raises(InvalidInputError, match=message):
        uncertainty_set_from_config(doc)


# -- atom merge ----------------------------------------------------------------

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
