"""Compensation, derived sets, decomposition, and martingale diagnostics."""

import math

import numpy as np
import pytest

from glevy import (
    CadlagPath,
    DiscreteLevyMeasure,
    Grid1D,
    EvaluationError,
    InvalidInputError,
    LevyTriple,
    MartingaleCheckResult,
    ProcessSpec,
    Region,
    UncertaintySet,
    UnsupportedError,
    compensate,
    decompose,
    martingale_check,
    mean_of_jump_part,
    pushforward_set,
    restricted_product_set,
    symmetric_compensated_set,
)
from conftest import mixture_family, point_mass_family

GRID = Grid1D(x_min=-6.0, x_max=8.0, nx=141, dt=0.01, horizon=1.0)


# -- worst-case jump mean -----------------------------------------------------

def test_mean_point_mass_family(lam_12):
    assert mean_of_jump_part(lam_12, 0.5) == pytest.approx(np.array([1.0]))


def test_mean_singleton_is_classical():
    uset = point_mass_family([3.0], location=0.5)
    assert mean_of_jump_part(uset, 2.0) == pytest.approx(np.array([3.0]))


def test_mean_mixture_family(mixtures):
    # mixture means are 2 - alpha, maximized at the smallest alpha
    assert mean_of_jump_part(mixtures, 1.0) == pytest.approx(np.array([1.75]))


def test_mean_rejects_negative_time(lam_12):
    with pytest.raises(InvalidInputError):
        mean_of_jump_part(lam_12, -0.1)


def test_mean_vector_incomparable_refused():
    m1 = DiscreteLevyMeasure(np.array([[1.0, 0.0]]), np.array([1.0]))
    m2 = DiscreteLevyMeasure(np.array([[0.0, 1.0]]), np.array([1.0]))
    uset = UncertaintySet((LevyTriple(m1), LevyTriple(m2)))
    with pytest.raises(UnsupportedError):
        mean_of_jump_part(uset, 1.0)


def test_mean_vector_dominant_member():
    m1 = DiscreteLevyMeasure(np.array([[1.0, 1.0]]), np.array([1.0]))
    m2 = DiscreteLevyMeasure(np.array([[2.0, 3.0]]), np.array([1.0]))
    uset = UncertaintySet((LevyTriple(m1), LevyTriple(m2)))
    assert mean_of_jump_part(uset, 0.5) == pytest.approx(np.array([1.0, 1.5]))


# -- compensation -------------------------------------------------------------

def test_compensate_path_subtracts_linear_drift(lam_12):
    path = CadlagPath.from_jumps([(0.25, 1.0), (0.6, 1.0)], horizon=1.0)
    comp = compensate(path, lam_12)
    assert comp.scalar_value(0.0) == pytest.approx(0.0)
    assert comp.scalar_value(1.0) == pytest.approx(path.scalar_value(1.0) - 2.0)
    assert np.array_equal(comp.jump_times, path.jump_times)
    assert np.array_equal(comp.jump_sizes, path.jump_sizes)


def test_compensate_spec_retags(lam_12):
    raw = ProcessSpec("rawJumpPart", lam_12)
    comp = compensate(raw, lam_12)
    assert comp.kind == "compensatedJumpPart"
    assert comp.uset is lam_12
    with pytest.raises(InvalidInputError):
        compensate(comp, lam_12)


def test_compensate_dim_mismatch(lam_12):
    m = DiscreteLevyMeasure(np.array([[1.0, 0.0]]), np.array([1.0]))
    path2 = CadlagPath(
        1.0, np.array([0.0, 1.0]), np.zeros((2, 2)), np.empty(0), np.empty((0, 2))
    )
    with pytest.raises(InvalidInputError):
        compensate(path2, lam_12)


def test_symmetric_set_drifts(lam_12):
    sym = symmetric_compensated_set(lam_12)
    assert isinstance(sym, UncertaintySet)
    for triple, src in zip(sym.triples, lam_12.triples):
        assert triple.drift == pytest.approx(-src.measure.mean)
        assert np.all(triple.cov_root == 0.0)
        assert triple.measure.same_as(src.measure)
    drifts = sorted(float(t.drift[0]) for t in sym.triples)
    assert drifts[0] == pytest.approx(-2.0)
    assert drifts[-1] == pytest.approx(-1.0)


def test_symmetric_set_empty_family():
    assert symmetric_compensated_set([]) == ()


def test_symmetric_set_single_measure():
    m = DiscreteLevyMeasure(np.array([[1.0], [2.0]]), np.array([1.0, 1.0]))
    sym = symmetric_compensated_set(m)
    assert len(sym.triples) == 1
    assert sym.triples[0].drift == pytest.approx(np.array([-3.0]))


# -- pushforwards -------------------------------------------------------------

def test_pushforward_square_map():
    m = DiscreteLevyMeasure(np.array([[1.0], [2.0]]), np.array([0.5, 0.25]))
    (img,) = pushforward_set([m], lambda z: z * z)
    assert img.same_as(DiscreteLevyMeasure(np.array([[1.0], [4.0]]), np.array([0.5, 0.25])))


def test_pushforward_with_restriction():
    m = DiscreteLevyMeasure(np.array([[1.0], [2.0]]), np.array([0.5, 0.25]))
    (img,) = pushforward_set([m], lambda z: z * z, region=Region.open_interval(1.5, 3.0))
    assert img.same_as(DiscreteLevyMeasure(np.array([[4.0]]), np.array([0.25])))


def test_pushforward_merges_collisions():
    m = DiscreteLevyMeasure(np.array([[-1.0], [1.0]]), np.array([0.3, 0.6]))
    (img,) = pushforward_set([m], lambda z: z * z)
    assert img.n_atoms == 1
    assert img.total_mass == pytest.approx(0.9)
    assert img.atoms[0, 0] == pytest.approx(1.0)


def test_pushforward_merges_a_chain_of_close_images():
    # images 1, 1 + 0.8e-12 and 1 + 1.6e-12: each within 1e-12 of the next, so one atom at the first
    m = DiscreteLevyMeasure(np.array([[1.0], [2.0], [3.0]]), np.array([0.5, 0.25, 0.125]))
    (img,) = pushforward_set([m], lambda z: 1.0 + 0.8e-12 * (z - 1.0))
    assert img.atoms.tolist() == [[1.0]] and img.weights.tolist() == [0.875]


def test_pushforward_drops_mass_at_origin():
    m = DiscreteLevyMeasure(np.array([[1.0], [2.0]]), np.array([0.5, 0.25]))
    (img,) = pushforward_set([m], lambda z: 0.0 if z < 1.5 else z)
    assert img.same_as(DiscreteLevyMeasure(np.array([[2.0]]), np.array([0.25])))


def test_pushforward_rejects_nonfinite_image():
    m = DiscreteLevyMeasure(np.array([[1.0]]), np.array([1.0]))
    with pytest.raises(EvaluationError):
        pushforward_set([m], lambda z: math.inf)


def test_pushforward_family_preserves_order(mixtures):
    imgs = pushforward_set(mixtures, lambda z: 2.0 * z)
    assert len(imgs) == len(mixtures.triples)
    for img, triple in zip(imgs, mixtures.triples):
        assert img.total_mass == pytest.approx(triple.measure.total_mass)
        assert img.mean == pytest.approx(2.0 * triple.measure.mean)


# -- product routing ----------------------------------------------------------

def test_product_no_regions_is_identity(mixtures):
    assert restricted_product_set(mixtures, []) is mixtures


def test_product_routes_atoms_by_region(mixtures):
    a1 = Region.open_interval(0.5, 1.5)
    a2 = Region.open_interval(1.5, 2.5)
    prod = restricted_product_set(mixtures, [a1, a2])
    assert prod.dim == 3
    for triple, src in zip(prod.triples, mixtures.triples):
        m = triple.measure
        assert m.n_atoms == 2
        by_loc = {float(np.flatnonzero(row)[0]): row for row in m.atoms}
        assert np.array_equal(by_loc[1.0], np.array([0.0, 1.0, 0.0]))
        assert np.array_equal(by_loc[2.0], np.array([0.0, 0.0, 2.0]))
        assert m.total_mass == pytest.approx(src.measure.total_mass)
        # column sums reproduce the source mean
        total = m.atoms.sum(axis=1) * m.weights
        assert total.sum() == pytest.approx(float(src.measure.mean[0] * 1.0))


def test_product_open_boundary_goes_to_block_zero():
    uset = point_mass_family([1.0], location=1.5)
    prod = restricted_product_set(uset, [Region.open_interval(0.5, 1.5)])
    m = prod.triples[0].measure
    assert np.array_equal(m.atoms, np.array([[1.5, 0.0]]))


def test_product_rejects_overlap(mixtures):
    with pytest.raises(InvalidInputError):
        restricted_product_set(
            mixtures,
            [Region.open_interval(0.5, 1.6), Region.open_interval(1.5, 2.5)],
        )


def test_product_rejects_origin_in_closure(mixtures):
    with pytest.raises(InvalidInputError):
        restricted_product_set(mixtures, [Region.open_interval(0.0, 1.0)])


def test_product_carries_drift_and_cov_into_block_zero():
    triple = LevyTriple(DiscreteLevyMeasure.delta(1.0), drift=0.5, cov_root=0.3)
    prod = restricted_product_set(UncertaintySet((triple,)), [Region.open_interval(0.5, 1.5)])
    out = prod.triples[0]
    assert out.drift == pytest.approx(np.array([0.5, 0.0]))
    assert out.cov_root[0, 0] == pytest.approx(0.3)
    assert np.all(out.cov_root[1:, :] == 0.0) and np.all(out.cov_root[:, 1:] == 0.0)


# -- decomposition ------------------------------------------------------------

def test_decompose_pure_jump_path():
    path = CadlagPath.from_jumps([(0.3, 1.0), (0.7, 2.0)], horizon=1.0)
    xc, xd = decompose(path)
    assert xc.n_jumps == 0
    assert xd.n_jumps == 2
    for t in (0.0, 0.3, 0.5, 0.7, 1.0):
        assert xc.scalar_value(t) + xd.scalar_value(t) == pytest.approx(path.scalar_value(t))


def test_decompose_reconstructs_drifting_path(lam_12):
    path = compensate(CadlagPath.from_jumps([(0.4, 1.0)], horizon=1.0), lam_12)
    xc, xd = decompose(path)
    assert xc.scalar_value(1.0) == pytest.approx(-2.0)
    for t in (0.0, 0.2, 0.4, 0.9, 1.0):
        assert xc.scalar_value(t) + xd.scalar_value(t) == pytest.approx(path.scalar_value(t))


# -- process specs ------------------------------------------------------------

def test_spec_validation(lam_12):
    with pytest.raises(InvalidInputError):
        ProcessSpec("squaredVariation", lam_12)
    with pytest.raises(InvalidInputError):
        ProcessSpec("poissonIntegral", lam_12)
    with pytest.raises(InvalidInputError):
        ProcessSpec("rawJumpPart", lam_12, phi=lambda z: z)
    spec = ProcessSpec(
        "poissonIntegral", lam_12, phi=lambda z: z, region=Region.open_interval(0.5, 1.5),
        phi_name="identity",
    )
    d = spec.as_dict()
    assert d["kind"] == "poissonIntegral" and d["phi"] == "identity"


# -- martingale checks --------------------------------------------------------

def test_compensated_process_is_martingale_but_asymmetric(lam_12):
    spec = ProcessSpec("compensatedJumpPart", lam_12)
    res = martingale_check(spec, 0.2, 0.7, GRID)
    assert res.is_martingale
    assert res.max_deviation <= res.tol
    # reversing the sign exposes the intensity spread over the window
    assert res.symmetric_deviation == pytest.approx(0.5, abs=res.tol + 0.02)
    assert not res.is_symmetric


def test_symmetric_compensation_is_two_sided(lam_12):
    spec = ProcessSpec("symmetricCompensated", lam_12)
    res = martingale_check(spec, 0.0, 0.5, GRID)
    assert res.is_martingale and res.is_symmetric
    assert res.max_deviation <= res.tol
    assert res.symmetric_deviation <= res.tol


def test_singleton_compensation_is_symmetric():
    uset = point_mass_family([2.0])
    res = martingale_check(ProcessSpec("compensatedJumpPart", uset), 0.0, 0.5, GRID)
    assert res.is_martingale and res.is_symmetric


def test_raw_jump_part_is_not_a_martingale(lam_12):
    res = martingale_check(ProcessSpec("rawJumpPart", lam_12), 0.0, 0.5, GRID)
    assert not res.is_martingale
    assert res.max_deviation == pytest.approx(1.0, abs=res.tol + 0.02)


def test_martingale_check_window_validation(lam_12):
    spec = ProcessSpec("compensatedJumpPart", lam_12)
    with pytest.raises(InvalidInputError):
        martingale_check(spec, 0.5, 0.5, GRID)
    with pytest.raises(InvalidInputError):
        martingale_check(spec, -0.1, 0.5, GRID)


def test_martingale_check_result_dict(lam_12):
    res = martingale_check(ProcessSpec("symmetricCompensated", lam_12), 0.0, 0.3, GRID)
    d = res.as_dict()
    assert set(d) == {
        "maxDeviation", "symmetricDeviation", "tol", "isMartingale", "isSymmetric", "schemeError",
    }
    assert d["isMartingale"] is True
