"""Worst-case norms, tightness and integrability ladders, quasi-continuity."""

import math

import numpy as np
import pytest

from glevy import (
    DiscreteLevyMeasure,
    EvaluationError,
    InvalidInputError,
    Region,
    TestFunction,
    membership_lpb,
    qc_criterion,
    tightness_profile,
    uniform_integrability_profile,
    v_norm,
)
from glevy.fnspace import TightnessEntry, UIEntry, tightness_csv, ui_csv
from conftest import point_mass_family


# -- worst-case norm ----------------------------------------------------------

def test_v_norm_point_mass_family(lam_12):
    assert v_norm(lambda z: z, None, lam_12, 2.0) == pytest.approx(math.sqrt(2.0))


def test_v_norm_single_measure_is_classical():
    m = DiscreteLevyMeasure(np.array([[1.0], [2.0]]), np.array([0.5, 0.25]))
    want = 0.5 * 1.0 + 0.25 * 2.0
    assert v_norm(lambda z: z, None, [m], 1.0) == pytest.approx(want)


def test_v_norm_region_restriction(lam_12):
    assert v_norm(lambda z: z, Region.open_interval(2.0, 3.0), lam_12, 2.0) == 0.0
    inside = v_norm(lambda z: z, Region.open_interval(0.5, 1.5), lam_12, 2.0)
    assert inside == pytest.approx(math.sqrt(2.0))


def test_v_norm_rejects_small_exponent(lam_12):
    with pytest.raises(InvalidInputError):
        v_norm(lambda z: z, None, lam_12, 0.5)


def test_values_on_flags_nonfinite():
    m = DiscreteLevyMeasure.delta(1.0)
    tf = TestFunction(lambda z: math.inf, name="blowup")
    with pytest.raises(EvaluationError):
        tf.values_on(m)


def test_values_on_takes_absolute_value():
    m = DiscreteLevyMeasure(np.array([[-2.0], [3.0]]), np.array([1.0, 1.0]))
    tf = TestFunction(lambda z: z)
    assert np.array_equal(tf.values_on(m), np.array([2.0, 3.0]))


# -- tightness ----------------------------------------------------------------

def test_tightness_single_radius(lam_12):
    entries = tightness_profile(lambda z: z, lam_12, 1.0, [0.1, 0.01])
    for e in entries:
        assert e.annulus == (1.0, 1.0)
        assert e.tail == 0.0


def test_tightness_no_compact_set_needed(lam_12):
    (entry,) = tightness_profile(lambda z: z, lam_12, 1.0, [10.0])
    assert entry.annulus is None
    assert entry.tail == pytest.approx(2.0)


def test_tightness_peels_far_light_atom():
    # the far atom carries mass 0.001 * 10 = 0.01, cheap to peel at eps = 0.05
    m = DiscreteLevyMeasure(np.array([[1.0], [10.0]]), np.array([0.9, 0.001]))
    loose, tight = tightness_profile(lambda z: z, [m], 1.0, [0.05, 0.005])
    assert loose.annulus == (1.0, 1.0)
    assert loose.tail == pytest.approx(0.01)
    assert tight.annulus == (1.0, 10.0)
    assert tight.tail == 0.0


def test_tightness_annuli_are_nested():
    rng = np.random.default_rng(7)
    ms = []
    for _ in range(3):
        n = int(rng.integers(2, 6))
        zs = np.unique(rng.uniform(0.2, 5.0, n))
        ms.append(DiscreteLevyMeasure(zs.reshape(-1, 1), rng.uniform(0.05, 1.0, zs.size)))
    ladder = [1.0, 0.3, 0.1, 0.03, 0.01, 1e-4]
    entries = tightness_profile(lambda z: z, ms, 2.0, ladder)
    prev = None
    for e in entries:
        assert e.tail < e.eps
        if prev is not None and prev.annulus is not None:
            assert e.annulus is not None
            assert e.annulus[0] <= prev.annulus[0] + 1e-15
            assert e.annulus[1] >= prev.annulus[1] - 1e-15
        if e.annulus is not None:
            prev = e


def test_tightness_rejects_nonpositive_threshold(lam_12):
    with pytest.raises(InvalidInputError):
        tightness_profile(lambda z: z, lam_12, 1.0, [0.1, 0.0])
    with pytest.raises(InvalidInputError):
        tightness_profile(lambda z: z, lam_12, 1.0, [float("nan")])


# -- uniform integrability ----------------------------------------------------

def test_ui_exact_tails(lam_12):
    entries = uniform_integrability_profile(lambda z: z, lam_12, 1.0, [0.5, 1.0, 2.0])
    assert [e.tail for e in entries] == [2.0, 2.0, 0.0]


def test_ui_tails_nonincreasing():
    rng = np.random.default_rng(12)
    zs = np.unique(rng.uniform(0.1, 4.0, 6))
    m = DiscreteLevyMeasure(zs.reshape(-1, 1), rng.uniform(0.1, 1.0, zs.size))
    ns = [0.1 * 2.0**k for k in range(10)]
    entries = uniform_integrability_profile(lambda z: z, [m], 2.0, ns)
    tails = [e.tail for e in entries]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert tails[-1] == 0.0


# -- membership ---------------------------------------------------------------

def test_membership_accepts_identity(lam_12):
    verdict = membership_lpb(lambda z: z, None, lam_12, 2.0)
    assert verdict.member
    assert verdict.norm == pytest.approx(math.sqrt(2.0))
    assert verdict.tightness and verdict.ui
    assert any("norm finite" in r for r in verdict.reasons)


def test_membership_rejects_huge_values(lam_12):
    verdict = membership_lpb(lambda z: 2.0**50, None, lam_12, 1.0)
    assert not verdict.member
    assert any("uniform-integrability" in r for r in verdict.reasons)


def test_membership_monotone_under_domination(lam_12):
    big = membership_lpb(lambda z: 3.0 * z, None, lam_12, 2.0)
    small = membership_lpb(lambda z: 1.5 * z, None, lam_12, 2.0)
    assert big.member and small.member
    assert small.norm <= big.norm


def test_membership_empty_restriction(lam_12):
    verdict = membership_lpb(lambda z: z, Region.open_interval(5.0, 6.0), lam_12, 2.0)
    assert verdict.member
    assert verdict.norm == 0.0


def test_membership_dict_shape(lam_12):
    d = membership_lpb(lambda z: z, None, lam_12, 2.0).as_dict()
    assert set(d) == {"member", "norm", "reasons", "tightness", "ui"}
    assert isinstance(d["tightness"][0]["annulus"], (list, type(None)))


# -- quasi-continuity ---------------------------------------------------------

def test_qc_declared_continuous(lam_12):
    tf = TestFunction(lambda z: z * z, discontinuity=Region.empty())
    verdict = qc_criterion(tf, lam_12)
    assert verdict.status == "qc" and verdict.capacity == 0.0


def test_qc_uncharged_discontinuity(lam_12):
    tf = TestFunction(lambda z: 0.0 if z < 0.5 else 1.0, discontinuity=Region.point_set([0.5]))
    verdict = qc_criterion(tf, lam_12)
    assert verdict.status == "qc" and verdict.capacity == 0.0


def test_qc_charged_discontinuity_names_witness(lam_12):
    tf = TestFunction(lambda z: 0.0 if z < 1.0 else 1.0, discontinuity=Region.point_set([1.0]))
    verdict = qc_criterion(tf, lam_12)
    assert verdict.status == "not-qc"
    assert verdict.capacity == pytest.approx(2.0)
    assert np.atleast_1d(verdict.witness_atom) == pytest.approx(np.array([1.0]))
    assert verdict.witness_measure is not None


def test_qc_uses_the_closure(lam_12):
    # (1, 2) itself avoids the atom at 1 but its closure does not
    tf = TestFunction(lambda z: z, discontinuity=Region.open_interval(1.0, 2.0))
    assert qc_criterion(tf, lam_12).status == "not-qc"


def test_qc_undeclared_is_inconclusive(lam_12):
    verdict = qc_criterion(lambda z: z, lam_12)
    assert verdict.status == "inconclusive"
    assert verdict.capacity is None
    d = verdict.as_dict()
    assert d == {"status": "inconclusive", "capacity": None, "witnessAtom": None, "witnessMeasure": None}


# -- csv exports --------------------------------------------------------------

def test_tightness_csv_round_trip():
    entries = [
        TightnessEntry(0.1, (1.0, 2.0), 0.05),
        TightnessEntry(10.0, None, 0.0),
    ]
    text = tightness_csv(entries)
    lines = text.strip().split("\n")
    assert lines[0] == "eps,r,R,tail"
    first = lines[1].split(",")
    assert float(first[0]) == 0.1 and float(first[1]) == 1.0 and float(first[3]) == 0.05
    assert lines[2].split(",")[1] == "" and lines[2].split(",")[2] == ""


def test_ui_csv_round_trip():
    text = ui_csv([UIEntry(2.0, 0.25), UIEntry(4.0, 0.0)])
    lines = text.strip().split("\n")
    assert lines[0] == "n,tail"
    assert [float(v) for v in lines[1].split(",")] == [2.0, 0.25]
    assert tightness_csv([]) .startswith("eps")
