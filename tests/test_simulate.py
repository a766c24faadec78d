"""Scenario sampling, controlled paths, worst-case Monte Carlo, capacity bounds."""

import math

import numpy as np
import pytest
from scipy import stats

from glevy import (
    AssumptionError,
    BaseJumpModel,
    ControlPolicy,
    DiscreteLevyMeasure,
    ExplicitControl,
    InvalidInputError,
    InverseSquareTail,
    LevyTriple,
    PolicyError,
    Region,
    UncertaintySet,
    constant_policies,
    draw_scenario,
    erlang_bound_check,
    estimate_capacity,
    estimate_upper_expectation,
    simulate_path,
    transport_map,
)
from conftest import location_family, mixture_family, point_mass_family


# -- base jump model ----------------------------------------------------------

def test_base_model_single_measure():
    uset = point_mass_family([1.0])
    model = BaseJumpModel.from_uncertainty(uset)
    assert model.budget == pytest.approx(1.0)
    assert model.n_segments == 1
    assert model.pushforward(0).same_as(uset.triples[0].measure)


def test_base_model_budget_is_max_total_mass():
    uset = point_mass_family([1.0, 1.5, 2.0])
    model = BaseJumpModel.from_uncertainty(uset)
    assert model.budget == pytest.approx(2.0)


def test_pushforward_exact_across_families(lam_12, mixtures, locations):
    for uset in (lam_12, mixtures, locations):
        model = BaseJumpModel.from_uncertainty(uset)
        for i, triple in enumerate(uset.triples):
            assert model.pushforward(i).same_as(triple.measure)


def test_pushforward_exact_random_families():
    rng = np.random.default_rng(23)
    for _ in range(8):
        triples = []
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 5))
            zs = np.unique(rng.uniform(0.2, 3.0, size=n) * rng.choice([-1, 1], size=n))
            ws = rng.uniform(0.1, 1.5, size=zs.size)
            triples.append(LevyTriple(DiscreteLevyMeasure(zs.reshape(-1, 1), ws)))
        uset = UncertaintySet(tuple(triples))
        model = BaseJumpModel.from_uncertainty(uset)
        for i, triple in enumerate(uset.triples):
            assert model.pushforward(i).same_as(triple.measure)


def test_transport_and_base_model_share_the_layout():
    # negative atoms and the modulus tie +-1 exercise the tie-break by location
    rng = np.random.default_rng(31)
    base = InverseSquareTail()
    for _ in range(10):
        n = int(rng.integers(1, 5))
        zs = np.round(rng.uniform(0.2, 3.0, size=n), 1) * rng.choice([-1, 1], size=n)
        zs = np.unique(np.concatenate([zs, [-1.0, 1.0]]))
        m = DiscreteLevyMeasure(zs.reshape(-1, 1), rng.uniform(0.1, 1.5, size=zs.size))
        model = BaseJumpModel.from_uncertainty(UncertaintySet.from_measures([m]))
        shells = transport_map(m, base).shells
        assert [sh.lo for sh in shells] == [base.inverse_tail(c) for c in model.cuts[1:]]
        assert [sh.target for sh in shells] == model.targets[0, :, 0].tolist()


def test_segments_partition_the_budget(mixtures):
    model = BaseJumpModel.from_uncertainty(mixtures)
    assert model.cuts[0] == 0.0
    assert model.cuts[-1] == pytest.approx(model.budget)
    assert np.all(np.diff(model.cuts) > 0)
    coords = np.linspace(0.0, model.budget - 1e-9, 50)
    segs = model.segments_of(coords)
    assert np.all((segs >= 0) & (segs < model.n_segments))


# -- scenarios ----------------------------------------------------------------

def test_draw_scenario_reproducible(lam_12):
    model = BaseJumpModel.from_uncertainty(lam_12)
    a = draw_scenario(model, 1.0, np.random.default_rng(5))
    b = draw_scenario(model, 1.0, np.random.default_rng(5))
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.jump_mass_coords, b.jump_mass_coords)
    assert a.brownian_times is None


def test_draw_scenario_jump_layout(lam_12):
    model = BaseJumpModel.from_uncertainty(lam_12)
    sc = draw_scenario(model, 2.0, np.random.default_rng(9))
    assert np.all(np.diff(sc.jump_times) >= 0)
    assert np.all((sc.jump_times > 0) & (sc.jump_times <= 2.0))
    assert np.all((sc.jump_mass_coords >= 0) & (sc.jump_mass_coords < model.budget))
    assert np.array_equal(sc.jump_segments, model.segments_of(sc.jump_mass_coords))


def test_draw_scenario_brownian_grid(lam_12):
    model = BaseJumpModel.from_uncertainty(lam_12)
    sc = draw_scenario(model, 1.0, np.random.default_rng(2), with_brownian=True, brownian_dt=0.25)
    assert sc.brownian_times is not None
    assert sc.brownian_times[0] == 0.0 and sc.brownian_times[-1] == 1.0
    assert sc.brownian_increments.shape[0] == sc.brownian_times.shape[0] - 1


# -- simulate_path ------------------------------------------------------------

def test_identity_control_reproduces_base_jumps():
    uset = point_mass_family([1.0])
    model = BaseJumpModel.from_uncertainty(uset)
    sc = draw_scenario(model, 1.0, np.random.default_rng(33))
    path = simulate_path(sc, ControlPolicy.constant(0, 0.0, 1.0), uset)
    assert path.n_jumps == sc.jump_times.shape[0]
    assert np.allclose(path.jump_times, sc.jump_times)
    assert np.all(path.jump_sizes == 1.0)
    assert path.scalar_value(1.0) == pytest.approx(path.n_jumps)


def test_mark_doubling_control():
    m1 = DiscreteLevyMeasure.delta(1.0)
    m2 = DiscreteLevyMeasure.delta(2.0)
    uset = UncertaintySet((LevyTriple(m1), LevyTriple(m2)))
    model = BaseJumpModel.from_uncertainty(uset)
    sc = draw_scenario(model, 1.0, np.random.default_rng(4))
    base = simulate_path(sc, ControlPolicy.constant(0, 0.0, 1.0), uset)
    doubled = simulate_path(sc, ControlPolicy.constant(1, 0.0, 1.0), uset)
    assert np.array_equal(doubled.jump_times, base.jump_times)
    assert np.allclose(doubled.jump_sizes, 2.0 * base.jump_sizes)


def test_explicit_control_matches_index_policy():
    m1 = DiscreteLevyMeasure.delta(1.0)
    m2 = DiscreteLevyMeasure.delta(2.0)
    uset = UncertaintySet((LevyTriple(m1), LevyTriple(m2)))
    model = BaseJumpModel.from_uncertainty(uset)
    sc = draw_scenario(model, 1.0, np.random.default_rng(8))
    via_index = simulate_path(sc, ControlPolicy.constant(1, 0.0, 1.0), uset)
    explicit = ExplicitControl(mark_map={2.0: 2.0, 1.0: 2.0})
    # base segments sit at the union locations; both marks relabel to size 2
    via_map = simulate_path(sc, ControlPolicy.constant(explicit, 0.0, 1.0), uset)
    assert np.array_equal(via_map.jump_times, via_index.jump_times)
    assert np.array_equal(via_map.jump_sizes, via_index.jump_sizes)


def test_explicit_control_must_land_in_the_set():
    uset = point_mass_family([1.0])
    model = BaseJumpModel.from_uncertainty(uset)
    sc = draw_scenario(model, 1.0, np.random.default_rng(8))
    stray = ExplicitControl(mark_map={1.0: 3.0})  # pushforward delta_3 is not a member
    with pytest.raises(PolicyError):
        simulate_path(sc, ControlPolicy.constant(stray, 0.0, 1.0), uset)
    wrong_drift = ExplicitControl(mark_map={1.0: 1.0}, drift=0.7)
    with pytest.raises(PolicyError):
        simulate_path(sc, ControlPolicy.constant(wrong_drift, 0.0, 1.0), uset)


def test_policy_must_cover_the_horizon():
    uset = point_mass_family([1.0])
    model = BaseJumpModel.from_uncertainty(uset)
    sc = draw_scenario(model, 1.0, np.random.default_rng(1))
    with pytest.raises(PolicyError):
        simulate_path(sc, ControlPolicy.constant(0, 0.0, 0.5), uset)


def test_piecewise_policy_switches_mark_size():
    m1 = DiscreteLevyMeasure.delta(1.0)
    m2 = DiscreteLevyMeasure.delta(2.0)
    uset = UncertaintySet((LevyTriple(m1), LevyTriple(m2)))
    model = BaseJumpModel.from_uncertainty(uset)
    sc = draw_scenario(model, 1.0, np.random.default_rng(14))
    policy = ControlPolicy(np.array([0.0, 0.5, 1.0]), (0, 1))
    path = simulate_path(sc, policy, uset)
    for t, z in zip(path.jump_times, path.jump_sizes[:, 0]):
        assert z == (1.0 if t <= 0.5 else 2.0)


def test_brownian_terminal_moments():
    triple = LevyTriple(DiscreteLevyMeasure.empty(), drift=0.0, cov_root=1.0)
    uset = UncertaintySet((triple,))
    model = BaseJumpModel.from_uncertainty(uset)
    policy = ControlPolicy.constant(0, 0.0, 1.0)
    n = 10_000
    rng = np.random.default_rng(100)
    vals = np.empty(n)
    for i in range(n):
        sc = draw_scenario(model, 1.0, rng, with_brownian=True, brownian_dt=0.05)
        vals[i] = simulate_path(sc, policy, uset).scalar_value(1.0)
    assert abs(vals.mean()) <= 3.0 / math.sqrt(n)
    var = vals.var(ddof=1)
    assert abs(var - 1.0) <= 3.0 * math.sqrt(2.0 / n)


def test_two_dimensional_diffusive_path():
    measure = DiscreteLevyMeasure(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([0.5, 0.5]))
    triple = LevyTriple(measure, drift=[0.1, -0.2], cov_root=np.array([[0.5, 0.0], [0.1, 0.3]]))
    uset = UncertaintySet((triple,))
    model = BaseJumpModel.from_uncertainty(uset)
    sc = draw_scenario(model, 1.0, np.random.default_rng(3), with_brownian=True)
    path = simulate_path(sc, ControlPolicy.constant(0, 0.0, 1.0), uset)
    assert sc.brownian_increments.shape[1] == 2
    assert path.value(1.0).shape == (2,)


def test_drift_only_path_is_linear():
    triple = LevyTriple(DiscreteLevyMeasure.empty(), drift=0.5)
    uset = UncertaintySet((triple,))
    model = BaseJumpModel.from_uncertainty(uset)
    sc = draw_scenario(model, 1.0, np.random.default_rng(0))
    path = simulate_path(sc, ControlPolicy.constant(0, 0.0, 1.0), uset)
    for t in (0.0, 0.25, 0.5, 1.0):
        assert path.scalar_value(t) == pytest.approx(0.5 * t, abs=1e-12)


# -- estimators ---------------------------------------------------------------

def test_estimator_deterministic(lam_12):
    pols = constant_policies(lam_12, 1.0)
    a = estimate_upper_expectation(lambda p: p.scalar_value(1.0), lam_12, pols, 500, 77, horizon=1.0)
    b = estimate_upper_expectation(lambda p: p.scalar_value(1.0), lam_12, pols, 500, 77, horizon=1.0)
    assert a == b


def test_estimator_requires_two_paths(lam_12):
    pols = constant_policies(lam_12, 1.0)
    with pytest.raises(InvalidInputError):
        estimate_upper_expectation(lambda p: p.scalar_value(1.0), lam_12, pols, 1, 1, horizon=1.0)


def test_estimator_monotone_in_candidates(lam_12):
    pols = constant_policies(lam_12, 1.0)
    xi = lambda p: p.scalar_value(1.0)
    small = estimate_upper_expectation(xi, lam_12, pols[:2], 400, 3, horizon=1.0)
    large = estimate_upper_expectation(xi, lam_12, pols, 400, 3, horizon=1.0)
    assert large.value >= small.value - 1e-12


def test_estimator_linear_payoff_hits_sup_mean(lam_12):
    pols = constant_policies(lam_12, 1.0)
    est = estimate_upper_expectation(lambda p: p.scalar_value(1.0), lam_12, pols, 4000, 21, horizon=1.0)
    assert est.argmax == len(pols) - 1
    assert abs(est.value - 2.0) <= 3.0 * est.std_error


def test_estimator_clamped_jump_count(lam_12):
    pols = constant_policies(lam_12, 1.0)

    def xi(p):
        return min(sum(1 for z in p.jump_sizes[:, 0] if 0.5 < z < 1.5), 1)

    est = estimate_upper_expectation(xi, lam_12, pols, 4000, 22, horizon=1.0)
    want = 1.0 - math.exp(-2.0)
    assert abs(est.value - want) <= 3.0 * est.std_error


def test_fixed_scenario_sublinearity(lam_12):
    pols = constant_policies(lam_12, 1.0)
    xi = lambda p: p.scalar_value(1.0)
    base = estimate_upper_expectation(xi, lam_12, pols, 300, 9, horizon=1.0)
    shifted = estimate_upper_expectation(lambda p: xi(p) + 0.75, lam_12, pols, 300, 9, horizon=1.0)
    assert shifted.value == pytest.approx(base.value + 0.75, abs=1e-12)
    scaled = estimate_upper_expectation(lambda p: 2.5 * xi(p), lam_12, pols, 300, 9, horizon=1.0)
    assert scaled.value == pytest.approx(2.5 * base.value, abs=1e-12)


def test_std_error_invariant_under_shift(lam_12):
    pols = constant_policies(lam_12, 1.0)
    xi = lambda p: p.scalar_value(1.0)
    base = estimate_upper_expectation(xi, lam_12, pols, 500, 12, horizon=1.0)
    shifted = estimate_upper_expectation(lambda p: xi(p) + 1e8, lam_12, pols, 500, 12, horizon=1.0)
    assert base.std_error > 0.0
    assert shifted.std_error == pytest.approx(base.std_error, rel=1e-6)


def test_capacity_sure_event(lam_12):
    pols = constant_policies(lam_12, 1.0)
    est = estimate_capacity(lambda p: True, lam_12, pols, 200, 5, horizon=1.0)
    assert est.value == 1.0 and est.std_error == 0.0


def test_capacity_boundary_jump_event_is_null(mixtures):
    # atoms 1 and 2 never land on the boundary {0.5, 1.5} of A = (0.5, 1.5)
    pols = constant_policies(mixtures, 1.0)
    boundary = Region.point_set([0.5, 1.5])

    def event(p):
        return bool(np.any(boundary.contains(p.jump_sizes)))

    est = estimate_capacity(event, mixtures, pols, 2000, 6, horizon=1.0)
    assert est.value == 0.0 and est.std_error == 0.0


def test_capacity_at_least_one_jump(lam_12):
    pols = constant_policies(lam_12, 1.0)
    est = estimate_capacity(lambda p: p.n_jumps >= 1, lam_12, pols, 4000, 30, horizon=1.0)
    want = 1.0 - math.exp(-2.0)
    assert abs(est.value - want) <= 3.0 * est.std_error


# -- erlang bound -------------------------------------------------------------

def test_erlang_bound_mixture_value(mixtures):
    res = erlang_bound_check(
        mixtures,
        region_a=Region.open_interval(0.5, 2.5),
        region_b=Region.open_interval(0.5, 1.5),
        k=1,
        time_window=(0.0, 1.0),
        n_paths=3000,
        seed=44,
    )
    want = 0.75 * (1.0 - math.exp(-1.0))
    assert res.analytic_bound == pytest.approx(want, abs=1e-12)
    assert res.mc_capacity >= res.analytic_bound - 3.0 * res.std_error
    assert res.passes


def test_erlang_bound_empty_target_trivially_passes(mixtures):
    res = erlang_bound_check(
        mixtures,
        region_a=Region.open_interval(0.5, 2.5),
        region_b=Region.open_interval(5.0, 6.0),
        k=1,
        time_window=(0.0, 1.0),
        n_paths=200,
        seed=1,
    )
    assert res.analytic_bound == 0.0
    assert res.passes


def test_erlang_bound_unbounded_window(mixtures):
    res = erlang_bound_check(
        mixtures,
        region_a=Region.open_interval(0.5, 2.5),
        region_b=Region.open_interval(0.5, 1.5),
        k=1,
        time_window=(0.0, math.inf),
        n_paths=2000,
        seed=10,
    )
    assert res.analytic_bound == pytest.approx(0.75, abs=1e-9)
    assert res.mc_capacity >= res.analytic_bound - 3.0 * res.std_error
    assert res.passes
    assert res.horizon > 10.0


def test_erlang_bound_requires_charged_region(locations):
    # the location family puts all mass on a single moving atom; x=2 never
    # charges A = (0.9, 1.1), so the Erlang precondition fails
    with pytest.raises(AssumptionError):
        erlang_bound_check(
            locations,
            region_a=Region.open_interval(0.9, 1.1),
            region_b=Region.open_interval(0.9, 1.1),
            k=1,
            time_window=(0.0, 1.0),
            n_paths=100,
            seed=2,
        )
