"""Scenario sampling, controlled paths, worst-case Monte Carlo, capacity bounds."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from glevy import (
    AssumptionError,
    BaseJumpModel,
    Box,
    CadlagPath,
    ControlPolicy,
    DiscreteLevyMeasure,
    EvaluationError,
    InvalidInputError,
    InverseSquareTail,
    KthJumpEvent,
    LevyTriple,
    PoissonIntegralPayoff,
    PolicyError,
    Region,
    TerminalPayoff,
    UncertaintySet,
    constant_policies,
    draw_scenario,
    erlang_bound_check,
    estimate_capacity,
    estimate_upper_expectation,
    poisson_integral,
    prm_count,
    simulate_path,
    transport_map,
)
from glevy.simulate import (
    _BLOCK,
    BaseScenario,
    _block_values,
    _build_paths,
    _check_paths,
    _compile_policy,
    _first_equal,
    _Paths,
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


@pytest.mark.parametrize("fixture", ["lam_12", "mixtures", "locations"])
def test_transport_map_is_the_base_relabel_of_mass_coordinate_one_over_y(request, fixture):
    # the reference mark y carries mass coordinate mu((y, inf)) = 1/y
    uset = request.getfixturevalue(fixture)
    model = BaseJumpModel.from_uncertainty(uset)
    rng = np.random.default_rng(47)
    for j, triple in enumerate(uset.triples):
        g = transport_map(triple.measure)
        assert isinstance(g(2.0), float)
        below = g.inner_radius * np.array([1.0, 0.5, 1e-3, 0.0])
        assert np.array_equal(g(below), np.zeros(4)) and g(g.inner_radius) == 0.0
        # random marks inside the shells: at a shell bound c, 1/(1/c) need not equal c
        y = 1.0 / rng.uniform(0.0, triple.measure.total_mass, size=2000)
        y = y[y > g.inner_radius]
        segs = model.segments_of(1.0 / y)
        got = g(y)
        assert isinstance(got, np.ndarray) and got.shape == y.shape and np.all(got != 0.0)
        assert np.array_equal(got, np.where(model.active[j, segs], model.targets[j, segs, 0], 0.0))


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
    assert sc.brownian_increments.shape == (1, sc.brownian_times.shape[0] - 1, 1)


def test_brownian_step_of_horizon_over_n_gives_n_increments(lam_12):
    # the same rule as Grid1D.steps_for: horizon/brownian_dt may land a few ulps above n
    model = BaseJumpModel.from_uncertainty(lam_12)
    sc = draw_scenario(model, 1.3, np.random.default_rng(0), with_brownian=True, brownian_dt=1.3 / 32000)
    assert sc.brownian_increments.shape == (1, 32000, 1)
    rng = np.random.default_rng(11)
    for t, n in zip(rng.uniform(0.01, 10.0, 300), rng.integers(1, 50_000, 300)):
        sc = draw_scenario(model, t, np.random.default_rng(0), with_brownian=True, brownian_dt=t / n)
        assert sc.brownian_increments.shape[1] == n
        assert sc.brownian_times[-1] == t


def pin_sets():
    d2 = UncertaintySet(
        (
            LevyTriple(
                DiscreteLevyMeasure(np.array([[1.0, -0.5], [0.0, 2.0]]), np.array([1.5, 0.5])),
                drift=np.zeros(2),
                cov_root=np.eye(2) * 0.3,
            ),
            LevyTriple(DiscreteLevyMeasure(np.array([[1.0, -0.5]]), np.array([2.5])), drift=np.zeros(2), cov_root=np.zeros((2, 2))),
        )
    )
    return {
        "lam_12": point_mass_family(np.linspace(1.0, 2.0, 5)),
        "mixtures": mixture_family(),
        "locations": location_family(),
        "d2": d2,
        "empty": UncertaintySet((LevyTriple(DiscreteLevyMeasure.empty(1), drift=0.5, cov_root=0.3),)),
        "busy": point_mass_family([20.0, 40.0]),
    }


def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


EMPTY = digest(np.empty(0))

# (set, seed, horizon, brownian_dt or None) -> jump count, sha256 prefixes of
# the jump times, mass coordinates, segments and Brownian increments, and the
# next uniform of the generator, recorded before paths were drawn in blocks:
# a one-path draw reads the generator as a lone scenario draw did
PINNED_DRAWS = {
    ("lam_12", 5, 1.0, None): (3, "d6e667aef7bf3965", "c0780b9734c30dbd", "aefbdb1098288d5d", None, "0x1.4e0352fe61c86p-1"),
    ("mixtures", 9, 2.0, 0.25): (3, "c373970023a455ac", "1b536d2d68c21a5e", "77064a0cfbf65675", "69d6672d865fb8cb", "0x1.325c85f3dfe64p-2"),
    ("locations", 4, 0.7, 0.1): (1, "373583cf74dcaa69", "5929fe373f4bbe4f", "af5570f5a1810b7a", "dc983e35d213067c", "0x1.e89aeef03e002p-2"),
    ("d2", 11, 1.0, 0.2): (1, "7876ff92330a2f8a", "f9cca9040846baa0", "af5570f5a1810b7a", "3c7813eee7edb90f", "0x1.1a8f0146d882cp-3"),
    ("empty", 1, 1.5, 0.5): (0, EMPTY, EMPTY, EMPTY, "5698a06afb4e5775", "0x1.e5b5615da558dp-1"),
    ("busy", 42, 3.0, 0.01): (129, "f7afe9ef6a5c7de0", "48eb8fd94862092d", "8c002155b9ae36f2", "88ed30dd2933e6c7", "0x1.ee277cd9530dap-2"),
}


@pytest.mark.parametrize("case", list(PINNED_DRAWS))
def test_one_path_draw_is_pinned(case):
    name, seed, horizon, dt = case
    model = BaseJumpModel.from_uncertainty(pin_sets()[name])
    rng = np.random.default_rng(seed)
    sc = draw_scenario(model, horizon, rng, with_brownian=dt is not None, brownian_dt=dt or 0.01)
    increments = None if sc.brownian_increments is None else digest(sc.brownian_increments)
    got = (
        sc.jump_times.shape[0],
        digest(sc.jump_times),
        digest(sc.jump_mass_coords),
        digest(sc.jump_segments.astype(np.int64)),
        increments,
        float(rng.random()).hex(),
    )
    assert got == PINNED_DRAWS[case]
    assert sc.n_paths == 1 and list(sc.offsets) == [0, got[0]]


def block_stream(seed, block_index):
    """The estimator's stream: one Philox generator per (seed, block index)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, block_index], dtype=np.uint64)))


def test_block_stream_statistics():
    # per-path jump counts Poisson(budget T), times sorted in (0, T] within
    # each path and uniform whatever the path's place in the block, Brownian
    # increments N(0, dt)
    uset = point_mass_family([1.5, 3.0])
    model = BaseJumpModel.from_uncertainty(uset)
    T, dt = 1.5, 0.1
    counts, increments, halves = [], [], ([], [])
    for seed in (1, 2, 3):
        for b in range(4):
            sc = draw_scenario(model, T, block_stream(seed, b), with_brownian=True, brownian_dt=dt, n_paths=_BLOCK)
            assert sc.n_paths == _BLOCK and sc.offsets[0] == 0
            owner = np.repeat(np.arange(_BLOCK), np.diff(sc.offsets))
            same = owner[1:] == owner[:-1]
            assert np.all(np.diff(sc.jump_times)[same] > 0.0)
            assert np.all((sc.jump_times > 0.0) & (sc.jump_times <= T))
            assert np.array_equal(sc.jump_segments, model.segments_of(sc.jump_mass_coords))
            assert sc.brownian_increments.shape == (_BLOCK, 15, 1)
            counts.append(np.diff(sc.offsets))
            increments.append(sc.brownian_increments.reshape(-1))
            halves[0].append(sc.jump_times[owner < _BLOCK // 2])
            halves[1].append(sc.jump_times[owner >= _BLOCK // 2])
    for times in map(np.concatenate, halves):
        assert abs(times.mean() - T / 2) <= 4.0 * T / math.sqrt(12.0 * times.shape[0])
    counts, increments = np.concatenate(counts), np.concatenate(increments)
    lam, n, m = model.budget * T, counts.shape[0], increments.shape[0]
    assert abs(counts.mean() - lam) <= 4.0 * math.sqrt(lam / n)
    assert abs(counts.var(ddof=1) - lam) <= 4.0 * math.sqrt((lam + 2.0 * lam * lam) / n)
    assert abs(increments.mean()) <= 4.0 * math.sqrt(dt / m)
    assert abs(increments.var(ddof=1) - dt) <= 4.0 * dt * math.sqrt(2.0 / m)


def test_draw_scenario_refuses_no_paths(lam_12):
    model = BaseJumpModel.from_uncertainty(lam_12)
    with pytest.raises(InvalidInputError):
        draw_scenario(model, 1.0, np.random.default_rng(1), n_paths=0)


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


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "a control value is a triple index"),
        (np.bool_(False), "a control value is a triple index"),
        (1.0, "a control value is a triple index"),
        (np.float64(0.0), "a control value is a triple index"),
        ("0", "a control value is a triple index"),
        (None, "a control value is a triple index"),
        (-1, "triple index -1 outside"),
        (2, "triple index 2 outside"),
    ],
    ids=["bool", "numpy-bool", "float", "numpy-float", "str", "none", "minus-one", "len"],
)
def test_control_value_refusals(value, message):
    # values that are not integers are refused by the policy, integers
    # outside the two-triple set when the policy is compiled against it
    uset = point_mass_family([1.0, 2.0])
    sc = draw_scenario(BaseJumpModel.from_uncertainty(uset), 1.0, np.random.default_rng(8))
    with pytest.raises(PolicyError, match=message):
        simulate_path(sc, ControlPolicy.constant(value, 0.0, 1.0), uset)


@pytest.mark.parametrize(
    "breakpoints", [[0.0, np.nan, 1.0], [np.nan, 1.0], [0.0, 1.0, np.nan], [0.0, 0.0]], ids=["mid", "first", "last", "equal"]
)
def test_breakpoints_that_do_not_increase_are_refused(breakpoints):
    # a NaN difference is neither <= 0 nor > 0: only "every step increases" refuses it
    with pytest.raises(PolicyError, match="strictly increasing"):
        ControlPolicy(np.array(breakpoints), (0,) * (len(breakpoints) - 1))


def test_an_infinite_last_breakpoint_is_accepted():
    assert ControlPolicy(np.array([0.0, np.inf]), (0,)).breakpoints.tolist() == [0.0, np.inf]


def test_control_values_are_stored_as_python_ints():
    policy = ControlPolicy(np.array([0.0, 0.5, 1.0]), np.array([1, 0]))
    assert policy.values == (1, 0) and all(type(v) is int for v in policy.values)


def test_simulate_path_refuses_a_block_of_several_paths(lam_12):
    model = BaseJumpModel.from_uncertainty(lam_12)
    sc = draw_scenario(model, 1.0, np.random.default_rng(1), n_paths=2)
    with pytest.raises(InvalidInputError, match="one-path scenario"):
        simulate_path(sc, ControlPolicy.constant(0, 0.0, 1.0), lam_12)


def test_simulated_tiny_jumps_are_not_dropped():
    # the square of 1e-200 underflows to 0, which a norm would take for a zero jump
    uset = UncertaintySet((LevyTriple(DiscreteLevyMeasure.delta(1e-200, 5.0)),))
    sc = draw_scenario(BaseJumpModel.from_uncertainty(uset), 1.0, np.random.default_rng(1))
    path = simulate_path(sc, ControlPolicy.constant(0, 0.0, 1.0), uset)
    assert path.n_jumps == sc.offsets[-1] > 0
    assert path.jump_sizes.ravel().tolist() == [1e-200] * path.n_jumps


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
    assert sc.brownian_increments.shape == (1, 100, 2)
    assert path.value(1.0).shape == (2,)


def test_drift_only_path_is_linear():
    triple = LevyTriple(DiscreteLevyMeasure.empty(), drift=0.5)
    uset = UncertaintySet((triple,))
    model = BaseJumpModel.from_uncertainty(uset)
    sc = draw_scenario(model, 1.0, np.random.default_rng(0))
    path = simulate_path(sc, ControlPolicy.constant(0, 0.0, 1.0), uset)
    for t in (0.0, 0.25, 0.5, 1.0):
        assert path.scalar_value(t) == pytest.approx(0.5 * t, abs=1e-12)


# -- the per-jump, per-cell loop builder, kept as the reference ---------------

def reference_path(scenario, policy, uset):
    """simulate_path as a running loop over Brownian cells and over jumps."""
    T = scenario.horizon
    policy.check_covers(0.0, T)
    compiled = _compile_policy(policy, uset)
    model = scenario.model
    d = model.targets.shape[2]
    bp = compiled.breakpoints
    last = len(policy.values) - 1

    def value_index(t, side):
        # breakpoints[0] may sit up to the covering tolerance above 0
        return min(max(int(np.searchsorted(bp, t, side=side) - 1), 0), last)

    if compiled.needs_brownian:
        if scenario.brownian_times is None:
            raise PolicyError("policy needs Brownian increments but the scenario has none")
        edges = scenario.brownian_times.tolist()
    else:
        edges = [0.0] + [float(b) for b in bp if 0.0 < b < T] + [T]
    times = [0.0]
    vals = [np.zeros(d)]
    x = np.zeros(d)
    for m, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        v = compiled.triples[value_index(lo, "right")]
        x = x + uset.drifts[v] * (hi - lo)
        if compiled.needs_brownian:
            x = x + uset.cov_roots[v] @ scenario.brownian_increments[0, m]
        times.append(hi)
        vals.append(x)

    jt, js = [], []
    for t, seg in zip(scenario.jump_times, scenario.jump_segments):
        if not (0.0 < t <= T):
            continue
        v = compiled.triples[value_index(t, "left")]
        if model.active[v, seg]:
            z = model.targets[v, seg]
            if jt and t == jt[-1]:
                js[-1] = js[-1] + z
            else:
                jt.append(float(t))
                js.append(z)
    jtimes = np.array(jt)
    jsizes = np.vstack(js) if js else np.empty((0, d))
    nz = np.linalg.norm(jsizes, axis=1) > 0.0 if jsizes.shape[0] else np.empty(0, dtype=bool)
    if jtimes.shape[0]:
        jtimes, jsizes = jtimes[nz], jsizes[nz]
    return CadlagPath(T, np.array(times), np.vstack(vals), jtimes, jsizes)


def path_bytes(path):
    arrays = (path.grid_times, path.grid_values, path.jump_times, path.jump_sizes)
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


def outcome(fn):
    try:
        return path_bytes(fn())
    except (InvalidInputError, PolicyError) as exc:
        return type(exc)


def random_case(rng, kind):
    """A random set of one kind, with a few policies and scenarios on it."""
    d = 2 if kind == "d2" else 1
    triples = []
    for _ in range(int(rng.integers(1, 4))):
        if kind == "empty" and rng.random() < 0.5:
            measure = DiscreteLevyMeasure.empty(d)
        else:
            atoms = np.unique(rng.choice([-2.0, -1.0, 1.0, 1.5, 3.0], size=(int(rng.integers(1, 4)), d)), axis=0)
            measure = DiscreteLevyMeasure(atoms, rng.uniform(0.5, 4.0, atoms.shape[0]))
        diffuses = kind in ("diffusive", "d2") and rng.random() < 0.7
        cov_root = rng.normal(0.0, 0.5, (d, d)) if diffuses else np.zeros((d, d))
        triples.append(LevyTriple(measure, drift=rng.normal(0.0, 1.0, d), cov_root=cov_root))
    uset = UncertaintySet(tuple(triples))
    model = BaseJumpModel.from_uncertainty(uset)
    n = len(uset)
    policies = [ControlPolicy.constant(i, 0.0, 1.0) for i in range(n)]
    policies += [
        ControlPolicy(np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 2)])), tuple(rng.integers(0, n, 3)))
        for _ in range(3)
    ]
    policies.append(ControlPolicy.constant(0, 0.0, 0.5))  # refused: does not cover
    policies.append(ControlPolicy.constant(n, 0.0, 1.0))  # refused: names no triple
    scenarios = [
        draw_scenario(model, 1.0, rng, with_brownian=bool(s % 2), brownian_dt=float(rng.choice([0.05, 0.3])))
        for s in range(4)
    ]
    return uset, policies, scenarios


@pytest.mark.parametrize("kind", ["switching", "diffusive", "d2", "empty"])
def test_simulate_path_matches_loop_reference(kind):
    rng = np.random.default_rng(["switching", "diffusive", "d2", "empty"].index(kind))
    built = refused = 0
    for _ in range(24):  # enough cases for 200 built paths of every kind
        uset, policies, scenarios = random_case(rng, kind)
        for sc in scenarios:
            for policy in policies:
                got = outcome(lambda: simulate_path(sc, policy, uset))
                assert got == outcome(lambda: reference_path(sc, policy, uset))
                if isinstance(got, type):
                    refused += 1
                else:
                    built += 1
    assert refused and built >= 200


def test_merged_jump_times_match_loop_reference(mixtures):
    # equal jump times within a path merge into one jump; zero sums vanish
    plus_minus = UncertaintySet.from_measures([DiscreteLevyMeasure(np.array([[-1.0], [1.0]]), np.array([1.0, 1.0]))])
    for uset in (mixtures, plus_minus):
        model = BaseJumpModel.from_uncertainty(uset)
        times = np.array([0.1, 0.4, 0.4, 0.4, 0.7, 0.7, 0.9])
        for segments in ([0, 1, 0, 1, 1, 0, 1], [1, 0, 1, 1, 0, 1, 0]):
            segments = np.array(segments) % model.n_segments
            sc = BaseScenario(1.0, model, np.array([0, times.shape[0]]), times, np.zeros(times.shape[0]), segments)
            for i in range(len(uset)):
                policy = ControlPolicy.constant(i, 0.0, 1.0)
                path = simulate_path(sc, policy, uset)
                assert path_bytes(path) == path_bytes(reference_path(sc, policy, uset))
                assert np.all(np.diff(path.jump_times) > 0.0)


def test_first_breakpoint_within_tolerance_uses_first_value():
    # breakpoints[0] up to 1e-12 above start is accepted as covering; the
    # first Brownian cell and early jumps must run under values[0], not values[-1]
    uset = UncertaintySet(
        (
            LevyTriple(DiscreteLevyMeasure.delta(1.0)),
            LevyTriple(DiscreteLevyMeasure.delta(2.0, 2.0), drift=5.0, cov_root=1.0),
        )
    )
    model = BaseJumpModel.from_uncertainty(uset)
    sc = draw_scenario(model, 1.0, np.random.default_rng(6), with_brownian=True, brownian_dt=0.1)
    nudged = simulate_path(sc, ControlPolicy(np.array([5e-13, 0.5, 1.0]), (0, 1)), uset)
    exact = simulate_path(sc, ControlPolicy(np.array([0.0, 0.5, 1.0]), (0, 1)), uset)
    assert path_bytes(nudged) == path_bytes(exact)
    assert nudged.scalar_value(0.1) == exact.scalar_value(0.1)


# -- estimators ---------------------------------------------------------------

def test_estimator_deterministic(lam_12):
    pols = constant_policies(lam_12, 1.0)
    a = estimate_upper_expectation(lambda p: p.scalar_value(1.0), lam_12, pols, 500, 77, horizon=1.0)
    b = estimate_upper_expectation(lambda p: p.scalar_value(1.0), lam_12, pols, 500, 77, horizon=1.0)
    assert a == b


@pytest.mark.parametrize("seed", [-1, 2**64, np.int64(-3), 1.0, True, "1", None])
def test_estimators_refuse_a_seed_that_names_no_stream(lam_12, seed):
    pols = constant_policies(lam_12, 1.0)
    region = Region.open_interval(0.5, 2.5)
    with pytest.raises(InvalidInputError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        estimate_upper_expectation(lambda p: p.scalar_value(1.0), lam_12, pols, 10, seed, horizon=1.0)
    with pytest.raises(InvalidInputError, match="seed must be"):
        estimate_capacity(lambda p: p.n_jumps > 1, lam_12, pols, 10, seed, horizon=1.0)
    with pytest.raises(InvalidInputError, match="seed must be"):
        erlang_bound_check(lam_12, region, region, 1, (0.0, 1.0), 10, seed)


def test_estimator_accepts_every_seed_of_the_stream_keys(lam_12):
    pols = constant_policies(lam_12, 1.0)
    xi = TerminalPayoff(lambda x: x)
    for seed in (0, 2**32, 2**64 - 1):
        assert estimate_upper_expectation(xi, lam_12, pols, 10, seed, horizon=1.0) == estimate_upper_expectation(
            xi, lam_12, pols, 10, np.uint64(seed), horizon=1.0
        )


def test_estimator_requires_two_paths(lam_12):
    pols = constant_policies(lam_12, 1.0)
    with pytest.raises(InvalidInputError):
        estimate_upper_expectation(lambda p: p.scalar_value(1.0), lam_12, pols, 1, 1, horizon=1.0)


@pytest.mark.parametrize("horizon", [0.0, math.inf, math.nan])
def test_estimator_and_scenarios_refuse_non_finite_or_zero_horizon(lam_12, horizon):
    pols = constant_policies(lam_12, 1.0)
    with pytest.raises(InvalidInputError):
        estimate_upper_expectation(lambda p: p.scalar_value(1.0), lam_12, pols, 10, 1, horizon=horizon)
    with pytest.raises(InvalidInputError):
        draw_scenario(BaseJumpModel.from_uncertainty(lam_12), horizon, np.random.default_rng(1))


@pytest.mark.parametrize("brownian_dt", [0.0, -0.1, math.inf, math.nan])
def test_draw_scenario_refuses_non_finite_or_zero_brownian_step(lam_12, brownian_dt):
    model = BaseJumpModel.from_uncertainty(lam_12)
    with pytest.raises(InvalidInputError):
        draw_scenario(model, 1.0, np.random.default_rng(1), with_brownian=True, brownian_dt=brownian_dt)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_estimator_refuses_non_finite_payoff_values(lam_12, bad):
    pols = constant_policies(lam_12, 1.0)
    xi = lambda p: bad if p.n_jumps == 3 else float(p.scalar_value(1.0))
    with pytest.raises(EvaluationError):
        estimate_upper_expectation(xi, lam_12, pols, 300, 1, horizon=1.0)


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


# -- block estimator against a per-path reference ------------------------------

def one_path_scenarios(block):
    """The scenarios of a block as one-path scenarios, in path order."""
    o, bi = block.offsets, block.brownian_increments
    return [
        BaseScenario(
            block.horizon,
            block.model,
            np.array([0, o[i + 1] - o[i]]),
            block.jump_times[o[i] : o[i + 1]],
            block.jump_mass_coords[o[i] : o[i + 1]],
            block.jump_segments[o[i] : o[i + 1]],
            block.brownian_times,
            None if bi is None else bi[i : i + 1],
        )
        for i in range(block.n_paths)
    ]


def reference_estimate(xi, uset, candidates, n_paths, seed, horizon=1.0, brownian_dt=0.01):
    """One simulate_path per (path, candidate) on the split blocks, running sums."""
    model = BaseJumpModel.from_uncertainty(uset)
    needs = any(_compile_policy(c, uset).needs_brownian for c in candidates)
    scenarios = []
    for first in range(0, n_paths, _BLOCK):
        block = draw_scenario(
            model,
            horizon,
            block_stream(seed, first // _BLOCK),
            with_brownian=needs,
            brownian_dt=brownian_dt,
            n_paths=min(_BLOCK, n_paths - first),
        )
        scenarios += one_path_scenarios(block)
    C = len(candidates)
    sums, shifts, dev_sums, dev_sumsq = [0.0] * C, [0.0] * C, [0.0] * C, [0.0] * C
    for p, sc in enumerate(scenarios):
        for ci, c in enumerate(candidates):
            val = float(xi(simulate_path(sc, c, uset)))
            if p == 0:
                shifts[ci] = val
            sums[ci] += val
            dev = val - shifts[ci]
            dev_sums[ci] += dev
            dev_sumsq[ci] += dev * dev
    means = np.array(sums) / n_paths
    winner = int(np.argmax(means))
    dev_mean = dev_sums[winner] / n_paths
    var = max(dev_sumsq[winner] / n_paths - dev_mean**2, 0.0) * n_paths / (n_paths - 1)
    return float(means[winner]), float(math.sqrt(var / n_paths)), winner


def diffusive_set():
    return UncertaintySet(
        tuple(LevyTriple(DiscreteLevyMeasure.delta(1.0, 0.4), drift=0.1 * a, cov_root=0.5) for a in (1, 2, 3))
    )


@pytest.mark.parametrize("n_paths", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_estimator_block_boundaries_match_reference(lam_12, n_paths):
    switch = np.array([0.0, 0.5, 1.0])
    xi = lambda p: p.scalar_value(1.0)
    sets = [
        (lam_12, constant_policies(lam_12, 1.0) + [ControlPolicy(switch, (0, 4)), ControlPolicy(switch, (4, 0))]),
        (diffusive_set(), constant_policies(diffusive_set(), 1.0) + [ControlPolicy(switch, (2, 0))]),
    ]
    for uset, candidates in sets:
        est = estimate_upper_expectation(xi, uset, candidates, n_paths, 17, horizon=1.0, brownian_dt=0.05)
        assert tuple(est) == reference_estimate(xi, uset, candidates, n_paths, 17, brownian_dt=0.05)


def test_candidates_with_equal_paths_share_one_payoff_call(lam_12):
    calls = []

    def xi(path):
        calls.append(1)
        return path.scalar_value(1.0)

    pols = constant_policies(lam_12, 1.0)
    est = estimate_upper_expectation(xi, lam_12, pols, 300, 4, horizon=1.0)
    assert len(calls) < 300 * len(pols)
    assert tuple(est) == reference_estimate(lambda p: p.scalar_value(1.0), lam_12, pols, 300, 4)


def test_paths_differing_only_in_grid_times_are_evaluated_apart(lam_12):
    # zero drift and no diffusion: the two policies realize the same values
    # and, on most scenarios, the same jumps; only the breakpoint grids differ
    calls = []

    def xi(path):
        calls.append(1)
        return float(path.grid_times[1])

    pols = [ControlPolicy(np.array([0.0, 0.3, 1.0]), (0, 1)), ControlPolicy(np.array([0.0, 0.6, 1.0]), (0, 1))]
    est = estimate_upper_expectation(xi, lam_12, pols, 200, 8, horizon=1.0)
    assert len(calls) == 200 * len(pols)
    assert est.argmax == 1 and est.value == pytest.approx(0.6)
    assert tuple(est) == reference_estimate(xi, lam_12, pols, 200, 8)


# -- equal candidates found on arrays, against the old key of bytes --------------

def byte_key_reference(built):
    """The first map and the (path, candidate) payoff calls of a dict keyed on the bytes of each path."""
    n = built[0].offsets.shape[0] - 1
    first = np.empty((n, len(built)), dtype=int)
    calls = []
    for i in range(n):
        seen = {}
        for c, paths in enumerate(built):
            key = tuple(a.tobytes() for a in paths.arrays(i))
            if key not in seen:
                seen[key] = c
                calls.append((i, c))
            first[i, c] = seen[key]
    return first, calls


def one_candidate_blocks(block, uset, compiled):
    """Each candidate's paths of a block, built as a one-candidate group."""
    return [_build_paths(block, uset, [comp])[0][1] for comp in compiled]


def first_equal_of_groups(block, uset, compiled):
    """The first map of a block, _first_equal of each group scattered to its members."""
    first = np.empty((block.n_paths, len(compiled)), dtype=int)
    for members, paths in _build_paths(block, uset, compiled):
        first[:, members] = np.array(members)[_first_equal(paths, len(members))]
    return first


def assert_matches_byte_key(block, uset, compiled):
    built = one_candidate_blocks(block, uset, compiled)
    first, calls = byte_key_reference(built)
    assert np.array_equal(first_equal_of_groups(block, uset, compiled), first)
    seen = []

    def xi(path):
        seen.append(path_bytes(path))
        return float(path.value(path.horizon).sum()) + path.n_jumps

    vals = _block_values(xi, block, uset, compiled)
    assert seen == [path_bytes(CadlagPath._unchecked(block.horizon, *built[c].arrays(i))) for i, c in calls]
    assert np.array_equal(vals, [[xi(CadlagPath(block.horizon, *paths.arrays(i))) for paths in built] for i in range(block.n_paths)])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["switching", "diffusive", "d2", "empty"]))
def test_equal_candidates_match_the_byte_key(seed, kind):
    rng = np.random.default_rng(seed)
    uset, policies, _ = random_case(rng, kind)
    model = BaseJumpModel.from_uncertainty(uset)
    compiled = compiled_candidates(uset, policies)
    # repeated candidates realize equal paths on every scenario
    compiled += compiled[::2]
    block = draw_scenario(model, 1.0, rng, with_brownian=True, brownian_dt=0.2, n_paths=int(rng.integers(1, 9)))
    assert_matches_byte_key(block, uset, compiled)


def test_unequal_paths_with_one_sort_key_are_told_apart():
    # equal jump counts, terminal values and size sums, jump sizes in another
    # order: candidate 1 differs from 0, and 3 matches it
    def one_path(sizes):
        return _Paths(np.array([0.0, 1.0]), np.zeros((1, 2, 1)), np.array([0, 2]), np.array([0.2, 0.5]), np.array(sizes))

    sizes = [[[1.0], [2.0]], [[2.0], [1.0]], [[1.0], [2.0]], [[2.0], [1.0]]]
    built = [one_path(s) for s in sizes]
    group = _Paths(np.array([0.0, 1.0]), np.zeros((4, 2, 1)), np.arange(0, 9, 2), np.tile([0.2, 0.5], 4), np.concatenate(sizes))
    assert _first_equal(group, 4).tolist() == [[0, 1, 0, 1]]
    assert np.array_equal(_first_equal(group, 4), byte_key_reference(built)[0])


def test_paths_differing_only_in_grid_times_match_the_byte_key(lam_12):
    model = BaseJumpModel.from_uncertainty(lam_12)
    pols = [ControlPolicy(np.array([0.0, 0.3, 1.0]), (0, 1)), ControlPolicy(np.array([0.0, 0.6, 1.0]), (0, 1))]
    compiled = [_compile_policy(p, lam_12) for p in pols + constant_policies(lam_12, 1.0)]
    assert_matches_byte_key(draw_scenario(model, 1.0, np.random.default_rng(8), n_paths=50), lam_12, compiled)


def group_of(paths_by_candidate):
    """One-path blocks, one per candidate, as the candidate-major group of one path."""
    return _Paths(
        paths_by_candidate[0].grid_times,
        np.concatenate([p.grid_values for p in paths_by_candidate]),
        np.concatenate([[0], np.cumsum([p.offsets[-1] for p in paths_by_candidate])]),
        np.concatenate([p.jump_times for p in paths_by_candidate]),
        np.concatenate([p.jump_sizes for p in paths_by_candidate]),
    )


def jump_block(jumps, d=1):
    """A one-path block without a continuous part, from (time, size) pairs."""
    times = np.array([t for t, _ in jumps], dtype=float)
    sizes = np.array([s for _, s in jumps], dtype=float).reshape(len(jumps), d)
    return _Paths(np.array([0.0, 1.0]), np.zeros((1, 2, d)), np.array([0, len(jumps)]), times, sizes)


# pairs of different paths whose jump count, size sum and time-weighted size
# sum agree: the key of _first_equal collides, and _same_paths tells them apart
COLLIDING_PATHS = {
    "sizes-scaled": (
        [(0.25, 1.0), (0.5, -2.0), (0.75, 1.0)],
        [(0.25, 2.0), (0.5, -4.0), (0.75, 2.0)],
    ),
    "times-moved": ([(0.25, 2.0), (0.5, -1.0)], [(0.25, 1.5), (0.75, -0.5)]),
    "two-dimensional": ([(0.25, [1.0, 2.0]), (0.5, [-2.0, -1.0])], [(0.25, [0.0, 1.5]), (0.75, [-1.0, -0.5])]),
}


@pytest.mark.parametrize("case", list(COLLIDING_PATHS))
@pytest.mark.parametrize("order", ["abab", "baab", "aabb", "bbba"])
def test_colliding_keys_of_different_paths_match_the_byte_key(monkeypatch, case, order):
    import glevy.simulate

    a, b = COLLIDING_PATHS[case]
    d = np.size(a[0][1])
    built = [jump_block(a if k == "a" else b, d) for k in order]
    group = group_of(built)
    counts = np.diff(group.offsets)
    sums = [np.add.reduceat(x, group.offsets[:-1]) for x in (group.jump_sizes, group.jump_times[:, None] * group.jump_sizes)]
    assert len(set(counts)) == 1 and all((s == s[0]).all() for s in sums)  # the key collides
    rounds = count_calls(monkeypatch, glevy.simulate, "_same_paths")
    assert np.array_equal(_first_equal(group, len(order)), byte_key_reference(built)[0])
    assert len(rounds) == 2


def test_overflowing_key_sums_still_pair_equal_paths():
    # jump time x jump size overflows to +-inf, so a path's time-weighted sum
    # can be inf - inf = NaN; equal paths must still share one head
    uset = UncertaintySet((LevyTriple(DiscreteLevyMeasure(np.array([[1e308], [-1e308]]), np.array([2.0, 2.0]))),))
    with np.errstate(over="ignore"):  # the mass layout's norms of the atoms overflow
        model = BaseJumpModel.from_uncertainty(uset)
    compiled = [_compile_policy(p, uset) for p in constant_policies(uset, 5.0) * 3]
    block = draw_scenario(model, 5.0, np.random.default_rng(4), n_paths=40)
    [(_, group)] = _build_paths(block, uset, compiled)
    with np.errstate(all="ignore"):
        weighted = np.add.reduceat(group.jump_times * group.jump_sizes[:, 0], group.offsets[:-1][np.diff(group.offsets) > 0])
    assert np.isnan(weighted).any()
    first = first_equal_of_groups(block, uset, compiled)
    assert np.array_equal(first, byte_key_reference(one_candidate_blocks(block, uset, compiled))[0])
    assert (first == 0).all()


def test_the_mixture_bench_case_settles_every_group_in_one_round(monkeypatch, mixtures):
    # the mixtures, controls and seed of the mixture op of bench/workloads.py:
    # the key of _first_equal tells every pair of different paths apart, so
    # each group of each block makes one _same_paths call
    import glevy.simulate

    rounds = count_calls(monkeypatch, glevy.simulate, "_same_paths")
    groups = count_calls(monkeypatch, glevy.simulate, "_first_equal")
    switch = np.array([0.0, 0.5, 1.0])
    pols = constant_policies(mixtures, 1.0) + [ControlPolicy(switch, (0, 2)), ControlPolicy(switch, (2, 0))]
    seed = int(np.random.SeedSequence([1, 2]).generate_state(1)[0])
    estimate_upper_expectation(lambda p: p.scalar_value(1.0), mixtures, pols, 4000, seed, horizon=1.0)
    assert len(groups) == 2 * -(-4000 // _BLOCK)
    assert len(rounds) == len(groups)


# -- candidate-major groups: one block per set of shared cells --------------------

def cells_of(block, comp):
    """The cell ends of a candidate's continuous part: the Brownian grid when it diffuses, else its breakpoints in [0, 1]."""
    if comp.needs_brownian:
        return block.brownian_times.tolist()
    bp = comp.breakpoints
    return [0.0] + bp[(bp > 0.0) & (bp < block.horizon)].tolist() + [block.horizon]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["switching", "diffusive", "d2", "empty"]))
def test_groups_hold_the_one_candidate_blocks(seed, kind):
    rng = np.random.default_rng(seed)
    uset, policies, _ = random_case(rng, kind)
    model = BaseJumpModel.from_uncertainty(uset)
    compiled = compiled_candidates(uset, policies)
    compiled += compiled[1::2]  # repeated candidates
    n = int(rng.integers(1, 9))
    block = draw_scenario(model, 1.0, rng, with_brownian=True, brownian_dt=0.2, n_paths=n)
    groups = _build_paths(block, uset, compiled)
    assert sorted(c for members, _ in groups for c in members) == list(range(len(compiled)))
    assert [members[0] for members, _ in groups] == sorted(members[0] for members, _ in groups)
    brownian = [c for c, comp in enumerate(compiled) if comp.needs_brownian]
    for members, paths in groups:
        assert members == sorted(members) and paths.offsets.shape[0] == len(members) * n + 1
        # members share their cells, and no other candidate has them
        assert all(cells_of(block, compiled[c]) == paths.grid_times.tolist() for c in members)
        assert not any(cells_of(block, compiled[c]) == paths.grid_times.tolist() for c in set(range(len(compiled))) - set(members))
        # a diffusive candidate shares only the Brownian grid, so every one sits in one group
        if set(brownian) & set(members):
            assert set(brownian) <= set(members)
        for k, (c, one) in enumerate(zip(members, one_candidate_blocks(block, uset, [compiled[c] for c in members]))):
            for i in range(n):
                got = CadlagPath._unchecked(1.0, *paths.arrays(k * n + i))
                assert path_bytes(got) == path_bytes(CadlagPath._unchecked(1.0, *one.arrays(i)))


def test_constant_policies_form_one_group():
    uset = point_mass_family(np.linspace(1.0, 2.0, 11))
    block = draw_scenario(BaseJumpModel.from_uncertainty(uset), 1.0, np.random.default_rng(3), n_paths=7)
    [(members, paths)] = _build_paths(block, uset, [_compile_policy(p, uset) for p in constant_policies(uset, 1.0)])
    assert members == list(range(11))
    assert paths.grid_values.shape == (77, 2, 1) and paths.offsets.shape == (78,)


def test_a_candidate_on_the_brownian_grid_shares_the_diffusive_group():
    # triple 1 diffuses but acts only after the horizon, so candidate 0 needs
    # Brownian increments and realizes the drift of triple 0 on the Brownian
    # grid; candidate 1 cuts the same cells with its breakpoints and realizes
    # the same paths. They form one group, and equal paths share one call
    uset = UncertaintySet(
        (LevyTriple(DiscreteLevyMeasure.delta(1.0, 1.5), drift=0.25), LevyTriple(DiscreteLevyMeasure.delta(2.0, 0.5), cov_root=0.3))
    )
    model = BaseJumpModel.from_uncertainty(uset)
    pols = [
        ControlPolicy(np.array([0.0, 1.0, 2.0]), (0, 1)),
        ControlPolicy(np.linspace(0.0, 1.0, 5), (0, 0, 0, 0)),
        ControlPolicy.constant(0, 0.0, 1.0),
        ControlPolicy.constant(1, 0.0, 1.0),
    ]
    compiled = [_compile_policy(p, uset) for p in pols]
    block = draw_scenario(model, 1.0, np.random.default_rng(2), with_brownian=True, brownian_dt=0.25, n_paths=6)
    assert [members for members, _ in _build_paths(block, uset, compiled)] == [[0, 1, 3], [2]]
    assert np.array_equal(first_equal_of_groups(block, uset, compiled)[:, 1], np.zeros(6))
    assert_matches_byte_key(block, uset, compiled)


# -- terminal payoffs: no path objects, the same numbers -------------------------

def negative_drift_set():
    return UncertaintySet(
        (
            LevyTriple(DiscreteLevyMeasure(np.array([[-1.0], [0.5]]), np.array([1.0, 0.7])), drift=0.3),
            LevyTriple(DiscreteLevyMeasure(np.array([[-2.0], [1.0]]), np.array([0.4, 1.2])), drift=-0.2),
        )
    )


TERMINAL_SETS = {
    "intensities": lambda: point_mass_family(np.linspace(1.0, 2.0, 5)),
    "mixtures": mixture_family,
    "diffusive": diffusive_set,
    "negative-atoms-drift": negative_drift_set,
}


def hexes(est):
    return float.hex(est.value), float.hex(est.std_error), est.argmax


@pytest.mark.parametrize("n_paths", [2, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 3])
@pytest.mark.parametrize("kind", list(TERMINAL_SETS))
def test_terminal_payoff_matches_the_path_route(kind, n_paths):
    uset = TERMINAL_SETS[kind]()
    T = 1.3
    switch = np.array([0.0, 0.4, T])
    last = len(uset) - 1
    phi = lambda x: np.tanh(x - 1.0) + 0.1 * np.asarray(x)
    for candidates in (
        constant_policies(uset, T),
        constant_policies(uset, T) + [ControlPolicy(switch, (0, last)), ControlPolicy(switch, (last, 0))],
    ):
        kw = dict(horizon=T, brownian_dt=T / 32)
        terminal = estimate_upper_expectation(TerminalPayoff(phi), uset, candidates, n_paths, 29, **kw)
        path = estimate_upper_expectation(lambda p: float(phi(p.scalar_value(T))), uset, candidates, n_paths, 29, **kw)
        assert hexes(terminal) == hexes(path)


def test_terminal_payoff_falls_back_to_one_call_per_value(mixtures):
    # a scalar-only phi cannot take the block's array of terminal values
    phi = lambda x: 1.0 if x > 1.5 else x / 3.0
    pols = constant_policies(mixtures, 1.0)
    terminal = estimate_upper_expectation(TerminalPayoff(phi), mixtures, pols, 300, 5, horizon=1.0)
    path = estimate_upper_expectation(lambda p: phi(p.scalar_value(1.0)), mixtures, pols, 300, 5, horizon=1.0)
    assert hexes(terminal) == hexes(path)


def test_terminal_payoff_on_a_path_is_phi_of_the_terminal_value():
    path = CadlagPath(2.0, [0.0, 1.0, 2.0], [0.0, 0.5, -0.25], [0.3, 1.5], [1.0, 2.0])
    assert TerminalPayoff(lambda x: x * x)(path) == path.scalar_value(2.0) ** 2


def test_terminal_payoff_refuses_multidimensional_sets():
    d2 = UncertaintySet((LevyTriple(DiscreteLevyMeasure(np.array([[1.0, 0.5]]), np.array([1.0]))),))
    pols = constant_policies(d2, 1.0)
    message = "scalar_value requires a one-dimensional path"
    with pytest.raises(InvalidInputError, match=message):
        estimate_upper_expectation(TerminalPayoff(lambda x: x), d2, pols, 10, 1, horizon=1.0)
    with pytest.raises(InvalidInputError, match=message):
        estimate_upper_expectation(lambda p: p.scalar_value(1.0), d2, pols, 10, 1, horizon=1.0)


def test_terminal_payoff_refuses_a_non_finite_phi(lam_12):
    phi = lambda x: np.where(np.asarray(x) > 2.0, math.nan, x)
    with pytest.raises(EvaluationError, match="payoff evaluated to nan"):
        estimate_upper_expectation(TerminalPayoff(phi), lam_12, constant_policies(lam_12, 1.0), 300, 1, horizon=1.0)


# -- jump payoffs on block arrays against their per-path references ---------------

def kth_jump_reference(region_a, region_b, k, window):
    """The k-th jump event of erlang_bound_check as the per-path closure it was."""
    c0, c1 = window

    def event(path):
        if path.n_jumps == 0:
            return False
        hits = region_a.contains(path.jump_sizes)
        idx = np.nonzero(hits)[0]
        if idx.shape[0] < k:
            return False
        j = idx[k - 1]
        tk = float(path.jump_times[j])
        return path.jump_sizes[j] in region_b and (c0 <= tk <= c1)

    return event


STEPS = np.array([-2.0, -1.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])  # atoms of random_case and sums of two


def random_regions(rng, d):
    """Regions A and B with endpoints on atoms or their sums; B often holds the boundary points of A."""
    lo, hi = np.sort(rng.choice(STEPS, size=(2, d), replace=True), axis=0)
    hi = np.maximum(hi, lo + 0.5)
    closed = rng.random(2) < 0.5
    region_a = Region(boxes=(Box(lo, hi, closed_lo=bool(closed[0]), closed_hi=bool(closed[1])),))
    choice = rng.integers(4)
    if choice == 0:
        region_b = Region.point_set(np.vstack([lo, hi]))  # the boundary of A, inside A only where closed
    elif choice == 1:
        region_b = Region.point_set(rng.choice(STEPS, size=(2, d)))
    else:
        region_b = Region.full_space()
    return region_a, region_b


def coarsened(block, rng):
    """The block with its jump times rounded up to eighths: equal times merge, windows hit them exactly."""
    if rng.random() < 0.5:
        return block
    return BaseScenario(
        block.horizon,
        block.model,
        block.offsets,
        np.ceil(block.jump_times * 8.0) / 8.0,
        block.jump_mass_coords,
        block.jump_segments,
        block.brownian_times,
        block.brownian_increments,
    )


def compiled_candidates(uset, policies):
    compiled = []
    for policy in policies:
        try:
            policy.check_covers(0.0, 1.0)
            compiled.append(_compile_policy(policy, uset))
        except PolicyError:
            continue
    return compiled


def integrand(d):
    """One value per jump on a (d,) row or an (m, d) array; a flat array or a float in d = 1."""
    if d == 1:
        return lambda z: np.tanh(z) + 0.25 * np.square(z)
    return lambda z: np.asarray(z)[..., 0] - 0.3 * np.asarray(z)[..., 1]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["switching", "diffusive", "d2", "empty"]))
def test_jump_payoffs_match_their_per_path_references(seed, kind):
    rng = np.random.default_rng(seed)
    uset, policies, _ = random_case(rng, kind)
    d = 2 if kind == "d2" else 1
    model = BaseJumpModel.from_uncertainty(uset)
    compiled = compiled_candidates(uset, policies)
    block = coarsened(draw_scenario(model, 1.0, rng, with_brownian=True, brownian_dt=0.2, n_paths=int(rng.integers(1, 12))), rng)
    region_a, region_b = random_regions(rng, d)
    eighths = np.arange(9) / 8.0
    c0, c1 = np.sort(rng.choice(np.append(eighths, math.inf), size=2, replace=False))
    k = int(rng.choice([1, 1, 2, 3, 6]))
    f = integrand(d) if rng.random() < 0.7 else (lambda z: 1.0 if np.sum(z) > 1.2 else float(np.sum(z)) ** 2)
    phi = lambda s: np.sin(s) + s

    event = KthJumpEvent(region_a, k, region_b, (c0, c1))
    reference = kth_jump_reference(region_a, region_b, k, (c0, c1))
    integral = PoissonIntegralPayoff(f, region_a, phi)
    events, integrals = _block_values(event, block, uset, compiled), _block_values(integral, block, uset, compiled)
    assert events.shape == integrals.shape == (block.n_paths, len(compiled))
    for members, paths in _build_paths(block, uset, compiled):
        for k, c in enumerate(members):
            for i in range(block.n_paths):
                path = CadlagPath._unchecked(1.0, *paths.arrays(k * block.n_paths + i))
                assert events[i, c] == (1.0 if reference(path) else 0.0) == event(path)
                assert integrals[i, c] == float(phi(poisson_integral(path, f, region_a))) == integral(path)


def handmade_block():
    """One path with jumps 1.0 at 0.25, 2.0 at 0.5 (two 1.0 jumps merged), 1.0 at 0.75 and 3.0 at 1."""
    uset = UncertaintySet.from_measures([DiscreteLevyMeasure(np.array([[1.0], [3.0]]), np.array([1.0, 1.0]))])
    model = BaseJumpModel.from_uncertainty(uset)
    times = np.array([0.25, 0.5, 0.5, 0.75, 1.0])
    segments = np.array([0, 0, 0, 0, 1]) if model.targets[0, 0, 0] == 1.0 else np.array([1, 1, 1, 1, 0])
    sc = BaseScenario(1.0, model, np.array([0, 5]), times, np.zeros(5), segments)
    [(_, paths)] = _build_paths(sc, uset, [_compile_policy(ControlPolicy.constant(0, 0.0, 1.0), uset)])
    assert paths.jump_sizes[:, 0].tolist() == [1.0, 2.0, 1.0, 3.0]
    return paths


@pytest.mark.parametrize(
    "region_a, k, region_b, window, want",
    [
        (Region.full_space(), 2, Region.point_set([2.0]), (0.5, 0.75), 1.0),  # jump at c0
        (Region.full_space(), 3, Region.full_space(), (0.5, 0.75), 1.0),  # jump at c1
        (Region.full_space(), 4, Region.full_space(), (0.0, 0.75), 0.0),  # after c1
        (Region.full_space(), 5, Region.full_space(), (0.0, math.inf), 0.0),  # k above the hit count
        # B's atoms on the boundary of A: inside A on a closed side, outside on an open one
        (Region.interval(1.0, 3.0), 3, Region.point_set([1.0]), (0.0, 1.0), 1.0),
        (Region.interval(1.0, 3.0), 4, Region.point_set([3.0]), (0.0, 1.0), 0.0),
        (Region.interval(1.0, 3.0, closed_hi=True), 4, Region.point_set([3.0]), (0.0, 1.0), 1.0),
        (Region.open_interval(1.0, 3.0), 1, Region.point_set([1.0]), (0.0, 1.0), 0.0),
        (Region.open_interval(1.0, 3.0), 1, Region.point_set([2.0, 1.0]), (0.5, 0.5), 1.0),  # the merged jump
    ],
)
def test_kth_jump_event_on_a_handmade_path(region_a, k, region_b, window, want):
    paths = handmade_block()
    event = KthJumpEvent(region_a, k, region_b, window)
    assert event.block_values(paths).tolist() == [want]
    path = CadlagPath._unchecked(1.0, *paths.arrays(0))
    assert event(path) == want == (1.0 if kth_jump_reference(region_a, region_b, k, window)(path) else 0.0)


def test_jump_count_payoff_with_min_count_zero_counts_every_path(mixtures):
    # the count of capacity's min_count: the Poisson integral of 1
    region = Region.open_interval(0.5, 1.5)
    ones = lambda z: np.ones(np.shape(z)[:1])
    pols = constant_policies(mixtures, 1.0)
    for min_count, want in ((0, 1.0), (1, None)):
        event = PoissonIntegralPayoff(ones, region, lambda n: np.where(np.asarray(n) >= min_count, 1.0, 0.0))
        est = estimate_capacity(event, mixtures, pols, 600, 3, horizon=1.0)
        path = estimate_capacity(lambda p: prm_count(p, 0.0, 1.0, region) >= min_count, mixtures, pols, 600, 3, horizon=1.0)
        assert hexes(est) == hexes(path)
        if want is not None:
            assert est.value == want and est.std_error == 0.0


def test_poisson_integral_payoff_refuses_vector_values(mixtures):
    payoff = PoissonIntegralPayoff(lambda z: [z, z], Region.full_space(), lambda s: s)
    with pytest.raises(EvaluationError, match="one real value per jump"):
        estimate_upper_expectation(payoff, mixtures, constant_policies(mixtures, 1.0), 50, 1, horizon=1.0)


@pytest.mark.parametrize("seed", [1, 44])
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("window", [(0.0, 1.0), (0.2, 0.7), (0.5, math.inf)])
def test_erlang_bound_check_matches_the_per_path_event(mixtures, seed, k, window):
    region_a, region_b = Region.open_interval(0.5, 2.5), Region.open_interval(0.5, 1.5)
    res = erlang_bound_check(mixtures, region_a, region_b, k, window, 700, seed)
    event = kth_jump_reference(region_a, region_b, k, window)
    est = estimate_capacity(event, mixtures, constant_policies(mixtures, res.horizon), 700, seed, horizon=res.horizon)
    assert hexes(est)[:2] == (float.hex(res.mc_capacity), float.hex(res.std_error))


def test_erlang_bound_matches_the_gamma_law(mixtures):
    # the bound and the truncation as scipy.stats states the Erlang law
    region_a, region_b = Region.open_interval(0.5, 2.5), Region.open_interval(0.5, 1.5)
    for k in (1, 2, 3, 7):
        for c0, c1 in ((0.0, 1.0), (0.3, 2.5), (0.0, math.inf), (1.5, math.inf)):
            res = erlang_bound_check(mixtures, region_a, region_b, k, (c0, c1), 2, 1)
            bound, horizon = 0.0, c1
            for t in mixtures:
                mass_a = t.measure.mass_in(region_a)
                law = stats.gamma(a=k, scale=1.0 / mass_a)
                share = float(t.measure.weights[t.measure.mask_in(region_a) & t.measure.mask_in(region_b)].sum()) / mass_a
                bound = max(bound, share * float(law.cdf(c1) - law.cdf(c0)))
                if not math.isfinite(c1):
                    horizon = max(horizon if math.isfinite(horizon) else 0.0, float(law.ppf(1.0 - 1e-8)))
            assert (res.analytic_bound, res.horizon) == (bound, horizon)


@pytest.mark.parametrize("k", [0, -1, 1.5, 2.0, True, "1", None])
def test_kth_jump_rank_must_be_a_positive_integer(mixtures, k):
    region = Region.open_interval(0.5, 2.5)
    with pytest.raises(InvalidInputError, match="k must be a positive integer"):
        erlang_bound_check(mixtures, region, region, k, (0.0, 1.0), 10, 1)
    with pytest.raises(InvalidInputError, match="k must be a positive integer"):
        KthJumpEvent(region, k, region, (0.0, 1.0))


def test_kth_jump_rank_accepts_numpy_integers(mixtures):
    region = Region.open_interval(0.5, 2.5)
    want = erlang_bound_check(mixtures, region, region, 2, (0.0, 1.0), 50, 1)
    assert erlang_bound_check(mixtures, region, region, np.int64(2), (0.0, 1.0), 50, 1) == want


def count_calls(monkeypatch, owner, name):
    calls = []
    raw = vars(owner)[name]
    if isinstance(raw, classmethod):
        fn = raw.__func__
        monkeypatch.setattr(owner, name, classmethod(lambda *a, **k: calls.append(1) or fn(*a, **k)))
    else:
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(1) or raw(*a, **k))
    return calls


@pytest.mark.parametrize("switching, groups", [(False, 1), (True, 2)], ids=["constant", "constant-and-switching"])
def test_path_route_checks_each_group_block_once(monkeypatch, mixtures, switching, groups):
    # the per-path route builds its path objects unchecked: one block check
    # per group of candidates and block, none per path. Constant policies
    # share the cells of [0, 1]; switching ones cut theirs at 0.5
    import glevy.paths
    import glevy.simulate

    constructs = count_calls(monkeypatch, CadlagPath, "__post_init__")
    checks = []
    for module in (glevy.paths, glevy.simulate):
        raw = module._check_paths
        monkeypatch.setattr(module, "_check_paths", lambda paths, horizon, raw=raw: checks.append(1) or raw(paths, horizon))
    calls = []

    def xi(path):
        calls.append(1)
        return path.scalar_value(1.0)

    switch = np.array([0.0, 0.5, 1.0])
    pols = constant_policies(mixtures, 1.0) + ([ControlPolicy(switch, (0, 2)), ControlPolicy(switch, (2, 0))] if switching else [])
    n_paths = 2 * _BLOCK + 7
    estimate_upper_expectation(xi, mixtures, pols, n_paths, 2, horizon=1.0)
    assert constructs == []
    assert len(checks) == groups * -(-n_paths // _BLOCK)
    assert len(calls) > len(checks)


def test_scalar_value_makes_no_values_at_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("values_at was called")

    path = CadlagPath.from_jumps([(0.2, 1.0), (0.5, -3.0)], 1.0)
    monkeypatch.setattr(CadlagPath, "values_at", refuse)
    assert path.scalar_value(0.7) == -2.0


@pytest.mark.parametrize("value, cell", [(np.array([1.0, 2.0]), r"array\(\[1\., 2\.\]\)"), ([1.0, 2.0], r"\[1\.0, 2\.0\]")])
def test_path_route_refuses_a_sequence_value(mixtures, value, cell):
    # each value sits in its own object cell of the (path, candidate) table;
    # the refusal names the first cell and its (path, candidate) index
    pols = constant_policies(mixtures, 1.0)
    message = rf"^payoff returned {cell}, which does not convert to a float, at index \(0, 0\) of the result$"
    with pytest.raises(EvaluationError, match=message):
        estimate_upper_expectation(lambda p: value, mixtures, pols, 3, 1, horizon=1.0)


@pytest.mark.parametrize("n_paths", [2, _BLOCK, _BLOCK + 1, 3 * _BLOCK - 5])
def test_estimator_draws_each_block_with_one_draw_scenario_call(monkeypatch, lam_12, n_paths):
    # the module-level name is the one a tracer wraps
    import glevy.simulate

    sizes = []
    raw = glevy.simulate.draw_scenario

    def counted(*args, **kwargs):
        sizes.append(kwargs["n_paths"])
        return raw(*args, **kwargs)

    monkeypatch.setattr(glevy.simulate, "draw_scenario", counted)
    pols = constant_policies(lam_12, 1.0)
    for xi in (lambda p: p.scalar_value(1.0), TerminalPayoff(lambda x: x)):
        sizes.clear()
        estimate_upper_expectation(xi, lam_12, pols, n_paths, 5, horizon=1.0)
        assert len(sizes) == -(-n_paths // _BLOCK)
        assert sum(sizes) == n_paths


def test_estimators_do_not_recheck_paths(monkeypatch, mixtures):
    checks = count_calls(monkeypatch, CadlagPath, "__post_init__")
    built = count_calls(monkeypatch, CadlagPath, "_unchecked")
    pols = constant_policies(mixtures, 1.0)
    model = BaseJumpModel.from_uncertainty(mixtures)
    simulate_path(draw_scenario(model, 1.0, np.random.default_rng(1)), pols[0], mixtures)
    estimate_upper_expectation(lambda p: p.scalar_value(1.0), mixtures, pols, 300, 2, horizon=1.0)
    estimate_capacity(lambda p: p.n_jumps > 1, diffusive_set(), constant_policies(diffusive_set(), 1.0), 50, 3, horizon=1.0)
    assert checks == [] and built

    # block payoffs build no path objects at all
    built.clear()
    estimate_upper_expectation(TerminalPayoff(lambda x: x), mixtures, pols, 300, 2, horizon=1.0)
    estimate_upper_expectation(TerminalPayoff(lambda x: x), diffusive_set(), constant_policies(diffusive_set(), 1.0), 50, 3, horizon=1.0)
    erlang_bound_check(mixtures, Region.open_interval(0.5, 2.5), Region.open_interval(0.5, 1.5), 1, (0.0, 1.0), 50, 4)
    count = PoissonIntegralPayoff(lambda z: np.ones(np.shape(z)[:1]), Region.full_space(), lambda n: n)
    estimate_capacity(count, diffusive_set(), constant_policies(diffusive_set(), 1.0), 50, 3, horizon=1.0)
    assert checks == [] and built == []


# -- one check per block, the refusals of CadlagPath ------------------------------

def valid_block():
    """Three paths on the grid (0, 0.25, 0.5, 1] with 2, 0 and 2 jumps; horizon 1."""
    gv = np.zeros((3, 4, 1))
    gv[:, 1:, 0] = [[0.1, 0.2, 0.3], [-0.1, 0.0, 0.4], [0.5, 0.5, 0.5]]
    return _Paths(
        np.array([0.0, 0.25, 0.5, 1.0]),
        gv,
        np.array([0, 2, 2, 4]),
        np.array([0.4, 0.9, 0.1, 1.0]),  # times fall across the path boundary
        np.array([[1.0], [-2.0], [0.5], [3.0]]),
    )


def broken(field, edit):
    arrays = valid_block()._asdict()
    arrays[field] = edit(arrays[field].copy())
    return _Paths(**arrays)


def at(index, value):
    def edit(a):
        a[index] = value
        return a

    return edit


GRID_ENDS = "sample grid must start at 0 and end at the horizon"
GRID_SHORT = "grid needs at least the two endpoint samples"
JUMP_ORDER = "jump times must be strictly increasing"
JUMP_RANGE = "jump times must lie in (0, horizon]"
FINITE = "path data must be finite"

# each broken block and the refusal of its lowest-index bad path
BROKEN_BLOCKS = {
    "grid-start": (broken("grid_times", at(0, 0.1)), GRID_ENDS),
    "grid-end": (broken("grid_times", at(-1, 0.9)), GRID_ENDS),
    "grid-order": (broken("grid_times", at(1, 0.5)), "sample grid times must be strictly increasing"),
    "grid-nan": (broken("grid_times", at(2, math.nan)), FINITE),
    "grid-short": (_Paths(np.array([1.0]), np.zeros((3, 1, 1)), *valid_block()[2:]), GRID_SHORT),
    "grid-value-rows": (broken("grid_values", lambda a: a[:, :3]), GRID_SHORT),
    "start-not-zero": (broken("grid_values", at((1, 0, 0), 0.3)), "paths start at zero"),
    "value-inf": (broken("grid_values", at((2, 3, 0), math.inf)), FINITE),
    "jump-order": (broken("jump_times", at(3, 0.05)), JUMP_ORDER),
    "jump-tie": (broken("jump_times", at(1, 0.4)), JUMP_ORDER),
    "jump-at-zero": (broken("jump_times", at(2, 0.0)), JUMP_RANGE),
    "jump-after-horizon": (broken("jump_times", at(3, 1.5)), JUMP_RANGE),
    "jump-time-nan": (broken("jump_times", at(1, math.nan)), FINITE),
    "jump-size-zero": (broken("jump_sizes", at(2, 0.0)), "jump sizes must be nonzero"),
    "jump-size-nan": (broken("jump_sizes", at(0, math.nan)), FINITE),
    "jump-dimension": (broken("jump_sizes", lambda a: np.hstack([a, a])), "jump dimension must match sample dimension"),
    "jump-count": (broken("jump_sizes", lambda a: a[:3]), "jump times and sizes must have equal length"),
    "grid-value-rank": (broken("grid_values", lambda a: a[..., None]), "grid values must be (G, d) per path"),
    "two-faults-first-wins": (
        broken("jump_sizes", at(3, 0.0))._replace(grid_values=broken("grid_values", at((1, 2, 0), math.nan)).grid_values),
        FINITE,
    ),
}


def per_path_refusal(paths, horizon):
    for i in range(paths.offsets.shape[0] - 1):
        try:
            CadlagPath(horizon, *paths.arrays(i))
        except InvalidInputError as exc:
            return type(exc), str(exc)
    return None


def test_valid_block_passes_the_block_check():
    assert per_path_refusal(valid_block(), 1.0) is None
    _check_paths(valid_block(), 1.0)


@pytest.mark.parametrize("case", list(BROKEN_BLOCKS))
def test_block_check_refuses_as_the_path_constructor(case):
    paths, message = BROKEN_BLOCKS[case]
    assert per_path_refusal(paths, 1.0) == (InvalidInputError, message)
    with pytest.raises(InvalidInputError) as info:
        _check_paths(paths, 1.0)
    assert (type(info.value), str(info.value)) == (InvalidInputError, message)


def test_overflowing_drift_is_refused_without_a_warning():
    uset = UncertaintySet((LevyTriple(DiscreteLevyMeasure.delta(1.0), drift=1e308),))
    with pytest.raises(InvalidInputError, match="path data must be finite"):
        estimate_upper_expectation(lambda p: p.scalar_value(2.0), uset, constant_policies(uset, 2.0), 10, 1, horizon=2.0)
    with pytest.raises(InvalidInputError, match="path data must be finite"):
        estimate_upper_expectation(TerminalPayoff(lambda x: x), uset, constant_policies(uset, 2.0), 10, 1, horizon=2.0)
    switching = constant_policies(uset, 2.0) + [ControlPolicy(np.array([0.0, 1.0, 2.0]), (0, 0))]
    with pytest.raises(InvalidInputError, match="path data must be finite"):
        estimate_upper_expectation(TerminalPayoff(lambda x: x), uset, switching, 10, 1, horizon=2.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["switching", "diffusive", "d2", "empty"]))
def test_unchecked_paths_equal_checked_paths(seed, kind):
    rng = np.random.default_rng(seed)
    uset, policies, _ = random_case(rng, kind)
    model = BaseJumpModel.from_uncertainty(uset)
    block = draw_scenario(model, 1.0, rng, with_brownian=True, brownian_dt=0.2, n_paths=5)
    for _, paths in _build_paths(block, uset, compiled_candidates(uset, policies)):
        for i in range(paths.offsets.shape[0] - 1):
            fast = CadlagPath._unchecked(1.0, *paths.arrays(i))
            checked = CadlagPath(1.0, *paths.arrays(i))
            assert type(fast.horizon) is type(checked.horizon) and fast.horizon == checked.horizon
            assert path_bytes(fast) == path_bytes(checked)


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
