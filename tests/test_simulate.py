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
    CadlagPath,
    ControlPolicy,
    DiscreteLevyMeasure,
    EvaluationError,
    ExplicitControl,
    InvalidInputError,
    InverseSquareTail,
    LevyTriple,
    PolicyError,
    Region,
    TerminalPayoff,
    UncertaintySet,
    constant_policies,
    draw_scenario,
    erlang_bound_check,
    estimate_capacity,
    estimate_upper_expectation,
    simulate_path,
    transport_map,
)
from glevy.simulate import (
    _BLOCK,
    BaseScenario,
    _build_paths,
    _check_paths,
    _compile_policy,
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


def test_simulate_path_refuses_a_block_of_several_paths(lam_12):
    model = BaseJumpModel.from_uncertainty(lam_12)
    sc = draw_scenario(model, 1.0, np.random.default_rng(1), n_paths=2)
    with pytest.raises(InvalidInputError, match="one-path scenario"):
        simulate_path(sc, ControlPolicy.constant(0, 0.0, 1.0), lam_12)


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

def reference_path(scenario, policy, uset, start=0.0, horizon=None):
    """simulate_path as a running loop over Brownian cells and over jumps."""
    T = scenario.horizon if horizon is None else float(horizon)
    if not (0.0 <= start < T <= scenario.horizon):
        raise InvalidInputError("need 0 <= start < horizon <= scenario horizon")
    policy.check_covers(start, T)
    compiled = _compile_policy(policy, uset, scenario.model)
    d = scenario.model.locations.shape[1]
    bp = compiled.breakpoints
    last = len(policy.values) - 1

    def value_index(t, side):
        # breakpoints[0] may sit up to the covering tolerance above start
        return min(max(int(np.searchsorted(bp, t, side=side) - 1), 0), last)

    if compiled.needs_brownian:
        if scenario.brownian_times is None:
            raise PolicyError("policy needs Brownian increments but the scenario has none")
        edges = scenario.brownian_times.tolist()
    else:
        edges = [start] + [float(b) for b in bp if start < b < T] + [T]
    times = [0.0]
    vals = [np.zeros(d)]
    if start > 0.0:
        times.append(start)
        vals.append(np.zeros(d))
    x = np.zeros(d)
    for m, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if hi <= start:
            continue
        t_lo = max(lo, start)
        if t_lo >= T:
            break
        t_hi = min(hi, T)
        v = value_index(t_lo, "right")
        x = x + compiled.drift[v] * (t_hi - t_lo)
        if compiled.needs_brownian:
            x = x + (compiled.cov_root[v] @ scenario.brownian_increments[0, m]) * math.sqrt((t_hi - t_lo) / (hi - lo))
        if times[-1] != t_hi:
            times.append(t_hi)
            vals.append(x)
    if times[-1] != T:
        times.append(T)
        vals.append(x)

    jt, js = [], []
    for t, seg in zip(scenario.jump_times, scenario.jump_segments):
        if not (start < t <= T):
            continue
        v = value_index(t, "left")
        if compiled.active[v, seg]:
            z = compiled.targets[v, seg]
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
    if d == 1:
        # each base mark relabeled to its size under triple 0; this lands in
        # the set unless two segments of one mark take different sizes
        t0 = uset.triples[0]
        mark_map = {}
        for z, size, on in zip(model.locations[:, 0], model.targets[0, :, 0], model.active[0]):
            mark_map.setdefault(float(z), float(size) if on else 0.0)
        policies.append(ControlPolicy.constant(ExplicitControl(mark_map, t0.drift1, t0.cov_root1), 0.0, 1.0))
        policies.append(ControlPolicy.constant(ExplicitControl({1.0: 7.0}), 0.0, 1.0))  # refused
    scenarios = [
        draw_scenario(model, 1.0, rng, with_brownian=bool(s % 2), brownian_dt=float(rng.choice([0.05, 0.3])))
        for s in range(4)
    ]
    return uset, policies, scenarios


@pytest.mark.parametrize("kind", ["switching", "diffusive", "d2", "empty"])
def test_simulate_path_matches_loop_reference(kind):
    rng = np.random.default_rng(["switching", "diffusive", "d2", "empty"].index(kind))
    built = refused = explicit = 0
    for _ in range(6):
        uset, policies, scenarios = random_case(rng, kind)
        for sc in scenarios:
            for policy in policies:
                for start, horizon in [(0.0, None), (0.0, 0.7), (0.35, None), (0.2, 0.55), (0.9, 1.2)]:
                    got = outcome(lambda: simulate_path(sc, policy, uset, start, horizon))
                    assert got == outcome(lambda: reference_path(sc, policy, uset, start, horizon))
                    if isinstance(got, type):
                        refused += 1
                    else:
                        built += 1
                        explicit += isinstance(policy.values[0], ExplicitControl)
    assert refused and built >= 200
    assert explicit or kind == "d2"


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
    needs = any(_compile_policy(c, uset, model).needs_brownian for c in candidates)
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
            val = float(xi(simulate_path(sc, c, uset, 0.0, horizon)))
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


def count_calls(monkeypatch, owner, name):
    calls = []
    raw = vars(owner)[name]
    if isinstance(raw, classmethod):
        fn = raw.__func__
        monkeypatch.setattr(owner, name, classmethod(lambda *a, **k: calls.append(1) or fn(*a, **k)))
    else:
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(1) or raw(*a, **k))
    return calls


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
    erlang_bound_check(mixtures, Region.open_interval(0.5, 2.5), Region.open_interval(0.5, 1.5), 1, (0.0, 1.0), 50, 4)
    assert checks == [] and built

    built.clear()
    estimate_upper_expectation(TerminalPayoff(lambda x: x), mixtures, pols, 300, 2, horizon=1.0)
    estimate_upper_expectation(TerminalPayoff(lambda x: x), diffusive_set(), constant_policies(diffusive_set(), 1.0), 50, 3, horizon=1.0)
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


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["switching", "diffusive", "d2", "empty"]))
def test_unchecked_paths_equal_checked_paths(seed, kind):
    rng = np.random.default_rng(seed)
    uset, policies, _ = random_case(rng, kind)
    model = BaseJumpModel.from_uncertainty(uset)
    block = draw_scenario(model, 1.0, rng, with_brownian=True, brownian_dt=0.2, n_paths=5)
    for policy in policies:
        try:
            policy.check_covers(0.0, 1.0)
            compiled = _compile_policy(policy, uset, model)
        except PolicyError:
            continue
        paths = _build_paths(block, compiled, 0.0, 1.0)
        for i in range(5):
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
