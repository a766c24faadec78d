"""Path operations: counting, integrals, stopping times, modulus, discretization, distances."""

import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glevy import (
    CadlagPath,
    EvaluationError,
    InvalidInputError,
    Region,
    cadlag_modulus,
    counterexample_family,
    discretize_tn,
    jump_times,
    poisson_integral,
    prm_count,
    skorohod_distance_upper,
)
from glevy.paths import _check_paths, _Paths, dumps_records, loads_records, read_records, write_records


TWO_JUMPS = CadlagPath.from_jumps([(0.3, 1.5), (0.7, 0.5)], horizon=1.0)


def jump_path(jumps, horizon=1.0):
    return CadlagPath.from_jumps(jumps, horizon=horizon)


# -- construction ------------------------------------------------------------

def test_path_value_conventions():
    p = TWO_JUMPS
    assert p.scalar_value(0.0) == 0.0
    assert p.scalar_value(0.29) == 0.0
    assert p.scalar_value(0.3) == 1.5  # cadlag: value includes the jump at its time
    assert p.scalar_value(0.7) == 2.0
    assert p.scalar_value(1.0) == 2.0


def test_from_jumps_sorts_and_constructor_rejects_unsorted():
    p = jump_path([(0.7, 1.0), (0.3, 1.0)])
    assert p.jump_times.tolist() == [0.3, 0.7]
    z = CadlagPath.zero(1.0)
    with pytest.raises(InvalidInputError):
        CadlagPath(1.0, z.grid_times, z.grid_values, np.array([0.7, 0.3]), np.ones((2, 1)))
    with pytest.raises(InvalidInputError):
        CadlagPath(1.0, z.grid_times, z.grid_values, np.array([0.3, 0.3]), np.ones((2, 1)))


def _count_checks(monkeypatch) -> list:
    """A list that gains one entry per ``_check_paths`` call from now on."""
    calls = []
    monkeypatch.setattr("glevy.paths._check_paths", lambda *a: calls.append(a) or _check_paths(*a))
    return calls


def test_from_jumps_checks_its_path_once(monkeypatch):
    calls = _count_checks(monkeypatch)
    CadlagPath.from_jumps([(0.7, 1.0), (0.3, -2.0)], 1.0)
    assert len(calls) == 1


def test_discretize_tn_checks_its_path_once(monkeypatch):
    path = jump_path([(0.35, 1.0)])
    calls = _count_checks(monkeypatch)
    discretize_tn(path, 10)
    assert len(calls) == 1


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
def test_from_jumps_refuses_a_bad_horizon_first(horizon):
    with pytest.raises(InvalidInputError, match="horizon must be positive and finite"):
        CadlagPath.from_jumps([(0.5, 1.0), (0.5, 0.0)], horizon)


def test_path_rejects_zero_jump():
    with pytest.raises(InvalidInputError):
        jump_path([(0.5, 0.0)])


def test_path_rejects_jump_outside_horizon():
    with pytest.raises(InvalidInputError):
        jump_path([(1.5, 1.0)], horizon=1.0)


def test_infinite_jump_times_are_refused_before_any_warning():
    # inf - inf between the two jump times is a numpy "invalid value"
    records = dumps_records(CadlagPath.zero(1.0)) + '{"kind": "jump", "time": Infinity, "size": [1.0]}\n' * 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=r"jump times must lie in \(0, horizon\]"):
            CadlagPath(1.0, [0, 1], [0, 0], [math.inf, math.inf], [1, 1])
        with pytest.raises(InvalidInputError, match=r"jump times must lie in \(0, horizon\]"):
            loads_records(records)


def test_grid_values_not_of_shape_grid_by_dim_are_refused():
    message = r"grid values must be \(G, d\) per path"
    with pytest.raises(InvalidInputError, match=message):
        CadlagPath(1.0, [0, 1], np.zeros((2, 1, 1)), [], [])
    with pytest.raises(InvalidInputError, match=message):
        CadlagPath(1.0, [0, 1], np.zeros((2, 1, 1)), [0.5], [1.0])
    one_jump = (np.array([0, 1]), np.array([0.5]), np.ones((1, 1)))
    for values in (np.zeros((1, 2, 1, 1)), np.zeros((1, 2))):
        with pytest.raises(InvalidInputError, match=message):
            _check_paths(_Paths(np.array([0.0, 1.0]), values, *one_jump), 1.0)
    _check_paths(_Paths(np.array([0.0, 1.0]), np.zeros((1, 2, 1)), *one_jump), 1.0)


# -- path values, byte for byte against a reference ----------------------------

def reference_values_at(path, ts):
    """values_at with the cumulative jump sums as a vstack of a zero row and cumsum."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size and (ts.min() < 0.0 or ts.max() > path.horizon):
        raise InvalidInputError("query times must lie in [0, horizon]")
    out = path.continuous_at(ts)
    if path.n_jumps:
        cum = np.vstack([np.zeros(path.dim), np.cumsum(path.jump_sizes, axis=0)])
        idx = np.searchsorted(path.jump_times, ts, side="right")
        out += cum[idx]
    return out


# signed magnitudes from 1e-8 to 1e8
MAGNITUDES = st.builds(
    lambda m, e, sign: sign * m * 10.0**e, st.floats(1.0, 9.99), st.integers(-8, 8), st.sampled_from([1.0, -1.0])
)


@st.composite
def random_paths(draw, dim):
    """A path with 0 to 12 jumps; jump times may sit on grid times and at the horizon."""
    T = draw(st.sampled_from([1.0, 0.7, 3.0]))
    inner = draw(st.lists(st.floats(0.0, T, exclude_min=True, exclude_max=True), unique=True, max_size=16))
    roles = draw(st.lists(st.sampled_from(["grid", "jump", "both"]), min_size=len(inner), max_size=len(inner)))
    grid = sorted([0.0, T] + [t for t, role in zip(inner, roles) if role != "jump"])
    jumps = sorted(t for t, role in zip(inner, roles) if role != "grid")[:12]
    if len(jumps) < 12 and draw(st.booleans()):
        jumps.append(T)

    def rows(n):
        return np.array(draw(st.lists(st.lists(MAGNITUDES, min_size=dim, max_size=dim), min_size=n, max_size=n))).reshape(n, dim)

    values = rows(len(grid))
    values[0] = draw(st.sampled_from([0.0, -0.0]))  # a path starts at zero of either sign
    return CadlagPath(T, np.array(grid), values, np.array(jumps), rows(len(jumps)))


def query_times(path, uniform):
    return np.concatenate([[0.0, path.horizon], path.grid_times, path.jump_times, path.horizon * np.asarray(uniform)])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.sampled_from([1, 2]))
def test_values_at_matches_the_reference_byte_for_byte(data, dim):
    path = data.draw(random_paths(dim))
    ts = query_times(path, data.draw(st.lists(st.floats(0.0, 1.0), max_size=5)))
    got = path.values_at(ts)
    assert got.shape == (ts.shape[0], dim)
    assert got.tobytes() == reference_values_at(path, ts).tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), end=st.sampled_from([None, 0.0, -0.0]), jumpless=st.booleans())
def test_scalar_value_matches_the_reference_byte_for_byte(data, end, jumpless):
    # the grid may end in a zero of either sign, and the path may have no
    # jumps; t lands on the last grid time, which is the horizon, among others
    path = data.draw(random_paths(1))
    values = path.grid_values.copy()
    if end is not None:
        values[-1] = end
    jumps = slice(0, 0) if jumpless else slice(None)
    path = CadlagPath(path.horizon, path.grid_times, values, path.jump_times[jumps], path.jump_sizes[jumps])
    ts = query_times(path, data.draw(st.lists(st.floats(0.0, 1.0), max_size=5)))
    for t in [*ts.tolist(), path.grid_times[-1], path.horizon, math.nan]:
        got = path.scalar_value(t)
        assert type(got) is float
        assert np.float64(got).tobytes() == reference_values_at(path, [t])[0, 0].tobytes()


@pytest.mark.parametrize("t", [-1e-300, -0.5, 1.0 + 1e-15, math.inf, -math.inf])
def test_values_outside_the_horizon_are_refused(t):
    for read in (TWO_JUMPS.scalar_value, TWO_JUMPS.values_at):
        with pytest.raises(InvalidInputError, match=r"^query times must lie in \[0, horizon\]$"):
            read(t)


def test_scalar_value_refuses_a_multidimensional_path():
    path = CadlagPath(1.0, [0.0, 1.0], np.zeros((2, 2)), [0.5], [[1.0, -1.0]])
    with pytest.raises(InvalidInputError, match="^scalar_value requires a one-dimensional path$"):
        path.scalar_value(0.5)


def test_scalar_value_keeps_the_sign_of_a_jumpless_zero():
    path = CadlagPath(1.0, [0.0, 1.0], np.array([[-0.0], [-0.0]]), [], np.empty((0, 1)))
    assert math.copysign(1.0, path.scalar_value(0.0)) == -1.0
    with_jump = CadlagPath(1.0, [0.0, 1.0], np.array([[-0.0], [-0.0]]), [0.9], [[1.0]])
    assert math.copysign(1.0, with_jump.scalar_value(0.0)) == 1.0  # -0.0 + the empty jump sum 0.0


# -- prm_count ----------------------------------------------------------------

def test_prm_count_size_window():
    assert prm_count(TWO_JUMPS, 0.0, 1.0, Region.open_interval(1.0, 2.0)) == 1


def test_prm_count_empty_size_window():
    assert prm_count(TWO_JUMPS, 0.0, 1.0, Region.open_interval(5.0, 6.0)) == 0


def test_prm_count_half_open_time_interval():
    # (0.3, 0.7] excludes the jump at 0.3 and includes the one at 0.7
    assert prm_count(TWO_JUMPS, 0.3, 0.7, Region.open_interval(0.0, 1.0)) == 1


def test_prm_count_rejects_bad_interval():
    with pytest.raises(InvalidInputError):
        prm_count(TWO_JUMPS, 0.7, 0.3, Region.full_space())


def test_prm_count_additive_over_disjoint_windows():
    a = Region.open_interval(0.0, 1.0)
    b = Region.open_interval(1.0, 2.0)
    whole = Region.open_interval(0.0, 2.0)
    assert (
        prm_count(TWO_JUMPS, 0.0, 1.0, a) + prm_count(TWO_JUMPS, 0.0, 1.0, b)
        == prm_count(TWO_JUMPS, 0.0, 1.0, whole)
    )
    assert (
        prm_count(TWO_JUMPS, 0.0, 0.5, whole) + prm_count(TWO_JUMPS, 0.5, 1.0, whole)
        == prm_count(TWO_JUMPS, 0.0, 1.0, whole)
    )


# -- poisson_integral ---------------------------------------------------------

def test_poisson_integral_square():
    got = poisson_integral(TWO_JUMPS, lambda z: z**2, Region.open_interval(1.0, 2.0), 1.0)
    assert got == pytest.approx(2.25, abs=1e-15)


def test_poisson_integral_zero_function():
    got = poisson_integral(TWO_JUMPS, lambda z: 0.0 * z, Region.full_space(), 1.0)
    assert got == 0.0


def test_poisson_integral_identity_partial_sum():
    got = poisson_integral(TWO_JUMPS, lambda z: z, Region.full_space(), 0.5)
    assert got == pytest.approx(1.5)


def test_poisson_integral_indicator_equals_count():
    region = Region.open_interval(0.0, 2.0)
    got = poisson_integral(TWO_JUMPS, lambda z: np.ones_like(z), region, 1.0)
    assert got == prm_count(TWO_JUMPS, 0.0, 1.0, region)


def test_poisson_integral_nonfinite_rejected():
    with pytest.raises(EvaluationError):
        poisson_integral(TWO_JUMPS, lambda z: np.inf * z, Region.full_space(), 1.0)


# -- jump_times ---------------------------------------------------------------

def test_jump_times_first_hit():
    jt = jump_times(TWO_JUMPS, Region.open_interval(1.0, 2.0), 1)
    assert jt.tau == 0.3 and jt.tau_closure == 0.3


def test_jump_times_exhausted_is_infinite():
    jt = jump_times(TWO_JUMPS, Region.open_interval(1.0, 2.0), 2)
    assert math.isinf(jt.tau) and math.isinf(jt.tau_closure)


def test_jump_times_boundary_only_counts_for_closure():
    p = jump_path([(0.4, 1.0)])
    jt = jump_times(p, Region.open_interval(1.0, 2.0), 1)
    assert math.isinf(jt.tau)
    assert jt.tau_closure == 0.4


def test_jump_times_requires_open_region_away_from_origin():
    with pytest.raises(InvalidInputError):
        jump_times(TWO_JUMPS, Region.closed_interval(1.0, 2.0), 1)
    with pytest.raises(InvalidInputError):
        jump_times(TWO_JUMPS, Region.open_interval(-1.0, 1.0), 1)


@pytest.mark.parametrize("k", [0, 1.5, 2.0, True, "1"])
def test_jump_times_rank_must_be_a_positive_integer(k):
    with pytest.raises(InvalidInputError, match="k must be a positive integer"):
        jump_times(TWO_JUMPS, Region.open_interval(1.0, 2.0), k)


def test_jump_times_closure_below_open():
    p = jump_path([(0.2, 2.0), (0.5, 1.0), (0.9, 1.5)])
    for k in (1, 2, 3):
        jt = jump_times(p, Region.open_interval(1.0, 2.0), k)
        assert jt.tau_closure <= jt.tau


# -- cadlag_modulus -----------------------------------------------------------

def test_modulus_constant_path():
    p = CadlagPath.zero(1.0)
    w = cadlag_modulus(p, 0.3)
    assert w.w_prime == 0.0 and w.w_second == 0.0


def test_modulus_single_jump_separable():
    p = jump_path([(0.5, 1.0)])
    w = cadlag_modulus(p, 0.3)
    assert w.w_prime == 0.0


def test_modulus_two_close_jumps():
    p = jump_path([(0.4, 1.0), (0.5, 1.0)])
    w = cadlag_modulus(p, 0.3)
    assert w.w_prime >= 1.0
    assert w.w_second == 0.0


def test_modulus_rejects_delta_out_of_range():
    with pytest.raises(InvalidInputError):
        cadlag_modulus(TWO_JUMPS, 1.5)
    with pytest.raises(InvalidInputError):
        cadlag_modulus(TWO_JUMPS, 0.0)


def random_jump_path(rng):
    n = int(rng.integers(0, 7))
    times = np.sort(rng.uniform(0.05, 0.95, size=n))
    times = np.unique(times)
    sizes = rng.uniform(0.2, 2.0, size=times.size) * rng.choice([-1.0, 1.0], size=times.size)
    return jump_path(list(zip(times, sizes)))


def test_modulus_pair_ordered_and_monotone():
    rng = np.random.default_rng(5)
    deltas = [0.4, 0.2, 0.1, 0.05, 0.02]
    for _ in range(60):
        p = random_jump_path(rng)
        prev = None
        for d in deltas:
            w = cadlag_modulus(p, d)
            assert w.w_second <= w.w_prime + 1e-12
            if prev is not None:
                assert w.w_prime <= prev + 1e-12
            prev = w.w_prime
        # below the smallest event gap every jump is separable, so w' hits 0
        events = np.concatenate([[0.0], p.jump_times, [p.horizon]])
        tiny = 0.9 * float(np.min(np.diff(events)))
        assert cadlag_modulus(p, tiny).w_prime == pytest.approx(0.0, abs=1e-12)


def reference_modulus(path, delta):
    """(w', w'') by loops over every event-time triple and every partition cell."""
    times = path.event_times()
    values = path.values_at(times)
    m = times.shape[0]
    w2 = 0.0
    for i in range(m):
        for k in range(i + 2, m):
            if times[k] > times[i] + delta:
                break
            for j in range(i + 1, k):
                left = float(np.linalg.norm(values[j] - values[i]))
                right = float(np.linalg.norm(values[k] - values[j]))
                w2 = max(w2, min(left, right))
    dp = [0.0] + [math.inf] * (m - 1)
    for j in range(1, m):
        for i in range(j):
            if times[j] - times[i] > delta and dp[i] < math.inf:
                spread = values[i:j].max(axis=0) - values[i:j].min(axis=0)
                osc = float(np.linalg.norm(spread)) if path.dim > 1 else float(spread[0])
                dp[j] = min(dp[j], max(dp[i], osc))
    return dp[-1], w2


def random_skeleton_path(rng, dim):
    """Up to 30 jumps at rounded times and sizes (clusters, tied distances) on a sampled part."""
    n = int(rng.integers(0, 30))
    times = np.unique(np.round(rng.uniform(0.0, 1.0, n), int(rng.integers(2, 6))))
    times = times[times > 0.0]
    sizes = np.round(rng.normal(size=(times.size, dim)), 1)
    keep = np.linalg.norm(sizes, axis=1) > 0.0
    grid = np.linspace(0.0, 1.0, int(rng.choice([2, 6, 21])))
    samples = np.cumsum(rng.normal(size=(grid.size, dim)), axis=0)
    samples[0] = 0.0
    return CadlagPath(1.0, grid, samples, times[keep], sizes[keep])


@pytest.mark.parametrize("dim", [1, 2])
def test_modulus_matches_loop_reference(dim):
    rng = np.random.default_rng(31 + dim)
    for _ in range(60):
        p = random_skeleton_path(rng, dim)
        for delta in (0.01, 0.05, 0.2, 0.6, float(rng.uniform(0.001, 0.99))):
            w = cadlag_modulus(p, delta)
            w1, w2 = reference_modulus(p, delta)
            if dim == 1:
                # every operation after the distances is a min or a max
                assert (w.w_prime, w.w_second) == (w1, w2)
            else:
                # d > 1 norms may round differently in the last bit
                assert w.w_prime == pytest.approx(w1, rel=1e-14, abs=0.0)
                assert w.w_second == pytest.approx(w2, rel=1e-14, abs=0.0)


# -- discretize_tn ------------------------------------------------------------

def test_discretize_constant_path_unchanged():
    p = CadlagPath.zero(1.0)
    q = discretize_tn(p, 10)
    for t in np.linspace(0, 1, 21):
        assert q.scalar_value(t) == 0.0


def test_discretize_snaps_jump_to_next_grid_time():
    p = jump_path([(0.35, 1.0)])
    q = discretize_tn(p, 10)
    assert q.scalar_value(0.39) == 0.0
    assert q.scalar_value(0.4) == 1.0
    assert q.n_jumps == 1 and q.jump_times[0] == pytest.approx(0.4)


def test_tiny_jumps_are_not_zero():
    # the square of 1e-200 underflows to 0, which a norm would take for a zero jump
    p = CadlagPath.from_jumps([(0.5, 1e-200)], 1.0)
    assert p.jump_sizes.tolist() == [[1e-200]]
    q = discretize_tn(p, 4)
    assert q.jump_times.tolist() == [0.5] and q.jump_sizes.tolist() == [[1e-200]]
    two = CadlagPath(1.0, [0.0, 1.0], np.zeros((2, 2)), [0.3], [[0.0, -1e-200]])
    assert discretize_tn(two, 2).jump_sizes.tolist() == [[0.0, -1e-200]]
    with pytest.raises(InvalidInputError, match="^jump sizes must be nonzero$"):
        CadlagPath(1.0, [0.0, 1.0], np.zeros((2, 2)), [0.3], [[0.0, -0.0]])
    with pytest.raises(InvalidInputError, match="^path data must be finite$"):
        CadlagPath.from_jumps([(0.5, math.nan)], 1.0)


def test_discretize_preserves_terminal_value():
    p = jump_path([(0.35, 1.0), (0.99, -0.5)])
    for n in (3, 7, 10, 64):
        q = discretize_tn(p, n)
        assert q.scalar_value(1.0) == pytest.approx(p.scalar_value(1.0), abs=1e-12)


def test_discretize_sup_distance_bounded_by_window_oscillation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = random_jump_path(rng)
        n = int(rng.integers(4, 40))
        q = discretize_tn(p, n)
        ts = np.unique(np.concatenate([np.linspace(0, 1, 257), p.jump_times, q.jump_times]))
        sup_dist = float(np.max(np.abs(p.values_at(ts) - q.values_at(ts))))
        osc = 0.0
        for k in range(n):
            lo, hi = k / n, (k + 1) / n
            window = ts[(ts >= lo) & (ts <= hi)]
            if window.size:
                vals = p.values_at(window)
                osc = max(osc, float(np.max(vals) - np.min(vals)))
        assert sup_dist <= osc + 1e-12


# -- skorohod_distance_upper --------------------------------------------------

def test_skorohod_identical_paths():
    assert skorohod_distance_upper(TWO_JUMPS, TWO_JUMPS) == 0.0


def test_skorohod_aligns_close_jumps():
    a = jump_path([(0.5, 1.0)])
    b = jump_path([(0.52, 1.0)])
    assert skorohod_distance_upper(a, b) <= 0.02 + 1e-12


def test_skorohod_no_alignment_floor():
    a = jump_path([(0.5, 1.0)])
    b = CadlagPath.zero(1.0)
    assert skorohod_distance_upper(a, b) == pytest.approx(1.0)


def test_skorohod_symmetric_and_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(15):
        a, b = random_jump_path(rng), random_jump_path(rng)
        dab = skorohod_distance_upper(a, b)
        dba = skorohod_distance_upper(b, a)
        assert dab >= 0.0 and dba >= 0.0
        assert dab == pytest.approx(dba, abs=1e-12)


def test_skorohod_rejects_mismatched_horizons():
    with pytest.raises(InvalidInputError):
        skorohod_distance_upper(CadlagPath.zero(1.0), CadlagPath.zero(2.0))


# -- counterexample_family ----------------------------------------------------

def test_counterexample_path_shape():
    p = counterexample_family(0.5, 1.0, 1.0)
    assert p.n_jumps == 1
    assert p.jump_times[0] == 0.5 and p.jump_sizes[0, 0] == 1.0


def test_counterexample_point_indicator_gap():
    on_atom = counterexample_family(0.5, 1.0, 1.0)
    off_atom = counterexample_family(0.5, 1.01, 1.0)
    region = Region.full_space()

    def ind(z):
        return np.where(z == 1.0, 1.0, 0.0)

    assert poisson_integral(on_atom, ind, region, 1.0) == 1.0
    assert poisson_integral(off_atom, ind, region, 1.0) == 0.0


def test_counterexample_rejects_time_outside_horizon():
    with pytest.raises(InvalidInputError):
        counterexample_family(1.5, 1.0, 1.0)


def test_counterexample_small_shift_small_distance():
    t = 0.5
    a = counterexample_family(t + 0.01, 1.01, 1.0)
    b = counterexample_family(t, 1.0, 1.0)
    assert skorohod_distance_upper(a, b) < 0.02


# -- serialization ------------------------------------------------------------

def test_records_round_trip_bit_exact():
    p = CadlagPath(
        horizon=1.0,
        grid_times=np.array([0.0, 0.25, 1.0]),
        grid_values=np.array([[0.0], [0.125], [-0.5]]),
        jump_times=np.array([0.3, 0.7]),
        jump_sizes=np.array([[1.5], [0.5]]),
    )
    q = loads_records(dumps_records(p))
    assert q.horizon == p.horizon
    assert np.array_equal(q.grid_times, p.grid_times)
    assert np.array_equal(q.grid_values, p.grid_values)
    assert np.array_equal(q.jump_times, p.jump_times)
    assert np.array_equal(q.jump_sizes, p.jump_sizes)


def test_records_file_round_trip(tmp_path):
    p = TWO_JUMPS
    target = tmp_path / "path.jsonl"
    write_records(p, str(target))
    q = read_records(str(target))
    assert np.array_equal(q.jump_times, p.jump_times)
    assert dumps_records(q) == dumps_records(p)


def test_records_stream_round_trip():
    buf = io.StringIO()
    write_records(TWO_JUMPS, buf)
    buf.seek(0)
    q = read_records(buf)
    assert np.array_equal(q.jump_sizes, TWO_JUMPS.jump_sizes)


@settings(max_examples=40)
@given(st.data())
def test_records_round_trip_random(data):
    n = data.draw(st.integers(0, 4))
    times = sorted(
        data.draw(
            st.lists(
                st.floats(0.01, 0.99, allow_nan=False),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    sizes = data.draw(
        st.lists(
            st.floats(0.1, 3.0, allow_nan=False).map(lambda v: round(v, 6)),
            min_size=n,
            max_size=n,
        )
    )
    p = CadlagPath.from_jumps(list(zip(times, sizes)), horizon=1.0)
    assert dumps_records(loads_records(dumps_records(p))) == dumps_records(p)
