"""Finite-difference solver: generator evaluation, evolution, multi-time recursion, lattice ODE."""

import dataclasses
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs
from scipy import optimize, stats

from glevy import (
    DiscreteLevyMeasure,
    EvaluationError,
    Grid1D,
    InvalidInputError,
    LevyTriple,
    NumericalAbortError,
    UncertaintySet,
    UnsupportedError,
    apply_g,
    conditional_expectation,
    g_poisson_distribution,
    iterated_expectation,
    solve_ipde,
    uncertainty_set_from_config,
)
from glevy.analysis import symmetric_compensated_set
from glevy.pide import GridSolution, _hull_vertices, _poisson_quantile, _poisson_tail, _Stepper
from conftest import location_family, mixture_family, point_mass_family


GRID = Grid1D(x_min=-6.0, x_max=8.0, nx=141, dt=0.01, horizon=1.0)


def poisson_series(lam, t, phi, tol=1e-14):
    """Classical reference: sum phi(k) * Poisson(lam * t) pmf, truncated far in the tail."""
    kmax = int(stats.poisson.ppf(1.0 - tol, lam * t)) + 10
    ks = np.arange(kmax + 1)
    return float(np.sum(phi(ks) * stats.poisson.pmf(ks, lam * t)))


# -- apply_g ------------------------------------------------------------------

def test_apply_g_jump_only():
    uset = point_mass_family([2.0])
    assert apply_g(lambda z: z, uset) == pytest.approx(2.0, abs=1e-9)


def test_apply_g_zero_function():
    uset = point_mass_family([2.0])
    assert apply_g(lambda z: 0.0 * z, uset) == 0.0


def test_apply_g_pure_diffusion_quadratic():
    triple = LevyTriple(DiscreteLevyMeasure.empty(), drift=0.0, cov_root=1.0)
    uset = UncertaintySet((triple,))
    assert apply_g(lambda z: z**2, uset) == pytest.approx(1.0, abs=1e-6)


def test_apply_g_analytic_derivatives_bypass_differencing():
    triple = LevyTriple(DiscreteLevyMeasure.empty(), drift=0.5, cov_root=2.0)
    uset = UncertaintySet((triple,))
    got = apply_g(lambda z: z + z**2, uset, grad=lambda z: 1.0 + 2.0 * z, hess=lambda z: 2.0)
    assert got == pytest.approx(0.5 * 1.0 + 0.5 * 4.0 * 2.0, abs=1e-12)


def test_apply_g_rejects_nonzero_at_origin():
    with pytest.raises(InvalidInputError):
        apply_g(lambda z: z + 1.0, point_mass_family([1.0]))


def test_apply_g_takes_max_over_triples():
    uset = point_mass_family([1.0, 1.5, 2.0])
    assert apply_g(lambda z: z, uset) == pytest.approx(2.0, abs=1e-9)
    # antitone integrand flips the argmax to the smallest intensity
    assert apply_g(lambda z: -z, uset) == pytest.approx(-1.0, abs=1e-9)


# -- solve_ipde ---------------------------------------------------------------

def test_linear_payoff_reaches_sup_mean(lam_12):
    sol = solve_ipde(lambda x: x, lam_12, GRID)
    assert sol.value_at_zero() == pytest.approx(2.0, abs=1e-2)


def test_self_compensating_set_is_flat(lam_12):
    zset = symmetric_compensated_set(lam_12)
    sol = solve_ipde(lambda x: x, zset, GRID)
    assert sol.value_at_zero() == pytest.approx(0.0, abs=1e-3)
    neg = solve_ipde(lambda x: -x, zset, GRID)
    assert neg.value_at_zero() == pytest.approx(0.0, abs=1e-3)


def test_classical_poisson_clamp():
    uset = point_mass_family([1.0])
    sol = solve_ipde(lambda x: np.minimum(x, 1.0), uset, GRID)
    want = 1.0 - math.exp(-1.0)
    assert sol.value_at_zero() == pytest.approx(want, abs=5e-3)
    assert abs(sol.value_at_zero() - want) <= sol.diagnostics["scheme_error_estimate"]


def test_initial_layer_equals_payoff(lam_12):
    sol = solve_ipde(lambda x: np.minimum(x, 1.0), lam_12, GRID)
    assert np.array_equal(sol.values[0], np.minimum(GRID.x, 1.0))


def test_refuses_when_step_bound_violated():
    uset = point_mass_family([3.0])
    grid = Grid1D(x_min=-4.0, x_max=6.0, nx=51, dt=0.5, horizon=1.0)
    with pytest.raises(NumericalAbortError):
        solve_ipde(lambda x: np.minimum(x, 1.0), uset, grid)


def test_constant_payoff_preserved_exactly(lam_12):
    sol = solve_ipde(lambda x: np.full_like(x, 0.7), lam_12, GRID)
    assert float(np.max(np.abs(sol.values - 0.7))) == 0.0


def test_monotone_in_initial_data(lam_12):
    rng = np.random.default_rng(2)
    xs = GRID.x
    for _ in range(3):
        knots = np.sort(rng.uniform(-3, 3, size=5))
        vals_lo = rng.uniform(-1, 1, size=5)
        vals_hi = vals_lo + rng.uniform(0.0, 1.0, size=5)
        phi = lambda x: np.interp(x, knots, vals_lo)
        psi = lambda x: np.interp(x, knots, vals_hi)
        a = solve_ipde(phi, lam_12, GRID)
        b = solve_ipde(psi, lam_12, GRID)
        assert np.all(a.values <= b.values + 1e-12)


def test_positive_homogeneity_and_subadditivity_nodewise(lam_12):
    phi = lambda x: np.minimum(x, 1.0)
    psi = lambda x: np.abs(np.sin(x))
    lam = 1.7
    a = solve_ipde(phi, lam_12, GRID)
    scaled = solve_ipde(lambda x: lam * phi(x), lam_12, GRID)
    assert np.allclose(scaled.values, lam * a.values, atol=1e-10)
    b = solve_ipde(psi, lam_12, GRID)
    both = solve_ipde(lambda x: phi(x) + psi(x), lam_12, GRID)
    assert np.all(both.values <= a.values + b.values + 1e-10)


def test_refinement_shrinks_error():
    uset = point_mass_family([1.0])
    want = 1.0 - math.exp(-1.0)
    coarse = solve_ipde(
        lambda x: np.minimum(x, 1.0), uset, Grid1D(-6.0, 8.0, 71, 0.02, 1.0)
    )
    fine = solve_ipde(
        lambda x: np.minimum(x, 1.0), uset, Grid1D(-6.0, 8.0, 141, 0.01, 1.0)
    )
    assert abs(fine.value_at_zero() - want) <= abs(coarse.value_at_zero() - want) + 1e-6
    assert abs(fine.value_at_zero() - coarse.value_at_zero()) <= coarse.diagnostics[
        "scheme_error_estimate"
    ] + fine.diagnostics["scheme_error_estimate"]


@pytest.mark.parametrize("power", [-20, 20])
def test_error_estimate_scales_with_the_data_and_ignores_a_shift(power):
    # the README example; powers of two scale every layer and term exactly
    uset = point_mass_family(np.linspace(1.0, 2.0, 5))
    grid = Grid1D(-6.0, 8.0, 141, 0.01, 1.0)
    scale = 2.0**power
    base = solve_ipde(lambda x: np.minimum(x, 1.0), uset, grid)
    scaled = solve_ipde(lambda x: scale * np.minimum(x, 1.0), uset, grid)
    assert np.array_equal(scaled.values, scale * base.values)
    d, ds = base.diagnostics, scaled.diagnostics
    assert ds["argmax_histogram"] == d["argmax_histogram"]
    assert ds["scheme_error_estimate"] == scale * d["scheme_error_estimate"]
    shifted = solve_ipde(lambda x: np.minimum(x, 1.0) + 1024.0, uset, grid)
    assert shifted.diagnostics["scheme_error_estimate"] == pytest.approx(d["scheme_error_estimate"], rel=1e-9)


def test_diagnostics_shape(lam_12):
    sol = solve_ipde(lambda x: x, lam_12, GRID)
    d = sol.diagnostics
    assert 0.0 < d["cfl_number"] <= 1.0
    assert d["monotone"] is True
    hist = d["argmax_histogram"]
    assert len(hist) == len(lam_12)
    assert min(hist) >= 0 and sum(hist) > 0
    # strictly increasing data pushes every interior node to the top intensity;
    # only tied boundary nodes fall back to the lowest index
    assert int(np.argmax(hist)) == len(lam_12) - 1


def test_solution_interpolation_between_layers(lam_12):
    sol = solve_ipde(lambda x: x, lam_12, GRID)
    v_mid = sol.value(0.5, 0.0)
    assert v_mid == pytest.approx(1.0, abs=2e-2)


def test_to_csv_round_trip(lam_12):
    sol = solve_ipde(lambda x: np.minimum(x, 1.0), lam_12, GRID, max_rows=13)
    text, header = sol.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("t,")
    assert header["rows"] == len(lines) - 1
    assert header["nx"] == GRID.nx
    first = np.array([float(v) for v in lines[1].split(",")[1:]])
    last = np.array([float(v) for v in lines[-1].split(",")[1:]])
    assert np.array_equal(first, sol.values[0])
    assert np.array_equal(last, sol.values[-1])


def test_csv_export_streams_its_rows(tmp_path):
    # 201 layers of 1201 nodes make about 5 MiB of text; the writer holds one row at a time
    grid = Grid1D(x_min=-6.0, x_max=8.0, nx=1201, dt=1e-4, horizon=1.0)
    values = np.random.default_rng(2).normal(size=(201, grid.nx))
    sol = GridSolution(grid, np.linspace(0.0, 1.0, 201), values, {"cfl": 0.5}, stride=50)
    tracemalloc.start()
    try:
        with open(tmp_path / "solution.csv", "w") as fh:
            written, header = sol.to_csv(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    text, same_header = sol.to_csv()
    assert written == "" and (tmp_path / "solution.csv").read_text() == text
    assert header == same_header == sol.csv_header() == {"x_min": -6.0, "x_max": 8.0, "nx": 1201, "dt": 1e-4, "rows": 201, "stride": 50, "cfl": 0.5}


@pytest.mark.parametrize(
    "scalar, vectorized",
    [
        (lambda x: max(min(x, 1.0), -2.0), lambda x: np.maximum(np.minimum(x, 1.0), -2.0)),
        (lambda x: 0.5 * math.floor(x), lambda x: 0.5 * np.floor(x)),
    ],
    ids=["valueerror", "typeerror"],
)
def test_scalar_only_initial_data_matches_vectorized(lam_12, scalar, vectorized):
    # a phi that rejects arrays is evaluated node by node, to the same bytes
    a = solve_ipde(scalar, lam_12, GRID)
    b = solve_ipde(vectorized, lam_12, GRID)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.diagnostics == b.diagnostics


def test_steps_for_counts_exact_step_counts():
    # dt = t/n must give n steps although t/dt may land a few ulps above n
    grid = Grid1D(0.0, 1.0, 3, 1.3 / 32000, 1.3)
    assert grid.steps_for(1.3) == (32000, 1.3 / 32000)
    rng = np.random.default_rng(5)
    for t, n in zip(rng.uniform(0.01, 10.0, 2000), rng.integers(1, 200_000, 2000)):
        assert Grid1D(0.0, 1.0, 3, t / n, t).steps_for(t)[0] == n
    # a ratio clearly above n still takes one more step
    assert Grid1D(0.0, 1.0, 3, 1.0 / (10.0 + 1e-6), 1.0).steps_for(1.0)[0] == 11


def test_non_finite_initial_data_refused(lam_12):
    with pytest.raises(EvaluationError):
        solve_ipde(lambda x: np.where(x > 7.0, np.inf, 0.0), lam_12, GRID)


# -- the jump matrix against the per-triple loop -------------------------------

def reference_rate(uset, grid, u):
    """max over triples of A_j u with its argmax histogram, one triple at a time."""
    x, dx = grid.x, grid.dx
    du = np.empty_like(u)
    du[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dx)
    du[..., 0] = (u[..., 1] - u[..., 0]) / (2.0 * dx)
    du[..., -1] = (u[..., -1] - u[..., -2]) / (2.0 * dx)
    d2u = np.empty_like(u)
    d2u[..., 1:-1] = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / dx**2
    d2u[..., 0] = (u[..., 1] - u[..., 0]) / dx**2
    d2u[..., -1] = (u[..., -2] - u[..., -1]) / dx**2
    best = None
    best_idx = np.zeros(u.shape, dtype=np.int64)
    for j, t in enumerate(uset):
        zs, ws = t.measure.atoms[:, 0], t.measure.weights
        if ws.shape[0]:
            pos = x[None, :] + zs[:, None]
            idx = np.clip(np.searchsorted(x, pos) - 1, 0, grid.nx - 2)
            frac = np.clip((pos - x[idx]) / dx, 0.0, 1.0)
            shifted = u[..., idx] * (1.0 - frac) + u[..., idx + 1] * frac
            jump = np.tensordot(shifted, ws, axes=([-2], [0])) - float(ws.sum()) * u
        else:
            jump = np.zeros_like(u)
        cand = jump + t.drift1 * du + 0.5 * t.cov_root1**2 * d2u
        if best is None:
            best = cand
        else:
            best_idx[cand > best] = j  # strict: the first index wins ties
            np.maximum(best, cand, out=best)
    return best, np.bincount(best_idx.ravel(), minlength=len(uset))


def _triple(pairs, drift=0.0, cov_root=0.0):
    return LevyTriple(DiscreteLevyMeasure.from_pairs(pairs), drift=drift, cov_root=cov_root)


ONE_ATOM_SETS = {
    "lam_12": lambda: point_mass_family(np.linspace(1.0, 2.0, 5)),
    "locations": location_family,
    "diffusive": lambda: UncertaintySet(
        tuple(_triple([(1.0, 0.4)], drift=0.1 * a, cov_root=0.5) for a in (1, 2, 3))
    ),
    "empty_measure": lambda: UncertaintySet(
        (_triple([], drift=0.3, cov_root=0.4), _triple([(1.0, 1.0)]), _triple([]))
    ),
    "duplicate": lambda: UncertaintySet(
        (_triple([(1.0, 1.5)]), _triple([(-0.5, 0.5)]), _triple([(1.0, 1.5)]))
    ),
    "drift_only": lambda: UncertaintySet(
        (_triple([(1.0, 1.0)], drift=0.4), _triple([(1.0, 1.5)], drift=-0.3), _triple([(-0.5, 0.5)]))
    ),
    "diffusion_only": lambda: UncertaintySet(
        (_triple([(1.0, 1.0)], cov_root=0.5), _triple([(1.0, 1.5)], cov_root=0.2), _triple([(-0.5, 0.5)]))
    ),
}
MULTI_ATOM_SETS = {
    "mixtures": mixture_family,
    "negative_atoms": lambda: UncertaintySet(
        (
            _triple([(-1.0, 0.5), (2.0, 0.3), (0.5, 0.2)]),
            _triple([(-0.5, 1.0), (1.0, 0.4)], drift=0.1, cov_root=0.3),
            _triple([(2.0, 0.8), (-1.0, 0.1)]),
        )
    ),
    "symmetric_compensated": lambda: symmetric_compensated_set(mixture_family()),
}


def _layer(batch):
    """A rough 1-D layer, or a 2-D batch of shifted copies as in the iterated recursion."""
    x = GRID.x
    phi = lambda y: np.minimum(y, 1.0) + 0.3 * np.sin(3.0 * y) - 0.05 * y**2
    return phi(x) if not batch else phi(x[::7, None] + x[None, :])


@pytest.mark.parametrize("batch", [False, True], ids=["layer", "batch"])
@pytest.mark.parametrize("name", list(ONE_ATOM_SETS) + list(MULTI_ATOM_SETS))
def test_rate_matches_triple_loop_reference(name, batch):
    one_atom = name in ONE_ATOM_SETS
    uset = (ONE_ATOM_SETS if one_atom else MULTI_ATOM_SETS)[name]()
    u = _layer(batch)
    counts = np.zeros(len(uset), dtype=np.int64)
    got = _Stepper(uset, GRID).rate(u, counts)
    want, want_counts = reference_rate(uset, GRID, u)
    assert got.shape == u.shape
    assert counts.sum() == u.size
    if one_atom:
        assert got.tobytes() == want.tobytes()
        assert counts.tolist() == want_counts.tolist()
    else:
        assert float(np.max(np.abs(got - want))) <= 1e-13
    if name == "duplicate":
        assert counts[2] == 0 and counts[0] > 0


@pytest.mark.parametrize("level", [0.0, 0.7])
@pytest.mark.parametrize("name", ["locations", "empty_measure", "drift_only", "diffusion_only"])
def test_ties_go_to_the_first_kept_triple(name, level):
    uset = ONE_ATOM_SETS[name]()
    st = _Stepper(uset, GRID)
    assert st.rows.shape[0] >= 3
    u = np.full(GRID.nx, level)
    counts = np.zeros(len(uset), dtype=np.int64)
    got = st.rate(u, counts)
    want, want_counts = reference_rate(uset, GRID, u)
    assert got.tobytes() == want.tobytes()
    assert counts.tolist() == want_counts.tolist()
    if level == 0.0:  # every candidate is 0 at every node
        assert counts[st.rows[0]] == GRID.nx


SMALL = Grid1D(x_min=-4.0, x_max=5.0, nx=41, dt=0.01, horizon=1.0)


def _batch(ndim):
    """A 2-D batch on GRID or a 3-D batch on SMALL, as the iterated recursion steps them."""
    if ndim == 2:
        x = GRID.x
        return GRID, np.minimum(x[:, None] + x[None, :], 1.0) + 0.3 * np.sin(3.0 * x)
    x = SMALL.x
    return SMALL, np.minimum(x[:, None, None] - x[None, :, None] + 0.5 * x, 1.0) + 0.1 * np.cos(x)


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("name", list(ONE_ATOM_SETS) + list(MULTI_ATOM_SETS))
def test_batched_rate_in_row_blocks_matches_rate_row_by_row(name, ndim):
    uset = (ONE_ATOM_SETS if name in ONE_ATOM_SETS else MULTI_ATOM_SETS)[name]()
    grid, u = _batch(ndim)
    st = _Stepper(uset, grid)
    rows = u.reshape(-1, grid.nx)
    assert rows.shape[0] > st.block_rows  # more than one block
    counts = np.zeros(len(uset), dtype=np.int64)
    got = st.rate(u, counts)
    row_counts = np.zeros(len(uset), dtype=np.int64)
    want = np.stack([st.rate(row, row_counts) for row in rows]).reshape(u.shape)
    assert got.tobytes() == want.tobytes()
    assert st.rate(u).tobytes() == want.tobytes()
    assert counts.tolist() == row_counts.tolist() and counts.sum() == u.size


def test_nan_from_overflow_aborts_at_the_step_of_the_triple_loop():
    # alternating +-1e307 overflows the diffusion term to +-inf at step 1; the
    # drift term's inf - inf is the first NaN, at step 2
    uset = ONE_ATOM_SETS["diffusive"]()
    st = _Stepper(uset, GRID)
    u0 = 1e307 * (-1.0) ** np.arange(GRID.nx)
    n_steps, dt = GRID.steps_for(1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        u = u0
        for step in range(1, n_steps + 1):
            u = u + dt * reference_rate(uset, GRID, u)[0]
            if np.isnan(u).any():
                break
        assert step == 2
        want = {"step": step, "n_steps": n_steps, "cfl_number": st.cfl_number(dt)}
        for kwargs in ({}, {"rows": 201}, {"rows": 201, "argmax_counts": np.zeros(len(uset), dtype=np.int64)}):
            with pytest.raises(NumericalAbortError, match=f"NaN contamination at step 2/{n_steps}") as exc:
                st.evolve(u0, 1.0, **kwargs)
            assert exc.value.diagnostics == want


def test_nan_from_overflow_in_a_later_row_block_aborts_at_the_same_step():
    # the overflowing layer of the test above, as the last row of a batch of two row blocks
    uset = ONE_ATOM_SETS["diffusive"]()
    st = _Stepper(uset, GRID)
    _, u0 = _batch(2)
    u0[-1] = 1e307 * (-1.0) ** np.arange(GRID.nx)
    assert u0.shape[0] > st.block_rows  # the overflowing row is in the second block
    n_steps, dt = GRID.steps_for(1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalAbortError, match=f"NaN contamination at step 2/{n_steps}") as exc:
            st.evolve(u0, 1.0)
    assert exc.value.diagnostics == {"step": 2, "n_steps": n_steps, "cfl_number": st.cfl_number(dt)}


def test_nan_in_a_later_row_block_aborts_at_step_1():
    st = _Stepper(ONE_ATOM_SETS["locations"](), GRID)
    _, u = _batch(2)
    u[-1, 5] = np.nan
    assert u.shape[0] > st.block_rows
    with pytest.raises(NumericalAbortError) as exc:
        st.evolve(u, 1.0)
    assert exc.value.diagnostics == {"step": 1, "n_steps": 100, "cfl_number": st.cfl_number(0.01)}


# -- hull-vertex pruning ------------------------------------------------------

@pytest.mark.parametrize(
    "theta, want",
    [
        ([[1.0, 2.0]], [0]),
        ([[1.0], [2.0]], [0, 1]),
        ([[2.0], [1.0], [2.0]], [0, 1]),  # two distinct rows: no test, the first copy stays
        ([[1.0], [2.0], [1.0], [2.0], [1.5]], [0, 1]),
        ([[1.0, 0.0], [2.0, 1.0], [3.0, 2.0], [1.5, 0.5]], [0, 2]),  # collinear
        ([[1.0], [1.25], [1.5], [1.75], [2.0]], [0, 4]),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1 / 3, 1 / 3, 1 / 3], [0.5, 0.5, 0.0], [0.2, 0.1, 0.7]], [0, 1, 2]),
        ([[0.5, 0.5, 0.0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 2, 3]),  # the midpoint comes first
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.5, 0.5, 1e-9]], [0, 1, 2, 3]),  # just outside the face
        # (weight, drift, Q^2): the middle drift or Q^2 lies between its neighbours
        ([[1.0, -1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]], [0, 2]),
        ([[1.0, 0.0, 0.0], [1.0, 0.0, 0.5], [1.0, 0.0, 1.0]], [0, 2]),
        # a drift or Q^2 off the segment of weights makes the middle row a vertex
        ([[1.0, 0.0, 0.0], [1.5, 0.1, 0.0], [2.0, 0.0, 0.0]], [0, 1, 2]),
        ([[1.0, 0.0, 0.0], [1.5, 0.0, 0.25], [2.0, 0.0, 0.0]], [0, 1, 2]),
        # rows within the tolerance of each other: the lower index stays, either order
        ([[0.0], [1.0], [1.0 + 1e-15]], [0, 1]),
        ([[0.0], [1.0 + 1e-15], [1.0]], [0, 1]),
        ([[0.0], [1.0], [1.0 + 1e-9]], [0, 2]),
    ],
)
def test_hull_vertices(theta, want):
    assert _hull_vertices(np.array(theta, dtype=float)).tolist() == want


def test_hull_vertices_are_invariant_under_column_scale():
    rng = np.random.default_rng(11)
    corners = rng.uniform(-1.0, 1.0, size=(4, 3))
    mix = rng.dirichlet(np.ones(4), size=5) @ corners
    theta = np.vstack([mix[:2], corners, mix[2:]])
    want = [2, 3, 4, 5]
    assert _hull_vertices(theta).tolist() == want
    assert _hull_vertices(theta * np.array([1e-6, 1.0, 1e6])).tolist() == want


def hull_vertices_reference(theta):
    """_hull_vertices before untested private-column rows: every distinct row tested against all others."""
    _, first = np.unique(theta, axis=0, return_index=True)
    rows = np.sort(first)
    if rows.shape[0] <= 2:
        return rows
    scale = np.abs(theta[rows]).max(axis=0)
    pts = theta[rows][:, scale > 0.0] / scale[scale > 0.0]
    keep = np.ones(rows.shape[0], dtype=bool)
    for i in range(rows.shape[0] - 1, -1, -1):
        keep[i] = False
        if not keep.any():  # nnls aborts the process on a system without columns
            keep[i] = True
            continue
        system = np.vstack([pts[keep].T, np.ones(int(keep.sum()))])
        target = np.append(pts[i], 1.0)
        coef, _ = optimize.nnls(system, target)
        keep[i] = np.abs(system @ coef - target).max() > 1e-12
    return rows[keep]


@hs.composite
def hull_parameters(draw):
    """(weights over atoms, drift, Q^2) rows of a random mixed family with near duplicates and tiny private weights."""
    n_atoms = draw(hs.integers(1, 5))
    weight = hs.one_of(hs.just(0.0), hs.floats(0.05, 2.0))
    rows = draw(hs.lists(hs.lists(weight, min_size=n_atoms, max_size=n_atoms), min_size=1, max_size=8))
    theta = np.column_stack(
        [np.array(rows), draw(hs.sampled_from([np.zeros(len(rows)), np.linspace(-0.3, 0.3, len(rows))]))]
    )
    theta = np.column_stack([theta, np.zeros(len(rows))])
    for i in draw(hs.lists(hs.integers(0, len(rows) - 1), max_size=3)):  # a near duplicate of row i
        theta = np.vstack([theta, theta[i] * (1.0 + draw(hs.sampled_from([1e-15, 1e-13, 1e-9])))])
    for i in draw(hs.lists(hs.integers(0, theta.shape[0] - 1), max_size=2, unique=True)):  # a private atom
        column = np.zeros((theta.shape[0], 1))
        column[i] = draw(hs.sampled_from([1e-12, 1e-9, 0.5]))
        theta = np.hstack([column, theta])
    return theta[draw(hs.permutations(range(theta.shape[0])))]


@settings(max_examples=300, deadline=None)
@given(theta=hull_parameters())
def test_hull_vertices_match_the_all_rows_certificate(theta):
    assert _hull_vertices(theta).tolist() == hull_vertices_reference(theta).tolist()


@hs.composite
def one_parameter_families(draw):
    """(weight, drift, Q^2) rows of which one column varies: random values, near duplicates, constant columns."""
    value = hs.one_of(hs.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, -1.0]), hs.floats(-5.0, 5.0, allow_subnormal=False))
    q = draw(hs.lists(value, min_size=1, max_size=12))
    if draw(hs.booleans()):  # all rows equal but one
        q = [q[0]] * len(q) + [draw(value)]
    for i in draw(hs.lists(hs.integers(0, len(q) - 1), max_size=3)):  # a near duplicate of row i
        q.append(q[i] * (1.0 + draw(hs.sampled_from([1e-15, 1e-13, 1e-9]))))
    constant = [np.full(len(q), draw(hs.sampled_from([0.0, -2.0, 0.25, 1e6]))) for _ in range(2)]
    columns = [np.array(q), *constant]
    theta = np.column_stack([columns[k] for k in draw(hs.permutations(range(3)))])
    return theta[::-1] if draw(hs.booleans()) else theta


@settings(max_examples=300, deadline=None)
@given(theta=one_parameter_families())
def test_one_parameter_hulls_are_settled_without_nnls(theta):
    want = hull_vertices_reference(theta).tolist()
    with mock.patch.object(optimize, "nnls", side_effect=AssertionError("nnls called")):
        assert _hull_vertices(theta).tolist() == want


def test_two_parameter_hulls_still_use_nnls():
    theta = np.array([[1.0, 0.0, 0.0], [1.5, 0.1, 0.0], [2.0, 0.0, 0.0], [1.2, 0.02, 0.0]])
    want = hull_vertices_reference(theta).tolist()
    with mock.patch.object(optimize, "nnls", wraps=optimize.nnls) as nnls:
        assert _hull_vertices(theta).tolist() == want == [0, 1, 2]
    assert nnls.call_count > 0


def test_near_identical_rows_keep_the_first():
    # three rows within the tolerance: the last test has no other row to combine
    assert _hull_vertices(np.array([[1.0], [1.0 + 1e-14], [1.0 + 2e-14]])).tolist() == [0]


def test_location_family_of_401_triples_sets_up_fast():
    uset = uncertainty_set_from_config(
        {"family": {"rule": "moving_point_mass", "params": {"location": {"min": 0.5, "max": 2.5, "count": 401}}}}
    )
    grid = Grid1D(-6.0, 8.0, 281, 0.002, 1.0)
    start = time.perf_counter()
    st = _Stepper(uset, grid)
    assert time.perf_counter() - start < 2.0
    assert st.rows.tolist() == list(range(401))  # every point mass is a vertex


def test_stepper_keeps_vertex_triples():
    st = _Stepper(point_mass_family(np.linspace(1.0, 2.0, 11)), GRID)
    assert st.rows.tolist() == [0, 10]
    assert _Stepper(ONE_ATOM_SETS["duplicate"](), GRID).rows.tolist() == [0, 1]
    assert _Stepper(ONE_ATOM_SETS["diffusive"](), GRID).rows.tolist() == [0, 2]
    assert _Stepper(mixture_family(), GRID).rows.tolist() == [0, 2]
    assert _Stepper(location_family(), GRID).rows.tolist() == [0, 1, 2]


# -- pruned, strided solve against the unpruned all-layers solve ----------------

class UnprunedStepper:
    """The stepper before pruning: every triple a row, the max by a second reduction."""

    def __init__(self, uset, grid):
        self.grid = grid
        x = grid.x
        zs = np.unique(np.concatenate([t.measure.atoms[:, 0] for t in uset]))
        self.weights = np.zeros((len(uset), zs.shape[0]))
        for j, t in enumerate(uset):
            self.weights[j, np.searchsorted(zs, t.measure.atoms[:, 0])] = t.measure.weights
        self.mass = np.array([t.measure.total_mass for t in uset])
        self.drift = np.array([t.drift1 for t in uset])
        self.q2 = np.array([t.cov_root1 ** 2 for t in uset])
        pos = x[None, :] + zs[:, None]
        self.idx = np.clip(np.searchsorted(x, pos) - 1, 0, grid.nx - 2)
        self.frac = np.clip((pos - x[self.idx]) / grid.dx, 0.0, 1.0)
        self.keep = 1.0 - self.frac
        self.idx1 = self.idx + 1
        self.mass_max = float(self.mass.max())
        self.q2_max = float(self.q2.max())
        self.p_max = float(np.abs(self.drift).max())

    def rate(self, u, argmax_counts):
        shifted = u[..., self.idx] * self.keep + u[..., self.idx1] * self.frac
        cand = np.matmul(self.weights, shifted)
        cand -= self.mass[:, None] * u[..., None, :]
        if self.p_max or self.q2_max:
            dx = self.grid.dx
            du = np.empty_like(u)
            du[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dx)
            du[..., 0] = (u[..., 1] - u[..., 0]) / (2.0 * dx)
            du[..., -1] = (u[..., -1] - u[..., -2]) / (2.0 * dx)
            d2u = np.empty_like(u)
            d2u[..., 1:-1] = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / dx**2
            d2u[..., 0] = (u[..., 1] - u[..., 0]) / dx**2
            d2u[..., -1] = (u[..., -2] - u[..., -1]) / dx**2
            cand += self.drift[:, None] * du[..., None, :]
            cand += (0.5 * self.q2)[:, None] * d2u[..., None, :]
        argmax_counts += np.bincount(cand.argmax(axis=-2).ravel(), minlength=cand.shape[-2])
        return cand.max(axis=-2)


def reference_solve_ipde(phi, uset, grid):
    """solve_ipde before pruning and striding: every layer kept, the second difference after the loop."""
    stepper = UnprunedStepper(uset, grid)
    fast = _Stepper(uset, grid)  # grid-only helpers: interior window, contamination
    T = grid.horizon
    n_steps, dt = grid.steps_for(T)
    u0 = np.asarray(phi(grid.x), dtype=float)
    argmax_counts = np.zeros(len(uset), dtype=np.int64)
    layers = np.empty((n_steps + 1, grid.nx))
    layers[0] = u = u0
    for step in range(n_steps):
        r = stepper.rate(u, argmax_counts)
        r *= dt
        u = np.add(u, r, out=layers[step + 1])
    win = np.zeros(grid.nx, dtype=bool)
    win[fast.interior] = True
    second_diff_rate = 0.0
    for k in range(1, n_steps):
        second_diff_rate = max(
            second_diff_rate,
            float(np.max(np.abs((layers[k + 1] - 2.0 * layers[k] + layers[k - 1])[win]))) / dt,
        )
    dx = grid.dx
    final = u[win]
    d2 = np.abs(np.diff(final, 2)).max(initial=0.0) / dx**2
    d3 = np.abs(np.diff(final, 3)).max(initial=0.0) / dx**3
    contamination = fast.boundary_contamination(T)
    osc = float(u0.max() - u0.min())
    err = (
        0.5 * T * second_diff_rate
        + contamination * max(osc, 1.0)
        + T * dx**2 * (stepper.mass_max * d2 / 8.0 + stepper.p_max * d3 / 6.0)
    )
    diagnostics = {
        "cfl_number": fast.cfl_number(dt),
        "dt": dt,
        "n_steps": n_steps,
        "monotone": bool(np.all((stepper.q2 >= dx * np.abs(stepper.drift)) | (stepper.drift == 0.0))),
        "argmax_histogram": argmax_counts.tolist(),
        "boundary_contamination": contamination,
        "scheme_error_estimate": float(err),
    }
    return GridSolution(grid, np.linspace(0.0, T, n_steps + 1), layers, diagnostics)


def strided(sol, rows):
    """The solution keeping every s-th layer and the last, s = ceil((n - 1) / (rows - 1)) of its n."""
    n = sol.values.shape[0]
    s = math.ceil((n - 1) / (rows - 1))
    keep = list(range(0, n, s))
    if keep[-1] != n - 1:
        keep.append(n - 1)
    return dataclasses.replace(sol, times=sol.times[keep], values=sol.values[keep], stride=s * sol.stride)


FINE = Grid1D(x_min=-6.0, x_max=8.0, nx=141, dt=5e-4, horizon=1.0)  # 2000 steps
TENT = lambda x: np.maximum(1.0 - np.abs(x - 1.0), 0.0)
STRIDED_CASES = {
    "lam_11_clamped": (lambda: point_mass_family(np.linspace(1.0, 2.0, 11)), lambda x: np.minimum(x, 1.0)),
    "lam_12_linear": (lambda: point_mass_family(np.linspace(1.0, 2.0, 5)), lambda x: x),
    "diffusive_clamped": (ONE_ATOM_SETS["diffusive"], lambda x: np.minimum(x, 1.0)),
    "duplicate_rough": (ONE_ATOM_SETS["duplicate"], lambda x: np.minimum(x, 1.0) + 0.3 * np.sin(3.0 * x)),
}


@pytest.fixture(scope="module")
def references():
    return {name: reference_solve_ipde(phi, make(), FINE) for name, (make, phi) in STRIDED_CASES.items()}


@pytest.mark.parametrize("rows", [13, 201, 1001])
@pytest.mark.parametrize("name", list(STRIDED_CASES))
def test_strided_pruned_solve_matches_unpruned_all_layers(references, name, rows):
    make, phi = STRIDED_CASES[name]
    uset = make()
    ref = references[name]
    sol = solve_ipde(phi, uset, FINE, max_rows=rows)
    pruned = sol.diagnostics.pop("pruned_triples")
    assert pruned == [j for j in range(len(uset)) if j not in _Stepper(uset, FINE).rows]
    # no pruned triple wins in the unpruned run, so the supremum and its argmax are the same
    assert all(ref.diagnostics["argmax_histogram"][j] == 0 for j in pruned)
    assert sol.diagnostics == ref.diagnostics
    text, header = sol.to_csv()
    want_text, want_header = strided(ref, rows).to_csv()
    assert text == want_text
    assert {k: v for k, v in header.items() if k != "pruned_triples"} == want_header
    n_steps = FINE.steps_for(1.0)[0]
    assert header["stride"] == sol.stride == math.ceil(n_steps / (rows - 1))
    assert sol.values.shape == (header["rows"], FINE.nx) and header["rows"] <= rows
    assert sol.final.tobytes() == ref.final.tobytes()


def test_kept_layers_and_their_times(lam_12):
    grid = Grid1D(x_min=-6.0, x_max=8.0, nx=141, dt=0.01, horizon=1.03)  # 103 steps
    sol = solve_ipde(lambda x: np.minimum(x, 1.0), lam_12, grid, max_rows=11)
    assert sol.stride == 11
    assert np.array_equal(sol.times, np.linspace(0.0, 1.03, 104)[[0, 11, 22, 33, 44, 55, 66, 77, 88, 99, 103]])
    assert np.array_equal(sol.values[0], np.minimum(grid.x, 1.0))
    full = solve_ipde(lambda x: np.minimum(x, 1.0), lam_12, grid, max_rows=1000)
    assert full.stride == 1 and full.values.shape[0] == 104
    assert np.array_equal(sol.values, full.values[[0, 11, 22, 33, 44, 55, 66, 77, 88, 99, 103]])
    # value(t, x) interpolates between kept layers
    assert sol.value(sol.times[3], 0.5) == full.value(full.times[33], 0.5)
    w = (0.4 - sol.times[3]) / (sol.times[4] - sol.times[3])
    want = np.interp(0.5, grid.x, (1.0 - w) * sol.values[3] + w * sol.values[4])
    assert sol.value(0.4, 0.5) == want
    ends = solve_ipde(lambda x: np.minimum(x, 1.0), lam_12, grid, max_rows=2)
    assert ends.values.shape[0] == 2 and ends.final.tobytes() == full.final.tobytes()
    assert ends.diagnostics == full.diagnostics
    # the export writes exactly the kept layers, with the solve's stride
    text, header = sol.to_csv()
    assert header["rows"] == len(text.splitlines()) - 1 == sol.values.shape[0] == 11
    assert header["stride"] == sol.stride


@pytest.mark.parametrize("rows", [1, 0, -5])
def test_fewer_than_two_kept_layers_is_refused(lam_12, rows):
    with pytest.raises(InvalidInputError, match="max_rows"):
        solve_ipde(lambda x: x, lam_12, GRID, max_rows=rows)


def test_tent_case_interior_win_by_rounding_agrees_to_1e12(lam_12):
    # the unpruned scheme hands an interior intensity one node by rounding
    grid = Grid1D(x_min=-6.0, x_max=8.0, nx=281, dt=2.5e-3, horizon=1.0)
    ref = reference_solve_ipde(TENT, lam_12, grid)
    sol = solve_ipde(TENT, lam_12, grid)
    hist = ref.diagnostics["argmax_histogram"]
    assert sum(hist[1:-1]) > 0
    assert sol.diagnostics["pruned_triples"] == [1, 2, 3]
    got = sol.diagnostics["argmax_histogram"]
    assert got[1:-1] == [0, 0, 0] and sum(got) == sum(hist)
    assert float(np.max(np.abs(sol.final - ref.final))) <= 1e-12
    assert abs(sol.value_at_zero() - ref.value_at_zero()) <= 1e-12
    assert sol.diagnostics["scheme_error_estimate"] == pytest.approx(
        ref.diagnostics["scheme_error_estimate"], rel=1e-12
    )


@pytest.mark.parametrize("name", list(MULTI_ATOM_SETS))
def test_pruned_multi_atom_solve_agrees_with_unpruned(name):
    uset = MULTI_ATOM_SETS[name]()
    phi = lambda x: np.minimum(x, 1.0) + 0.3 * np.sin(3.0 * x)
    ref = reference_solve_ipde(phi, uset, GRID)
    sol = solve_ipde(phi, uset, GRID)
    assert float(np.max(np.abs(sol.final - ref.final))) <= 1e-12


def test_nan_contamination_aborts(lam_12):
    st = _Stepper(lam_12, GRID)
    u = np.minimum(GRID.x, 1.0)
    u[70] = np.nan
    with pytest.raises(NumericalAbortError) as exc:
        st.evolve(u, 1.0, rows=201)
    assert exc.value.diagnostics["step"] == 1


# -- iterated and conditional expectation ------------------------------------

COARSE = Grid1D(x_min=-5.0, x_max=7.0, nx=61, dt=0.02, horizon=1.0)


def test_iterated_single_time_matches_solver(lam_12):
    direct = solve_ipde(lambda x: np.minimum(x, 1.0), lam_12, COARSE, horizon=0.5)
    via = iterated_expectation(lambda x1: np.minimum(x1, 1.0), [0.5], lam_12, COARSE)
    assert via == pytest.approx(direct.value_at_zero(), abs=1e-9)


def test_iterated_linear_two_times_additive(lam_12):
    t1 = 0.25
    got = iterated_expectation(lambda x1, x2: x1 + x2, [t1, 2 * t1], lam_12, COARSE)
    direct = solve_ipde(lambda x: x, lam_12, COARSE, horizon=2 * t1)
    assert got == pytest.approx(direct.value_at_zero(), abs=2e-2)


def test_iterated_first_increment_only_ignores_second_time(lam_12):
    a = iterated_expectation(lambda x1, x2: np.minimum(x1, 1.0), [0.3, 0.6], lam_12, COARSE)
    b = iterated_expectation(lambda x1, x2: np.minimum(x1, 1.0), [0.3, 0.9], lam_12, COARSE)
    assert a == pytest.approx(b, abs=1e-9)


def test_conditional_on_everything_returns_realized_value(lam_12):
    got = conditional_expectation(
        lambda x1, x2: x1 + 2 * x2, [0.3, 0.6], lam_12, COARSE, i=2, realized=[1.0, 0.5]
    )
    assert got == pytest.approx(2.0, abs=1e-12)


def test_conditional_on_nothing_is_unconditional(lam_12):
    phi = lambda x1, x2: np.minimum(x1 + x2, 1.0)
    a = conditional_expectation(phi, [0.3, 0.6], lam_12, COARSE, i=0, realized=[])
    b = iterated_expectation(phi, [0.3, 0.6], lam_12, COARSE)
    assert a == pytest.approx(b, abs=1e-12)


def test_conditional_realized_count_checked(lam_12):
    with pytest.raises(InvalidInputError):
        conditional_expectation(
            lambda x1, x2: x1 + x2, [0.3, 0.6], lam_12, COARSE, i=1, realized=[1.0, 2.0]
        )


def test_conditional_on_everything_checks_times_first(lam_12):
    # the i = n shortcut evaluates phi directly, but the times must still be valid
    with pytest.raises(InvalidInputError, match="strictly increasing"):
        conditional_expectation(lambda a, b: a + b, [1.0, 0.5], lam_12, COARSE, 2, [0.1, 0.2])
    with pytest.raises(UnsupportedError):
        conditional_expectation(
            lambda a, b, c, d: a + b + c + d, [0.1, 0.2, 0.3, 0.4], lam_12, COARSE, 4, [0.0] * 4
        )


def test_conditional_martingale_returns_observed_level(lam_12):
    # the self-compensating set makes the coordinate process a martingale:
    # conditioning the terminal sum on the first increment returns it unchanged
    zset = symmetric_compensated_set(lam_12)
    for y in (-0.75, 0.0, 1.25):
        got = conditional_expectation(
            lambda x1, x2: x1 + x2, [0.4, 0.8], zset, COARSE, i=1, realized=[y]
        )
        assert got == pytest.approx(y, abs=5e-3)


def test_iterated_refuses_oversized_tensor(lam_12):
    big = Grid1D(x_min=-5.0, x_max=7.0, nx=5001, dt=0.02, horizon=1.0)
    with pytest.raises(InvalidInputError):
        iterated_expectation(lambda x1, x2, x3: x1 + x2 + x3, [0.2, 0.4, 0.6], lam_12, big)


# -- g_poisson_distribution ---------------------------------------------------

def reference_g_poisson(lambda_min, lambda_max, t, phi, n_steps=None, tail=1e-8):
    """The lattice ODE by a hand-written Euler loop on {0, ..., N_max}, same driver."""
    n_max = int(stats.poisson.ppf(1.0 - min(tail, 1e-8) * 0.1, lambda_max * t)) + 3
    ks = np.arange(n_max + 1)
    try:
        u0 = np.asarray(phi(ks), dtype=float)
    except (TypeError, ValueError):
        u0 = np.array([float(phi(k)) for k in ks.tolist()])

    def euler(n):
        h = t / n
        u = u0.copy()
        body = u[:n_max]  # the top state keeps its value (zero forward difference)
        spread = lambda_max - lambda_min
        du = np.empty(n_max)
        gain = np.empty(n_max)
        for _ in range(n):
            np.subtract(u[1:], u[:-1], out=du)
            np.maximum(du, 0.0, out=gain)
            np.multiply(gain, spread, out=gain)
            du *= lambda_min
            gain += du
            gain *= h
            body += gain
        return float(u[0])

    if n_steps is not None:
        return euler(n_steps)
    tol = 2.5e-7 * max(1.0, float(np.abs(u0).max()))
    n = max(int(math.ceil(2.0 * lambda_max * t)), 1000)
    coarse, fine = euler(n), euler(2 * n)
    combined = 2.0 * fine - coarse
    while n < 2_000_000:
        n *= 2
        coarse, fine = fine, euler(2 * n)
        refined = 2.0 * fine - coarse
        if abs(refined - combined) <= tol:
            return refined
        combined = refined
    return combined


_clamp = lambda k: np.minimum(k, 1.0)
GPOISSON_CASES = {
    "lam_12": (1.0, 2.0, 1.0, _clamp),
    "cos_t2": (0.5, 3.0, 2.0, np.cos),
    "degenerate": (1.0, 1.0, 1.0, _clamp),
    "lambda_min_0": (0.0, 2.0, 1.0, np.sin),
    "antitone": (1.0, 2.0, 1.0, lambda k: -np.minimum(k, 1.0)),
    "scalar_only": (1.0, 2.0, 1.0, lambda k: [0.0, 1.0, 0.5][k % 3]),  # k must be an int
}


@pytest.mark.parametrize(
    "name, n_steps",
    [(name, n) for name in GPOISSON_CASES for n in (1000, 4000, None)] + [("t1.3", 32000)],
)
def test_gpoisson_matches_lattice_reference(name, n_steps):
    args = GPOISSON_CASES.get(name, (1.0, 2.0, 1.3, _clamp))
    got = g_poisson_distribution(*args, n_steps=n_steps)
    assert got.hex() == reference_g_poisson(*args, n_steps=n_steps).hex()


@pytest.mark.parametrize("n_steps", [4000, None])
def test_gpoisson_off_binary_intensities_match_reference_to_rounding(n_steps):
    # the stepper forms lambda u(k+1) - lambda u(k), the loop lambda_min d + (lambda_max -
    # lambda_min) max(d, 0) with d = u(k+1) - u(k): the two round apart in the last bits
    args = (0.3, 0.7, 4.0, np.cos)
    got = g_poisson_distribution(*args, n_steps=n_steps)
    assert abs(got - reference_g_poisson(*args, n_steps=n_steps)) <= 64 * np.finfo(float).eps


def test_gpoisson_keeps_lattice_step_bound():
    # dt * lambda_max = 2/3: inside the PIDE step bound of 1, outside the lattice bound of 1/2
    with pytest.raises(NumericalAbortError):
        g_poisson_distribution(1.0, 2.0, 1.0, _clamp, n_steps=3)


def test_gpoisson_linear_mean():
    assert g_poisson_distribution(1.0, 2.0, 1.0, lambda k: k) == pytest.approx(2.0, abs=1e-4)


def test_gpoisson_monotone_payoff_uses_top_intensity():
    got = g_poisson_distribution(1.0, 2.0, 1.0, lambda k: np.minimum(k, 1.0))
    assert got == pytest.approx(1.0 - math.exp(-2.0), abs=1e-5)


def test_gpoisson_antitone_payoff_uses_bottom_intensity():
    got = g_poisson_distribution(1.0, 2.0, 1.0, lambda k: -np.minimum(k, 1.0))
    assert got == pytest.approx(-(1.0 - math.exp(-1.0)), abs=1e-5)


def test_gpoisson_classical_degeneration_matches_series():
    for lam in (0.5, 1.0, 2.0):
        for phi in (lambda k: np.minimum(k, 1.0), lambda k: np.minimum(k, 3.0), lambda k: (k % 2).astype(float) if hasattr(k, "astype") else k % 2):
            want = poisson_series(lam, 1.0, phi)
            got = g_poisson_distribution(lam, lam, 1.0, phi)
            assert got == pytest.approx(want, abs=1e-6)


def test_gpoisson_stopping_rule_scales_with_phi(monkeypatch):
    # the doubling stops on a tolerance relative to max |phi|, so a scaled phi
    # stops after the same three runs and returns the scaled value
    calls = []
    evolve = _Stepper.evolve
    monkeypatch.setattr(_Stepper, "evolve", lambda self, *a, **kw: calls.append(1) or evolve(self, *a, **kw))
    base = g_poisson_distribution(1.0, 2.0, 1.0, _clamp)
    assert len(calls) == 3
    scaled = g_poisson_distribution(1.0, 2.0, 1.0, lambda k: 1e9 * np.minimum(k, 1.0))
    assert len(calls) == 6
    assert scaled == pytest.approx(1e9 * base, rel=1e-12, abs=0.0)


def test_gpoisson_rejects_bad_interval():
    with pytest.raises(InvalidInputError):
        g_poisson_distribution(2.0, 1.0, 1.0, lambda k: k)


@pytest.mark.parametrize(
    "args, n_steps",
    [
        ((1.0, math.inf, 1.0), None),
        ((math.nan, 2.0, 1.0), None),
        ((1.0, math.nan, 1.0), None),
        ((1.0, 2.0, math.inf), None),
        ((1.0, 2.0, math.nan), None),
        ((1.0, 2.0, 0.0), None),
        ((1.0, 2.0, 1.0), 0),
        ((1.0, 2.0, 1.0), -4),
    ],
)
def test_gpoisson_rejects_non_finite_or_zero_inputs(args, n_steps):
    with pytest.raises(InvalidInputError):
        g_poisson_distribution(*args, lambda k: k, n_steps=n_steps)


@pytest.mark.parametrize(
    "fields",
    [
        (-math.inf, 1.0, 11, 0.1, 1.0),
        (0.0, math.inf, 11, 0.1, 1.0),
        (math.nan, 1.0, 11, 0.1, 1.0),
        (0.0, 1.0, 11, math.inf, 1.0),
        (0.0, 1.0, 11, math.nan, 1.0),
        (0.0, 1.0, 11, 0.0, 1.0),
        (0.0, 1.0, 11, 0.1, math.inf),
        (0.0, 1.0, 11, 0.1, math.nan),
        (0.0, 1.0, 11, 0.1, 0.0),
    ],
)
def test_grid_rejects_non_finite_or_zero_fields(fields):
    with pytest.raises(InvalidInputError):
        Grid1D(*fields)


@pytest.mark.parametrize("duration", [0.0, -1.0, math.inf, math.nan])
def test_steps_for_rejects_non_finite_or_zero_duration(duration):
    with pytest.raises(InvalidInputError):
        GRID.steps_for(duration)
    with pytest.raises(InvalidInputError):
        Grid1D(0.0, 1.0, 3, 5e-324, 1.0).steps_for(1.0)  # the step count overflows


def test_poisson_tail_and_quantile_match_scipy_stats():
    # the scipy.special forms equal scipy.stats.poisson bit for bit
    mus = np.concatenate([[0.0], np.geomspace(1e-4, 500.0, 41), [1.0, 2.0, 2.0 * 1.3]])
    for mu in mus:
        for k in range(0, 120, 7):
            assert _poisson_tail(k, mu) == float(stats.poisson.sf(k, mu))
        if mu > 0.0:
            for q in (1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-9):
                assert _poisson_quantile(q, mu) == int(stats.poisson.ppf(q, mu))
