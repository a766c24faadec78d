"""Worst-case expectations through a nonlinear integro-PDE, d = 1.

The value function u(t, x) of a worst-case expectation with initial data phi
solves

    du/dt = sup over triples (v, p, Q) of
            [ sum_k w_k (u(t, x + z_k) - u(t, x)) + p du/dx + (Q^2/2) d2u/dx2 ],
    u(0, x) = phi(x),

and the quantity of interest is u(t, 0). The solver discretizes with an
explicit Euler step in time, central differences in space, linear
interpolation for the shifted values u(x + z) and constant extrapolation
outside the grid. The jump terms of all triples form one (triples x distinct
atoms) weight matrix, applied to the layer interpolated once per distinct
atom; with drift and diffusion each triple contributes an affine expression in
the current layer, and the scheme takes their pointwise maximum (first index
wins ties). Under the step bound

    dt * ( sup_v v(R_0) + sup Q^2/dx^2 + sup |p|/dx ) <= 1

the diagonal coefficient of every candidate stays nonnegative; when in
addition Q^2 >= dx |p| for every triple all coefficients are nonnegative and
the discrete operator is monotone (reported in the diagnostics). Violating
the step bound refuses to run rather than producing garbage, and any NaN in a
layer aborts with diagnostics.

The reported ``scheme_error_estimate`` is an engineering error model, not a
proven bound: an Euler term from the largest discrete second time difference,
spatial terms from discrete derivatives of the final layer, and a
boundary-contamination term bounding the influence of the constant
extrapolation by a Poisson tail (jumps need margin/|z|_max arrivals to carry
boundary error to the evaluation point).

The module also provides the iterated (backward) evaluation of functionals of
finitely many increments, its conditional variant at a realized history, and
the worst-case Poisson distribution: for jump intensity known only within
[lambda_min, lambda_max], the expectation of phi(N_t) solves the lattice ODE
u'(t, k) = sup_lambda lambda (u(t, k+1) - u(t, k)). That ODE is the PIDE above
on the unit grid {0, ..., N_max} with the two-triple set (lambda_min delta_1,
lambda_max delta_1), so the same stepper integrates it: the sup is attained
at an endpoint of the interval, and the clamped shift keeps the top state
fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import stats
from scipy.interpolate import RegularGridInterpolator

from .errors import (
    EvaluationError,
    InvalidInputError,
    NumericalAbortError,
    UnsupportedError,
)
from .uncertainty import DiscreteLevyMeasure, UncertaintySet

__all__ = [
    "Grid1D",
    "GridSolution",
    "apply_g",
    "solve_ipde",
    "iterated_expectation",
    "conditional_expectation",
    "g_poisson_distribution",
]

_MAX_TENSOR_CELLS = 20_000_000


@dataclass(frozen=True)
class Grid1D:
    """Uniform space-time grid for the one-dimensional solver.

    The spatial window should cover the support of the initial data plus the
    worst-case jump reach with margin; the boundary-contamination diagnostic
    of the solution reports how much margin was actually available.
    """

    x_min: float
    x_max: float
    nx: int
    dt: float
    horizon: float

    def __post_init__(self):
        if not (self.x_max > self.x_min):
            raise InvalidInputError("need x_max > x_min")
        if self.nx < 3:
            raise InvalidInputError("need at least 3 spatial nodes")
        if not (self.dt > 0.0 and self.horizon > 0.0):
            raise InvalidInputError("dt and horizon must be positive")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def steps_for(self, duration: float) -> tuple[int, float]:
        """Number of Euler steps covering the duration with step <= dt.

        A ratio duration/dt within a relative 1e-13 above an integer counts
        as that integer, so dt = duration/n gives n steps for any n.
        """
        n = max(1, int(math.ceil(duration / self.dt * (1.0 - 1e-13))))
        return n, duration / n


class _Stepper:
    """Precompiled explicit step u -> u + dt * max over triples (A_j u).

    Every triple's jump term is one row of ``weights`` (triples x distinct
    atoms), applied to the values interpolated once per distinct atom.
    """

    def __init__(self, uset: UncertaintySet, grid: Grid1D):
        if len(uset) == 0:
            raise InvalidInputError("uncertainty set is empty")
        if uset.dim != 1:
            raise UnsupportedError("the PIDE solver is one-dimensional")
        self.grid = grid
        x = grid.x
        zs = np.unique(np.concatenate([t.measure.atoms[:, 0] for t in uset]))
        self.weights = np.zeros((len(uset), zs.shape[0]))
        for j, t in enumerate(uset):
            self.weights[j, np.searchsorted(zs, t.measure.atoms[:, 0])] = t.measure.weights
        self.mass = np.array([t.measure.total_mass for t in uset])
        self.drift = np.array([t.drift1 for t in uset])
        self.q2 = np.array([t.cov_root1 ** 2 for t in uset])
        pos = x[None, :] + zs[:, None]  # (n_atoms, nx)
        self.idx = np.clip(np.searchsorted(x, pos) - 1, 0, grid.nx - 2)
        self.frac = np.clip((pos - x[self.idx]) / grid.dx, 0.0, 1.0)
        self.keep = 1.0 - self.frac
        self.idx1 = self.idx + 1
        self.mass_max = float(self.mass.max())
        self.q2_max = float(self.q2.max())
        self.p_max = float(np.abs(self.drift).max())
        self.jump_max = float(np.abs(zs).max(initial=0.0))

    def cfl_number(self, dt: float) -> float:
        dx = self.grid.dx
        return dt * (self.mass_max + self.q2_max / dx**2 + self.p_max / dx)

    @property
    def interior(self) -> np.ndarray:
        """Nodes used for error-model curvature measurements.

        The error estimate targets the value reported at x = 0, so curvature
        is measured away from the clamped boundaries (whose influence on the
        origin is bounded separately by the contamination term); the window
        keeps half the margin on each side, or the central half of the domain
        when the origin is not interior.
        """
        x = self.grid.x
        if self.grid.x_min < 0.0 < self.grid.x_max:
            mask = (x >= 0.5 * self.grid.x_min) & (x <= 0.5 * self.grid.x_max)
        else:
            length = self.grid.x_max - self.grid.x_min
            mask = (x >= self.grid.x_min + 0.25 * length) & (x <= self.grid.x_max - 0.25 * length)
        if mask.sum() < 4:
            mask = np.ones_like(mask)
        return mask

    @property
    def monotone(self) -> bool:
        dx = self.grid.dx
        return bool(np.all((self.q2 >= dx * np.abs(self.drift)) | (self.drift == 0.0)))

    def rate(self, u: np.ndarray, argmax_counts: np.ndarray | None = None) -> np.ndarray:
        """max over triples of A_j u, applied along the last axis of u."""
        shifted = u[..., self.idx] * self.keep + u[..., self.idx1] * self.frac
        cand = np.matmul(self.weights, shifted)  # (..., triples, nx)
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
        if argmax_counts is not None:
            argmax_counts += np.bincount(cand.argmax(axis=-2).ravel(), minlength=cand.shape[-2])
        return cand.max(axis=-2)

    def evolve(
        self,
        u0: np.ndarray,
        duration: float,
        record: bool = False,
        argmax_counts: np.ndarray | None = None,
    ):
        """Run Euler steps over the duration; optionally keep all layers.

        Returns (final_layer, layers_or_None, info); the kept layers are one
        (n_steps + 1, *u0.shape) array. Refuses when the step bound fails;
        aborts on NaN contamination.
        """
        n_steps, dt = self.grid.steps_for(duration)
        cfl = self.cfl_number(dt)
        if cfl > 1.0 + 1e-12:
            raise NumericalAbortError(
                f"step bound violated: dt*(mass + Q^2/dx^2 + |p|/dx) = {cfl:.3g} > 1; refusing to run",
                {"cfl_number": cfl, "dt": dt, "dx": self.grid.dx},
            )
        u = np.array(u0, dtype=float)
        layers = None
        if record:
            layers = np.empty((n_steps + 1,) + u.shape)
            layers[0] = u
        for step in range(n_steps):
            r = self.rate(u, argmax_counts)
            r *= dt
            u = np.add(u, r, out=None if layers is None else layers[step + 1])
            if np.isnan(u).any():
                raise NumericalAbortError(
                    f"NaN contamination at step {step + 1}/{n_steps}",
                    {"step": step + 1, "n_steps": n_steps, "cfl_number": cfl},
                )
        return u, layers, {"n_steps": n_steps, "dt": dt, "cfl_number": cfl}

    def boundary_contamination(self, duration: float) -> float:
        """Poisson tail bound on boundary influence at the evaluation point 0."""
        if self.jump_max == 0.0:
            return 0.0
        margin = min(-self.grid.x_min, self.grid.x_max)
        if margin <= 0.0:
            return 1.0
        hops = int(math.floor(margin / self.jump_max))
        return float(stats.poisson.sf(hops - 1, self.mass_max * duration)) if hops >= 1 else 1.0


@dataclass(frozen=True)
class GridSolution:
    """Dense solution layers with diagnostics and bilinear evaluation."""

    grid: Grid1D
    times: np.ndarray
    values: np.ndarray  # (n_layers, nx)
    diagnostics: dict = field(default_factory=dict)

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]

    def value(self, t: float, x: float) -> float:
        """Linear interpolation in time and space; constant beyond the x range."""
        if not (0.0 <= t <= self.times[-1] + 1e-12):
            raise InvalidInputError("t outside the solved range")
        tq = min(float(t), float(self.times[-1]))
        k = int(np.searchsorted(self.times, tq, side="right") - 1)
        k = min(max(k, 0), len(self.times) - 2) if len(self.times) > 1 else 0
        if len(self.times) == 1:
            layer = self.values[0]
        else:
            t0, t1 = self.times[k], self.times[k + 1]
            w = 0.0 if t1 == t0 else (tq - t0) / (t1 - t0)
            layer = (1.0 - w) * self.values[k] + w * self.values[k + 1]
        return float(np.interp(x, self.grid.x, layer))

    def value_at_zero(self, t: float | None = None) -> float:
        return self.value(self.times[-1] if t is None else t, 0.0)

    def to_csv(self, max_rows: int = 201) -> tuple[str, dict]:
        """Matrix export (rows = time layers, columns = grid nodes).

        Layers are strided down to at most ``max_rows`` rows, always keeping
        the first and last. Returns the CSV text and a JSON-ready header with
        the grid metadata and diagnostics.
        """
        n = self.values.shape[0]
        stride = max(1, int(math.ceil((n - 1) / max(max_rows - 1, 1)))) if n > 1 else 1
        rows = list(range(0, n, stride))
        if rows[-1] != n - 1:
            rows.append(n - 1)
        lines = ["t," + ",".join(repr(float(x)) for x in self.grid.x)]
        for k in rows:
            lines.append(repr(float(self.times[k])) + "," + ",".join(repr(float(v)) for v in self.values[k]))
        header = {
            "x_min": self.grid.x_min,
            "x_max": self.grid.x_max,
            "nx": self.grid.nx,
            "dt": self.grid.dt,
            "rows": len(rows),
            "stride": stride,
            **self.diagnostics,
        }
        return "\n".join(lines) + "\n", header


def _eval_nodes(phi: Callable, nodes: np.ndarray, what: str, where: str) -> np.ndarray:
    """phi on every node: one vectorized call, else one call per node."""
    with np.errstate(all="ignore"):  # non-finite values are refused below, not warned about
        try:
            vals = np.asarray(phi(nodes), dtype=float)
        except (TypeError, ValueError):
            vals = None
        if vals is None or vals.shape != nodes.shape:
            vals = np.array([float(phi(v)) for v in nodes.tolist()])
    if not np.all(np.isfinite(vals)):
        raise EvaluationError(f"{what} evaluated to non-finite values on the {where}")
    return vals


def solve_ipde(phi: Callable, uset: UncertaintySet, grid: Grid1D, horizon: float | None = None) -> GridSolution:
    """Solve the worst-case integro-PDE up to the horizon and keep all layers.

    phi is the initial data evaluated on the grid (vectorized or scalar
    callable). The diagnostics carry the step-bound number, the monotonicity
    flag, the argmax histogram over triples, the boundary-contamination bound
    and the composite ``scheme_error_estimate``.
    """
    T = grid.horizon if horizon is None else float(horizon)
    if T <= 0.0:
        raise InvalidInputError("horizon must be positive")
    stepper = _Stepper(uset, grid)
    u0 = _eval_nodes(phi, grid.x, "initial data", "grid")
    argmax_counts = np.zeros(len(uset), dtype=np.int64)
    u, layers, info = stepper.evolve(u0, T, record=True, argmax_counts=argmax_counts)
    n_steps, dt = info["n_steps"], info["dt"]
    times = np.linspace(0.0, T, n_steps + 1)

    win = stepper.interior
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
    contamination = stepper.boundary_contamination(T)
    osc = float(u0.max() - u0.min())
    err = (
        0.5 * T * second_diff_rate
        + contamination * max(osc, 1.0)
        + T * dx**2 * (stepper.mass_max * d2 / 8.0 + stepper.p_max * d3 / 6.0)
    )
    diagnostics = {
        "cfl_number": info["cfl_number"],
        "dt": dt,
        "n_steps": n_steps,
        "monotone": stepper.monotone,
        "argmax_histogram": argmax_counts.tolist(),
        "boundary_contamination": contamination,
        "scheme_error_estimate": float(err),
    }
    return GridSolution(grid=grid, times=times, values=layers, diagnostics=diagnostics)


def apply_g(
    f: Callable,
    uset: UncertaintySet,
    *,
    grad: Callable | None = None,
    hess: Callable | None = None,
    step: float = 1e-4,
) -> float:
    """Evaluate the generator sup over triples at a test function with f(0) = 0.

    Derivatives at the origin come from the supplied callables when given,
    otherwise from central differences with the given step. Works in any
    dimension of the uncertainty set.
    """
    if len(uset) == 0:
        raise InvalidInputError("uncertainty set is empty")
    d = uset.dim

    def fv(z: np.ndarray) -> float:
        val = float(f(float(z[0]) if d == 1 else z))
        if not math.isfinite(val):
            raise EvaluationError("test function returned a non-finite value")
        return val

    zero = np.zeros(d)
    if fv(zero) != 0.0:
        raise InvalidInputError("test function must vanish at the origin")

    if grad is not None:
        g0 = np.atleast_1d(np.asarray(grad(zero if d > 1 else 0.0), dtype=float))
    else:
        g0 = np.empty(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = step
            g0[i] = (fv(e) - fv(-e)) / (2.0 * step)
    if hess is not None:
        h0 = np.atleast_2d(np.asarray(hess(zero if d > 1 else 0.0), dtype=float))
    else:
        h0 = np.empty((d, d))
        for i in range(d):
            e = np.zeros(d)
            e[i] = step
            h0[i, i] = (fv(e) - 0.0 + fv(-e)) / step**2
        for i in range(d):
            for j in range(i + 1, d):
                ei = np.zeros(d)
                ej = np.zeros(d)
                ei[i] = step
                ej[j] = step
                h0[i, j] = h0[j, i] = (fv(ei + ej) - fv(ei - ej) - fv(-ei + ej) + fv(-ei - ej)) / (
                    4.0 * step**2
                )

    best = -math.inf
    for t in uset:
        val = t.measure.integrate(f)
        val += float(t.drift @ g0)
        val += 0.5 * float(np.trace(h0 @ (t.cov_root @ t.cov_root.T)))
        best = max(best, val)
    return best


# ---------------------------------------------------------------------------
# iterated and conditional expectations
# ---------------------------------------------------------------------------


def _stage_tensors(
    phi: Callable,
    times: Sequence[float],
    uset: UncertaintySet,
    grid: Grid1D,
) -> list[np.ndarray]:
    """Backward recursion tensors; stages[j] depends on the first n-j increments."""
    ts = [float(t) for t in times]
    n = len(ts)
    if n == 0:
        raise InvalidInputError("need at least one evaluation time")
    if n > 3:
        raise UnsupportedError("iterated expectations support at most three increments")
    if any(t <= 0 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise InvalidInputError("times must be strictly increasing and positive")
    if grid.nx**n > _MAX_TENSOR_CELLS:
        raise InvalidInputError(
            f"tensor of {grid.nx}^{n} cells exceeds the desk-scale memory bound"
        )

    x = grid.x
    mesh = np.meshgrid(*([x] * n), indexing="ij")
    vals = np.asarray(phi(*mesh), dtype=float)
    if vals.shape != mesh[0].shape:
        raise InvalidInputError("phi must broadcast over increment grids")
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("phi evaluated to non-finite values on the grid")

    stepper = _Stepper(uset, grid)
    durations = [ts[0]] + [b - a for a, b in zip(ts, ts[1:])]
    stages = [vals]
    u = vals
    for stage in range(n, 0, -1):
        dur = durations[stage - 1]
        evolved, _, _ = stepper.evolve(u, dur)
        # integrate out the last increment: evaluate at x = 0 along the last axis
        i0 = int(np.clip(np.searchsorted(x, 0.0) - 1, 0, grid.nx - 2))
        w0 = np.clip((0.0 - x[i0]) / grid.dx, 0.0, 1.0)
        u = evolved[..., i0] * (1.0 - w0) + evolved[..., i0 + 1] * w0
        stages.append(np.asarray(u, dtype=float))
    return stages


def iterated_expectation(phi: Callable, times: Sequence[float], uset: UncertaintySet, grid: Grid1D) -> float:
    """Worst-case expectation of phi(X_{t1}, X_{t2}-X_{t1}, ...), n <= 3.

    phi takes the increments as separate broadcastable arguments. The
    recursion integrates out the last increment over its own interval at each
    stage, freezing the earlier increments on the spatial grid. Each step
    stacks one candidate tensor per triple, so working memory grows with the
    number of triples: 160 MB per triple at the 2e7-cell cap.
    """
    stages = _stage_tensors(phi, times, uset, grid)
    return float(np.asarray(stages[-1]).reshape(()))


def conditional_expectation(
    phi: Callable,
    times: Sequence[float],
    uset: UncertaintySet,
    grid: Grid1D,
    i: int,
    realized: Sequence[float],
) -> float:
    """Conditional worst-case expectation given the first i realized increments.

    Evaluates the stage function of the backward recursion at the realized
    increments by multilinear interpolation; i = 0 returns the unconditional
    value and i = n evaluates phi itself at the realized history.
    """
    n = len(times)
    realized = [float(r) for r in realized]
    if not (0 <= i <= n):
        raise InvalidInputError("conditioning index must lie in [0, n]")
    if len(realized) != i:
        raise InvalidInputError("need exactly one realized increment per conditioned time")
    if i == n:
        val = float(np.asarray(phi(*realized), dtype=float))
        if not math.isfinite(val):
            raise EvaluationError("phi returned a non-finite value at the realized history")
        return val
    stages = _stage_tensors(phi, times, uset, grid)
    stage = stages[n - i]
    if i == 0:
        return float(np.asarray(stage).reshape(()))
    x = grid.x
    lo, hi = x[0], x[-1]
    if any(not (lo <= r <= hi) for r in realized):
        raise InvalidInputError("realized increments fall outside the spatial grid")
    interp = RegularGridInterpolator((x,) * i, stage, method="linear")
    return float(interp(np.array(realized).reshape(1, -1))[0])


# ---------------------------------------------------------------------------
# worst-case Poisson distribution
# ---------------------------------------------------------------------------


def g_poisson_distribution(
    lambda_min: float,
    lambda_max: float,
    t: float,
    phi: Callable,
    *,
    n_steps: int | None = None,
    tail: float = 1e-8,
) -> float:
    """Worst-case expectation of phi(N_t), intensity known within an interval.

    Integrates u'(s, k) = sup over lambda in [lambda_min, lambda_max] of
    lambda (u(s, k+1) - u(s, k)) on the lattice {0, ..., N_max}, the
    truncation level chosen so the Poisson(lambda_max t) tail is below
    ``tail``. The lattice ODE is the PIDE on the unit grid over the lattice
    with the two-triple set (lambda_min delta_1, lambda_max delta_1), run by
    the shared explicit stepper; phi is evaluated on the integers. When no
    step count is given the count is chosen by step doubling: the scheme runs
    at n and 2n steps and the pair is combined by Richardson extrapolation
    (2 u_{2n} - u_n, cancelling the first-order term), doubling until
    successive combined values agree to 2.5e-7; every run stays below the
    stability ceiling dt lambda_max <= 1/2. Passing an explicit ``n_steps``
    returns the raw Euler iterate at that count. For an intensity interval
    collapsed to a point the result matches the truncated Poisson series to
    1e-6.
    """
    if not (0.0 <= lambda_min <= lambda_max) or lambda_max <= 0.0:
        raise InvalidInputError("need 0 <= lambda_min <= lambda_max with lambda_max > 0")
    if t <= 0.0:
        raise InvalidInputError("time must be positive")

    mu = lambda_max * t
    n_max = int(stats.poisson.ppf(1.0 - min(tail, 1e-8) * 0.1, mu)) + 3
    u0 = _eval_nodes(phi, np.arange(n_max + 1), "phi", "lattice")
    lattice = UncertaintySet.from_measures(
        [
            DiscreteLevyMeasure.delta(1.0, lambda_min) if lambda_min > 0.0 else DiscreteLevyMeasure.empty(),
            DiscreteLevyMeasure.delta(1.0, lambda_max),
        ]
    )

    def euler(n: int) -> float:
        h = t / n
        if h * lambda_max > 0.5 + 1e-12:
            raise NumericalAbortError(
                f"lattice step bound violated: dt*lambda_max = {h * lambda_max:.3g} > 1/2",
                {"n_steps": n, "h": h},
            )
        return float(_Stepper(lattice, Grid1D(0, n_max, n_max + 1, h, t)).evolve(u0, t)[0][0])

    if n_steps is not None:
        return euler(int(n_steps))

    n = max(int(math.ceil(2.0 * lambda_max * t)), 1000)
    coarse, fine = euler(n), euler(2 * n)
    combined = 2.0 * fine - coarse
    while n < 2_000_000:
        n *= 2
        coarse, fine = fine, euler(2 * n)
        refined = 2.0 * fine - coarse
        if abs(refined - combined) <= 2.5e-7:
            return refined
        combined = refined
    return combined
