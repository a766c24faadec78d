"""Worst-case expectations through a nonlinear integro-PDE, d = 1.

The value function u(t, x) of a worst-case expectation with initial data phi
solves

    du/dt = sup over triples (v, p, Q) of
            [ sum_k w_k (u(t, x + z_k) - u(t, x)) + p du/dx + (Q^2/2) d2u/dx2 ],
    u(0, x) = phi(x),

and the quantity of interest is u(t, 0). The solver discretizes with an
explicit Euler step in time, central differences in space, linear
interpolation for the shifted values u(x + z) and constant extrapolation
outside the grid. Each candidate is linear in the triple's parameter vector
(jump weights over the distinct atoms, drift, Q^2), so only triples whose
vector is a vertex of the hull of all of them can attain the supremum; the
stepper keeps those (the lowest index among identical triples) and reports the
others as ``pruned_triples``. The jump terms of the kept triples are rows of
the family's (triples x distinct atoms) weight matrix, the one table every
worst-case functional reads (:mod:`glevy.uncertainty`), applied to the layer
interpolated once per distinct atom; with drift and diffusion each triple
contributes an affine expression in the current layer, and the scheme takes
their pointwise maximum (first index wins ties). Under the step bound

    dt * ( sup_v v(R_0) + sup Q^2/dx^2 + sup |p|/dx ) <= 1

the diagonal coefficient of every candidate stays nonnegative; when in
addition Q^2 >= dx |p| for every triple all coefficients are nonnegative and
the discrete operator is monotone (reported in the diagnostics). Violating
the step bound refuses to run rather than producing garbage, and any NaN in a
layer aborts with diagnostics. The solution keeps a strided subset of the
layers, the ones its matrix export reads, so its memory does not grow with the
step count.

The reported ``scheme_error_estimate`` is an engineering error model, not a
proven bound: an Euler term from the largest discrete second time difference
(taken while stepping, over the last three layers), spatial terms from
discrete derivatives of the final layer, and a boundary-contamination term
bounding the influence of the constant extrapolation by a Poisson tail (jumps
need margin/|z|_max arrivals to carry boundary error to the evaluation
point) times the oscillation of the initial data on the grid. Every term is
linear in the data, so the estimate scales with phi and ignores a constant
added to it.

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

import io
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, TextIO

import numpy as np
from scipy import special

from .errors import (
    InvalidInputError,
    NumericalAbortError,
    UnsupportedError,
    _eval_nodes,
    _evaluate,
    _is_integer,
)
from .uncertainty import DiscreteLevyMeasure, UncertaintySet, _atom_table, _row_dots

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
_BLOCK_BYTES = 1 << 20  # temporaries of one row block of a batched step
_POISSON_TAIL = 1e-8  # g_poisson_distribution's lattice leaves a Poisson tail below a tenth of this


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
        if not (-math.inf < self.x_min < self.x_max < math.inf):
            raise InvalidInputError("need finite x_min < x_max")
        if not _is_integer(self.nx) or self.nx < 3:
            raise InvalidInputError(f"need an integer of at least 3 spatial nodes, got nx = {self.nx!r}")
        if not (0.0 < self.dt < math.inf and 0.0 < self.horizon < math.inf):
            raise InvalidInputError("dt and horizon must be positive and finite")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def steps_for(self, duration: float) -> tuple[int, float]:
        """Number of Euler steps covering the duration with step <= dt (see :func:`_step_count`)."""
        n = _step_count(duration, self.dt)
        return n, duration / n


def _poisson_tail(k: int, mu: float) -> float:
    """P(N > k) for N ~ Poisson(mu), k >= 0: ``scipy.stats.poisson.sf(k, mu)``."""
    return float(special.pdtrc(k, mu))


def _poisson_quantile(q: float, mu: float) -> int:
    """The least n with P(N <= n) >= q for N ~ Poisson(mu), 0 < q < 1: ``scipy.stats.poisson.ppf(q, mu)``.

    The ceiling of the inverse of the cdf, one lower when the cdf already
    reaches q there, as scipy.stats computes it.
    """
    ceiling = math.ceil(special.pdtrik(q, mu))
    below = max(ceiling - 1, 0)
    return below if special.pdtr(below, mu) >= q else ceiling


def _step_count(duration: float, dt: float) -> int:
    """Number of steps of length at most dt that cover the duration.

    A ratio duration/dt within a relative 1e-13 above an integer counts as
    that integer, so dt = duration/n gives n steps for any n.
    """
    if not (duration > 0.0 and 0.0 < dt < math.inf and math.isfinite(duration / dt)):
        raise InvalidInputError(f"cannot step over a duration of {duration!r} with dt = {dt!r}")
    return max(1, int(math.ceil(duration / dt * (1.0 - 1e-13))))


def _hull_vertices(theta: np.ndarray) -> np.ndarray:
    """Indices of the rows of theta that are vertices of their convex hull.

    Among identical rows the lowest index is kept. Of at most two distinct
    rows every one is a vertex. A distinct row that alone is nonzero in some
    column is a vertex too, and it cannot enter a combination of other rows;
    such rows are kept untested. Any other row is dropped only under a
    certificate: a nonnegative combination of the other remaining untested
    rows, summing to 1, reproduces it to 1e-12 in every column scaled to its
    largest magnitude (``scipy.optimize.nnls`` on the system augmented by the
    sum row). Rows are tested from the highest index down, so of two rows
    closer than the tolerance the lower index stays; a row with no other
    remaining row to combine is kept.

    Where at most one scaled column varies across the distinct rows (a
    one-parameter family, such as an intensity interval), the combination
    is found in closed form by :func:`_line_coef` instead of by ``nnls``.
    """
    _, first = np.unique(theta, axis=0, return_index=True)
    rows = np.sort(first)
    if rows.shape[0] <= 2:
        return rows
    scale = np.abs(theta[rows]).max(axis=0)
    pts = theta[rows][:, scale > 0.0] / scale[scale > 0.0]
    varying = (pts != pts[0]).any(axis=0)
    line = pts[:, varying.argmax()] if np.count_nonzero(varying) == 1 else None
    nonzero = pts != 0.0
    keep = np.ones(rows.shape[0], dtype=bool)
    tested = ~(nonzero & (nonzero.sum(axis=0) == 1)).any(axis=1)
    for i in np.flatnonzero(tested)[::-1]:
        keep[i] = False
        others = keep & tested
        system = np.vstack([pts[others].T, np.ones(int(others.sum()))])
        target = np.append(pts[i], 1.0)
        if not others.any():  # scipy's nnls aborts the process on a system without columns
            coef = np.zeros(0)
        elif line is not None:
            coef = _line_coef(line[others], line[i], system, target)
        else:
            from scipy import optimize

            coef = optimize.nnls(system, target)[0]
        keep[i] = np.abs(system @ coef - target).max() > 1e-12
    return rows[keep]


def _line_coef(q: np.ndarray, qi: float, system: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``scipy.optimize.nnls(system, target)[0]`` for columns that differ in one coordinate only.

    Column j of the system is (q[j] in the varying coordinate, the same
    constants elsewhere, 1) and the target is (qi, the constants, 1). All of
    them lie in one plane, where the cone of the columns is spanned by the
    two extreme ones, so the least-squares point of the cone is the convex
    combination of the extremes when qi lies between them, and otherwise
    the projection onto the column of the nearer extreme, clipped at 0.
    """
    lo, hi = int(q.argmin()), int(q.argmax())
    coef = np.zeros(q.shape[0])
    if q[lo] <= qi <= q[hi]:
        # distinct rows may scale to equal values, so qi may equal both extremes
        t = (qi - q[lo]) / (q[hi] - q[lo]) if q[hi] > q[lo] else 0.0
        coef[hi] += t
        coef[lo] += 1.0 - t
    else:
        k = hi if qi > q[hi] else lo
        column = system[:, k]
        coef[k] = max(float(column @ target) / float(column @ column), 0.0)
    return coef


class _Stepper:
    """Precompiled explicit step u -> u + dt * max over triples (A_j u).

    Every triple's jump term is one row of the family's (triples x distinct
    atoms) weight matrix (:func:`~glevy.uncertainty._atom_table`), applied to
    the values interpolated once per distinct atom.
    A candidate is linear in the triple's parameter vector (jump weights over
    the distinct atoms, drift, Q^2), so only vertices of the hull of those
    vectors can attain the maximum: the stepper keeps those triples, listed
    in ``rows``. The step bound and the monotone flag are taken over all
    triples.
    """

    def __init__(self, uset: UncertaintySet, grid: Grid1D):
        if len(uset) == 0:
            raise InvalidInputError("uncertainty set is empty")
        if uset.dim != 1:
            raise UnsupportedError("the PIDE solver is one-dimensional")
        self.grid = grid
        x, dx = grid.x, grid.dx
        table = _atom_table(uset)
        zs = table.atoms[:, 0]
        weights = np.zeros((len(uset), zs.shape[0]))
        weights[table.row, table.column] = table.weight
        mass = table.row_sums(np.ones(zs.shape[0]))
        drift = uset.drifts[:, 0]
        q2 = uset.cov_roots[:, 0, 0] ** 2
        self.mass_max = float(mass.max())
        self.q2_max = float(q2.max())
        self.p_max = float(np.abs(drift).max())
        self.jump_max = float(np.abs(zs).max(initial=0.0))
        self.monotone = bool(np.all((q2 >= dx * np.abs(drift)) | (drift == 0.0)))
        self.rows = _hull_vertices(np.column_stack([weights, drift, q2]))
        self.weights, self.mass = weights[self.rows], mass[self.rows]
        self.drift, self.q2 = drift[self.rows], q2[self.rows]
        pos = x[None, :] + zs[:, None]  # (n_atoms, nx)
        idx = np.clip(np.searchsorted(x, pos) - 1, 0, grid.nx - 2)
        frac = np.clip((pos - x[idx]) / dx, 0.0, 1.0)
        # both interpolation neighbours of every (atom, node) and their weights
        self.neighbours = np.stack((idx, idx + 1))  # (2, n_atoms, nx)
        self.shares = np.stack((1.0 - frac, frac))
        # a row's temporaries: two neighbour values and one shifted value per
        # atom, and two candidate values per kept triple, at every node
        row_bytes = (3 * zs.shape[0] + 2 * self.rows.shape[0]) * grid.nx * 8
        self.block_rows = max(1, _BLOCK_BYTES // row_bytes)

    def cfl_number(self, dt: float) -> float:
        dx = self.grid.dx
        return dt * (self.mass_max + self.q2_max / dx**2 + self.p_max / dx)

    @property
    def interior(self) -> slice:
        """Nodes used for error-model curvature measurements.

        The error estimate targets the value reported at x = 0, so curvature
        is measured away from the clamped boundaries (whose influence on the
        origin is bounded separately by the contamination term); the window
        keeps half the margin on each side, or the central half of the domain
        when the origin is not interior. The window is a contiguous run of
        nodes, returned as a slice.
        """
        x = self.grid.x
        if self.grid.x_min < 0.0 < self.grid.x_max:
            mask = (x >= 0.5 * self.grid.x_min) & (x <= 0.5 * self.grid.x_max)
        else:
            length = self.grid.x_max - self.grid.x_min
            mask = (x >= self.grid.x_min + 0.25 * length) & (x <= self.grid.x_max - 0.25 * length)
        nodes = np.flatnonzero(mask)
        return slice(None) if nodes.shape[0] < 4 else slice(int(nodes[0]), int(nodes[-1]) + 1)

    def rate(self, u: np.ndarray, argmax_counts: np.ndarray | None = None) -> np.ndarray:
        """max over triples of A_j u, applied along the last axis of u.

        With ``argmax_counts`` (one entry per triple of the set) the maximum
        is one strict-``>`` chain over the kept triples, so the first index
        wins ties, and the counts gain the number of nodes each kept triple
        wins. A batched u (the iterated recursion's (nx, nx) and (nx, nx, nx)
        tensors) is stepped in blocks of ``block_rows`` rows of nx nodes, so
        the temporaries of one block stay in cache; each row gets the same
        operations as a single layer.
        """
        if u.ndim == 1:
            return self._rate_rows(u, argmax_counts, np.empty_like(u))
        rows = u.reshape(-1, u.shape[-1])
        out = np.empty_like(rows)
        for start in range(0, rows.shape[0], self.block_rows):
            block = slice(start, start + self.block_rows)
            self._rate_rows(rows[block], argmax_counts, out[block])
        return out.reshape(u.shape)

    def _rate_rows(self, u: np.ndarray, argmax_counts: np.ndarray | None, out: np.ndarray) -> np.ndarray:
        """:meth:`rate` of one layer (nx,) or one block of rows (rows, nx), written into out."""
        pair = u.take(self.neighbours, axis=-1)  # (..., 2, n_atoms, nx)
        pair *= self.shares
        shifted = pair[..., 0, :, :] + pair[..., 1, :, :]
        del pair  # kept alive, it doubled the time of a batched step (the iterated recursion)
        # (..., kept triples, nx); np.dot is the cheaper call on a single layer
        cand = np.dot(self.weights, shifted) if u.ndim == 1 else np.matmul(self.weights, shifted)
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
        if argmax_counts is None:
            return cand.max(axis=-2, out=out)
        k = cand.shape[-2]
        np.copyto(out, cand[..., 0, :])
        beats = []
        for j in range(1, k):
            beats.append(cand[..., j, :] > out)  # strict: a tie keeps the earlier triple
            np.maximum(out, cand[..., j, :], out=out)
        # a node goes to the last triple that beat the running maximum there;
        # counting from the last triple down, each takes the nodes not yet taken
        wins = [0] * k
        taken = np.zeros(out.shape, dtype=bool)
        for j in range(k - 1, 0, -1):
            won = beats[j - 1] > taken  # booleans: beat here, and no later triple did
            wins[j] = np.count_nonzero(won)
            taken |= won
        wins[0] = out.size - sum(wins)
        argmax_counts[self.rows] += wins
        return out

    def evolve(
        self,
        u0: np.ndarray,
        duration: float,
        rows: int | None = None,
        argmax_counts: np.ndarray | None = None,
    ):
        """Run Euler steps over the duration; optionally keep strided layers.

        Returns (final_layer, kept_or_None, info). Each step is computed in
        the array :meth:`rate` returns (times dt, plus the layer); the rate of
        a batched layer is taken in row blocks. With ``rows`` (at
        least 2) the layers at steps 0, s, 2s, ... and the last, s =
        ceil(n_steps / (rows - 1)), are kept in one array, and info adds the
        kept ``steps``, the ``stride`` s and ``second_diff_rate``: the largest
        |(u_{k+1} - 2 u_k) + u_{k-1}| over the interior nodes, taken while
        stepping over the last three layers, divided by dt once at the end
        (exact, since dividing by dt > 0 keeps the order). Refuses when the
        step bound fails; aborts on NaN contamination.
        """
        n_steps, dt = self.grid.steps_for(duration)
        cfl = self.cfl_number(dt)
        if cfl > 1.0 + 1e-12:
            raise NumericalAbortError(
                f"step bound violated: dt*(mass + Q^2/dx^2 + |p|/dx) = {cfl:.3g} > 1; refusing to run",
                {"cfl_number": cfl, "dt": dt, "dx": self.grid.dx},
            )
        info = {"n_steps": n_steps, "dt": dt, "cfl_number": cfl}
        u = np.array(u0, dtype=float)
        kept = older = None
        if rows is not None:
            stride = int(math.ceil(n_steps / (rows - 1)))
            steps = list(range(0, n_steps + 1, stride))
            if steps[-1] != n_steps:
                steps.append(n_steps)
            kept = np.empty((len(steps),) + u.shape)
            kept[0] = u
            i_kept = 1
            win = self.interior
            d2 = np.empty_like(u[win])
            second_diff = 0.0
            info.update(steps=steps, stride=stride)
        for step in range(n_steps):
            new = self.rate(u, argmax_counts)
            new *= dt
            new += u
            if np.isnan(new.max()):  # max propagates NaN, without a mask of the layer
                raise NumericalAbortError(
                    f"NaN contamination at step {step + 1}/{n_steps}",
                    {"step": step + 1, "n_steps": n_steps, "cfl_number": cfl},
                )
            if kept is not None:
                if older is not None:
                    np.multiply(u[win], 2.0, out=d2)
                    np.subtract(new[win], d2, out=d2)
                    d2 += older[win]
                    second_diff = max(second_diff, float(np.abs(d2, out=d2).max()))
                older = u
                if step + 1 == steps[i_kept]:
                    kept[i_kept] = new
                    i_kept += 1
            u = new
        if kept is not None:
            info["second_diff_rate"] = second_diff / dt
        return u, kept, info

    def boundary_contamination(self, duration: float) -> float:
        """Poisson tail bound on boundary influence at the evaluation point 0."""
        if self.jump_max == 0.0:
            return 0.0
        margin = min(-self.grid.x_min, self.grid.x_max)
        if margin <= 0.0:
            return 1.0
        hops = int(math.floor(margin / self.jump_max))
        return _poisson_tail(hops - 1, self.mass_max * duration) if hops >= 1 else 1.0


@dataclass(frozen=True)
class GridSolution:
    """Kept solution layers with diagnostics and bilinear evaluation.

    ``values`` holds the layers at ``times``: every ``stride``-th Euler step
    and the last one, at least 2 and at most the solve's ``max_rows`` layers,
    all of which ``to_csv`` exports. ``value(t, x)`` interpolates linearly
    between kept layers, so between them it is coarser than the scheme
    itself; the final layer is the scheme's own.
    """

    grid: Grid1D
    times: np.ndarray
    values: np.ndarray  # (n_kept, nx)
    diagnostics: dict = field(default_factory=dict)
    stride: int = 1  # Euler steps between consecutive kept layers

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]

    def value(self, t: float, x: float) -> float:
        """Linear interpolation in time between kept layers and in space; constant beyond the x range."""
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

    def csv_header(self) -> dict:
        """JSON-ready header of the export: grid metadata, kept ``rows``, ``stride`` in Euler steps, diagnostics."""
        return {
            "x_min": self.grid.x_min,
            "x_max": self.grid.x_max,
            "nx": self.grid.nx,
            "dt": self.grid.dt,
            "rows": self.values.shape[0],
            "stride": self.stride,
            **self.diagnostics,
        }

    def to_csv(self, out: TextIO | None = None) -> tuple[str, dict]:
        """Matrix export of every kept layer (rows = time layers, columns = grid nodes).

        Which layers a solution keeps is decided once, by ``solve_ipde``'s
        ``max_rows``; the export writes all of them, one line at a time, to
        ``out`` when given (an open text file) and to a string otherwise.
        Returns the CSV text (empty when written to ``out``) and
        :meth:`csv_header`.
        """
        sink = io.StringIO() if out is None else out
        sink.write("t," + ",".join(map(repr, self.grid.x.tolist())) + "\n")
        for t, layer in zip(self.times.tolist(), self.values):
            sink.write(repr(t) + "," + ",".join(map(repr, layer.tolist())) + "\n")
        return sink.getvalue() if out is None else "", self.csv_header()


def solve_ipde(
    phi: Callable,
    uset: UncertaintySet,
    grid: Grid1D,
    horizon: float | None = None,
    max_rows: int = 201,
) -> GridSolution:
    """Solve the worst-case integro-PDE up to the horizon.

    phi is the initial data evaluated on the grid (vectorized or scalar
    callable). The solution keeps at least 2 and at most ``max_rows``
    layers: steps 0, s, 2s, ... and the last, s = ceil(n_steps / (max_rows -
    1)), so memory grows with ``max_rows`` and not with the step count, and
    ``GridSolution.to_csv`` exports all of them. A ``max_rows`` that is not
    an integer of at least 2 raises :class:`InvalidInputError`, since the
    first and last layers are always kept. The diagnostics carry the
    step-bound number, the monotonicity flag, the argmax histogram over the
    triples of the set (0 for a triple the stepper pruned), the
    ``pruned_triples`` (indices of triples that are not vertices of the hull
    of parameter vectors, or repeat an earlier triple), the
    boundary-contamination bound and the composite
    ``scheme_error_estimate`` (the module docstring's error model; it scales
    with phi and does not move when a constant is added to phi).
    A non-finite value of phi on the grid raises :class:`EvaluationError`.
    """
    T = grid.horizon if horizon is None else float(horizon)
    if not (0.0 < T < math.inf):
        raise InvalidInputError("horizon must be positive and finite")
    if not _is_integer(max_rows) or max_rows < 2:
        raise InvalidInputError(f"max_rows must be an integer of at least 2 (the first and last layers), got {max_rows!r}")
    stepper = _Stepper(uset, grid)
    u0 = _eval_nodes(phi, grid.x, "initial data")
    argmax_counts = np.zeros(len(uset), dtype=np.int64)
    u, layers, info = stepper.evolve(u0, T, rows=max_rows, argmax_counts=argmax_counts)
    n_steps, dt = info["n_steps"], info["dt"]
    times = np.linspace(0.0, T, n_steps + 1)[info["steps"]]

    dx = grid.dx
    final = u[stepper.interior]
    d2 = np.abs(np.diff(final, 2)).max(initial=0.0) / dx**2
    d3 = np.abs(np.diff(final, 3)).max(initial=0.0) / dx**3
    contamination = stepper.boundary_contamination(T)
    osc = float(u0.max() - u0.min())
    err = (
        0.5 * T * info["second_diff_rate"]
        + contamination * osc
        + T * dx**2 * (stepper.mass_max * d2 / 8.0 + stepper.p_max * d3 / 6.0)
    )
    diagnostics = {
        "cfl_number": info["cfl_number"],
        "dt": dt,
        "n_steps": n_steps,
        "monotone": stepper.monotone,
        "argmax_histogram": argmax_counts.tolist(),
        "pruned_triples": np.setdiff1d(np.arange(len(uset)), stepper.rows).tolist(),
        "boundary_contamination": contamination,
        "scheme_error_estimate": float(err),
    }
    return GridSolution(grid=grid, times=times, values=layers, diagnostics=diagnostics, stride=info["stride"])


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
    dimension of the uncertainty set. A non-finite value of f, ``grad`` or
    ``hess`` raises :class:`EvaluationError`.
    """
    if len(uset) == 0:
        raise InvalidInputError("uncertainty set is empty")
    d = uset.dim

    def fv(points: np.ndarray) -> np.ndarray:
        return _evaluate(f, points, "test function")

    zero = np.zeros((1, d))
    if fv(zero)[0] != 0.0:
        raise InvalidInputError("test function must vanish at the origin")

    e = np.diag(np.full(d, step))  # row i is step times the i-th unit vector
    if grad is None or hess is None:
        f_plus, f_minus = fv(e), fv(-e)
    if grad is not None:
        g0 = np.atleast_1d(_evaluate(grad, zero, "grad")[0])
    else:
        g0 = (f_plus - f_minus) / (2.0 * step)
    if hess is not None:
        h0 = np.atleast_2d(_evaluate(hess, zero, "hess")[0])
    else:
        h0 = np.diag((f_plus - 0.0 + f_minus) / step**2)
        i, j = np.triu_indices(d, 1)
        ei, ej = e[i], e[j]
        h0[i, j] = h0[j, i] = (fv(ei + ej) - fv(ei - ej) - fv(-ei + ej) + fv(-ei - ej)) / (4.0 * step**2)

    table = _atom_table(uset)
    roots = uset.cov_roots
    vals = table.row_sums(fv(table.atoms)) + _row_dots(uset.drifts, g0)
    vals += 0.5 * np.trace(h0 @ (roots @ roots.transpose(0, 2, 1)), axis1=1, axis2=2)
    return float(vals.max())


# ---------------------------------------------------------------------------
# iterated and conditional expectations
# ---------------------------------------------------------------------------


def _check_times(times: Sequence[float]) -> list[float]:
    """The evaluation times as floats, refused unless one to three, positive and strictly increasing."""
    ts = [float(t) for t in times]
    if not ts:
        raise InvalidInputError("need at least one evaluation time")
    if len(ts) > 3:
        raise UnsupportedError("iterated expectations support at most three increments")
    if any(t <= 0 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise InvalidInputError("times must be strictly increasing and positive")
    return ts


def _stage_tensors(
    phi: Callable,
    times: Sequence[float],
    uset: UncertaintySet,
    grid: Grid1D,
) -> list[np.ndarray]:
    """Backward recursion tensors; stages[j] depends on the first n-j increments."""
    ts = _check_times(times)
    n = len(ts)
    if grid.nx**n > _MAX_TENSOR_CELLS:
        raise InvalidInputError(
            f"tensor of {grid.nx}^{n} cells exceeds the desk-scale memory bound"
        )

    x = grid.x
    mesh = np.meshgrid(*([x] * n), indexing="ij")
    vals = _evaluate(phi, mesh, "phi", each=False)
    if vals.shape != mesh[0].shape:
        raise InvalidInputError("phi must broadcast over increment grids")
    del mesh  # n more tensors of the grid's size, which the recursion does not read

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
    stage, freezing the earlier increments on the spatial grid. A step holds
    the layer, the next layer and the temporaries of one row block, about
    1 MiB whatever the number of vertex triples: at nx = 201 with three
    increments and three vertex triples (65 MB per tensor) one ``evolve``
    peaked at 138 MB (tracemalloc), 8 MB above its two layers. Besides, the
    recursion keeps phi's values, and evaluating phi takes the n grid
    tensors (160 MB each at the 2e7-cell cap) and what phi allocates. A
    non-finite value of phi on the increment grids raises
    :class:`EvaluationError`.
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
    value and i = n evaluates phi itself at the realized history. A
    non-finite value of phi raises :class:`EvaluationError`.
    """
    n = len(_check_times(times))
    realized = [float(r) for r in realized]
    if not (0 <= i <= n):
        raise InvalidInputError("conditioning index must lie in [0, n]")
    if len(realized) != i:
        raise InvalidInputError("need exactly one realized increment per conditioned time")
    if i == n:
        return float(_evaluate(phi, realized, "phi", each=False))
    stages = _stage_tensors(phi, times, uset, grid)
    stage = stages[n - i]
    if i == 0:
        return float(np.asarray(stage).reshape(()))
    x = grid.x
    lo, hi = x[0], x[-1]
    if any(not (lo <= r <= hi) for r in realized):
        raise InvalidInputError("realized increments fall outside the spatial grid")
    from scipy.interpolate import RegularGridInterpolator

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
) -> float:
    """Worst-case expectation of phi(N_t), intensity known within an interval.

    Integrates u'(s, k) = sup over lambda in [lambda_min, lambda_max] of
    lambda (u(s, k+1) - u(s, k)) on the lattice {0, ..., N_max}, the
    truncation level chosen so the Poisson(lambda_max t) tail is below
    1e-9. The lattice ODE is the PIDE on the unit grid over the lattice
    with the two-triple set (lambda_min delta_1, lambda_max delta_1), run by
    the shared explicit stepper; phi is evaluated on the integers. When no
    step count is given the count is chosen by step doubling: the scheme runs
    at n and 2n steps and the pair is combined by Richardson extrapolation
    (2 u_{2n} - u_n, cancelling the first-order term), doubling until
    successive combined values agree to 2.5e-7 * max(1, max |phi| on the
    lattice), so the rule scales with phi; every run stays below the
    stability ceiling dt lambda_max <= 1/2. Doubling stops once the coarser
    run of a pair has at least 2,000,000 steps: that pair's combined value
    is then returned although it did not meet the rule. Passing an explicit
    ``n_steps``, an integer of at least 1, returns the raw Euler iterate at
    that count. For an intensity interval collapsed to a point the result
    matches the truncated Poisson series to 1e-6. A non-finite value of phi
    on the lattice raises :class:`EvaluationError`.
    """
    if not (0.0 <= lambda_min <= lambda_max < math.inf) or lambda_max <= 0.0:
        raise InvalidInputError("need 0 <= lambda_min <= lambda_max < inf with lambda_max > 0")
    if not (0.0 < t < math.inf):
        raise InvalidInputError("time must be positive and finite")
    if n_steps is not None and (not _is_integer(n_steps) or n_steps < 1):
        raise InvalidInputError(f"n_steps must be an integer of at least 1, got {n_steps!r}")

    mu = lambda_max * t
    n_max = _poisson_quantile(1.0 - _POISSON_TAIL * 0.1, mu) + 3
    u0 = _eval_nodes(phi, np.arange(n_max + 1), "phi")
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
