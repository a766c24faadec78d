"""Monte Carlo lower bounds for worst-case expectations via control search.

The representation behind this module: the worst-case expectation is a
supremum of classical expectations over admissible controls, each control
choosing at every instant a triple (v, p, Q) from the uncertainty set. The
estimator restricts the search to deterministic piecewise-constant policies,
evaluates each candidate by Monte Carlo on scenarios shared across candidates
(common random numbers) and reports the best candidate mean. The result is a
lower bound up to Monte Carlo error; enlarging the candidate list at a fixed
seed can only increase it, because scenarios depend on the uncertainty set,
the seed and the number of paths alone.

Jump randomness uses a single base jump process for all measures in the set.
Each measure is laid out on a mass axis by :func:`glevy.uncertainty.mass_layout`,
the layout that also cuts the nested transport shells; the union of all cut
points defines base segments, and a segment maps under measure v to the atom
of v whose mass interval contains it (segments beyond the total mass of v
produce no jump). Scenario jumps carry a uniform mass coordinate, so
relabeling a scenario to any measure of the set is exact: the pushforward of
the base onto v recovers v atom by atom.

The estimator draws its paths in blocks of ``_BLOCK`` consecutive paths.
Block b comes from one counter-based Philox generator keyed by (seed, b), as
in Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC 2011),
through four calls in a fixed order: the Poisson jump count of every path,
the uniform jump times (then sorted within each path), the uniform mass
coordinates, and last the normal Brownian increments of every path. ``_BLOCK``
is therefore part of the stream definition, and so is ``n_paths``: the last
block holds the paths left over, and its draws change with their number.
Jump draws come before Brownian draws, so scenarios agree between runs that
do and do not need diffusion. Reductions run in fixed index order; repeated
runs with identical inputs are bit-identical.

A scenario holds the shared randomness of consecutive paths with the jumps
stored flat and per-path offsets, and the estimator relabels a whole block
under each candidate at once: the continuous parts of every path come from
one cumulative sum. Each such block is checked once by
:func:`glevy.paths._check_paths`, the one statement of the path invariants,
so the path objects handed to a payoff are not checked again. On each
scenario, candidates that realize the identical path (equal grid, values,
jump times and sizes) share one path object and one payoff call. A
:class:`TerminalPayoff`, a function of X_T alone, never becomes paths: the
terminal values of a whole block come from the block's arrays and its phi is
applied to all of them at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import stats

from .errors import AssumptionError, InvalidInputError, PolicyError, _eval_nodes, _evaluate
from .paths import CadlagPath, _check_paths, _Paths
from .pide import _step_count
from .regions import Region
from .uncertainty import DiscreteLevyMeasure, UncertaintySet, _merge_atoms, mass_layout

__all__ = [
    "BaseJumpModel",
    "BaseScenario",
    "ExplicitControl",
    "ControlPolicy",
    "EstimateResult",
    "ErlangCheckResult",
    "TerminalPayoff",
    "constant_policies",
    "draw_scenario",
    "simulate_path",
    "estimate_upper_expectation",
    "estimate_capacity",
    "erlang_bound_check",
]


# ---------------------------------------------------------------------------
# base jump model: one mass axis shared by every measure of the set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseJumpModel:
    """Common refinement of the mass layouts of all measures in the set."""

    cuts: np.ndarray  # (K+1,) cumulative mass cut points, cuts[0] = 0
    locations: np.ndarray  # (K, d) representative base marks
    targets: np.ndarray  # (n_triples, K, d) relabeled jump sizes
    active: np.ndarray  # (n_triples, K) whether the segment jumps at all

    @property
    def budget(self) -> float:
        return float(self.cuts[-1])

    @property
    def n_segments(self) -> int:
        return self.locations.shape[0]

    @staticmethod
    def from_uncertainty(uset: UncertaintySet) -> "BaseJumpModel":
        if len(uset) == 0:
            raise InvalidInputError("uncertainty set is empty")
        d = uset.dim
        layouts = [mass_layout(t.measure) for t in uset]
        cuts = np.unique(np.concatenate([[0.0]] + [cum[1:] for _, _, cum in layouts]))
        K = cuts.shape[0] - 1
        targets = np.zeros((len(uset), max(K, 0), d))
        active = np.zeros((len(uset), max(K, 0)), dtype=bool)
        locations = np.zeros((max(K, 0), d))
        loc_set = np.zeros(max(K, 0), dtype=bool)
        mids = 0.5 * (cuts[:-1] + cuts[1:]) if K else np.empty(0)
        for j, (atoms, _, cum) in enumerate(layouts):
            if atoms.shape[0] == 0 or K == 0:
                continue
            idx = np.searchsorted(cum, mids, side="right") - 1
            inside = (mids < cum[-1]) & (idx >= 0) & (idx < atoms.shape[0])
            targets[j, inside] = atoms[idx[inside]]
            active[j, inside] = True
            newly = inside & ~loc_set
            locations[newly] = atoms[idx[newly]]
            loc_set |= inside
        return BaseJumpModel(cuts=cuts, locations=locations, targets=targets, active=active)

    def segments_of(self, mass_coords: np.ndarray) -> np.ndarray:
        return np.clip(np.searchsorted(self.cuts, mass_coords, side="right") - 1, 0, self.n_segments - 1)

    def pushforward(self, triple_index: int) -> DiscreteLevyMeasure:
        """Measure realized by relabeling the base onto the given triple; exact."""
        return self.relabel(self.targets[triple_index], self.active[triple_index])

    def relabel(self, targets: np.ndarray, active: np.ndarray) -> DiscreteLevyMeasure:
        """Image of the base under segment targets (K, d); inactive segments do not jump.

        Segments with equal targets merge into one atom (:func:`_merge_atoms`
        with tolerance 0).
        """
        return _merge_atoms(targets[active], np.diff(self.cuts)[active], 0.0)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseScenario:
    """Shared randomness of consecutive paths: base jumps plus optional Brownian grid.

    The jumps of all paths are stored flat; path i owns the entries
    ``offsets[i]:offsets[i + 1]``.
    """

    horizon: float
    model: BaseJumpModel
    offsets: np.ndarray  # (n+1,) start of each path's jumps in the flat arrays
    jump_times: np.ndarray  # (J,) sorted within each path
    jump_mass_coords: np.ndarray  # (J,) uniforms on [0, budget)
    jump_segments: np.ndarray  # (J,) ints
    brownian_times: np.ndarray | None = None  # (M+1,) uniform grid incl. endpoints, shared
    brownian_increments: np.ndarray | None = None  # (n, M, d) N(0, dt) per coordinate

    @property
    def n_paths(self) -> int:
        return self.offsets.shape[0] - 1


def draw_scenario(
    model: BaseJumpModel,
    horizon: float,
    rng: np.random.Generator,
    *,
    with_brownian: bool = False,
    brownian_dt: float = 0.01,
    n_paths: int = 1,
) -> BaseScenario:
    """Draw the scenarios of n_paths paths; jump randomness first, Brownian last.

    Four generator calls serve every path at once: the jump counts, the jump
    times, the mass coordinates, the Brownian increments. Keeping the draw
    order fixed means scenarios agree between runs that do and do not
    consume the Brownian block, which preserves determinism when a candidate
    list changes its diffusion needs. The Brownian increments have the
    dimension of the model's marks, ``model.locations.shape[1]``; cells are
    counted like PIDE steps, so brownian_dt = horizon/n gives n of them.
    """
    if not (0.0 < horizon < math.inf):
        raise InvalidInputError("horizon must be positive and finite")
    if n_paths < 1:
        raise InvalidInputError("need at least one path")
    budget = model.budget
    counts = rng.poisson(budget * horizon, n_paths) if budget > 0.0 else np.zeros(n_paths, dtype=np.intp)
    offsets = np.zeros(n_paths + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    n = int(offsets[-1])
    times = rng.uniform(0.0, horizon, n)
    times = times[np.lexsort((times, np.repeat(np.arange(n_paths), counts)))]
    coords = rng.uniform(0.0, budget, n) if n else np.empty(0)
    segments = model.segments_of(coords) if n else np.empty(0, dtype=int)
    bt = bi = None
    if with_brownian:
        m = _step_count(horizon, brownian_dt)
        bt = np.linspace(0.0, horizon, m + 1)
        bi = rng.normal(0.0, math.sqrt(horizon / m), size=(n_paths, m, model.locations.shape[1]))
    return BaseScenario(
        horizon=float(horizon),
        model=model,
        offsets=offsets,
        jump_times=times,
        jump_mass_coords=coords,
        jump_segments=segments,
        brownian_times=bt,
        brownian_increments=bi,
    )


# ---------------------------------------------------------------------------
# control policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplicitControl:
    """Direct mark relabeling: base atom value -> target jump size, d = 1.

    The relabeled measure must coincide with some measure of the uncertainty
    set and the attached (drift, cov_root) must match that triple; this is
    checked when the policy is compiled against the set.
    """

    mark_map: dict
    drift: float = 0.0
    cov_root: float = 0.0


@dataclass(frozen=True)
class ControlPolicy:
    """Piecewise-constant control on (breakpoints[0], breakpoints[-1]].

    ``values[i]`` applies on the half-open-from-the-left interval
    (breakpoints[i], breakpoints[i+1]]; each value is a triple index into the
    uncertainty set or an :class:`ExplicitControl`.
    """

    breakpoints: np.ndarray
    values: tuple

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        if bp.shape[0] < 2 or np.any(np.diff(bp) <= 0.0):
            raise PolicyError("breakpoints must be strictly increasing with at least two entries")
        if len(self.values) != bp.shape[0] - 1:
            raise PolicyError("need exactly one control value per interval")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", tuple(self.values))

    @staticmethod
    def constant(value, start: float, end: float) -> "ControlPolicy":
        return ControlPolicy(np.array([start, end]), (value,))

    def check_covers(self, start: float, end: float) -> None:
        if self.breakpoints[0] > start + 1e-12 or self.breakpoints[-1] < end - 1e-12:
            raise PolicyError(
                f"policy covers ({self.breakpoints[0]}, {self.breakpoints[-1]}] "
                f"but ({start}, {end}] is required"
            )


def constant_policies(uset: UncertaintySet, horizon: float, start: float = 0.0) -> list[ControlPolicy]:
    """One constant policy per enumerated triple, the default candidate grid."""
    return [ControlPolicy.constant(i, start, horizon) for i in range(len(uset))]


class _CompiledValue(NamedTuple):
    targets: np.ndarray  # (K, d)
    active: np.ndarray  # (K,)
    drift: np.ndarray  # (d,)
    cov_root: np.ndarray  # (d, d)


def _compile_value(value, uset: UncertaintySet, model: BaseJumpModel) -> _CompiledValue:
    if isinstance(value, (int, np.integer)):
        i = int(value)
        if not (0 <= i < len(uset)):
            raise PolicyError(f"triple index {i} outside the uncertainty set")
        t = uset.triples[i]
        return _CompiledValue(model.targets[i], model.active[i], t.drift, t.cov_root)
    if isinstance(value, ExplicitControl):
        d = uset.dim
        if d != 1:
            raise PolicyError("explicit mark maps are one-dimensional")
        K = model.n_segments
        targets = np.zeros((K, d))
        active = np.zeros(K, dtype=bool)
        keys = np.array(sorted(value.mark_map), dtype=float)
        vals = np.array([value.mark_map[k] for k in sorted(value.mark_map)], dtype=float)
        for s in range(K):
            loc = model.locations[s, 0]
            hit = np.nonzero(np.abs(keys - loc) <= 1e-12)[0]
            if hit.shape[0] and vals[hit[0]] != 0.0:
                targets[s, 0] = vals[hit[0]]
                active[s] = True
        pushed = model.relabel(targets, active)
        drift = np.atleast_1d(np.asarray(value.drift, dtype=float))
        cov = np.atleast_2d(np.asarray(value.cov_root, dtype=float))
        for t in uset:
            if (
                t.measure.same_as(pushed)
                and np.allclose(t.drift, drift, atol=1e-12, rtol=0.0)
                and np.allclose(t.cov_root, cov, atol=1e-12, rtol=0.0)
            ):
                return _CompiledValue(targets, active, t.drift, t.cov_root)
        raise PolicyError("explicit control does not realize any triple of the uncertainty set")
    raise PolicyError(f"unsupported control value {value!r}")


class _CompiledPolicy(NamedTuple):
    """A policy's control values stacked into arrays, one row per interval."""

    breakpoints: np.ndarray  # (V+1,)
    targets: np.ndarray  # (V, K, d)
    active: np.ndarray  # (V, K)
    drift: np.ndarray  # (V, d)
    cov_root: np.ndarray  # (V, d, d)
    needs_brownian: bool


def _compile_policy(policy: ControlPolicy, uset: UncertaintySet, model: BaseJumpModel) -> _CompiledPolicy:
    values = [_compile_value(v, uset, model) for v in policy.values]
    cov_root = np.stack([v.cov_root for v in values])
    return _CompiledPolicy(
        policy.breakpoints,
        np.stack([v.targets for v in values]),
        np.stack([v.active for v in values]),
        np.stack([v.drift for v in values]),
        cov_root,
        bool(np.any(cov_root != 0.0)),
    )


# ---------------------------------------------------------------------------
# path construction
# ---------------------------------------------------------------------------


def _build_paths(block: BaseScenario, compiled: _CompiledPolicy, start: float, horizon: float) -> _Paths:
    """Every path of a scenario block under one policy, checked once for the whole block.

    Data that overflow become non-finite values, which the check refuses;
    no numpy warning escapes.
    """
    with np.errstate(all="ignore"):
        paths = _assemble_paths(block, compiled, start, horizon)
    _check_paths(paths, horizon)
    return paths


def _assemble_paths(block: BaseScenario, compiled: _CompiledPolicy, start: float, horizon: float) -> _Paths:
    n, d = block.n_paths, compiled.drift.shape[1]
    bp = compiled.breakpoints
    last = compiled.drift.shape[0] - 1

    # continuous part: exact piecewise-linear drift per cell, plus an Euler
    # diffusion step when the policy diffuses; cells are the block's Brownian
    # grid then, the policy's breakpoints otherwise. The control value of a
    # cell is the one active at its left end; an index below 0 only arises
    # when breakpoints[0] lies within the covering tolerance above start
    if compiled.needs_brownian:
        if block.brownian_times is None:
            raise PolicyError("policy needs Brownian increments but the scenario has none")
        edges = block.brownian_times
    else:
        edges = np.concatenate([[start], bp[(bp > start) & (bp < horizon)], [horizon]])
    lo, hi = edges[:-1], edges[1:]
    cells = slice(np.searchsorted(hi, start, side="right"), np.searchsorted(lo, horizon, side="left"))
    t_lo, t_hi = np.maximum(lo[cells], start), np.minimum(hi[cells], horizon)
    vi = np.clip(np.searchsorted(bp, t_lo, side="right") - 1, 0, last)
    drift_steps = compiled.drift[vi] * (t_hi - t_lo)[:, None]
    # one cumulative sum over [0, drift_0, diffusion_0, drift_1, ...] adds the
    # increments in the order a running loop over the cells would
    if compiled.needs_brownian:
        m = t_lo.shape[0]
        # partial boundary cells reuse the cell's normal draw, rescaled to
        # the correct variance
        scale = np.sqrt((t_hi - t_lo) / (hi[cells] - lo[cells]))
        increments = block.brownian_increments[:, cells, :, None]
        steps = np.zeros((n, 2 * m + 1, d))
        steps[:, 1::2] = drift_steps
        steps[:, 2::2] = (compiled.cov_root[vi] @ increments)[..., 0] * scale[:, None]
        # the copy keeps the values at cell ends alive, not every step
        values = np.cumsum(steps, axis=1, out=steps)[:, ::2].copy()
    else:
        values = np.cumsum(np.vstack([np.zeros((1, d)), drift_steps]), axis=0)[None]
    if start > 0.0:
        # the path stays at 0 up to start
        values = np.concatenate([np.zeros((values.shape[0], 1, d)), values], axis=1)
    grid_times = np.concatenate([[0.0, start] if start > 0.0 else [0.0], t_hi])
    values = np.broadcast_to(values, (n,) + values.shape[1:])

    # jumps: relabel scenario marks through the control value active at each
    # jump time, merge equal times within a path, drop zero sizes
    times, segments = block.jump_times, block.jump_segments
    owner = np.repeat(np.arange(n), np.diff(block.offsets))
    jv = np.clip(np.searchsorted(bp, times, side="left") - 1, 0, last)
    keep = (times > start) & (times <= horizon) & compiled.active[jv, segments]
    times, owner = times[keep], owner[keep]
    sizes = compiled.targets[jv[keep], segments[keep]]
    opens = np.ones(times.shape[0], dtype=bool)
    opens[1:] = (times[1:] != times[:-1]) | (owner[1:] != owner[:-1])
    if not opens.all():
        starts = np.flatnonzero(opens)
        sizes = np.add.reduceat(sizes, starts, axis=0)
        times, owner = times[starts], owner[starts]
    nonzero = np.linalg.norm(sizes, axis=1) > 0.0
    times, sizes, owner = times[nonzero], sizes[nonzero], owner[nonzero]
    offsets = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(owner, minlength=n), out=offsets[1:])
    return _Paths(grid_times, values, offsets, times, sizes)


def simulate_path(
    scenario: BaseScenario,
    policy: ControlPolicy,
    uset: UncertaintySet,
    start: float = 0.0,
    horizon: float | None = None,
) -> CadlagPath:
    """Realize one controlled path from the randomness of a one-path scenario.

    The policy must cover (start, horizon]; its values must lie in the
    admissible set (triple indices do by construction, explicit mark maps are
    checked). Drift integrates exactly; diffusion uses the scenario's Euler
    grid with the control frozen at the left endpoint of each cell.
    """
    if scenario.n_paths != 1:
        raise InvalidInputError("simulate_path takes a one-path scenario")
    T = float(scenario.horizon if horizon is None else horizon)
    if not (0.0 <= start < T <= scenario.horizon):
        raise InvalidInputError("need 0 <= start < horizon <= scenario horizon")
    policy.check_covers(start, T)
    compiled = _compile_policy(policy, uset, scenario.model)
    return CadlagPath._unchecked(T, *_build_paths(scenario, compiled, start, T).arrays(0))


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


class EstimateResult(NamedTuple):
    value: float
    std_error: float
    argmax: int


_BLOCK = 256  # consecutive paths drawn from one stream and relabeled together


def _block_stream(seed: int, block_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(block_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class TerminalPayoff:
    """The payoff phi(X_T) of a one-dimensional path's value at the horizon.

    Called on a path it returns ``float(phi(path.scalar_value(path.horizon)))``,
    so it serves wherever a path payoff does. :func:`estimate_upper_expectation`
    recognizes it and builds no path objects: it sums the terminal values of a
    whole block from the block's arrays, in the order ``scalar_value`` adds
    them, and applies phi to all of them at once, one vectorized call when phi
    maps an array to an array of its shape, else one call per value.
    """

    phi: Callable[[float], float]

    def __call__(self, path: CadlagPath) -> float:
        return float(self.phi(path.scalar_value(path.horizon)))


def _block_values(
    xi: Callable[[CadlagPath], float], block: BaseScenario, compiled: Sequence[_CompiledPolicy], horizon: float
) -> np.ndarray:
    """xi of every path of a block under every candidate, shape (n, candidates), checked once per block."""
    built = [_build_paths(block, comp, 0.0, horizon) for comp in compiled]
    T = float(horizon)

    def payoffs() -> np.ndarray:
        # xi's values as returned; _evaluate converts them to floats and checks them
        vals = np.empty((block.n_paths, len(compiled)), dtype=object)
        for i, row in enumerate(vals):
            # candidates realizing the same path on this scenario share one evaluation
            seen: dict[tuple[bytes, ...], object] = {}
            for ci, paths in enumerate(built):
                arrays = paths.arrays(i)
                key = tuple(a.tobytes() for a in arrays)
                if key not in seen:
                    seen[key] = xi(CadlagPath._unchecked(T, *arrays))
                row[ci] = seen[key]
        return vals

    return _evaluate(payoffs, (), "payoff", each=False)


def _terminal_values(
    phi: Callable[[float], float], block: BaseScenario, compiled: Sequence[_CompiledPolicy], horizon: float
) -> np.ndarray:
    """phi(X_T) of every path of a block under every candidate, shape (n, candidates), with no path objects."""
    ends = np.empty((block.n_paths, len(compiled)))
    for ci, comp in enumerate(compiled):
        paths = _build_paths(block, comp, 0.0, horizon)
        if paths.grid_values.shape[2] != 1:
            raise InvalidInputError("scalar_value requires a one-dimensional path")
        ends[:, ci] = paths.terminal_values()[:, 0]
    return _eval_nodes(phi, ends.reshape(-1), "payoff").reshape(ends.shape)


def _running_sum(total: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """total + rows[0] + rows[1] + ..., added in row order as a running loop would."""
    return np.cumsum(np.vstack([total, rows]), axis=0)[-1]


def estimate_upper_expectation(
    xi: Callable[[CadlagPath], float],
    uset: UncertaintySet,
    candidates: Sequence[ControlPolicy],
    n_paths: int,
    seed: int,
    *,
    horizon: float,
    brownian_dt: float = 0.01,
) -> EstimateResult:
    """Best candidate mean of xi under common random numbers; a lower bound.

    The candidate policies are evaluated on identical scenarios. Paths are
    drawn in blocks of ``_BLOCK``, block b from one Philox stream keyed by
    (seed, b), so ``_BLOCK`` is part of the stream definition and the last
    block, which holds the paths left over, depends on ``n_paths``. Scenarios
    do not depend on the candidates, so growing the candidate list at a fixed
    seed and ``n_paths`` can only raise the value. The reported standard
    error is that of the winning candidate. Ties in the maximum go to the
    lowest candidate index. The value estimates the worst-case expectation
    from below (finitely many controls, finitely many paths).

    ``xi`` must be a deterministic function of the path: candidates that
    realize the identical path on a scenario are evaluated once and share
    the value. A :class:`TerminalPayoff` gives the same result without
    building a path object. A non-finite or non-numeric value of xi raises
    :class:`EvaluationError`.
    """
    if n_paths < 2:
        raise InvalidInputError("need at least two paths for a standard error")
    if not (0.0 < horizon < math.inf):
        raise InvalidInputError("horizon must be positive and finite")
    if len(candidates) == 0:
        raise InvalidInputError("need at least one candidate policy")
    for c in candidates:
        c.check_covers(0.0, horizon)
    model = BaseJumpModel.from_uncertainty(uset)
    compiled = [_compile_policy(c, uset, model) for c in candidates]
    needs_brownian = any(c.needs_brownian for c in compiled)

    sums = np.zeros(len(candidates))
    dev_sums = np.zeros(len(candidates))
    dev_sumsq = np.zeros(len(candidates))
    for first in range(0, n_paths, _BLOCK):
        block = draw_scenario(
            model,
            horizon,
            _block_stream(seed, first // _BLOCK),
            with_brownian=needs_brownian,
            brownian_dt=brownian_dt,
            n_paths=min(_BLOCK, n_paths - first),
        )
        if isinstance(xi, TerminalPayoff):
            vals = _terminal_values(xi.phi, block, compiled, horizon)
        else:
            vals = _block_values(xi, block, compiled, horizon)
        if first == 0:
            # the variance uses sums of values shifted by each candidate's first
            # value, so it does not cancel away when the payoff carries a large offset
            shifts = vals[0]
        devs = vals - shifts
        sums = _running_sum(sums, vals)
        dev_sums = _running_sum(dev_sums, devs)
        dev_sumsq = _running_sum(dev_sumsq, devs * devs)
    means = sums / n_paths
    winner = int(np.argmax(means))
    dev_mean = dev_sums[winner] / n_paths
    var = max(dev_sumsq[winner] / n_paths - dev_mean**2, 0.0) * n_paths / (n_paths - 1)
    return EstimateResult(float(means[winner]), float(math.sqrt(var / n_paths)), winner)


def estimate_capacity(
    event: Callable[[CadlagPath], bool],
    uset: UncertaintySet,
    candidates: Sequence[ControlPolicy],
    n_paths: int,
    seed: int,
    *,
    horizon: float,
    brownian_dt: float = 0.01,
) -> EstimateResult:
    """Worst-case probability of a path event, from below; value in [0, 1]."""
    return estimate_upper_expectation(
        lambda path: 1.0 if event(path) else 0.0,
        uset,
        candidates,
        n_paths,
        seed,
        horizon=horizon,
        brownian_dt=brownian_dt,
    )


# ---------------------------------------------------------------------------
# capacity bound for the k-th jump in a region
# ---------------------------------------------------------------------------


class ErlangCheckResult(NamedTuple):
    mc_capacity: float
    std_error: float
    analytic_bound: float
    passes: bool
    horizon: float


def erlang_bound_check(
    uset: UncertaintySet,
    region_a: Region,
    region_b: Region,
    k: int,
    time_window: tuple[float, float],
    n_paths: int,
    seed: int,
) -> ErlangCheckResult:
    """Compare the MC capacity of the k-th region-A jump event to its bound.

    The event is: the k-th jump with size in A exists, its size lies in B and
    its time falls in the window. The analytic lower bound is

        max over v of  v(B intersect A) / v(A) * Erlang_{k, mean k/v(A)}(window),

    requiring v(A) > 0 for every measure. The MC estimate uses one constant
    policy per triple; it passes when it is no more than three standard
    errors below the bound. An unbounded window is truncated at the furthest
    1 - 1e-8 Erlang quantile, far below the statistical slack.
    """
    if k < 1:
        raise InvalidInputError("k must be a positive integer")
    c0, c1 = float(time_window[0]), float(time_window[1])
    if not (0.0 <= c0 < c1):
        raise InvalidInputError("time window must satisfy 0 <= c0 < c1")

    bound = 0.0
    horizon = c1
    for t in uset:
        m = t.measure
        mass_a = m.mass_in(region_a)
        if mass_a <= 0.0:
            raise AssumptionError("every measure must charge region A")
        in_both = m.mask_in(region_a) & m.mask_in(region_b)
        mass_ab = float(m.weights[in_both].sum())
        erl = stats.gamma(a=k, scale=1.0 / mass_a)
        bound = max(bound, (mass_ab / mass_a) * float(erl.cdf(c1) - erl.cdf(c0)))
        if not math.isfinite(c1):
            horizon = max(horizon if math.isfinite(horizon) else 0.0, float(erl.ppf(1.0 - 1e-8)))
    if not math.isfinite(horizon):
        raise InvalidInputError("could not truncate the unbounded time window")

    def event(path: CadlagPath) -> bool:
        if path.n_jumps == 0:
            return False
        hits = region_a.contains(path.jump_sizes)
        idx = np.nonzero(hits)[0]
        if idx.shape[0] < k:
            return False
        j = idx[k - 1]
        tk = float(path.jump_times[j])
        return path.jump_sizes[j] in region_b and (c0 <= tk <= c1)

    est = estimate_capacity(
        event,
        uset,
        constant_policies(uset, horizon),
        n_paths,
        seed,
        horizon=horizon,
    )
    passes = est.value >= bound - 3.0 * est.std_error
    return ErlangCheckResult(est.value, est.std_error, float(bound), bool(passes), horizon)
