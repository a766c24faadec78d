"""Monte Carlo lower bounds for worst-case expectations via control search.

The representation behind this module: the worst-case expectation is a
supremum of classical expectations over admissible controls, each control
choosing at every instant a triple (v, p, Q) from the uncertainty set (the
characteristics representation of Neufeld and Nutz, "Nonlinear Levy processes
and their characteristics", Trans. AMS 2017). A control value is therefore a
point of the set, named by its triple index. The estimator restricts the
search to deterministic piecewise-constant policies, vectors of such indices,
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
produce no jump). Scenario jumps carry a uniform mass coordinate, so mapping
a scenario's marks to any measure of the set is exact: the pushforward of the
base onto v recovers v atom by atom.

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

Every block takes one route. The candidates whose continuous parts share
cells form a group (every constant policy shares [0, T], and every
diffusive candidate the block's Brownian grid), and each group maps the
whole block over the scenario's horizon in one array pass: its paths are
stored candidate-major, path i of the group's k-th candidate at row
k * n + i, the jumps flat with per-path offsets, and the continuous parts
come from cumulative sums. Each group's block is checked once by
:func:`glevy.paths._check_paths`, the one statement of the path
invariants, so the path objects handed to a payoff are not checked again.
:func:`_block_values` then evaluates the payoff on the groups, and one
running sum takes its values. A :class:`BlockPayoff` never becomes paths:
it reads the flat arrays of each group at once. Three are provided:
:class:`TerminalPayoff`, a function of X_T alone;
:class:`PoissonIntegralPayoff`, a function of the Poisson integral of f
over a region, the integral the Poisson random measure of the path
defines; and :class:`KthJumpEvent`, the indicator that the k-th jump in
one region lands in another within a time window. Any other payoff is
called once per distinct path: candidates that realize equal paths on a
scenario, found by comparing the group's arrays, share one path object
and one payoff call. Such a path object shares its group's arrays, checked
once per block, so a path payoff costs about what it computes: on a
three-measure mixture set with five candidates and 4000 paths (11,265
distinct paths of 20,000 at seed 1), the whole estimate takes about 3.3 µs
per distinct path with a payoff that returns a constant and about 4.1 µs
with ``lambda path: path.scalar_value(1.0)``, against about 0.6 µs per path
and candidate with the :class:`TerminalPayoff` of the same value (2-core VM,
Python 3.11, numpy 2.4, best of 7).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import special

from .errors import AssumptionError, EvaluationError, InvalidInputError, PolicyError, _eval_nodes, _evaluate, _is_integer
from .paths import CadlagPath, _check_paths, _Paths, _same_paths
from .pide import _step_count
from .regions import Region, _nonzero_rows
from .uncertainty import DiscreteLevyMeasure, UncertaintySet, _atom_table, _mask_in, _merge_atoms, mass_layout

__all__ = [
    "BaseJumpModel",
    "BaseScenario",
    "ControlPolicy",
    "EstimateResult",
    "ErlangCheckResult",
    "BlockPayoff",
    "TerminalPayoff",
    "PoissonIntegralPayoff",
    "KthJumpEvent",
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
    targets: np.ndarray  # (n_triples, K, d) jump size of each segment per triple
    active: np.ndarray  # (n_triples, K) whether the segment jumps at all

    @property
    def budget(self) -> float:
        return float(self.cuts[-1])

    @property
    def n_segments(self) -> int:
        return self.targets.shape[1]

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
        mids = 0.5 * (cuts[:-1] + cuts[1:]) if K else np.empty(0)
        for j, (atoms, _, cum) in enumerate(layouts):
            if atoms.shape[0] == 0 or K == 0:
                continue
            idx = np.searchsorted(cum, mids, side="right") - 1
            inside = (mids < cum[-1]) & (idx >= 0) & (idx < atoms.shape[0])
            targets[j, inside] = atoms[idx[inside]]
            active[j, inside] = True
        return BaseJumpModel(cuts=cuts, targets=targets, active=active)

    def segments_of(self, mass_coords: np.ndarray) -> np.ndarray:
        return np.clip(np.searchsorted(self.cuts, mass_coords, side="right") - 1, 0, self.n_segments - 1)

    def pushforward(self, triple_index: int) -> DiscreteLevyMeasure:
        """Measure realized by mapping the base onto the given triple; exact.

        Inactive segments do not jump, and segments with equal targets merge
        into one atom (:func:`_merge_atoms` with tolerance 0).
        """
        active = self.active[triple_index]
        return _merge_atoms(self.targets[triple_index][active], np.diff(self.cuts)[active], 0.0)


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
    dimension of the model's jump sizes, ``model.targets.shape[2]``; cells are
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
        bi = rng.normal(0.0, math.sqrt(horizon / m), size=(n_paths, m, model.targets.shape[2]))
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
class ControlPolicy:
    """Piecewise-constant control on (breakpoints[0], breakpoints[-1]].

    ``values[i]`` applies on the half-open-from-the-left interval
    (breakpoints[i], breakpoints[i+1]]. A control value is the index of a
    triple (v, p, Q) of the uncertainty set, so a policy is a vector of
    triple indices. Values that are not integers (a bool, a float, a string,
    None) raise :class:`PolicyError` here and are stored as Python ints; an
    index outside the set raises it when the policy is compiled against the
    set.
    """

    breakpoints: np.ndarray
    values: tuple

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        if bp.shape[0] < 2 or not np.all(np.diff(bp) > 0.0):  # a NaN difference is not an increase
            raise PolicyError("breakpoints must be strictly increasing with at least two entries")
        if len(self.values) != bp.shape[0] - 1:
            raise PolicyError("need exactly one control value per interval")
        for v in self.values:
            if not _is_integer(v):
                raise PolicyError(f"a control value is a triple index, got {v!r}")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))

    @staticmethod
    def constant(value: int, start: float, end: float) -> "ControlPolicy":
        return ControlPolicy(np.array([start, end]), (value,))

    def check_covers(self, start: float, end: float) -> None:
        if self.breakpoints[0] > start + 1e-12 or self.breakpoints[-1] < end - 1e-12:
            raise PolicyError(
                f"policy covers ({self.breakpoints[0]}, {self.breakpoints[-1]}] "
                f"but ({start}, {end}] is required"
            )


def constant_policies(uset: UncertaintySet, horizon: float) -> list[ControlPolicy]:
    """One constant policy per enumerated triple on (0, horizon], the default candidate grid."""
    return [ControlPolicy.constant(i, 0.0, horizon) for i in range(len(uset))]


class _CompiledPolicy(NamedTuple):
    """A policy checked against the set: its breakpoints and the triple index of each interval."""

    breakpoints: np.ndarray  # (V+1,)
    triples: np.ndarray  # (V,)
    needs_brownian: bool


def _compile_policy(policy: ControlPolicy, uset: UncertaintySet) -> _CompiledPolicy:
    idx = np.array(policy.values)
    outside = idx[(idx < 0) | (idx >= len(uset))]
    if outside.shape[0]:
        raise PolicyError(f"triple index {outside[0]} outside the uncertainty set")
    return _CompiledPolicy(policy.breakpoints, idx, bool(np.any(uset.cov_roots[idx] != 0.0)))


# ---------------------------------------------------------------------------
# path construction
# ---------------------------------------------------------------------------


def _build_paths(
    block: BaseScenario, uset: UncertaintySet, compiled: Sequence[_CompiledPolicy]
) -> list[tuple[list[int], _Paths]]:
    """Every path of a scenario block under every candidate, one checked block per group of candidates.

    A group is the candidates whose continuous parts share cells: the
    block's Brownian grid for a candidate that diffuses, the cells its
    breakpoints cut in [0, horizon] otherwise. Each group comes as
    (members, paths), path i of members[k] at row k * n + i, and the groups
    come in order of their lowest member. Data that overflow become
    non-finite values, which the check refuses; no numpy warning escapes.
    """
    grid = None if block.brownian_times is None else tuple(block.brownian_times.tolist())
    cells: dict[tuple, list[int]] = {}
    for c, comp in enumerate(compiled):
        if comp.needs_brownian:
            if grid is None:
                raise PolicyError("policy needs Brownian increments but the scenario has none")
            key = grid
        else:
            bp = comp.breakpoints
            key = (0.0, *bp[(bp > 0.0) & (bp < block.horizon)].tolist(), block.horizon)
        cells.setdefault(key, []).append(c)
    groups = []
    for edges, members in cells.items():
        with np.errstate(all="ignore"):
            paths = _assemble_paths(block, uset, [compiled[c] for c in members], np.array(edges))
        _check_paths(paths, block.horizon)
        groups.append((members, paths))
    return groups


def _assemble_paths(
    block: BaseScenario, uset: UncertaintySet, group: list[_CompiledPolicy], edges: np.ndarray
) -> _Paths:
    n, C, d, horizon, model = block.n_paths, len(group), uset.dim, block.horizon, block.model
    lo, hi = edges[:-1], edges[1:]
    times, segments = block.jump_times, block.jump_segments

    # the triple of each cell and each jump under each candidate: the control
    # value active at the cell's left end and at the jump time. An index
    # below 0 only arises when breakpoints[0] lies within the covering
    # tolerance above 0
    cell_triples = np.empty((C, lo.shape[0]), dtype=np.intp)
    jump_triples = np.empty((C, times.shape[0]), dtype=np.intp)
    for k, comp in enumerate(group):
        bp, last = comp.breakpoints, comp.triples.shape[0] - 1
        cell_triples[k] = comp.triples[np.clip(np.searchsorted(bp, lo, side="right") - 1, 0, last)]
        jump_triples[k] = comp.triples[np.clip(np.searchsorted(bp, times, side="left") - 1, 0, last)]

    # continuous part: exact piecewise-linear drift per cell, plus an Euler
    # diffusion step when a candidate diffuses. One cumulative sum over
    # [0, drift_0, diffusion_0, drift_1, ...] adds the increments in the
    # order a running loop over the cells would; a candidate that does not
    # diffuse adds zeros, which change no value
    drift_steps = uset.drifts[cell_triples] * (hi - lo)[:, None]
    if any(comp.needs_brownian for comp in group):
        values = np.empty((C * n, edges.shape[0], d))
        steps = np.zeros((n, 2 * lo.shape[0] + 1, d))
        for k in range(C):
            steps[:, 1::2] = drift_steps[k]
            steps[:, 2::2] = (uset.cov_roots[cell_triples[k]] @ block.brownian_increments[..., None])[..., 0]
            values[k * n : (k + 1) * n] = np.cumsum(steps, axis=1, out=steps)[:, ::2]
    else:
        values = np.repeat(np.cumsum(np.concatenate([np.zeros((C, 1, d)), drift_steps], axis=1), axis=1), n, axis=0)

    # jumps: map scenario marks through the triple at each jump time, merge
    # equal times within a path, drop zero sizes
    cand, j = np.nonzero((times > 0.0) & (times <= horizon) & model.active[jump_triples, segments])
    times = times[j]
    owner = cand * n + np.repeat(np.arange(n), np.diff(block.offsets))[j]
    sizes = model.targets[jump_triples[cand, j], segments[j]]
    opens = np.ones(times.shape[0], dtype=bool)
    opens[1:] = (times[1:] != times[:-1]) | (owner[1:] != owner[:-1])
    if not opens.all():
        starts = np.flatnonzero(opens)
        sizes = np.add.reduceat(sizes, starts, axis=0)
        times, owner = times[starts], owner[starts]
    nonzero = _nonzero_rows(sizes)
    times, sizes, owner = times[nonzero], sizes[nonzero], owner[nonzero]
    offsets = np.zeros(C * n + 1, dtype=np.intp)
    np.cumsum(np.bincount(owner, minlength=C * n), out=offsets[1:])
    return _Paths(edges, values, offsets, times, sizes)


def simulate_path(scenario: BaseScenario, policy: ControlPolicy, uset: UncertaintySet) -> CadlagPath:
    """Realize one controlled path over the whole horizon of a one-path scenario.

    The policy must cover (0, scenario.horizon] and name triples of the set.
    Drift integrates exactly; diffusion uses the scenario's Euler grid with
    the control frozen at the left endpoint of each cell.
    """
    if scenario.n_paths != 1:
        raise InvalidInputError("simulate_path takes a one-path scenario")
    T = float(scenario.horizon)
    policy.check_covers(0.0, T)
    [(_, paths)] = _build_paths(scenario, uset, [_compile_policy(policy, uset)])
    return CadlagPath._unchecked(T, *paths.arrays(0))


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


class EstimateResult(NamedTuple):
    value: float
    std_error: float
    argmax: int


_BLOCK = 256  # consecutive paths drawn from one stream and mapped together


def _block_stream(seed: int, block_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(block_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# block payoffs: evaluated on a block's flat arrays, no path objects
# ---------------------------------------------------------------------------


class BlockPayoff(ABC):
    """A payoff that evaluates whole blocks of paths from their arrays.

    :func:`estimate_upper_expectation` hands a block payoff each group of
    candidates of each scenario block (see :func:`_build_paths`): one checked
    ``_Paths`` with the paths of every member, candidate after candidate. It
    takes one value per path; no path object is built and no payoff call is
    made per path. Called on one path, a block payoff runs the same code on
    that path's one-path block, so it serves wherever a path payoff does,
    with the same value.
    """

    @abstractmethod
    def block_values(self, paths: _Paths) -> np.ndarray:
        """The payoff of every path of the block, one value per row of its grid values."""

    def __call__(self, path: CadlagPath) -> float:
        offsets = np.array([0, path.n_jumps])
        one = _Paths(path.grid_times, path.grid_values[None], offsets, path.jump_times, path.jump_sizes)
        return float(self.block_values(one)[0])


@dataclass(frozen=True)
class TerminalPayoff(BlockPayoff):
    """The payoff phi(X_T) of a one-dimensional path's value at the horizon.

    It sums the terminal values of a whole block from the block's arrays, in
    the order ``CadlagPath.scalar_value`` adds them, and applies phi to all
    of them at once, once per group of candidates on their candidate-major
    values: one vectorized call when phi maps an array to an array of its
    shape, else one call per value.
    """

    phi: Callable[[float], float]

    def block_values(self, paths: _Paths) -> np.ndarray:
        ends = paths.terminal_values()
        if ends.shape[1] != 1:
            raise InvalidInputError("scalar_value requires a one-dimensional path")
        return _eval_nodes(self.phi, ends[:, 0], "payoff")


@dataclass(frozen=True)
class PoissonIntegralPayoff(BlockPayoff):
    """The payoff phi(sum over s <= T of f(dX_s) 1_A(dX_s)), the Poisson integral of f over A.

    Called on a path it equals ``phi(poisson_integral(path, f, region))``.
    f is called once per group of candidates on the sizes of all their
    jumps in the region, a flat array in d = 1 and an (m, d) array of rows
    otherwise, and must give one real value per jump; else it is called once
    per jump, on a float in d = 1 and on a (d,) row otherwise. Each path's
    values are added in jump order, as :func:`glevy.paths.poisson_integral`
    adds them, and phi is applied to every path's sum as
    :class:`TerminalPayoff` applies it.
    """

    f: Callable
    region: Region
    phi: Callable[[float], float]

    def block_values(self, paths: _Paths) -> np.ndarray:
        offsets, sizes = paths.offsets, paths.jump_sizes
        inside = self.region.contains(sizes)
        nodes = sizes[inside]
        vals = _eval_nodes(self.f, nodes[:, 0] if nodes.shape[1] == 1 else nodes, "integrand")
        if vals.ndim != 1:
            raise EvaluationError(f"integrand must give one real value per jump, got shape {vals.shape[1:]} each")
        # each path's values in jump order, one rank at a time; the sums start
        # at -0.0, which adds to any value without changing it, so each equals
        # the running sum from its path's first value. A path with no value
        # in the region sums to 0.0
        owner = np.repeat(np.arange(offsets.shape[0] - 1), np.diff(offsets))[inside]
        counts = np.bincount(owner, minlength=offsets.shape[0] - 1)
        starts = np.cumsum(counts) - counts
        sums = np.full(counts.shape[0], -0.0)
        for k in range(int(counts.max(initial=0))):
            has = counts > k
            sums[has] += vals[starts[has] + k]
        sums[counts == 0] = 0.0
        return _eval_nodes(self.phi, sums, "payoff")


@dataclass(frozen=True)
class KthJumpEvent(BlockPayoff):
    """1.0 when the k-th jump with size in region A exists, its size lies in B and its time in the window, else 0.0.

    The window (c0, c1) is closed, and c1 may be infinite. k must be an
    integer of at least 1; a bool or a float is refused.
    """

    region_a: Region
    k: int
    region_b: Region
    window: tuple[float, float]

    def __post_init__(self):
        if not _is_integer(self.k) or self.k < 1:
            raise InvalidInputError(f"k must be a positive integer, got {self.k!r}")
        object.__setattr__(self, "window", (float(self.window[0]), float(self.window[1])))

    def block_values(self, paths: _Paths) -> np.ndarray:
        offsets, times, sizes = paths.offsets, paths.jump_times, paths.jump_sizes
        hits = self.region_a.contains(sizes)
        # the rank of a hit within its path: the hits up to it in the block,
        # less those of the earlier paths
        seen = np.cumsum(hits)
        owner = np.repeat(np.arange(offsets.shape[0] - 1), np.diff(offsets))
        earlier = np.concatenate([[0], seen])[offsets[:-1]]
        kth = np.flatnonzero(hits & (seen - earlier[owner] == self.k))
        c0, c1 = self.window
        values = np.zeros(offsets.shape[0] - 1)
        values[owner[kth]] = self.region_b.contains(sizes[kth]) & (c0 <= times[kth]) & (times[kth] <= c1)
        return values


def _block_values(
    xi: Callable[[CadlagPath], float], block: BaseScenario, uset: UncertaintySet, compiled: Sequence[_CompiledPolicy]
) -> np.ndarray:
    """xi of every path of a block under every candidate, shape (n, candidates).

    The candidates' paths are built and checked once per group
    (:func:`_build_paths`). A :class:`BlockPayoff` takes each group whole
    and builds no path objects; its values go to the group's members. Any
    other xi is called once per distinct path, in row-major (path,
    candidate) order: candidate c on path i shares the value of the lowest
    candidate whose path there is equal by :func:`glevy.paths._same_paths`.
    The group, row and jump slice of every distinct path are found with
    array operations first, so each costs one path object and one call.
    """
    n, C = block.n_paths, len(compiled)
    groups = _build_paths(block, uset, compiled)
    if isinstance(xi, BlockPayoff):
        vals = np.empty((n, C))
        for members, paths in groups:
            vals[:, members] = xi.block_values(paths).reshape(len(members), n).T
        return vals
    first = np.empty((n, C), dtype=np.intp)
    group = np.empty(C, dtype=np.intp)  # the group of each candidate
    row0 = np.empty(C, dtype=np.intp)  # the row of its path 0 in the group
    for g, (members, paths) in enumerate(groups):
        first[:, members] = np.array(members)[_first_equal(paths, len(members))]
        group[members] = g
        row0[members] = np.arange(len(members)) * n
    rows, cols = np.nonzero(first == np.arange(C))
    cell_group, cell_row = group[cols], row0[cols] + rows
    lo, hi = np.empty_like(cell_row), np.empty_like(cell_row)
    for g, (_, paths) in enumerate(groups):
        at = cell_group == g
        lo[at], hi[at] = paths.offsets[cell_row[at]], paths.offsets[cell_row[at] + 1]

    def payoffs() -> np.ndarray:
        # xi's values as returned, each in its own cell; _evaluate converts
        # them to floats and checks them
        vals = np.empty((n, C), dtype=object)
        horizon, path = block.horizon, CadlagPath._unchecked
        cells = zip(rows.tolist(), cols.tolist(), cell_group.tolist(), cell_row.tolist(), lo.tolist(), hi.tolist())
        for i, c, g, row, a, b in cells:
            gt, gv, _, jt, js = groups[g][1]
            vals[i, c] = xi(path(horizon, gt, gv[row], jt[a:b], js[a:b]))
        return np.take_along_axis(vals, first, axis=1)

    return _evaluate(payoffs, (), "payoff", each=False)


def _first_equal(paths: _Paths, C: int) -> np.ndarray:
    """For each path i and candidate k of a group, the lowest candidate whose path i equals that of k, shape (n, C).

    The group holds C candidates' paths, candidate-major, on one grid.
    Equal paths agree in a key of path index, jump count, continuous value
    at the horizon, and the sums over their jumps of the jump sizes and of
    jump time times jump size, each added in jump order by ``np.bincount``
    (a NaN sum, from terms that overflow, reads 0.0). Each round sorts the
    open paths on this key with one ``np.lexsort``, heads every run of
    equal keys by its lowest candidate, which is its own lowest match, and
    settles the paths equal to their head (:func:`glevy.paths._same_paths`);
    the others, whose key collides with a different path's, stay open.
    """
    n = (paths.offsets.shape[0] - 1) // C
    first = np.tile(np.arange(C), (n, 1))
    counts = np.diff(paths.offsets)
    owner = np.repeat(np.arange(C * n), counts)
    with np.errstate(all="ignore"):
        terms = np.hstack([paths.jump_sizes, paths.jump_times[:, None] * paths.jump_sizes])
    sums = np.array([np.bincount(owner, weights=w, minlength=C * n) for w in terms.T]).reshape(-1, C * n)
    sums[np.isnan(sums)] = 0.0
    key = np.vstack([np.tile(np.arange(n), C), counts, paths.grid_values[:, -1].T, sums])
    open_ = np.arange(C * n)
    while open_.shape[0]:
        # lexsort is stable and sorts on its last key first: within a run of
        # equal keys the open paths keep their order, lowest candidate first
        k = key[:, open_]
        order = np.lexsort(k[::-1])
        k = k[:, order]
        starts = np.ones(order.shape[0], dtype=bool)
        starts[1:] = (k[:, 1:] != k[:, :-1]).any(axis=0)
        head = np.empty_like(open_)
        head[order] = open_[order[starts][np.cumsum(starts) - 1]]
        s, head = open_[head != open_], head[head != open_]
        same = _same_paths(paths, head, s)
        first[s[same] % n, s[same] // n] = head[same] // n
        open_ = s[~same]
    return first


def _running_sum(total: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """total + rows[:, 0] + rows[:, 1] + ..., added in path order as a running loop would."""
    return np.cumsum(np.concatenate([total[:, None], rows], axis=1), axis=1)[:, -1]


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
    from below (finitely many controls, finitely many paths). The seed is an
    integer in [0, 2**64), so each seed names one stream.

    ``xi`` must be a deterministic function of the path: candidates that
    realize the identical path on a scenario are evaluated once and share
    the value. A :class:`BlockPayoff` gives the same result without
    building a path object. A non-finite or non-numeric value of xi raises
    :class:`EvaluationError`.
    """
    if not _is_integer(n_paths) or n_paths < 2:
        raise InvalidInputError(f"n_paths must be an integer of at least 2 for a standard error, got {n_paths!r}")
    if not _is_integer(seed) or not 0 <= seed < 2**64:
        raise InvalidInputError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if not (0.0 < horizon < math.inf):
        raise InvalidInputError("horizon must be positive and finite")
    if len(candidates) == 0:
        raise InvalidInputError("need at least one candidate policy")
    for c in candidates:
        c.check_covers(0.0, horizon)
    model = BaseJumpModel.from_uncertainty(uset)
    compiled = [_compile_policy(c, uset) for c in candidates]
    needs_brownian = any(c.needs_brownian for c in compiled)

    # running sums of [values, deviations, squared deviations] per candidate
    sums = np.zeros((3, len(candidates)))
    for first in range(0, n_paths, _BLOCK):
        block = draw_scenario(
            model,
            horizon,
            _block_stream(seed, first // _BLOCK),
            with_brownian=needs_brownian,
            brownian_dt=brownian_dt,
            n_paths=min(_BLOCK, n_paths - first),
        )
        vals = _block_values(xi, block, uset, compiled)
        if first == 0:
            # the variance uses sums of values shifted by each candidate's first
            # value, so it does not cancel away when the payoff carries a large offset
            shifts = vals[0]
        devs = vals - shifts
        sums = _running_sum(sums, np.stack([vals, devs, devs * devs]))
    means = sums[0] / n_paths
    winner = int(np.argmax(means))
    dev_mean = sums[1, winner] / n_paths
    var = max(sums[2, winner] / n_paths - dev_mean**2, 0.0) * n_paths / (n_paths - 1)
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
    """Worst-case probability of a path event, from below; value in [0, 1].

    A path event counts 1.0 where it is true and 0.0 elsewhere. A
    :class:`BlockPayoff` whose values are 1.0 and 0.0, such as a
    :class:`KthJumpEvent`, is its own indicator: it is estimated as it is,
    on whole blocks, without path objects.
    """
    return estimate_upper_expectation(
        event if isinstance(event, BlockPayoff) else lambda path: 1.0 if event(path) else 0.0,
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

    The event is the :class:`KthJumpEvent`: the k-th jump with size in A
    exists, its size lies in B and its time falls in the window. k must be
    an integer of at least 1. The analytic lower bound is

        max over v of  v(B intersect A) / v(A) * Erlang_{k, mean k/v(A)}(window),

    requiring v(A) > 0 for every measure. The MC estimate uses one constant
    policy per triple; it passes when it is no more than three standard
    errors below the bound. An unbounded window is truncated at the furthest
    1 - 1e-8 Erlang quantile, far below the statistical slack.
    """
    c0, c1 = float(time_window[0]), float(time_window[1])
    event = KthJumpEvent(region_a, k, region_b, (c0, c1))
    if not (0.0 <= c0 < c1):
        raise InvalidInputError("time window must satisfy 0 <= c0 < c1")

    table = _atom_table(uset)
    in_a = _mask_in(table.atoms, region_a)
    mass_a = table.row_sums(in_a)
    if np.any(mass_a <= 0.0):
        raise AssumptionError("every measure must charge region A")
    mass_ab = table.row_sums(in_a & _mask_in(table.atoms, region_b))
    # the Erlang law of rate v(A) is the gamma law of shape k and scale 1 / v(A)
    scale = 1.0 / mass_a
    erlang = special.gammainc(k, c1 / scale) - special.gammainc(k, c0 / scale)
    bound = float(np.max((mass_ab / mass_a) * erlang))
    horizon = c1 if math.isfinite(c1) else float(np.max(special.gammaincinv(k, 1.0 - 1e-8) * scale))
    if not math.isfinite(horizon):
        raise InvalidInputError("could not truncate the unbounded time window")

    est = estimate_capacity(event, uset, constant_policies(uset, horizon), n_paths, seed, horizon=horizon)
    passes = est.value >= bound - 3.0 * est.std_error
    return ErlangCheckResult(est.value, est.std_error, float(bound), bool(passes), horizon)
