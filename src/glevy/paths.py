"""Cadlag sample paths, their jump functionals and path-space metrics.

A path is stored as a continuous part sampled on a time grid (linear
interpolation between samples) plus an explicit list of jumps, so the jump
measure of the path is known exactly rather than inferred from increments:

    value(t) = interp(grid)(t) + sum of jump sizes with jump time <= t.

Jumps act at their time stamp (right-continuous convention) and the path
starts at zero. Many paths on one sample grid also have a block form,
``_Paths``, with the jumps of all paths stored flat; the Monte Carlo estimator
builds paths this way. ``_check_paths`` is the one statement of what a valid
path is: it checks a whole block at once, and the constructor checks its
path as a one-path block. On top of this representation the module provides

* exact counting of jumps with sizes in a region over half-open windows
  (s, t], and sums of a function of the jump sizes up to a time,
* the k-th passage times of the jump-size sequence through a region and
  through its closure (the closure variant can only come earlier),
* the two oscillation moduli w' (restricted-partition) and w'' (two-sided),
  evaluated on the event-time skeleton: exact for paths that are piecewise
  constant between events, and a documented upper bound when a sampled
  diffusive part is present,
* the piecewise-constant discretization that freezes the path at grid values
  kT/n, and an upper bound on the Skorohod distance obtained by trying the
  identity time change and greedy alignments of the largest jumps,
* a single-jump path family (jump of size x at time t) used to probe
  quasi-continuity of jump functionals, and a flat JSON-lines serialization
  that round-trips bit-exactly.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import InvalidInputError, _evaluate, _is_integer
from .regions import Region, _nonzero_rows

__all__ = [
    "CadlagPath",
    "JumpTimes",
    "ModulusPair",
    "prm_count",
    "poisson_integral",
    "jump_times",
    "cadlag_modulus",
    "discretize_tn",
    "skorohod_distance_upper",
    "counterexample_family",
    "write_records",
    "read_records",
    "dumps_records",
    "loads_records",
]


@dataclass(frozen=True)
class CadlagPath:
    """Sampled continuous part plus explicit jumps on [0, horizon]."""

    horizon: float
    grid_times: np.ndarray
    grid_values: np.ndarray
    jump_times: np.ndarray
    jump_sizes: np.ndarray

    def __post_init__(self):
        T = float(self.horizon)
        gt = np.asarray(self.grid_times, dtype=float).reshape(-1)
        gv = np.asarray(self.grid_values, dtype=float)
        if gv.ndim == 1:
            gv = gv.reshape(-1, 1)
        jt = np.asarray(self.jump_times, dtype=float).reshape(-1)
        js = np.asarray(self.jump_sizes, dtype=float)
        if js.ndim == 1:
            js = js.reshape(-1, 1)
        _check_paths(_Paths(gt, gv[None], np.array([0, jt.shape[0]]), jt, js), T)
        vars(self).update(horizon=T, grid_times=gt, grid_values=gv, jump_times=jt, jump_sizes=js)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _unchecked(
        cls, horizon: float, grid_times: np.ndarray, grid_values: np.ndarray, jump_times: np.ndarray, jump_sizes: np.ndarray
    ) -> "CadlagPath":
        """A path from data in the stored form that already meets every invariant.

        The caller guarantees a float horizon, float (G,) grid times, (G, d)
        grid values, (n,) jump times and (n, d) jump sizes that pass
        :func:`_check_paths`, which does not run.
        """
        path = object.__new__(cls)
        vars(path).update(
            horizon=horizon, grid_times=grid_times, grid_values=grid_values, jump_times=jump_times, jump_sizes=jump_sizes
        )
        return path

    @staticmethod
    def zero(horizon: float, dim: int = 1) -> "CadlagPath":
        return CadlagPath(
            horizon,
            np.array([0.0, horizon]),
            np.zeros((2, dim)),
            np.empty(0),
            np.empty((0, dim)),
        )

    @staticmethod
    def from_jumps(jumps: Sequence[tuple[float, float]], horizon: float) -> "CadlagPath":
        """Pure-jump path from (time, size) pairs, d = 1 sizes."""
        jumps = sorted(jumps, key=lambda p: p[0])
        jt = np.array([p[0] for p in jumps], dtype=float)
        js = np.array([p[1] for p in jumps], dtype=float).reshape(-1, 1)
        return CadlagPath(horizon, np.array([0.0, horizon]), np.zeros((2, 1)), jt, js)

    # -- evaluation -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.grid_values.shape[1]

    @property
    def n_jumps(self) -> int:
        return self.jump_times.shape[0]

    def continuous_at(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty((ts.shape[0], self.dim))
        for k in range(self.dim):
            out[:, k] = np.interp(ts, self.grid_times, self.grid_values[:, k])
        return out

    def values_at(self, ts) -> np.ndarray:
        """Path values at each query time, shape (n, d); times must lie in [0, T]."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if ts.size and (ts.min() < 0.0 or ts.max() > self.horizon):
            raise InvalidInputError("query times must lie in [0, horizon]")
        out = self.continuous_at(ts)
        if self.n_jumps:
            cum = np.zeros((self.n_jumps + 1, self.dim))  # row k: the sum of the first k jumps
            np.cumsum(self.jump_sizes, axis=0, out=cum[1:])
            idx = np.searchsorted(self.jump_times, ts, side="right")
            out += cum[idx]
        return out

    def value(self, t: float) -> np.ndarray:
        return self.values_at([t])[0]

    def scalar_value(self, t: float) -> float:
        """The value at time t of a one-dimensional path, equal to ``values_at([t])[0, 0]``.

        It reads the one time without the array machinery of
        :meth:`values_at` and adds in its float order: the jump sizes up to t
        one by one from 0.0, as ``cumsum`` adds them, then that sum to the
        interpolated continuous part. At the horizon, the last grid time,
        that part is the last grid value, which is what ``np.interp`` returns
        there, and every jump counts. A NaN t gives NaN.
        """
        if self.dim != 1:
            raise InvalidInputError("scalar_value requires a one-dimensional path")
        t = float(t)
        if t < 0.0 or t > self.horizon:
            raise InvalidInputError("query times must lie in [0, horizon]")
        if t == self.horizon:
            value, sizes = self.grid_values.item(-1), self.jump_sizes
        else:
            value = float(np.interp(t, self.grid_times, self.grid_values[:, 0]))
            sizes = self.jump_sizes[: bisect_right(self.jump_times, t)]
        if self.n_jumps:
            jumps = 0.0
            for size in sizes[:, 0].tolist():
                jumps += size
            value += jumps
        return value

    def event_times(self) -> np.ndarray:
        """Sorted union of sample and jump times (always contains 0 and T)."""
        return np.unique(np.concatenate([self.grid_times, self.jump_times]))


# ---------------------------------------------------------------------------
# blocks of paths and the path invariants
# ---------------------------------------------------------------------------


class _Paths(NamedTuple):
    """Paths on one sample grid, jumps stored flat (CSR by path).

    Path i is ``CadlagPath(horizon, *paths.arrays(i))``; a single path is the
    block with one row of grid values and offsets ``[0, n_jumps]``.
    """

    grid_times: np.ndarray  # (G,) shared by the block
    grid_values: np.ndarray  # (n, G, d)
    offsets: np.ndarray  # (n+1,) start of each path's jumps in the flat arrays
    jump_times: np.ndarray  # (J,)
    jump_sizes: np.ndarray  # (J, d)

    def arrays(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The four arrays of path i, in :class:`CadlagPath` field order."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return self.grid_times, self.grid_values[i], self.jump_times[lo:hi], self.jump_sizes[lo:hi]

    def terminal_values(self) -> np.ndarray:
        """The value of every path at the horizon, shape (n, d), in the float order of ``values_at``.

        Jump sizes are added in jump order from 0, one jump rank of the whole
        block at a time, then the continuous part.
        """
        counts = np.diff(self.offsets)
        jumps = np.zeros((counts.shape[0], self.jump_sizes.shape[1]))
        for k in range(int(counts.max(initial=0))):
            has = counts > k
            jumps[has] += self.jump_sizes[self.offsets[:-1][has] + k]
        return self.grid_values[:, -1] + jumps


def _same_paths(paths: _Paths, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether path a[k] of a block equals its path b[k], for each k.

    The paths share the block's grid times. They are equal when their grid
    values, their jump counts, and their jump times and sizes, jump by jump
    in path order, compare equal with ``==``. Unlike a comparison of bytes
    this takes -0.0 for 0.0, which :class:`glevy.uncertainty.DiscreteLevyMeasure`
    and the atom merge already treat as one point.
    """
    lo_a, lo_b = paths.offsets[a], paths.offsets[b]
    counts = paths.offsets[a + 1] - lo_a
    same = (counts == paths.offsets[b + 1] - lo_b) & (paths.grid_values[a] == paths.grid_values[b]).all(axis=(1, 2))
    # the jumps of the pairs still equal, each against the partner of its rank
    m = np.where(same, counts, 0)
    pair = np.repeat(np.arange(a.shape[0]), m)
    rank = np.arange(pair.shape[0]) - np.repeat(np.cumsum(m) - m, m)
    ja, jb = lo_a[pair] + rank, lo_b[pair] + rank
    differ = (paths.jump_times[ja] != paths.jump_times[jb]) | (paths.jump_sizes[ja] != paths.jump_sizes[jb]).any(axis=1)
    same[pair[differ]] = False
    return same


def _check_paths(paths: _Paths, horizon: float) -> None:
    """Refuse a block that holds a path breaking an invariant of :class:`CadlagPath`.

    The refusal names the first invariant, in the order of :func:`_faults`,
    broken by the lowest-index bad path. No numpy warning escapes.
    """
    first, message = paths.offsets.shape[0] - 1, None
    with np.errstate(all="ignore"):
        for text, bad in _faults(paths, float(horizon)):
            if isinstance(bad, np.ndarray):
                bad = bad[:first]
                if bad.any():
                    first, message = int(bad.argmax()), text
            elif bad:  # a fault of the whole block flags every path
                first, message = 0, text
            if first == 0:  # later checks may index arrays the earlier ones refused
                break
    if message is not None:
        raise InvalidInputError(message)


def _faults(paths: _Paths, T: float):
    """(message, bad) per path invariant in check order; bad flags each path, or is one flag for the whole block."""
    gt, gv, offsets, jt, js = paths
    n = offsets.shape[0] - 1
    yield "horizon must be positive and finite", not (T > 0.0 and math.isfinite(T))
    yield "grid needs at least the two endpoint samples", gt.shape[0] < 2 or gv.shape[:2] != (n, gt.shape[0])
    yield "grid values must be (G, d) per path", gv.ndim != 3
    yield "sample grid must start at 0 and end at the horizon", gt.item(0) != 0.0 or gt.item(-1) != T
    yield "sample grid times must be strictly increasing", bool((gt[1:] - gt[:-1] <= 0.0).any())
    yield "paths start at zero", (gv[:, 0] != 0.0).any(axis=1)
    yield "jump times and sizes must have equal length", jt.shape[0] != js.shape[0]

    def paths_with(jump_bad: np.ndarray) -> np.ndarray | bool:
        """The paths owning a flagged jump; False when none is flagged."""
        jumps = jump_bad.nonzero()[0]
        if not jumps.shape[0]:
            return False
        bad = np.zeros(n, dtype=bool)
        bad[np.searchsorted(offsets, jumps, side="right") - 1] = True
        return bad

    # differences, not comparisons: two infinite times give NaN, not a step
    # back. A step back counts within a path, not onto the first jump of the next
    back = np.zeros(jt.shape[0] + 1, dtype=bool)
    back[1:-1] = jt[1:] - jt[:-1] <= 0.0
    back[offsets[:-1]] = False
    yield "jump times must be strictly increasing", paths_with(back[:-1])
    # the times between a path's first and last jump increase, or are not
    # finite, which the last check refuses; when every time lies in the
    # range, no first or last one lies outside
    outside = False
    if jt.shape[0] and not (jt.min() > 0.0 and jt.max() <= T):
        has = offsets[1:] > offsets[:-1]
        outside = np.zeros(n, dtype=bool)
        outside[has] = (jt[offsets[:-1][has]] <= 0.0) | (jt[offsets[1:][has] - 1] > T)
    yield "jump times must lie in (0, horizon]", outside
    yield "jump sizes must be nonzero", paths_with((js == 0.0).all(axis=1))
    yield "jump dimension must match sample dimension", js.shape[1] != gv.shape[2] and offsets[1:] > offsets[:-1]
    yield "path data must be finite", (not np.isfinite(gt).all()) or (
        ~np.isfinite(gv).all(axis=(1, 2)) | paths_with(~np.isfinite(jt) | ~np.isfinite(js).all(axis=1))
    )


# ---------------------------------------------------------------------------
# jump functionals
# ---------------------------------------------------------------------------


def prm_count(path: CadlagPath, s: float, t: float, region: Region) -> int:
    """Number of jumps with time in (s, t] and size in the region."""
    if not (0.0 <= s < t <= path.horizon):
        raise InvalidInputError(f"need 0 <= s < t <= horizon, got s={s}, t={t}")
    if path.n_jumps == 0:
        return 0
    in_window = (path.jump_times > s) & (path.jump_times <= t)
    if not in_window.any():
        return 0
    return int(np.count_nonzero(region.contains(path.jump_sizes[in_window])))


def poisson_integral(path: CadlagPath, phi: Callable, region: Region, t: float | None = None):
    """Sum of phi over jump sizes in the region with jump time <= t.

    phi may be scalar- or vector-valued; the return type follows phi (float
    for scalar phi). The values are summed in jump order. A non-finite value
    of phi raises :class:`EvaluationError`.
    """
    if t is None:
        t = path.horizon
    if not (0.0 <= t <= path.horizon):
        raise InvalidInputError("t must lie in [0, horizon]")
    if path.n_jumps == 0:
        return 0.0
    mask = (path.jump_times <= t) & region.contains(path.jump_sizes)
    if not mask.any():
        return 0.0
    total = np.cumsum(_evaluate(phi, path.jump_sizes[mask], "integrand"), axis=0)[-1]
    return float(total) if total.ndim == 0 else total


class JumpTimes(NamedTuple):
    """k-th passage times through an open region and through its closure.

    ``math.inf`` encodes "never". The closure variant counts boundary hits as
    well, so ``tau_closure <= tau`` always.
    """

    tau: float
    tau_closure: float


def jump_times(path: CadlagPath, region: Region, k: int) -> JumpTimes:
    """Time of the k-th jump with size in the open region A / in closure(A).

    k must be an integer of at least 1; a bool or a float is refused.
    """
    if not _is_integer(k) or k < 1:
        raise InvalidInputError(f"k must be a positive integer, got {k!r}")
    if not region.is_open():
        raise InvalidInputError("jump passage times require an open region")
    closure = region.closure()
    if np.zeros(path.dim if region.dim is None else region.dim) in closure:
        raise InvalidInputError("region closure must avoid the origin")

    def kth(hits: np.ndarray) -> float:
        times = path.jump_times[hits]
        return float(times[k - 1]) if times.shape[0] >= k else math.inf

    if path.n_jumps == 0:
        return JumpTimes(math.inf, math.inf)
    return JumpTimes(
        tau=kth(region.contains(path.jump_sizes)),
        tau_closure=kth(closure.contains(path.jump_sizes)),
    )


# ---------------------------------------------------------------------------
# oscillation moduli
# ---------------------------------------------------------------------------


class ModulusPair(NamedTuple):
    w_prime: float
    w_second: float


def _skeleton(path: CadlagPath) -> tuple[np.ndarray, np.ndarray]:
    times = path.event_times()
    values = path.values_at(times)
    return times, values


def cadlag_modulus(path: CadlagPath, delta: float) -> ModulusPair:
    """The pair (w', w'') of cadlag oscillation moduli at window size delta.

    w'(delta) is the infimum over partitions of [0, T] with mesh strictly
    greater than delta of the largest oscillation within a half-open cell;
    partition nodes are restricted to event times (plus the endpoints), which
    is what makes the dynamic program finite. w''(delta) is the largest
    two-sided oscillation min(|x(t) - x(t1)|, |x(t2) - x(t)|) over event-time
    triples t1 <= t <= t2 with t2 - t1 <= delta. Both are exact for paths that
    are piecewise constant between events; with a sampled diffusive part they
    are upper bounds relative to the sampled skeleton.

    delta must lie strictly between 0 and the horizon.
    """
    if not (0.0 < delta < path.horizon):
        raise InvalidInputError("delta must lie in (0, horizon)")
    times, values = _skeleton(path)
    m = times.shape[0]

    # w'': the triples are (i, i + a, i + a + b) with a, b >= 1 and
    # a + b <= span[i], the largest offset o with times[i + o] within delta of
    # times[i]. For a fixed pair (i, i + a) the best third point is the
    # farthest one, a running maximum over b of the band of distances
    # dist[o - 1, i] = |x_{i+o} - x_i|; min and max are exact, so this is the
    # value of the loop over all triples
    span = np.searchsorted(times, times + delta, side="right") - 1 - np.arange(m)
    width = int(span.max())
    w2 = 0.0
    if width >= 2:
        dist = np.zeros((width - 1, m))
        for o in range(1, width):
            dist[o - 1, : m - o] = np.linalg.norm(values[o:] - values[:-o], axis=1)
        farthest = np.maximum.accumulate(dist, axis=0)
        for a in range(1, width):
            i = np.flatnonzero(span > a)
            right = farthest[span[i] - a - 1, i + a]
            w2 = max(w2, float(np.max(np.minimum(dist[a - 1, i], right))))

    # w': dynamic program over event-time partition nodes, half-open cells;
    # row r of the reversed running extrema is the range of values[j-1-r:j],
    # the cell [times[j-1-r], times[j])
    INF = math.inf
    dp = np.full(m, INF)
    dp[0] = 0.0
    for j in range(1, m):
        cells = values[j - 1 :: -1]
        hi = np.maximum.accumulate(cells, axis=0)
        lo = np.minimum.accumulate(cells, axis=0)
        osc = np.linalg.norm(hi - lo, axis=1) if path.dim > 1 else hi[:, 0] - lo[:, 0]
        before = dp[j - 1 :: -1]
        ok = (times[j] - times[j - 1 :: -1] > delta) & (before < INF)
        if ok.any():
            dp[j] = np.min(np.maximum(before[ok], osc[ok]))
    w1 = float(dp[m - 1])
    return ModulusPair(w_prime=w1, w_second=float(w2))


# ---------------------------------------------------------------------------
# discretization and distances
# ---------------------------------------------------------------------------


def discretize_tn(path: CadlagPath, n: int) -> CadlagPath:
    """Freeze the path at grid values: constant path.value(kT/n) on each cell.

    The result is piecewise constant with value path.value(kT/n) on
    [kT/n, (k+1)T/n) and path.value(T) at the horizon, encoded as a pure-jump
    path whose jumps sit at the grid times where the frozen value changes.
    """
    if n < 1:
        raise InvalidInputError("n must be a positive integer")
    T = path.horizon
    knots = np.linspace(0.0, T, n + 1)
    vals = path.values_at(knots)
    steps = np.diff(vals, axis=0)
    keep = _nonzero_rows(steps)
    return CadlagPath(T, np.array([0.0, T]), np.zeros((2, path.dim)), knots[1:][keep], steps[keep])


def _sup_difference(a: CadlagPath, b: CadlagPath, anchors_x: np.ndarray, anchors_y: np.ndarray) -> float:
    """sup_t |a(t) - b(lambda(t))| for the piecewise-linear time change."""
    pre_b = np.interp(b.event_times(), anchors_y, anchors_x)
    qs = np.unique(np.concatenate([a.event_times(), pre_b]))
    qs = qs[(qs >= 0.0) & (qs <= a.horizon)]
    av = a.values_at(qs)
    bv = b.values_at(np.clip(np.interp(qs, anchors_x, anchors_y), 0.0, b.horizon))
    return float(np.max(np.linalg.norm(av - bv, axis=1)))


def skorohod_distance_upper(a: CadlagPath, b: CadlagPath, max_aligned: int = 8) -> float:
    """Upper bound on the Skorohod J1 distance between two equal-horizon paths.

    Candidate time changes are the identity and, for each m up to
    ``max_aligned``, the piecewise-linear map aligning the m largest jumps of
    each path (paired in time order, keeping only pairs that preserve strict
    monotonicity). The bound is the best candidate's
    max(|lambda - id|_sup, |a - b o lambda|_sup); the suprema are evaluated on
    the event skeleton, exactly for piecewise-constant paths.
    """
    if a.horizon != b.horizon:
        raise InvalidInputError("paths must share the horizon")
    T = a.horizon

    def top_times(p: CadlagPath, m: int) -> np.ndarray:
        if p.n_jumps == 0 or m == 0:
            return np.empty(0)
        mags = np.linalg.norm(p.jump_sizes, axis=1)
        order = np.argsort(-mags, kind="stable")[:m]
        return np.sort(p.jump_times[order])

    candidates: list[tuple[np.ndarray, np.ndarray]] = [(np.array([0.0, T]), np.array([0.0, T]))]
    for m in range(1, min(a.n_jumps, b.n_jumps, max_aligned) + 1):
        ta = top_times(a, m)
        tb = top_times(b, m)
        xs, ys = [0.0], [0.0]
        for x, y in zip(ta, tb):
            if x > xs[-1] and y > ys[-1] and x < T and y < T:
                xs.append(float(x))
                ys.append(float(y))
        xs.append(T)
        ys.append(T)
        if len(xs) > 2:
            candidates.append((np.array(xs), np.array(ys)))

    best = math.inf
    for xs, ys in candidates:
        warp = float(np.max(np.abs(ys - xs)))
        best = min(best, max(warp, _sup_difference(a, b, xs, ys)))
    return best


def counterexample_family(t: float, x: float, horizon: float) -> CadlagPath:
    """Deterministic single-jump path: jump of size x at time t, flat elsewhere.

    Families (t_n, x_n) -> (t, x) built from this converge in the Skorohod
    metric while single-atom jump functionals of them can stay apart, which is
    the standard probe for quasi-continuity of a jump integrand.
    """
    if not (0.0 < t < horizon):
        raise InvalidInputError("jump time must lie strictly inside (0, horizon)")
    if x == 0.0:
        raise InvalidInputError("jump size must be nonzero")
    return CadlagPath.from_jumps([(t, x)], horizon)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def dumps_records(path: CadlagPath) -> str:
    """Flat JSON-lines encoding: header, then sample and jump records."""
    lines = [json.dumps({"kind": "header", "horizon": path.horizon, "dim": path.dim})]
    for t, v in zip(path.grid_times, path.grid_values):
        lines.append(json.dumps({"kind": "sample", "time": float(t), "value": [float(x) for x in v]}))
    for t, s in zip(path.jump_times, path.jump_sizes):
        lines.append(json.dumps({"kind": "jump", "time": float(t), "size": [float(x) for x in s]}))
    return "\n".join(lines) + "\n"


def loads_records(text: str) -> CadlagPath:
    horizon = None
    dim = None
    samples: list[tuple[float, list[float]]] = []
    jumps: list[tuple[float, list[float]]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        kind = rec.get("kind")
        if kind == "header":
            horizon = float(rec["horizon"])
            dim = int(rec["dim"])
        elif kind == "sample":
            samples.append((float(rec["time"]), rec["value"]))
        elif kind == "jump":
            jumps.append((float(rec["time"]), rec["size"]))
        else:
            raise InvalidInputError(f"unknown record kind {kind!r}")
    if horizon is None:
        raise InvalidInputError("record stream is missing the header")
    samples.sort(key=lambda r: r[0])
    jumps.sort(key=lambda r: r[0])
    gt = np.array([s[0] for s in samples])
    gv = np.array([s[1] for s in samples], dtype=float).reshape(len(samples), dim)
    jt = np.array([j[0] for j in jumps])
    js = np.array([j[1] for j in jumps], dtype=float).reshape(len(jumps), dim)
    return CadlagPath(horizon, gt, gv, jt, js)


def write_records(path: CadlagPath, fp: TextIO | str) -> None:
    if isinstance(fp, str):
        with open(fp, "w") as fh:
            fh.write(dumps_records(path))
    else:
        fp.write(dumps_records(path))


def read_records(fp: TextIO | str) -> CadlagPath:
    if isinstance(fp, str):
        with open(fp) as fh:
            return loads_records(fh.read())
    return loads_records(fp.read())
