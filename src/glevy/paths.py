"""Cadlag sample paths, their jump functionals and path-space metrics.

A path is stored as a continuous part sampled on a time grid (linear
interpolation between samples) plus an explicit list of jumps, so the jump
measure of the path is known exactly rather than inferred from increments:

    value(t) = interp(grid)(t) + sum of jump sizes with jump time <= t.

Jumps act at their time stamp (right-continuous convention) and the path
starts at zero. On top of this representation the module provides

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
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import InvalidInputError, _evaluate
from .regions import Region

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
        if not (T > 0.0 and math.isfinite(T)):
            raise InvalidInputError("horizon must be positive and finite")
        gt = np.asarray(self.grid_times, dtype=float).reshape(-1)
        gv = np.asarray(self.grid_values, dtype=float)
        if gv.ndim == 1:
            gv = gv.reshape(-1, 1)
        if gv.shape[0] != gt.shape[0] or gt.shape[0] < 2:
            raise InvalidInputError("grid needs at least the two endpoint samples")
        if gt[0] != 0.0 or gt[-1] != T:
            raise InvalidInputError("sample grid must start at 0 and end at the horizon")
        if np.any(np.diff(gt) <= 0.0):
            raise InvalidInputError("sample grid times must be strictly increasing")
        if np.any(gv[0] != 0.0):
            raise InvalidInputError("paths start at zero")
        jt = np.asarray(self.jump_times, dtype=float).reshape(-1)
        js = np.asarray(self.jump_sizes, dtype=float)
        if js.ndim == 1:
            js = js.reshape(-1, 1)
        if js.shape[0] != jt.shape[0]:
            raise InvalidInputError("jump times and sizes must have equal length")
        if jt.shape[0]:
            if np.any(np.diff(jt) <= 0.0):
                raise InvalidInputError("jump times must be strictly increasing")
            if jt[0] <= 0.0 or jt[-1] > T:
                raise InvalidInputError("jump times must lie in (0, horizon]")
            if np.any(np.linalg.norm(js, axis=1) == 0.0):
                raise InvalidInputError("jump sizes must be nonzero")
            if js.shape[1] != gv.shape[1]:
                raise InvalidInputError("jump dimension must match sample dimension")
        if not (np.all(np.isfinite(gt)) and np.all(np.isfinite(gv)) and np.all(np.isfinite(jt)) and np.all(np.isfinite(js))):
            raise InvalidInputError("path data must be finite")
        object.__setattr__(self, "horizon", T)
        object.__setattr__(self, "grid_times", gt)
        object.__setattr__(self, "grid_values", gv)
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "jump_sizes", js)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _unchecked(
        cls, horizon: float, grid_times: np.ndarray, grid_values: np.ndarray, jump_times: np.ndarray, jump_sizes: np.ndarray
    ) -> "CadlagPath":
        """A path from data in the stored form that already meets every invariant.

        The caller guarantees a float horizon, float (G,) grid times, (G, d)
        grid values, (n,) jump times and (n, d) jump sizes that pass the
        checks of ``__post_init__``, which does not run.
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
    def from_jumps(jumps: Sequence[tuple[float, float]], horizon: float, dim: int = 1) -> "CadlagPath":
        """Pure-jump path from (time, size) pairs, d = 1 sizes."""
        jumps = sorted(jumps, key=lambda p: p[0])
        jt = np.array([p[0] for p in jumps], dtype=float)
        js = np.array([p[1] for p in jumps], dtype=float).reshape(-1, 1)
        if dim != 1 and js.shape[0]:
            raise InvalidInputError("from_jumps builds one-dimensional paths")
        z = CadlagPath.zero(horizon, dim)
        return CadlagPath(horizon, z.grid_times, z.grid_values, jt, js)

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
            cum = np.vstack([np.zeros(self.dim), np.cumsum(self.jump_sizes, axis=0)])
            idx = np.searchsorted(self.jump_times, ts, side="right")
            out += cum[idx]
        return out

    def value(self, t: float) -> np.ndarray:
        return self.values_at([t])[0]

    def scalar_value(self, t: float) -> float:
        if self.dim != 1:
            raise InvalidInputError("scalar_value requires a one-dimensional path")
        return float(self.value(t)[0])

    def event_times(self) -> np.ndarray:
        """Sorted union of sample and jump times (always contains 0 and T)."""
        return np.unique(np.concatenate([self.grid_times, self.jump_times]))


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
    """Time of the k-th jump with size in the open region A / in closure(A)."""
    if k < 1:
        raise InvalidInputError("k must be a positive integer")
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
    keep = np.linalg.norm(steps, axis=1) > 0.0
    z = CadlagPath.zero(T, path.dim)
    return CadlagPath(T, z.grid_times, z.grid_values, knots[1:][keep], steps[keep])


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
