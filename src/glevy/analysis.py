"""Compensation, derived uncertainty sets, and numerical martingale checks.

The jump part of the process has worst-case mean t * sup over v of the first
moment of v. Subtracting that linear drift produces the compensated process
Y, which is a martingale under the sublinear expectation but, unless the
measure family is a singleton, -Y is not: the one-sided compensation leaves
an asymmetry of exactly t * (sup mean - inf mean). Attaching instead a
per-measure drift of minus that measure's own mean (the symmetric set built
by :func:`symmetric_compensated_set`) removes the asymmetry at the price of
living on a different uncertainty set. :func:`martingale_check` quantifies
both effects by evaluating the worst-case expectation of the increment and
of its negation with the finite difference solver.

Also here: pushforward families under a mark transformation, product sets
that route jumps into coordinate blocks by size region, and the pathwise
continuous/jump decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidInputError, UnsupportedError, _evaluate
from .paths import CadlagPath
from .pide import Grid1D, solve_ipde
from .regions import Region
from .uncertainty import DiscreteLevyMeasure, LevyTriple, UncertaintySet, _atom_table, _mask_in, _measure_family, _merge_atoms

__all__ = [
    "ProcessSpec",
    "mean_of_jump_part",
    "compensate",
    "symmetric_compensated_set",
    "pushforward_set",
    "restricted_product_set",
    "decompose",
    "MartingaleCheckResult",
    "martingale_check",
]

_KINDS = (
    "rawJumpPart",
    "compensatedJumpPart",
    "symmetricCompensated",
    "poissonIntegral",
    "continuousPart",
)


@dataclass(frozen=True)
class ProcessSpec:
    """A named process built over an uncertainty set.

    ``poissonIntegral`` additionally carries the integrand and the size
    region; the other kinds must not.
    """

    kind: str
    uset: UncertaintySet
    phi: Callable | None = None
    region: Region | None = None
    phi_name: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"unknown process kind {self.kind!r}")
        if self.kind == "poissonIntegral":
            if self.phi is None or self.region is None:
                raise InvalidInputError("poissonIntegral requires an integrand and a region")
        elif self.phi is not None or self.region is not None:
            raise InvalidInputError(f"{self.kind} does not take an integrand or region")

    def as_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "poissonIntegral":
            out["phi"] = self.phi_name if self.phi_name is not None else "<callable>"
            out["region"] = self.region.as_dict()
        return out


def mean_of_jump_part(uset, t: float) -> np.ndarray:
    """Worst-case mean of the jump part at time t, t * sup of first moments.

    For several dimensions the supremum of a vector is well-defined only when
    some measure dominates every other coordinatewise; anything else is
    refused rather than silently maximized coordinate by coordinate.
    """
    table = _atom_table(uset)
    if t < 0.0:
        raise InvalidInputError("time must be nonnegative")
    means = np.column_stack([table.row_sums(z) for z in table.atoms.T])
    if means.shape[1] == 1:
        return t * means.max(axis=0)
    dominant = (means[:, None, :] >= means[None, :, :] - 1e-15).all(axis=(1, 2))
    if not dominant.any():
        raise UnsupportedError(
            "no measure dominates the family coordinatewise; the vector supremum is undefined"
        )
    return t * means[int(np.argmax(dominant))]


def compensate(path_or_spec, uset):
    """Subtract the worst-case jump-part drift t * sup-mean.

    A path is treated as a realization of the jump part of ``uset`` and
    returned with the linear drift removed from its continuous skeleton. A
    ``rawJumpPart`` process spec is returned retagged as
    ``compensatedJumpPart``; its set is the spec's own, and ``uset`` is not read.
    """
    if isinstance(path_or_spec, ProcessSpec):
        if path_or_spec.kind != "rawJumpPart":
            raise InvalidInputError(f"cannot compensate a {path_or_spec.kind} process")
        mean_of_jump_part(path_or_spec.uset, 1.0)  # validates the sup-mean exists
        return ProcessSpec("compensatedJumpPart", path_or_spec.uset)
    path: CadlagPath = path_or_spec
    m = mean_of_jump_part(uset, 1.0)
    if m.shape[0] != path.dim:
        raise InvalidInputError("path dimension does not match the uncertainty set")
    new_values = path.grid_values - np.outer(path.grid_times, m)
    return CadlagPath(path.horizon, path.grid_times, new_values, path.jump_times, path.jump_sizes)


def symmetric_compensated_set(family):
    """The set {(v, drift -mean(v), Q=0)}: each measure compensates itself.

    An empty family maps to an empty tuple (there is no triple to build).
    """
    triples = tuple(LevyTriple(m, -m.mean, np.zeros((m.dim, m.dim))) for m in _measure_family(family))
    return UncertaintySet(triples) if triples else ()


def pushforward_set(family, phi: Callable, region: Region | None = None) -> list[DiscreteLevyMeasure]:
    """Image measures v o phi^{-1} restricted to atoms inside the region.

    Atoms are mapped through phi, and images within 1e-12 of the origin are
    dropped (a jump measure puts no mass at zero). The other images are
    merged by weight addition wherever two lie within 1e-12 of each other
    (max norm), so a chain of images, each within 1e-12 of another, becomes
    one atom at its lexicographically first image, in any dimension
    (:func:`~glevy.uncertainty._merge_atoms`). A measure with no image left
    is empty, in the dimension of the images (of the family when no atom
    lies in the region). A non-finite image raises :class:`EvaluationError`.
    """
    table = _atom_table(family)
    inside = table.restrict(_mask_in(table.atoms, region))
    points = inside.atoms
    images = _evaluate(phi, points, "mark map").reshape(points.shape[0], -1) if points.shape[0] else points
    keep = np.linalg.norm(images, axis=1) > 1e-12
    kept = inside.restrict(keep)
    # each measure's images in its own atom order, merged as one measure
    ends = np.cumsum(np.bincount(kept.row, minlength=kept.n_measures))
    pieces = zip(np.split(images[keep][kept.column], ends[:-1]), np.split(kept.weight, ends[:-1]))
    dim = images.shape[1]
    return [_merge_atoms(pts, ws, 1e-12) if ws.size else DiscreteLevyMeasure.empty(dim) for pts, ws in pieces]


def restricted_product_set(uset: UncertaintySet, regions) -> UncertaintySet:
    """Route jumps into coordinate blocks by size region.

    Given disjoint regions A_1..A_n with 0 outside every closure, each triple
    (v, p, Q) maps to a triple on R^{d(n+1)}: an atom lands in block i when it
    belongs to A_i and in block 0 otherwise, drift and covariance sit in
    block 0. Summing the block marginals recovers v exactly.
    """
    regions = list(regions)
    if not regions:
        return uset
    d = uset.dim
    n = len(regions)
    for i, a in enumerate(regions):
        if not isinstance(a, Region):
            raise InvalidInputError("regions must be Region instances")
        if np.zeros(d) in a.closure():
            raise InvalidInputError(f"region {i} has the origin in its closure")
    for i in range(n):
        for j in range(i + 1, n):
            if regions[i].overlaps(regions[j]):
                raise InvalidInputError(f"regions {i} and {j} overlap")

    D = d * (n + 1)
    triples = []
    for t in uset:
        m = t.measure
        if m.n_atoms:
            block = np.zeros(m.n_atoms, dtype=int)
            for i, a in enumerate(regions):
                hit = a.contains(m.atoms)
                block[hit] = i + 1
            atoms = np.zeros((m.n_atoms, D))
            for k in range(m.n_atoms):
                b = block[k]
                atoms[k, b * d : (b + 1) * d] = m.atoms[k]
            measure = DiscreteLevyMeasure(atoms, m.weights.copy())
        else:
            measure = DiscreteLevyMeasure.empty(D)
        drift = np.zeros(D)
        drift[:d] = t.drift
        cov = np.zeros((D, D))
        cov[:d, :d] = t.cov_root
        triples.append(LevyTriple(measure, drift, cov))
    return UncertaintySet(tuple(triples))


def decompose(path: CadlagPath) -> tuple[CadlagPath, CadlagPath]:
    """Split a path into (continuous part, pure-jump part).

    The jump part carries every jump and is flat between them; the continuous
    part keeps the interpolation skeleton. Their sum reproduces the input at
    every sample and jump time exactly.
    """
    xc = CadlagPath(
        path.horizon,
        path.grid_times,
        path.grid_values,
        np.empty(0),
        np.empty((0, path.dim)),
    )
    xd = CadlagPath(
        path.horizon,
        np.array([0.0, path.horizon]),
        np.zeros((2, path.dim)),
        path.jump_times,
        path.jump_sizes,
    )
    return xc, xd


class MartingaleCheckResult(NamedTuple):
    max_deviation: float
    symmetric_deviation: float
    tol: float
    is_martingale: bool
    is_symmetric: bool
    scheme_error: float

    def as_dict(self) -> dict:
        return {
            "maxDeviation": self.max_deviation,
            "symmetricDeviation": self.symmetric_deviation,
            "tol": self.tol,
            "isMartingale": self.is_martingale,
            "isSymmetric": self.is_symmetric,
            "schemeError": self.scheme_error,
        }


def _increment_set(spec: ProcessSpec) -> UncertaintySet:
    """Uncertainty set whose process matches the spec's increments in law."""
    if spec.kind == "rawJumpPart":
        return UncertaintySet.from_measures(spec.uset.measures)
    if spec.kind == "compensatedJumpPart":
        shift = mean_of_jump_part(spec.uset, 1.0)
        return UncertaintySet(
            tuple(LevyTriple(m, -shift, np.zeros((m.dim, m.dim))) for m in spec.uset.measures)
        )
    if spec.kind == "symmetricCompensated":
        return symmetric_compensated_set(spec.uset.measures)
    raise InvalidInputError(f"martingale check does not support kind {spec.kind!r}")


def martingale_check(
    spec: ProcessSpec,
    s: float,
    t: float,
    grid: Grid1D,
    tol: float | None = None,
) -> MartingaleCheckResult:
    """Numerically test the martingale identity over the window (s, t].

    By stationarity the conditional identity reduces to worst-case
    expectations of the increment M_t - M_s and of its negation, both
    computed with the finite difference solver started from the identity
    payoff. The default tolerance is max(2 * scheme error estimate, 1e-3);
    the process is flagged a martingale when the forward deviation passes and
    symmetric when both directions do.
    """
    if not (0.0 <= s < t):
        raise InvalidInputError("need 0 <= s < t")
    eff = _increment_set(spec)
    if eff.dim != 1:
        raise UnsupportedError("martingale checks run on one-dimensional processes")
    duration = t - s
    # only the final layers are read: keep the first and last
    plus = solve_ipde(lambda x: x, eff, grid, horizon=duration, max_rows=2)
    minus = solve_ipde(lambda x: -x, eff, grid, horizon=duration, max_rows=2)
    dev_plus = abs(plus.value_at_zero())
    dev_minus = abs(minus.value_at_zero())
    scheme_err = max(
        plus.diagnostics["scheme_error_estimate"], minus.diagnostics["scheme_error_estimate"]
    )
    if tol is None:
        tol = max(2.0 * scheme_err, 1e-3)
    return MartingaleCheckResult(
        max_deviation=float(dev_plus),
        symmetric_deviation=float(dev_minus),
        tol=float(tol),
        is_martingale=bool(dev_plus <= tol),
        is_symmetric=bool(dev_plus <= tol and dev_minus <= tol),
        scheme_error=float(scheme_err),
    )
