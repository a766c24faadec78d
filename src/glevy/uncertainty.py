"""Uncertainty sets of Levy triples and operations on their jump-measure family.

A model is a triple (v, p, Q): a finite discrete Levy measure v (atoms away
from the origin with positive weights), a drift vector p and a covariance root
Q. An uncertainty set is a finite enumeration of such triples, either given
directly or produced by evaluating a parametric rule on a grid over a parameter
box. A family is read through one table of its distinct atoms z_k and its
weights W[j, k] = v_j({z_k}) (:func:`_atom_table`), and the worst-case
functionals are exact row maxima of it, with the user's function evaluated
once per distinct atom:

    capacity      c^V(A)        = max_j sum_{z_k in A} W[j, k]
    sup integral  sup_v
                  int_A phi dv  = max_j sum_{z_k in A} W[j, k] phi(z_k)
    uniform bound sup (int |z| v(dz) + |p| + tr QQ^T)

The PIDE stepper and every other functional of a family read the same
table. The module also builds the
measure-transport map used to realize a target v as the image of a reference
measure mu on (0, infinity): atoms are ranked by decreasing modulus and
assigned nested tail shells of mu whose masses telescope to the atom weights,
so the pushforward is exact by construction and jumps of size >= eps can only
come from reference marks bounded away from zero (the separation property).
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import InvalidInputError, UnsupportedError, _evaluate, _integer, _read
from .regions import Region

__all__ = [
    "DiscreteLevyMeasure",
    "LevyTriple",
    "UncertaintySet",
    "ValidationReport",
    "SupResult",
    "InverseSquareTail",
    "TransportMap",
    "Shell",
    "mass_layout",
    "validate",
    "v_capacity",
    "sup_integral",
    "transport_map",
    "uncertainty_set_from_config",
]


# ---------------------------------------------------------------------------
# measures and triples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteLevyMeasure:
    """Finite discrete measure sum_i w_i delta_{z_i} with z_i != 0, w_i > 0.

    ``atoms`` is an (n, d) array of pairwise distinct locations, ``weights`` a
    matching vector of strictly positive finite masses. The empty measure
    (n = 0) is allowed and represents zero jump activity.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms.reshape(-1, 1)
        if atoms.ndim != 2:
            raise InvalidInputError("atoms must form an (n, d) array")
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if weights.shape[0] != atoms.shape[0]:
            raise InvalidInputError("atoms and weights must have equal length")
        if not np.all(np.isfinite(atoms)):
            raise InvalidInputError("atom locations must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise InvalidInputError("weights must be finite and strictly positive")
        if atoms.shape[0] and np.any(np.linalg.norm(atoms, axis=1) == 0.0):
            raise InvalidInputError("atoms must avoid the origin")
        if atoms.shape[0] != np.unique(atoms, axis=0).shape[0]:
            raise InvalidInputError("atom locations must be pairwise distinct")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @staticmethod
    def from_pairs(pairs: Sequence[tuple[float, float]]) -> "DiscreteLevyMeasure":
        """One-dimensional constructor from (location, weight) pairs."""
        if len(pairs) == 0:
            return DiscreteLevyMeasure.empty(1)
        zs = np.array([p[0] for p in pairs], dtype=float)
        ws = np.array([p[1] for p in pairs], dtype=float)
        return DiscreteLevyMeasure(zs.reshape(-1, 1), ws)

    @staticmethod
    def delta(z, weight: float = 1.0) -> "DiscreteLevyMeasure":
        a = np.atleast_1d(np.asarray(z, dtype=float)).reshape(1, -1)
        return DiscreteLevyMeasure(a, np.array([weight]))

    @staticmethod
    def empty(dim: int = 1) -> "DiscreteLevyMeasure":
        return DiscreteLevyMeasure(np.empty((0, dim)), np.empty(0))

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def mean(self) -> np.ndarray:
        """First moment sum_i w_i z_i, a (d,) vector."""
        if self.n_atoms == 0:
            return np.zeros(self.dim)
        return self.weights @ self.atoms

    def mask_in(self, region: Region | None) -> np.ndarray:
        return _mask_in(self.atoms, region)

    def mass_in(self, region: Region | None) -> float:
        return float(self.weights[self.mask_in(region)].sum())

    def integrate(self, phi: Callable, region: Region | None = None) -> float:
        """sum over atoms in the region of phi(z) * w, phi scalar-valued.

        For d = 1 the atom is passed to phi as a float. A non-finite value
        of phi raises :class:`EvaluationError`.
        """
        return sup_integral(self, phi, region).value

    def restrict(self, region: Region | None) -> "DiscreteLevyMeasure":
        mask = self.mask_in(region)
        if not mask.any():
            return DiscreteLevyMeasure.empty(self.dim)
        return DiscreteLevyMeasure(self.atoms[mask], self.weights[mask])

    def same_as(self, other: "DiscreteLevyMeasure", tol: float = 1e-12) -> bool:
        """Equality of atom/weight tables up to reordering and tolerance."""
        if self.dim != other.dim or self.n_atoms != other.n_atoms:
            return False
        order_a = np.lexsort(self.atoms.T[::-1])
        order_b = np.lexsort(other.atoms.T[::-1])
        return bool(
            np.allclose(self.atoms[order_a], other.atoms[order_b], atol=tol, rtol=0.0)
            and np.allclose(self.weights[order_a], other.weights[order_b], atol=tol, rtol=0.0)
        )


def _merge_atoms(points: np.ndarray, weights: np.ndarray, tol: float) -> DiscreteLevyMeasure:
    """The measure with the given (n, d) points as atoms, near points merged.

    The points are sorted lexicographically and joined wherever two lie
    within ``tol`` of each other in the max norm. Each connected component
    of that graph becomes one atom, at its first point in sorted order,
    carrying the component's weights summed in that order. With ``tol = 0``
    only equal points merge; with ``tol > 0`` a chain of points, each within
    ``tol`` of another, merges into one atom however far apart its ends lie,
    in any dimension.
    """
    order = np.lexsort(points.T[::-1])
    points, weights = points[order], weights[order]
    n = points.shape[0]
    pairs = cKDTree(points).query_pairs(tol, p=np.inf, output_type="ndarray")
    graph = coo_matrix((np.ones(pairs.shape[0]), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    # labels number the components in the order of their first points
    _, labels = connected_components(graph, directed=False)
    _, first = np.unique(labels, return_index=True)
    return DiscreteLevyMeasure(points[first], np.bincount(labels, weights=weights))


def _vec(x, dim: int, name: str) -> np.ndarray:
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.shape == (1,) and dim > 1:
        a = np.full(dim, a[0])
    if a.shape != (dim,):
        raise InvalidInputError(f"{name} must be a scalar or a ({dim},) vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} must be finite")
    return a


def _mat(x, dim: int, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = np.eye(dim) * float(a)
    if a.shape != (dim, dim):
        raise InvalidInputError(f"{name} must be a scalar or a ({dim}, {dim}) matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} must be finite")
    return a


@dataclass(frozen=True)
class LevyTriple:
    """One model (v, p, Q): jump measure, drift vector, covariance root."""

    measure: DiscreteLevyMeasure
    drift: np.ndarray = 0.0
    cov_root: np.ndarray = 0.0

    def __post_init__(self):
        d = self.measure.dim
        object.__setattr__(self, "drift", _vec(self.drift, d, "drift"))
        object.__setattr__(self, "cov_root", _mat(self.cov_root, d, "cov_root"))

    @property
    def dim(self) -> int:
        return self.measure.dim

    @property
    def drift1(self) -> float:
        """Scalar drift, valid for d = 1."""
        return float(self.drift[0])

    @property
    def cov_root1(self) -> float:
        """Scalar covariance root, valid for d = 1."""
        return float(self.cov_root[0, 0])


@dataclass(frozen=True)
class UncertaintySet:
    """Finite enumeration of Levy triples.

    The measure family V is the projection onto first components, kept in
    enumeration order (duplicates are harmless for suprema). Construction from
    a parametric rule evaluates the rule on a full grid over the parameter box
    in row-major order over sorted parameter names, so enumeration order is
    reproducible.
    """

    triples: tuple[LevyTriple, ...]

    def __post_init__(self):
        triples = tuple(self.triples)
        if not triples:
            raise InvalidInputError("uncertainty set needs at least one triple")
        dims = {t.dim for t in triples}
        if len(dims) > 1:
            raise InvalidInputError(f"mixed dimensions in uncertainty set: {sorted(dims)}")
        object.__setattr__(self, "triples", triples)

    @staticmethod
    def from_measures(measures: Sequence[DiscreteLevyMeasure], drift=0.0, cov_root=0.0) -> "UncertaintySet":
        return UncertaintySet(tuple(LevyTriple(m, drift, cov_root) for m in measures))

    @staticmethod
    def from_rule(
        param_ranges: dict[str, tuple[float, float]],
        counts: dict[str, int],
        rule: Callable[..., LevyTriple],
    ) -> "UncertaintySet":
        names = sorted(param_ranges)
        axes = []
        for name in names:
            lo, hi = param_ranges[name]
            n = counts[name]
            if n < 1:
                raise InvalidInputError(f"grid count for {name!r} must be >= 1")
            axes.append(np.linspace(lo, hi, n) if n > 1 else np.array([0.5 * (lo + hi)]))
        triples = []
        for combo in itertools.product(*axes):
            triples.append(rule(**dict(zip(names, (float(c) for c in combo)))))
        return UncertaintySet(tuple(triples))

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return iter(self.triples)

    @property
    def dim(self) -> int:
        if not self.triples:
            raise InvalidInputError("empty uncertainty set has no dimension")
        return self.triples[0].dim

    @property
    def measures(self) -> list[DiscreteLevyMeasure]:
        return [t.measure for t in self.triples]

    @cached_property
    def drifts(self) -> np.ndarray:
        """(n_triples, d) drift of every triple, stacked once per set."""
        return np.stack([t.drift for t in self.triples])

    @cached_property
    def cov_roots(self) -> np.ndarray:
        """(n_triples, d, d) covariance root of every triple, stacked once per set."""
        return np.stack([t.cov_root for t in self.triples])


def _measure_family(family) -> list[DiscreteLevyMeasure]:
    if isinstance(family, UncertaintySet):
        return family.measures
    if isinstance(family, DiscreteLevyMeasure):
        return [family]
    return list(family)


class _AtomTable(NamedTuple):
    """A family's (K, d) distinct atoms in lexicographic order and its weights.

    Entry i says that measure ``row[i]`` puts ``weight[i]`` on atom
    ``column[i]``; the entries run measure by measure, each in its atom order.
    """

    atoms: np.ndarray
    row: np.ndarray
    column: np.ndarray
    weight: np.ndarray
    n_measures: int

    def row_sums(self, values) -> np.ndarray:
        """Each measure's sum of weight x value over its atoms, added in its atom order.

        ``values`` holds one value per distinct atom; a measure never reads
        the value at an atom it does not charge.
        """
        terms = self.weight * np.asarray(values, dtype=float)[self.column]
        return np.bincount(self.row, weights=terms, minlength=self.n_measures)

    def restrict(self, inside: np.ndarray) -> "_AtomTable":
        """The table of the atoms where the boolean ``inside`` holds, and of the entries on them."""
        entry = inside[self.column]
        column = (np.cumsum(inside) - 1)[self.column[entry]]
        return _AtomTable(self.atoms[inside], self.row[entry], column, self.weight[entry], self.n_measures)


def _atom_table(family) -> _AtomTable:
    """The atom table of a family; takes what :func:`_measure_family` takes.

    An empty family or one of mixed dimension raises :class:`InvalidInputError`.
    """
    ms = _measure_family(family)
    if not ms:
        raise InvalidInputError("measure family is empty")
    dims = sorted({m.dim for m in ms})
    if len(dims) > 1:
        raise InvalidInputError(f"mixed dimensions in measure family: {dims}")
    atoms, column = np.unique(np.concatenate([m.atoms for m in ms]), axis=0, return_inverse=True)
    row = np.repeat(np.arange(len(ms)), [m.n_atoms for m in ms])
    weight = np.concatenate([m.weights for m in ms])
    return _AtomTable(atoms, row, column.reshape(-1), weight, len(ms))


def _mask_in(atoms: np.ndarray, region: Region | None) -> np.ndarray:
    """Which of the (n, d) atoms lie in the region; every one when it is None."""
    if region is None or atoms.shape[0] == 0:
        return np.ones(atoms.shape[0], dtype=bool)
    return region.contains(atoms)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_j . b_j for every row of the (n, d) a (b is (d,) or (n, d)), each rounded as ``np.dot`` rounds."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


# ---------------------------------------------------------------------------
# worst-case functionals
# ---------------------------------------------------------------------------


class SupResult(NamedTuple):
    """Supremum value together with the first attaining enumeration index."""

    value: float
    argmax: int


def v_capacity(family, region: Region) -> SupResult:
    """sup_v v(A) over the measure family, exact; empty region gives 0."""
    table = _atom_table(family)
    masses = table.row_sums(_mask_in(table.atoms, region))
    return SupResult(float(masses.max()), int(masses.argmax()))


def sup_integral(family, phi: Callable, region: Region | None = None) -> SupResult:
    """sup_v sum_{z in A} phi(z) v({z}) over the family, exact finite max.

    A non-finite value of phi raises :class:`EvaluationError`.
    """
    table = _atom_table(family)
    inside = table.restrict(_mask_in(table.atoms, region))
    integrals = inside.row_sums(_evaluate(phi, inside.atoms, "integrand"))
    return SupResult(float(integrals.max()), int(integrals.argmax()))


@dataclass(frozen=True)
class ValidationReport:
    """Finiteness report for the three standing integrability suprema.

    ``uniform_bound`` is sup over triples of int |z| dv + |p| + tr QQ^T;
    ``small_jump_moment`` is sup_v of the |z|^q mass on 0 < |z| < 1;
    ``large_jump_moment`` is sup_v of the |z|^p mass on |z| >= 1. Non-finite
    values are reported through the flags rather than raised.
    """

    q: float
    p: float
    uniform_bound: float
    small_jump_moment: float
    large_jump_moment: float
    uniform_bound_ok: bool
    small_jump_ok: bool
    large_jump_ok: bool

    @property
    def ok(self) -> bool:
        return self.uniform_bound_ok and self.small_jump_ok and self.large_jump_ok

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "p": self.p,
            "uniform_bound": self.uniform_bound,
            "small_jump_moment": self.small_jump_moment,
            "large_jump_moment": self.large_jump_moment,
            "uniform_bound_ok": self.uniform_bound_ok,
            "small_jump_ok": self.small_jump_ok,
            "large_jump_ok": self.large_jump_ok,
            "ok": self.ok,
        }


def validate(uset: UncertaintySet, q: float, p: float) -> ValidationReport:
    """Evaluate the three uniform moment suprema and flag non-finite ones.

    q must lie in (0, 1) (small-jump moment exponent) and p must exceed 1
    (large-jump moment exponent). An empty uncertainty set is invalid input.
    """
    if len(uset) == 0:
        raise InvalidInputError("cannot validate an empty uncertainty set")
    if not (0.0 < q < 1.0):
        raise InvalidInputError(f"q must lie in (0, 1), got {q}")
    if not (p > 1.0):
        raise InvalidInputError(f"p must exceed 1, got {p}")

    table = _atom_table(uset)
    r = np.linalg.norm(table.atoms, axis=1)
    small_atom = r < 1.0
    drifts = uset.drifts
    roots = uset.cov_roots
    with np.errstate(over="ignore"):
        trace = np.trace(roots @ roots.transpose(0, 2, 1), axis1=1, axis2=2)
        sizes = table.row_sums(r) + np.sqrt(_row_dots(drifts, drifts)) + trace
        small_moments = table.row_sums(np.where(small_atom, r**q, 0.0))
        large_moments = table.row_sums(np.where(small_atom, 0.0, r**p))
    uniform = float(sizes.max())
    small = float(small_moments.max())
    large = float(large_moments.max())

    return ValidationReport(
        q=q,
        p=p,
        uniform_bound=uniform,
        small_jump_moment=small,
        large_jump_moment=large,
        uniform_bound_ok=bool(math.isfinite(uniform)),
        small_jump_ok=bool(math.isfinite(small)),
        large_jump_ok=bool(math.isfinite(large)),
    )


# ---------------------------------------------------------------------------
# transport from a reference measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InverseSquareTail:
    """Reference measure on (0, infinity) with density z^-2.

    Infinite total mass near the origin and tail function mu((eta, inf)) =
    1/eta, which is strictly decreasing with the explicit inverse 1/m. This is
    the default base for measure transport.
    """

    def tail(self, eta: float) -> float:
        if eta <= 0.0:
            return math.inf
        return 1.0 / eta

    def inverse_tail(self, mass: float) -> float:
        if mass <= 0.0:
            return math.inf
        return 1.0 / mass

    def describe(self) -> str:
        return "density z^-2 on (0, inf)"


class Shell(NamedTuple):
    """Half-open reference shell (lo, hi] mapped to a single target atom."""

    lo: float
    hi: float
    target: float
    weight: float


@dataclass(frozen=True)
class TransportMap:
    """Map g from (0, infinity) onto the atoms of a target measure.

    Atoms are ranked by decreasing modulus; the k-th atom receives the tail
    shell whose reference mass equals its weight, so shells are nested and the
    preimage of any modulus threshold is again a tail. Points outside every
    shell map to 0 (no jump).
    """

    base: InverseSquareTail
    shells: tuple[Shell, ...]

    def __call__(self, y) -> np.ndarray | float:
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.zeros_like(ys)
        for sh in self.shells:
            mask = (ys > sh.lo) & (ys <= sh.hi)
            out[mask] = sh.target
        return float(out[0]) if np.asarray(y).ndim == 0 else out

    @property
    def inner_radius(self) -> float:
        """Smallest shell bound; reference marks at or below it map to 0."""
        return self.shells[-1].lo if self.shells else math.inf

    def preimage_mass(self, target: float) -> float:
        """Reference mass of g^-1({target}), by exact tail arithmetic."""
        total = 0.0
        for sh in self.shells:
            if sh.target == target:
                total += self.base.tail(sh.lo) - self.base.tail(sh.hi)
        return total

    def separation_radius(self, eps: float) -> float:
        """Largest eta with g^-1({|z| >= eps}) contained in (eta, infinity)."""
        if eps <= 0.0:
            raise InvalidInputError("eps must be positive")
        eta = math.inf
        for sh in self.shells:
            if abs(sh.target) >= eps:
                eta = min(eta, sh.lo)
        return eta

    def pushforward_errors(self, v: DiscreteLevyMeasure) -> np.ndarray:
        """Per-atom |mu(g^-1({z_i})) - w_i|, should vanish to rounding."""
        return np.array(
            [abs(self.preimage_mass(float(z[0])) - w) for z, w in zip(v.atoms, v.weights)]
        )


def mass_layout(v: DiscreteLevyMeasure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one atom order used to realize v from a shared reference measure.

    Returns ``(atoms, weights, cum)``: the (n, d) atoms ranked by decreasing
    modulus, ties broken by location in lexicographic order, their weights,
    and the (n+1,) cumulative masses [0, w1, w1 + w2, ...]; the k-th atom owns
    the mass interval [cum[k], cum[k+1]). Transport shells and the Monte Carlo
    base segments are both cut from this layout, so they map marks alike.
    """
    mags = np.linalg.norm(v.atoms, axis=1)
    order = np.lexsort(tuple(v.atoms[:, k] for k in range(v.dim - 1, -1, -1)) + (-mags,))
    weights = v.weights[order]
    return v.atoms[order], weights, np.concatenate([[0.0], np.cumsum(weights)])


def transport_map(v: DiscreteLevyMeasure, base: InverseSquareTail | None = None) -> TransportMap:
    """Build the nested-shell transport realizing v as an image of the base.

    Only one-dimensional targets are supported. A zero-mass (empty) target
    yields the constant-zero map. Distinct atoms may not share a location, so
    the map is well defined; shells follow :func:`mass_layout`, which breaks
    ties in modulus between a negative and positive atom by signed location.
    """
    if base is None:
        base = InverseSquareTail()
    if v.dim != 1:
        raise UnsupportedError("transport construction is implemented for d = 1 targets only")
    atoms, weights, cum = mass_layout(v)
    shells = []
    hi = math.inf
    for z, w, c in zip(atoms[:, 0], weights, cum[1:]):
        lo = base.inverse_tail(float(c))
        shells.append(Shell(lo=lo, hi=hi, target=float(z), weight=float(w)))
        hi = lo
    return TransportMap(base, tuple(shells))


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


_FAMILY_RULES: dict[str, Callable] = {}


def _family_rule(name: str):
    def deco(fn):
        _FAMILY_RULES[name] = fn
        return fn

    return deco


def _rule_measure(locations, weights) -> DiscreteLevyMeasure:
    """The measure of a family rule's atoms of nonzero weight.

    An endpoint of a rule's parameter range may give an atom weight 0 (an
    intensity of 0, a mixture weight of 0 or 1); that atom is left out, so
    the endpoint is a valid, possibly empty, measure. Negative and
    non-finite weights are kept and refused by :class:`DiscreteLevyMeasure`.
    """
    atoms = np.array([np.atleast_1d(np.asarray(z, dtype=float)) for z in locations])
    weights = np.array(weights, dtype=float)
    keep = weights != 0.0
    return DiscreteLevyMeasure(atoms[keep], weights[keep])


@_family_rule("scaled_point_mass")
def _rule_scaled_point_mass(*, location: float = 1.0, drift: float = 0.0, cov_root: float = 0.0, intensity: float):
    """intensity * delta_location; the intensity is the grid parameter."""
    return LevyTriple(_rule_measure([location], [intensity]), drift, cov_root)


@_family_rule("moving_point_mass")
def _rule_moving_point_mass(*, weight: float = 1.0, drift: float = 0.0, cov_root: float = 0.0, location: float):
    """weight * delta_location; the location is the grid parameter."""
    return LevyTriple(_rule_measure([location], [weight]), drift, cov_root)


@_family_rule("two_point_mixture")
def _rule_two_point_mixture(
    *,
    location_a: float = 1.0,
    location_b: float = 2.0,
    total_mass: float = 1.0,
    drift: float = 0.0,
    cov_root: float = 0.0,
    alpha: float,
):
    """total_mass * (alpha delta_a + (1 - alpha) delta_b); alpha on the grid."""
    weights = [total_mass * alpha, total_mass * (1.0 - alpha)]
    return LevyTriple(_rule_measure([location_a, location_b], weights), drift, cov_root)


def uncertainty_set_from_config(doc: dict) -> UncertaintySet:
    """Build an uncertainty set from a nested config document.

    Two forms are accepted. Explicit enumeration::

        triples:
          - measure: {atoms: [[1.0, 2.0]]}
            drift: 0.0
            cov_root: 0.0

    Parametric family on a grid::

        family:
          rule: scaled_point_mass
          fixed: {location: 1.0}
          params:
            intensity: {min: 1.0, max: 2.0, count: 5}

    The names in ``fixed`` and ``params`` are the rule's keyword parameters;
    a name may be in one of them only.
    """
    sec = _read(doc, _UNCERTAINTY, "uncertainty")
    if sec["triples"] is not None:
        return UncertaintySet(tuple(_triple(t, f"uncertainty.triples[{i}]") for i, t in enumerate(sec["triples"])))
    if sec["family"] is None:
        raise InvalidInputError("uncertainty config needs a 'triples' or 'family' section")
    name, fixed, params = _read(sec["family"], _FAMILY, "uncertainty.family").values()
    if name not in _FAMILY_RULES:
        raise InvalidInputError(f"unknown family rule {name!r}; known: {sorted(_FAMILY_RULES)}")
    rule = _FAMILY_RULES[name]
    names = dict.fromkeys(inspect.signature(rule).parameters, (None, None))
    _read(fixed, names, "uncertainty.family.fixed")  # the rule takes the fixed values as written
    _read(params, names, "uncertainty.family.params")
    for key in params:
        if key in fixed:
            raise InvalidInputError(f"uncertainty.family.params.{key}: {key!r} is also in uncertainty.family.fixed")
    spans = {k: _read(v, _PARAM, f"uncertainty.family.params.{k}") for k, v in params.items()}
    ranges = {k: (v["min"], v["max"]) for k, v in spans.items()}
    counts = {k: v["count"] for k, v in spans.items()}
    return UncertaintySet.from_rule(ranges, counts, lambda **kw: rule(**fixed, **kw))


def _triple(doc, where: str) -> LevyTriple:
    t = _read(doc, _TRIPLE, where)
    atoms, locations, weights = t["measure"].values()
    if (atoms is None) == (locations is None) or (locations is None) != (weights is None):
        raise InvalidInputError(f"{where}.measure needs 'atoms', or 'locations' and 'weights'")
    measure = DiscreteLevyMeasure.from_pairs(atoms) if atoms is not None else DiscreteLevyMeasure(locations, weights)
    return LevyTriple(measure, t["drift"], t["cov_root"])


_UNCERTAINTY = dict(triples=(list, None), family=(None, None))
_MEASURE = dict(
    atoms=(lambda v: [(float(a[0]), float(a[1])) for a in v], None),
    locations=(lambda v: np.asarray(v, dtype=float), None),
    weights=(lambda v: np.asarray(v, dtype=float), None),
)
_TRIPLE = dict(measure=_MEASURE, drift=(None, 0.0), cov_root=(None, 0.0))
_FAMILY = dict(rule=None, fixed=(None, {}), params=(None, {}))
_PARAM = dict(min=float, max=float, count=_integer)
