"""Function-space diagnostics under a family of jump measures.

Membership of a Borel function in the integration lattice over a measure
family is characterized by three properties: a finite worst-case p-norm,
tightness (mass outside some compact annulus uniformly small) and uniform
integrability (contribution of large values uniformly small). For finite
atom families all three are computable exactly; this module reports them as
profiles over ladders of thresholds, and the membership verdict is relative
to those fixed ladders, which is what makes it decidable.

The quasi-continuity test consumes a caller-declared discontinuity set:
detecting discontinuities of an arbitrary evaluation rule is not possible,
and the criterion itself needs only the set. The verdict is the capacity of
the closure of that set: zero capacity means every measure of the family
ignores the discontinuities.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError, _evaluate
from .regions import Region
from .uncertainty import DiscreteLevyMeasure, _atom_table, _AtomTable, _mask_in

__all__ = [
    "TestFunction",
    "v_norm",
    "TightnessEntry",
    "tightness_profile",
    "UIEntry",
    "uniform_integrability_profile",
    "MembershipVerdict",
    "membership_lpb",
    "QcVerdict",
    "qc_criterion",
    "tightness_csv",
    "ui_csv",
]

# ladder used by the membership verdict: tails are evaluated at powers of two
# up to 2**40 and compared against an absolute threshold, so the verdict is
# monotone under pointwise domination (|g| <= |f| on atoms and f passing
# imply g passes)
_UI_LADDER_MAX_EXP = 40
_UI_THRESHOLD = 1e-8
_TIGHTNESS_LADDER = tuple(10.0 ** (-k) for k in range(1, 7))


@dataclass(frozen=True)
class TestFunction:
    """Evaluation rule plus declared discontinuity metadata.

    ``discontinuity`` is the declared set of discontinuity points (None means
    undeclared, which leaves the quasi-continuity test inconclusive; an empty
    region declares the function continuous).
    """

    fn: Callable
    discontinuity: Region | None = None
    name: str = "f"

    __test__ = False  # keep pytest from collecting the class by its name

    def __call__(self, z):
        return self.fn(z)

    def values_on(self, measure: DiscreteLevyMeasure) -> np.ndarray:
        """|f| evaluated on every atom; a non-finite value raises :class:`EvaluationError`."""
        return _abs_values(self, measure.atoms)


def _as_test_function(f) -> TestFunction:
    return f if isinstance(f, TestFunction) else TestFunction(f)


def _abs_values(f, atoms: np.ndarray) -> np.ndarray:
    """|f| at each of the (n, d) atoms; a non-finite value raises :class:`EvaluationError`."""
    tf = _as_test_function(f)
    return np.abs(_evaluate(tf.fn, atoms, tf.name))


def v_norm(f, region: Region | None, family, p: float) -> float:
    """Worst-case p-norm: (sup over v of the p-th moment of f inside A)^(1/p).

    A non-finite value of f on an atom raises :class:`EvaluationError`.
    """
    if p < 1.0:
        raise InvalidInputError("the norm exponent must satisfy p >= 1")
    table = _atom_table(family)
    inside = _mask_in(table.atoms, region)
    return _norm(_abs_values(f, table.atoms)[inside] ** p, table.restrict(inside), p)


def _norm(powers: np.ndarray, table: _AtomTable, p: float) -> float:
    return float(table.row_sums(powers).max()) ** (1.0 / p)


class TightnessEntry(NamedTuple):
    eps: float
    annulus: tuple[float, float] | None
    tail: float


def _tightness(powers: np.ndarray, table: _AtomTable, eps_seq: Sequence[float]) -> list[TightnessEntry]:
    """Nested annuli by greedily peeling hull radii, one per threshold.

    ``powers`` holds |f|^p at each of the table's atoms. Starting from the
    full hull of the radii of contributing atoms, the inner or outer extreme
    is dropped, whichever leaves the smaller worst-case excluded mass (ties
    drop the inner one, moving the annulus away from the origin). The hull
    sequence is threshold-independent, and each threshold takes the deepest
    peel whose excluded mass is below it, so the annuli reported for a
    decreasing ladder of tolerances are nested by construction.
    """
    contrib = table.weight * powers[table.column]
    entry = contrib > 0.0
    r = np.linalg.norm(table.atoms, axis=1)[table.column[entry]]
    order = np.argsort(r, kind="stable")  # each measure's tail is summed by increasing radius
    row = table.row[entry][order]
    contrib = contrib[entry][order]
    r = r[order]
    radii = np.unique(r).tolist()

    def sup_tail(lo_r: float | None, hi_r: float | None) -> float:
        # worst-case mass of |f|^p outside the closed annulus [lo_r, hi_r]
        outside = np.ones(r.shape[0], dtype=bool) if lo_r is None else (r < lo_r) | (r > hi_r)
        return float(np.bincount(row[outside], weights=contrib[outside], minlength=table.n_measures).max())

    hulls: list[tuple[tuple[float, float] | None, float]] = []
    i, j = 0, len(radii) - 1
    while i <= j:
        hulls.append(((radii[i], radii[j]), sup_tail(radii[i], radii[j])))
        if i == j:
            break
        drop_inner = sup_tail(radii[i + 1], radii[j])
        drop_outer = sup_tail(radii[i], radii[j - 1])
        if drop_inner <= drop_outer:
            i += 1
        else:
            j -= 1
    hulls.append((None, sup_tail(None, None)))
    # deepest peel first; the full hull hulls[0] has tail 0.0 < eps, so one always qualifies
    return [TightnessEntry(float(eps), *next(h for h in hulls[::-1] if h[1] < eps)) for eps in eps_seq]


def tightness_profile(f, family, p: float, eps_seq: Sequence[float]) -> list[TightnessEntry]:
    """Smallest peel-sequence annulus with worst-case outside mass below eps.

    Each entry reports the chosen closed annulus [r, R] (None when no compact
    set is needed because the whole worst-case mass is already below eps) and
    the mass it achieves. Annuli for decreasing eps are nested.
    """
    if not all(e > 0.0 for e in eps_seq):
        raise InvalidInputError("tightness thresholds must be positive")
    table = _atom_table(family)
    return _tightness(_abs_values(f, table.atoms) ** p, table, eps_seq)


class UIEntry(NamedTuple):
    n: float
    tail: float


def uniform_integrability_profile(f, family, p: float, ns: Sequence[float]) -> list[UIEntry]:
    """Exact worst-case tails sup over v of the mass of |f|^p on {|f|^p >= n}."""
    table = _atom_table(family)
    return _ui(_abs_values(f, table.atoms) ** p, table, ns)


def _ui(powers: np.ndarray, table: _AtomTable, ns: Sequence[float]) -> list[UIEntry]:
    return [UIEntry(float(n), float(table.row_sums(np.where(powers >= n, powers, 0.0)).max())) for n in ns]


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    norm: float
    reasons: tuple[str, ...]
    tightness: tuple[TightnessEntry, ...] = field(default=())
    ui: tuple[UIEntry, ...] = field(default=())

    def as_dict(self) -> dict:
        return {
            "member": self.member,
            "norm": self.norm,
            "reasons": list(self.reasons),
            "tightness": [
                {"eps": e.eps, "annulus": list(e.annulus) if e.annulus else None, "tail": e.tail}
                for e in self.tightness
            ],
            "ui": [{"n": e.n, "tail": e.tail} for e in self.ui],
        }


def membership_lpb(f, region: Region | None, family, p: float) -> MembershipVerdict:
    """Ladder-relative membership test with the two profiles as evidence.

    Passes when the worst-case norm is finite, every rung of the tightness
    ladder is achieved by some annulus, and the uniform-integrability tail at
    the top of the fixed ladder is below an absolute threshold. Functions
    whose values on atoms exceed 2**40 can be refused even though every
    finite family is formally integrable; the verdict is explicit about being
    relative to the ladder. f is evaluated once per distinct atom of the
    family inside the region, and the norm and both profiles read those
    values. A non-finite value of f on an atom raises
    :class:`EvaluationError` rather than failing the verdict.
    """
    if p < 1.0:
        raise InvalidInputError("the norm exponent must satisfy p >= 1")
    table = _atom_table(family)
    table = table.restrict(_mask_in(table.atoms, region))
    powers = _abs_values(f, table.atoms) ** p
    reasons = []
    norm = _norm(powers, table, p)
    ok = True
    if not np.isfinite(norm):
        ok = False
        reasons.append("worst-case norm is not finite")
    tight = tuple(_tightness(powers, table, _TIGHTNESS_LADDER))
    if any(e.tail >= e.eps for e in tight):
        ok = False
        reasons.append("tightness ladder not achieved")
    ns = [float(2.0**k) for k in range(0, _UI_LADDER_MAX_EXP + 1, 4)]
    ui = tuple(_ui(powers, table, ns))
    if ui[-1].tail >= _UI_THRESHOLD:
        ok = False
        reasons.append(
            f"uniform-integrability tail {ui[-1].tail:.3g} at n = 2**{_UI_LADDER_MAX_EXP} "
            f"is above {_UI_THRESHOLD:g}"
        )
    if ok:
        reasons.append("norm finite, tightness ladder achieved, UI tail below threshold")
    return MembershipVerdict(ok, norm, tuple(reasons), tight, ui)


class QcVerdict(NamedTuple):
    status: str  # "qc" | "not-qc" | "inconclusive"
    capacity: float | None
    witness_atom: np.ndarray | None
    witness_measure: int | None

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "capacity": self.capacity,
            "witnessAtom": None if self.witness_atom is None else np.atleast_1d(self.witness_atom).tolist(),
            "witnessMeasure": self.witness_measure,
        }


def qc_criterion(f, family) -> QcVerdict:
    """Quasi-continuity relative to the family via declared discontinuities.

    The function is quasi-continuous when the closure of its declared
    discontinuity set has capacity zero under the family; a charging measure
    produces a witness atom. An undeclared set leaves the test inconclusive.
    """
    tf = _as_test_function(f)
    if tf.discontinuity is None:
        return QcVerdict("inconclusive", None, None, None)
    closure = tf.discontinuity.closure()
    if closure.is_empty():
        return QcVerdict("qc", 0.0, None, None)
    table = _atom_table(family)
    inside = _mask_in(table.atoms, closure)
    cap = float(table.row_sums(inside).max())
    if cap == 0.0:
        return QcVerdict("qc", 0.0, None, None)
    # entries run measure by measure in atom order, so the first one in the
    # closure is the first charging measure's first atom there
    e = int(np.argmax(inside[table.column]))
    return QcVerdict("not-qc", cap, table.atoms[table.column[e]], int(table.row[e]))


def tightness_csv(entries: Sequence[TightnessEntry]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["eps", "r", "R", "tail"])
    for e in entries:
        r, R = ("", "") if e.annulus is None else (repr(e.annulus[0]), repr(e.annulus[1]))
        w.writerow([repr(e.eps), r, R, repr(e.tail)])
    return buf.getvalue()


def ui_csv(entries: Sequence[UIEntry]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n", "tail"])
    for e in entries:
        w.writerow([repr(e.n), repr(e.tail)])
    return buf.getvalue()
