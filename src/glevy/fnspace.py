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

from .errors import EvaluationError, InvalidInputError
from .regions import Region
from .uncertainty import DiscreteLevyMeasure, _measure_family, v_capacity

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
    """Evaluation rule plus declared discontinuity and support metadata.

    ``discontinuity`` is the declared set of discontinuity points (None means
    undeclared, which leaves the quasi-continuity test inconclusive; an empty
    region declares the function continuous). ``support`` optionally declares
    where the function can be nonzero; it is metadata for reporting, the
    evaluation rule is always authoritative.
    """

    fn: Callable
    discontinuity: Region | None = None
    support: Region | None = None
    name: str = "f"

    __test__ = False  # keep pytest from collecting the class by its name

    def __call__(self, z):
        return self.fn(z)

    def values_on(self, measure: DiscreteLevyMeasure) -> np.ndarray:
        """|f| evaluated on every atom, validated finite."""
        out = np.empty(measure.n_atoms)
        for i, z in enumerate(measure.atoms):
            arg = float(z[0]) if measure.dim == 1 else z
            val = float(self.fn(arg))
            if not np.isfinite(val):
                raise EvaluationError(f"{self.name} evaluated to {val!r} at atom {arg!r}")
            out[i] = abs(val)
        return out


def _as_test_function(f) -> TestFunction:
    return f if isinstance(f, TestFunction) else TestFunction(f)


def v_norm(f, region: Region | None, family, p: float) -> float:
    """Worst-case p-norm: (sup over v of the p-th moment of f inside A)^(1/p)."""
    if p < 1.0:
        raise InvalidInputError("the norm exponent must satisfy p >= 1")
    tf = _as_test_function(f)
    best = 0.0
    for m in _measure_family(family):
        mask = m.mask_in(region)
        vals = tf.values_on(m)
        best = max(best, float(np.sum((vals[mask] ** p) * m.weights[mask])))
    return best ** (1.0 / p)


class TightnessEntry(NamedTuple):
    eps: float
    annulus: tuple[float, float] | None
    tail: float


def _peel_sequence(f: TestFunction, family, p: float):
    """Nested annulus candidates by greedily peeling hull radii.

    Atoms of every measure are pooled by radius; starting from the full hull
    of contributing radii, the inner or outer extreme is dropped, whichever
    leaves the smaller worst-case excluded mass (ties drop the inner one,
    moving the annulus away from the origin). The resulting hull sequence is
    threshold-independent, so the annuli reported for a decreasing ladder of
    tolerances are nested by construction.
    """
    ms = _measure_family(family)
    per_measure = []  # (radii sorted, contributions sorted by radius)
    radii_all = set()
    for m in ms:
        vals = f.values_on(m) ** p
        r = np.linalg.norm(m.atoms, axis=1) if m.n_atoms else np.empty(0)
        keep = vals * m.weights > 0.0
        r, contrib = r[keep], (vals * m.weights)[keep]
        order = np.argsort(r)
        per_measure.append((r[order], contrib[order]))
        radii_all.update(r.tolist())
    radii = sorted(radii_all)

    def sup_tail(lo_r: float | None, hi_r: float | None) -> float:
        # worst-case mass of |f|^p outside the closed annulus [lo_r, hi_r]
        worst = 0.0
        for r, c in per_measure:
            if lo_r is None:
                worst = max(worst, float(c.sum()))
            else:
                outside = (r < lo_r) | (r > hi_r)
                worst = max(worst, float(c[outside].sum()))
        return worst

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
    return hulls


def tightness_profile(f, family, p: float, eps_seq: Sequence[float]) -> list[TightnessEntry]:
    """Smallest peel-sequence annulus with worst-case outside mass below eps.

    Each entry reports the chosen closed annulus [r, R] (None when no compact
    set is needed because the whole worst-case mass is already below eps) and
    the mass it achieves. Annuli for decreasing eps are nested.
    """
    if not all(e > 0.0 for e in eps_seq):
        raise InvalidInputError("tightness thresholds must be positive")
    tf = _as_test_function(f)
    hulls = _peel_sequence(tf, family, p)
    out = []
    for eps in eps_seq:
        # deepest peel first; the full hull hulls[0] has tail 0.0 < eps, so one always qualifies
        annulus, tail = next(h for h in hulls[::-1] if h[1] < eps)
        out.append(TightnessEntry(float(eps), annulus, float(tail)))
    return out


class UIEntry(NamedTuple):
    n: float
    tail: float


def uniform_integrability_profile(f, family, p: float, ns: Sequence[float]) -> list[UIEntry]:
    """Exact worst-case tails sup over v of the mass of |f|^p on {|f|^p >= n}."""
    tf = _as_test_function(f)
    ms = _measure_family(family)
    data = []
    for m in ms:
        vals = tf.values_on(m) ** p
        data.append((vals, m.weights))
    out = []
    for n in ns:
        worst = 0.0
        for vals, w in data:
            worst = max(worst, float(np.sum(vals * w * (vals >= n))))
        out.append(UIEntry(float(n), worst))
    return out


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
    relative to the ladder.
    """
    tf = _as_test_function(f)
    ms = [m.restrict(region) for m in _measure_family(family)]
    reasons = []
    norm = v_norm(tf, None, ms, p)
    ok = True
    if not np.isfinite(norm):
        ok = False
        reasons.append("worst-case norm is not finite")
    tight = tuple(tightness_profile(tf, ms, p, _TIGHTNESS_LADDER))
    if any(e.tail >= e.eps for e in tight):
        ok = False
        reasons.append("tightness ladder not achieved")
    ns = [float(2.0**k) for k in range(0, _UI_LADDER_MAX_EXP + 1, 4)]
    ui = tuple(uniform_integrability_profile(tf, ms, p, ns))
    if ui[-1].tail >= _UI_THRESHOLD:
        ok = False
        reasons.append(
            f"uniform-integrability tail {ui[-1].tail:.3g} at n = 2**{_UI_LADDER_MAX_EXP} "
            f"is above {_UI_THRESHOLD:g}"
        )
    if ok:
        reasons.append("norm finite, tightness ladder achieved, UI tail below threshold")
    return MembershipVerdict(ok, float(norm), tuple(reasons), tight, ui)


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
    ms = _measure_family(family)
    cap = v_capacity(ms, closure)
    if cap.value == 0.0:
        return QcVerdict("qc", 0.0, None, None)
    # cap.value > 0, so some measure has an atom in the closure
    masks = [m.mask_in(closure) for m in ms]
    mi = next(i for i, mask in enumerate(masks) if mask.any())
    return QcVerdict("not-qc", float(cap.value), ms[mi].atoms[int(np.argmax(masks[mi]))], mi)


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
