"""Finite unions of boxes and explicit point sets in R^d minus the origin.

Every set-valued argument in this package (jump-size windows, discontinuity
sets, routing blocks) is a :class:`Region`: finitely many axis-aligned boxes,
each carrying its own open/closed endpoint convention, together with an
explicit finite point set. Membership is only ever evaluated at finitely many
points (measure atoms, realized jump sizes), which keeps capacity and
supremum computations exact.

Membership has one contract. :meth:`Region.contains` takes an (n, d) array
and returns n bools; d must equal the region's dimension when it has boxes or
atoms. ``z in region`` tests one point, a scalar in d = 1 or a (d,) vector.
Any other shape is refused with :class:`InvalidInputError`.

The ``full`` flag denotes all of R^d with the origin removed, the maximal
admissible jump-size window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, _boolean, _pair, _read


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with a single open/closed convention per side.

    ``closed_lo=True, closed_hi=False`` is the half-open default [lo, hi).
    Degenerate boxes (lo == hi on some axes, both sides closed) are allowed and
    represent lower-dimensional faces or single points.
    """

    lo: np.ndarray
    hi: np.ndarray
    closed_lo: bool = True
    closed_hi: bool = False

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise InvalidInputError("box bounds must be equal-length vectors")
        if np.any(hi < lo):
            raise InvalidInputError("box requires hi >= lo componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, pts: np.ndarray) -> np.ndarray:
        lo_ok = pts >= self.lo if self.closed_lo else pts > self.lo
        hi_ok = pts <= self.hi if self.closed_hi else pts < self.hi
        return np.logical_and(lo_ok, hi_ok).all(axis=1)

    def closure(self) -> "Box":
        return Box(self.lo, self.hi, closed_lo=True, closed_hi=True)

    def faces(self) -> list["Box"]:
        """Boundary of the closure as 2d degenerate closed boxes."""
        out = []
        for k in range(self.dim):
            for bound in (self.lo[k], self.hi[k]):
                lo = self.lo.copy()
                hi = self.hi.copy()
                lo[k] = hi[k] = bound
                out.append(Box(lo, hi, closed_lo=True, closed_hi=True))
        return out


@dataclass(frozen=True)
class Region:
    """Finite union of boxes plus an explicit point set.

    ``atoms`` is an (m, d) array of isolated points, always treated as closed.
    ``full`` marks the whole punctured space R^d \\ {0}; boxes and atoms are
    ignored in that case.
    """

    boxes: tuple[Box, ...] = ()
    atoms: np.ndarray = field(default_factory=lambda: np.empty((0, 1)))
    full: bool = False

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim < 2:
            atoms = atoms.reshape(-1, 1)
        if atoms.ndim != 2:
            raise InvalidInputError("region atoms must form an (m, d) array")
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "atoms", atoms)
        dims = {b.dim for b in self.boxes}
        if atoms.shape[0]:
            dims.add(atoms.shape[1])
        if len(dims) > 1:
            raise InvalidInputError(f"mixed dimensions in region: {sorted(dims)}")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def interval(lo: float, hi: float, *, closed_lo: bool = True, closed_hi: bool = False) -> "Region":
        return Region(boxes=(Box(np.array([lo]), np.array([hi]), closed_lo, closed_hi),))

    @staticmethod
    def open_interval(lo: float, hi: float) -> "Region":
        return Region.interval(lo, hi, closed_lo=False, closed_hi=False)

    @staticmethod
    def closed_interval(lo: float, hi: float) -> "Region":
        return Region.interval(lo, hi, closed_lo=True, closed_hi=True)

    @staticmethod
    def point_set(points) -> "Region":
        """Atoms from an (m, d) array, or from a scalar or m values in d = 1."""
        return Region(atoms=points)

    @staticmethod
    def full_space() -> "Region":
        return Region(full=True)

    @staticmethod
    def empty() -> "Region":
        return Region()

    # -- queries --------------------------------------------------------------

    @property
    def dim(self) -> int | None:
        """Ambient dimension, or None when nothing pins it down (empty / full)."""
        if self.boxes:
            return self.boxes[0].dim
        if self.atoms.shape[0]:
            return self.atoms.shape[1]
        return None

    def is_empty(self) -> bool:
        return not self.full and not self.boxes and self.atoms.shape[0] == 0

    def is_open(self) -> bool:
        """True when the region is an open set by construction.

        Point atoms are closed, so any atom breaks openness; boxes must be open
        on both sides. The full punctured space is open.
        """
        if self.full:
            return True
        if self.atoms.shape[0]:
            return False
        return all((not b.closed_lo) and (not b.closed_hi) for b in self.boxes)

    def contains(self, points) -> np.ndarray:
        """Membership of each row of an (n, d) array: n bools.

        d must equal :attr:`dim` when the region has boxes or atoms; any other
        shape raises :class:`InvalidInputError`. Use ``z in region`` for one point.
        """
        pts = np.asarray(points, dtype=float)
        dim = self.dim
        if pts.ndim != 2 or pts.shape[1] == 0 or (dim is not None and pts.shape[1] != dim):
            raise InvalidInputError(
                f"contains takes an (n, {dim or 'd'}) array of points, got shape {pts.shape}"
            )
        if self.full:
            return _nonzero_rows(pts)
        if not self.boxes:
            if pts.shape[1] == 1:
                return (pts == self.atoms[:, 0]).any(axis=1)
            return (pts[:, None, :] == self.atoms).all(axis=2).any(axis=1)
        out = np.zeros(pts.shape[0], dtype=bool)
        for b in self.boxes:
            out |= b.contains(pts)
        if self.atoms.shape[0]:
            out |= (pts[:, None, :] == self.atoms).all(axis=2).any(axis=1)
        return out

    def __contains__(self, z) -> bool:
        """Membership of one point: a scalar in d = 1 or a (d,) vector."""
        pt = np.asarray(z, dtype=float)
        if pt.ndim > 1:
            raise InvalidInputError(f"`in` tests one point, a scalar or a (d,) vector; got shape {pt.shape}")
        return bool(self.contains(pt.reshape(1, -1)).item())

    def closure(self) -> "Region":
        if self.full:
            return self
        return Region(boxes=tuple(b.closure() for b in self.boxes), atoms=self.atoms)

    def boundary(self) -> "Region":
        """Topological boundary: box faces plus the isolated atoms.

        Exact for the intended inputs (boxes with nonempty interior or
        degenerate faces, isolated points); no attempt is made to cancel
        overlapping unions, which only ever enlarges the reported boundary.
        Regions live in the punctured space, where the full space is its own
        closure and interior, so its boundary is empty in every dimension.
        """
        if self.full:
            return Region.empty()
        faces: list[Box] = []
        for b in self.boxes:
            faces.extend(b.faces())
        return Region(boxes=tuple(faces), atoms=self.atoms)

    # -- set relations --------------------------------------------------------

    def overlaps(self, other: "Region") -> bool:
        """Whether the two regions share any point of the punctured space."""
        if self.is_empty() or other.is_empty():
            return False
        if self.full:
            return _has_nonzero_point(other)
        if other.full:
            return _has_nonzero_point(self)
        for a in self.boxes:
            for b in other.boxes:
                if _boxes_intersect(a, b):
                    return True
        if self.atoms.shape[0] and bool(np.any(other.contains(self.atoms))):
            return True
        if other.atoms.shape[0] and bool(np.any(self.contains(other.atoms))):
            return True
        return False

    # -- serialization --------------------------------------------------------

    def as_dict(self) -> dict:
        if self.full:
            return {"full": True}
        out: dict = {}
        if self.boxes:
            out["boxes"] = [
                {
                    "lo": b.lo.tolist(),
                    "hi": b.hi.tolist(),
                    "closed_lo": b.closed_lo,
                    "closed_hi": b.closed_hi,
                }
                for b in self.boxes
            ]
        if self.atoms.shape[0]:
            out["atoms"] = self.atoms.tolist()
        if not out:
            out["empty"] = True
        return out

    @staticmethod
    def from_dict(doc: dict) -> "Region":
        """Build a region from a config mapping.

        Accepted forms: {"full": true}, {"empty": true},
        {"interval": [lo, hi], "closed": "left"|"right"|"both"|"none"},
        {"points": [...]}, and the general {"boxes": [...], "atoms": [...]}.
        """
        r = _read(doc, _REGION, "region")
        if r["full"]:
            return Region.full_space()
        if r["empty"]:
            return Region.empty()
        boxes: list[Box] = []
        if r["interval"] is not None:
            (lo, hi), closed = r["interval"], r["closed"]
            if closed not in ("left", "right", "both", "none"):
                raise InvalidInputError(f"unknown interval closure {closed!r}")
            boxes.append(Box([lo], [hi], closed_lo=closed in ("left", "both"), closed_hi=closed in ("right", "both")))
        for i, spec in enumerate(r["boxes"]):
            b = _read(spec, _BOX, f"region.boxes[{i}]")
            boxes.append(Box(b["lo"], b["hi"], closed_lo=b["closed_lo"], closed_hi=b["closed_hi"]))
        atoms = r["points"] + r["atoms"]
        if not boxes and not atoms:
            raise InvalidInputError("region config describes no points")
        atom_arr = np.vstack(atoms) if atoms else np.empty((0, boxes[0].dim if boxes else 1))
        return Region(boxes=tuple(boxes), atoms=atom_arr)


def _points(value) -> list[np.ndarray]:
    return [np.atleast_1d(np.asarray(p, dtype=float)) for p in value]


_REGION = dict(
    full=(_boolean, False), empty=(_boolean, False), interval=(_pair, None),
    closed=(None, "none"), boxes=(None, ()), points=(_points, []), atoms=(_points, []),
)
_BOX = dict(lo=None, hi=None, closed_lo=(_boolean, True), closed_hi=(_boolean, False))


def _boxes_intersect(a: Box, b: Box) -> bool:
    if a.dim != b.dim:
        return False
    for k in range(a.dim):
        lo = max(a.lo[k], b.lo[k])
        hi = min(a.hi[k], b.hi[k])
        if lo > hi:
            return False
        if lo == hi:
            # the boxes meet only at lo on this axis: both must include it
            if not all(
                lo in Region.interval(x.lo[k], x.hi[k], closed_lo=x.closed_lo, closed_hi=x.closed_hi) for x in (a, b)
            ):
                return False
    return True


def _has_nonzero_point(region: Region) -> bool:
    for b in region.boxes:
        if np.any(b.hi > b.lo):
            return True
        if b.closed_lo and b.closed_hi and np.any(b.lo != 0.0):
            return True
    return bool(_nonzero_rows(region.atoms).any())


def _nonzero_rows(points: np.ndarray) -> np.ndarray:
    """Whether each row of an (n, d) array is a point of the punctured space: not zero, and free of NaN.

    This is ``np.linalg.norm(points, axis=1) > 0.0`` without the underflow of
    the squares, which takes a row such as [1e-200] for zero.
    """
    return np.abs(points).max(axis=1, initial=0.0) > 0.0
