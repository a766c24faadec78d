"""Semantic exception hierarchy.

Callers are expected to catch these by meaning, not by message. Anything that
indicates malformed caller input derives from :class:`InvalidInputError` (a
``ValueError``), so generic validation code keeps working. Failures of the
standing integrability assumptions are reported through flags on result objects
where the contract says so; :class:`AssumptionError` is raised only where an
operation cannot produce a meaningful result at all.

Every user-supplied function (integrand, mark map, test function, initial
data, payoff) is called through :func:`_evaluate`. Applied point by point, it
hands a point of a 1-D or (n, 1) array to the function as a Python scalar (an
int for an integer array) and a point of an (n, d) array with d > 1 as its row;
applied whole, it makes one call with the given arguments. Either way the calls
run with numpy floating-point warnings silenced, and a returned value that
does not convert to a float, or is non-finite, is refused with
:class:`EvaluationError`, whose message names what was evaluated and the
first offending point (for a whole call, the first value that is not a real
scalar, named by the arguments at its index when they have the result's
shape, else by that index). An exception raised inside the function
propagates unchanged. :func:`_eval_nodes` evaluates a function on a node
array with one vectorized call, falling back to one call per node.

Every config mapping is read by :func:`_read` against one declaration of its
keys; an undeclared key is refused, naming the nearest declared key.
"""

import difflib
from typing import Callable

import numpy as np


class GLevyError(Exception):
    """Base class for all package errors."""


class InvalidInputError(GLevyError, ValueError):
    """Malformed argument: empty set, bad interval, inconsistent shapes."""


class EvaluationError(GLevyError):
    """A user-supplied function returned a non-finite or non-numeric value."""


class AssumptionError(GLevyError):
    """A standing precondition fails (for example v(A) = 0 where v(A) > 0 is required)."""


class UnsupportedError(GLevyError):
    """Well-formed input outside the implemented scope (for example d > 1 transport)."""


class PolicyError(InvalidInputError):
    """A control policy does not cover the horizon or leaves the admissible set."""


class NumericalAbortError(GLevyError):
    """A numerical run was refused or aborted (CFL violation, NaN contamination)."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(GLevyError):
    """A config document failed to parse or validate."""


def _is_integer(value) -> bool:
    """Whether value is an integer: a Python or numpy int, not a bool and not a float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(value) -> int:
    """An int, or a float with an integral value such as 2.0; bools, strings and fractions raise InvalidInputError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not _is_integer(value):
        raise InvalidInputError(f"expected an integer, got {value!r}")
    return int(value)


def _boolean(value) -> bool:
    """True or False; anything else, such as the string "false" or the number 1, raises InvalidInputError."""
    if not isinstance(value, bool):
        raise InvalidInputError(f"expected true or false, got {value!r}")
    return value


def _pair(value) -> tuple[float, float]:
    """Two floats from a sequence of exactly two numbers; another length raises InvalidInputError."""
    numbers = tuple(float(v) for v in value)
    if len(numbers) != 2:
        raise InvalidInputError(f"expected two numbers, got {value!r}")
    return numbers


_REQUIRED = object()


def _read(doc, fields: dict, where: str) -> dict:
    """The values of the config mapping ``doc`` at ``where``, one per key of ``fields``.

    ``fields`` maps each declared key to a reader (a required key) or to
    ``(reader, default)``. A reader is a function of the value, None to take
    the value as written, or a nested ``fields`` mapping, which reads the value,
    or the default when the key is absent. A non-mapping, an undeclared key, a
    missing key and a value its reader refuses raise InvalidInputError.
    """
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{where} must be a mapping, got {type(doc).__name__}")
    for key in doc:
        if key not in fields:
            (near,) = difflib.get_close_matches(str(key), list(fields), n=1, cutoff=0.0)
            raise InvalidInputError(f"{where} has undeclared key {key!r}; the nearest declared key is {near!r}")
    out = {}
    for key, spec in fields.items():
        reader, default = spec if isinstance(spec, tuple) else (spec, _REQUIRED)
        if key not in doc and default is _REQUIRED:
            raise InvalidInputError(f"{where} needs {key!r}")
        value = doc.get(key, default)
        if isinstance(reader, dict):
            out[key] = _read(value, reader, f"{where}.{key}")
        elif key not in doc or reader is None:
            out[key] = value
        else:
            try:
                out[key] = reader(value)
            except (LookupError, TypeError, ValueError, OverflowError, OSError) as e:
                raise InvalidInputError(f"{where}.{key}: {e}") from e
    return out


def _evaluate(fn: Callable, points, what: str, *, each: bool = True) -> np.ndarray:
    """fn at each point of ``points``, values stacked, or one call ``fn(*points)``: see above."""
    if each:
        pts = np.asarray(points)
        args = pts.reshape(-1).tolist() if pts.ndim == 1 or pts.shape[1] == 1 else list(pts)
    with np.errstate(all="ignore"):
        raw = [fn(a) for a in args] if each else fn(*points)
    try:
        vals = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        # the values themselves are at fault, not fn: name the first that does not convert
        if each:
            k = next((k for k, v in enumerate(raw) if not _numeric(v) or np.shape(v) != np.shape(raw[0])), 0)
            value, at = raw[k], repr(args[k])
        else:
            cells = np.asarray(raw, dtype=object)
            k = next((k for k, v in np.ndenumerate(cells) if not _numeric(v) or np.ndim(v)), ())
            value, at = cells[k], _whole_call_point(points, cells.shape, k)
        raise EvaluationError(f"{what} returned {value!r}, which does not convert to a float, at {at}") from None
    bad = ~np.isfinite(vals)
    if bad.any():
        if each:
            k = int(np.argmax(bad.reshape(len(args), -1).any(axis=1)))
            at = repr(args[k])
        else:
            k = tuple(np.argwhere(bad)[0].tolist())
            at = _whole_call_point(points, vals.shape, k)
        raise EvaluationError(f"{what} evaluated to {vals[k].tolist()!r} at {at}")
    return vals


def _eval_nodes(phi: Callable, nodes: np.ndarray, what: str) -> np.ndarray:
    """phi on every node: one vectorized call, else one call per node.

    The nodes are an (n,) array of scalars or an (n, d) array of points. The
    vectorized call must give one value per node, shape (n,); the per-node
    calls follow when phi raises TypeError or ValueError on the array of
    nodes or returns another shape. A refusal of its values stands.
    """
    try:
        vals = _evaluate(phi, (nodes,), what, each=False)
    except (TypeError, ValueError):
        vals = None
    if vals is None or vals.shape != nodes.shape[:1]:
        vals = _evaluate(phi, nodes, what)
    return vals


def _numeric(value) -> bool:
    try:
        np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


def _whole_call_point(points, shape: tuple, k: tuple) -> str:
    """The arguments at index k when they have the result's shape, else that index."""
    if points and all(np.shape(a) == shape for a in points):
        return repr(tuple(np.asarray(a)[k].item() for a in points))
    return f"index {k} of the result"
