"""One calling convention and one refusal for every user-supplied function."""

import math
import warnings

import numpy as np
import pytest

from glevy import (
    CadlagPath,
    DiscreteLevyMeasure,
    EvaluationError,
    Grid1D,
    Region,
    TerminalPayoff,
    TestFunction,
    apply_g,
    conditional_expectation,
    constant_policies,
    estimate_upper_expectation,
    g_poisson_distribution,
    iterated_expectation,
    poisson_integral,
    pushforward_set,
    solve_ipde,
    sup_integral,
    v_norm,
)
from glevy.errors import _evaluate

from conftest import point_mass_family

# each bad function keeps the shape of its argument, so it serves scalar and vectorized sites alike
BAD = {
    "nan": lambda x: x * 0.0 + math.nan,
    "inf": lambda x: x * 0.0 + math.inf,
    "nan-through-a-numpy-warning": lambda x: np.log(x - 10.0),
}

LAM = point_mass_family([1.0, 2.0])
ATOMS = DiscreteLevyMeasure(np.array([[1.0], [2.0]]), np.array([0.5, 1.0]))
PATH = CadlagPath(1.0, [0.0, 1.0], [0.0, 0.0], [0.25, 0.5], [1.0, 2.0])
GRID = Grid1D(-2.0, 4.0, 31, 0.01, 1.0)

ENTRY_POINTS = {
    "integrate": lambda bad: ATOMS.integrate(bad),
    "sup_integral": lambda bad: sup_integral(LAM, bad),
    "values_on": lambda bad: TestFunction(bad).values_on(ATOMS),
    "v_norm": lambda bad: v_norm(bad, None, LAM, 2.0),
    "poisson_integral": lambda bad: poisson_integral(PATH, bad, Region.full_space()),
    "pushforward_set": lambda bad: pushforward_set(LAM, bad),
    "apply_g-f": lambda bad: apply_g(lambda z: 0.0 if z == 0.0 else bad(z), LAM),
    "apply_g-grad": lambda bad: apply_g(lambda z: z, LAM, grad=bad, hess=lambda z: 0.0),
    "apply_g-hess": lambda bad: apply_g(lambda z: z, LAM, grad=lambda z: 0.0, hess=bad),
    "solve_ipde": lambda bad: solve_ipde(bad, LAM, GRID),
    "g_poisson_distribution": lambda bad: g_poisson_distribution(1.0, 2.0, 1.0, bad),
    "iterated_expectation": lambda bad: iterated_expectation(lambda a, b: bad(a + b), [0.5, 1.0], LAM, GRID),
    "conditional_expectation": lambda bad: conditional_expectation(
        lambda a, b: bad(a + b), [0.5, 1.0], LAM, GRID, 2, [0.5, 1.0]
    ),
    "estimate_upper_expectation": lambda bad: estimate_upper_expectation(
        lambda p: bad(p.scalar_value(1.0)), LAM, constant_policies(LAM, 1.0), 10, 1, horizon=1.0
    ),
    "TerminalPayoff": lambda bad: estimate_upper_expectation(
        TerminalPayoff(bad), LAM, constant_policies(LAM, 1.0), 10, 1, horizon=1.0
    ),
}


@pytest.mark.parametrize("bad", list(BAD), ids=str)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS), ids=str)
def test_every_entry_point_refuses_non_finite_values_without_warning(entry, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="evaluated to"):
            ENTRY_POINTS[entry](BAD[bad])


def test_points_reach_the_function_as_scalars_or_rows():
    seen = []
    _evaluate(lambda z: seen.append(z) or 0.0, np.arange(3), "f")
    _evaluate(lambda z: seen.append(z) or 0.0, np.array([[0.5], [1.5]]), "f")
    assert seen == [0, 1, 2, 0.5, 1.5]
    assert [type(z) for z in seen] == [int, int, int, float, float]
    rows = []
    vals = _evaluate(lambda z: rows.append(z) or z * 2.0, np.array([[1.0, 2.0], [3.0, 4.0]]), "f")
    assert [r.tolist() for r in rows] == [[1.0, 2.0], [3.0, 4.0]]
    assert vals.tolist() == [[2.0, 4.0], [6.0, 8.0]]
    assert _evaluate(lambda z: 1.0, np.empty((0, 2)), "f").shape == (0,)


def test_refusal_names_what_and_the_first_offending_point():
    with pytest.raises(EvaluationError, match=r"integrand evaluated to nan at 2\.0"):
        _evaluate(lambda z: math.nan if z > 1.5 else 0.0, np.array([1.0, 2.0, 3.0]), "integrand")
    x = np.array([0.0, 1.0, 2.0])
    with pytest.raises(EvaluationError, match=r"phi evaluated to inf at \(1\.0,\)"):
        _evaluate(lambda v: np.where(v > 0.5, np.inf, 0.0), (x,), "phi", each=False)
    with pytest.raises(EvaluationError, match=r"payoff evaluated to nan at index \(1, 0\) of the result"):
        _evaluate(lambda: np.array([[0.0, 1.0], [math.nan, 2.0]]), (), "payoff", each=False)


NON_NUMERIC = {
    "sup_integral": (lambda: sup_integral(LAM, lambda z: "x"), r"integrand returned 'x', which does not convert to a float, at 1\.0"),
    "estimator-payoff": (
        lambda: estimate_upper_expectation(
            lambda p: "x" if p.n_jumps > 1 else 0.0, LAM, constant_policies(LAM, 1.0), 10, 1, horizon=1.0
        ),
        r"payoff returned 'x', which does not convert to a float, at index \(\d+, \d\) of the result",
    ),
    "sequence-valued-payoff": (
        lambda: estimate_upper_expectation(lambda p: np.array([1.0, 2.0]), LAM, constant_policies(LAM, 1.0), 10, 1, horizon=1.0),
        r"^payoff returned array\(\[1\., 2\.\]\), which does not convert to a float, at index \(0, 0\) of the result$",
    ),
    "int-too-large-for-a-float": (lambda: sup_integral(LAM, lambda z: 10**400), "which does not convert to a float, at 1"),
    "TerminalPayoff": (
        lambda: estimate_upper_expectation(
            TerminalPayoff(lambda x: "x"), LAM, constant_policies(LAM, 1.0), 10, 1, horizon=1.0
        ),
        "payoff returned 'x', which does not convert to a float",
    ),
}


@pytest.mark.parametrize("entry", list(NON_NUMERIC), ids=str)
def test_non_numeric_values_are_refused(entry):
    call, message = NON_NUMERIC[entry]
    with pytest.raises(EvaluationError, match=message):
        call()


def test_non_numeric_refusal_names_the_first_offending_point():
    with pytest.raises(EvaluationError, match=r"f returned 'no', which does not convert to a float, at 2"):
        _evaluate(lambda z: "no" if z == 2 else 1.0, np.arange(4), "f")
    with pytest.raises(EvaluationError, match=r"f returned 'b', which does not convert to a float, at \(2\.0,\)"):
        _evaluate(lambda v: [1.0, "b"], (np.array([1.0, 2.0]),), "f", each=False)


def test_exceptions_raised_inside_the_function_propagate_unchanged():
    def fn(z):
        raise KeyError("inside")

    with pytest.raises(KeyError, match="inside"):
        _evaluate(fn, np.arange(3), "f")
    with pytest.raises(ValueError, match="inside fn") as info:
        sup_integral(LAM, lambda z: float("inside fn"))
    assert not isinstance(info.value, EvaluationError)
