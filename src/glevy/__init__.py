"""Numerics for jump processes under model uncertainty.

The package works with finite families of Levy triples (jump measure, drift,
covariance root) and computes worst-case quantities over them: expectations
by an explicit finite difference scheme for the associated nonlinear
integro-PDE, lower bounds by controlled Monte Carlo, capacities of jump
events, compensated processes and their martingale deviations, transport
maps realizing every measure of a family from one base jump process, and
function-space diagnostics (worst-case norms, tightness, uniform
integrability, quasi-continuity).

Modules:

- :mod:`glevy.uncertainty`: measures, triples, uncertainty sets, validation,
  worst-case integrals and capacities, tail transport maps.
- :mod:`glevy.regions`: box/point regions of the punctured space.
- :mod:`glevy.paths`: cadlag paths, jump counting and integrals, moduli of
  continuity, a path-distance upper bound, serialization.
- :mod:`glevy.pide`: the explicit scheme for the worst-case integro-PDE,
  iterated and conditional expectations, worst-case Poisson lattice ODE.
- :mod:`glevy.simulate`: base-scenario Monte Carlo with control policies.
- :mod:`glevy.analysis`: compensation, derived uncertainty sets, pathwise
  decomposition, martingale checks.
- :mod:`glevy.fnspace`: function-space diagnostics over measure families.
- :mod:`glevy.cli`: config-driven batch front-end (``glevy`` entry point).
"""

__version__ = "0.1.0"

from .errors import (
    AssumptionError,
    ConfigError,
    EvaluationError,
    GLevyError,
    InvalidInputError,
    NumericalAbortError,
    PolicyError,
    UnsupportedError,
)
from .regions import Box, Region
from .uncertainty import (
    DiscreteLevyMeasure,
    InverseSquareTail,
    LevyTriple,
    TransportMap,
    UncertaintySet,
    ValidationReport,
    sup_integral,
    transport_map,
    uncertainty_set_from_config,
    v_capacity,
    validate,
)
from .paths import (
    CadlagPath,
    cadlag_modulus,
    counterexample_family,
    discretize_tn,
    dumps_records,
    jump_times,
    loads_records,
    poisson_integral,
    prm_count,
    read_records,
    skorohod_distance_upper,
    write_records,
)
from .pide import (
    Grid1D,
    GridSolution,
    apply_g,
    conditional_expectation,
    g_poisson_distribution,
    iterated_expectation,
    solve_ipde,
)
from .simulate import (
    BaseJumpModel,
    BlockPayoff,
    ControlPolicy,
    KthJumpEvent,
    PoissonIntegralPayoff,
    TerminalPayoff,
    constant_policies,
    draw_scenario,
    erlang_bound_check,
    estimate_capacity,
    estimate_upper_expectation,
    simulate_path,
)
from .analysis import (
    MartingaleCheckResult,
    ProcessSpec,
    compensate,
    decompose,
    martingale_check,
    mean_of_jump_part,
    pushforward_set,
    restricted_product_set,
    symmetric_compensated_set,
)
from .fnspace import (
    TestFunction,
    membership_lpb,
    qc_criterion,
    tightness_profile,
    uniform_integrability_profile,
    v_norm,
)

__all__ = [
    "__version__",
    "GLevyError",
    "InvalidInputError",
    "EvaluationError",
    "AssumptionError",
    "UnsupportedError",
    "PolicyError",
    "NumericalAbortError",
    "ConfigError",
    "Box",
    "Region",
    "DiscreteLevyMeasure",
    "LevyTriple",
    "UncertaintySet",
    "ValidationReport",
    "validate",
    "v_capacity",
    "sup_integral",
    "InverseSquareTail",
    "TransportMap",
    "transport_map",
    "uncertainty_set_from_config",
    "CadlagPath",
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
    "Grid1D",
    "GridSolution",
    "solve_ipde",
    "apply_g",
    "iterated_expectation",
    "conditional_expectation",
    "g_poisson_distribution",
    "BaseJumpModel",
    "ControlPolicy",
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
    "ProcessSpec",
    "mean_of_jump_part",
    "compensate",
    "symmetric_compensated_set",
    "pushforward_set",
    "restricted_product_set",
    "decompose",
    "MartingaleCheckResult",
    "martingale_check",
    "TestFunction",
    "v_norm",
    "tightness_profile",
    "uniform_integrability_profile",
    "membership_lpb",
    "qc_criterion",
]
