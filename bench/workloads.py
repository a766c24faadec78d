"""The glevy benchmark: three workloads, their correctness gates and metrics.

glevy computes one sublinear expectation two ways, with the monotone PIDE
scheme (``pide``) and with the common-random-numbers control search
(``simulate``). Each workload drives one layer hard and leaves the others
nearly idle. Every workload runs its own op group at full size and the other
two groups at probe size (``tiny``, about a tenth of its round), so every
end-to-end and per-layer metric is measured on every workload; on the probe
groups the prediction for a change aimed elsewhere is "no change".

Why each workload exists
------------------------
``pide-fine``
    ``glevy expect --method pide`` with ``export_solution`` on: the
    11-triple ``scaled_point_mass`` intensity family on [1, 2], grid
    [-8, 12] with nx = 1201, dt = 1e-4 and horizon 1, payoff
    ``clampedLinear`` capped at 1. The explicit stepper does almost all the
    work; only 2 of the 11 triples ever win the supremum, so pruning and a
    jump matrix can show here, and the kept layers (92 MiB) dominate peak
    memory. Alongside: ``martingale_check("compensatedJumpPart")`` on the
    same family (nx = 401, dt = 1e-3); ``iterated_expectation`` of
    min(a + b, 1) at times [0.5, 1] on {delta_1, delta_1.5, delta_2}
    (nx = 401, dt = 1e-2), the same stepper on a 2-D batch where every
    triple wins somewhere, so layer-storage and pruning changes should do
    nothing there; ``g_poisson_distribution(1, 2, 1, min(k, 1))``.
``mc-terminal``
    ``glevy expect --method mc`` on the 11-triple family, 2000 paths x 11
    controls; ``estimate_upper_expectation`` of X_1 on the mixtures
    a delta_1 + (1 - a) delta_2, a in {0.25, 0.5, 0.75}, with 3 constant and
    2 switching controls, 4000 paths; X_1 on the diffusive set
    {0.4 delta_1, drift 0.1 a, cov_root 0.5 : a = 1, 2, 3}, 600 paths, which
    takes the Brownian Euler branch. Every payoff reads only X_T, so an
    array-of-paths core can skip building ``CadlagPath`` objects and should
    show its whole gain here. ``pide`` is idle.
``mc-path-events``
    Criterion 06's ``erlang_bound_check`` and criterion 07's boundary-point
    ``estimate_capacity``, 5000 paths each, plus path analytics on 40
    simulated paths at intensity 100 (about 100 jumps each):
    ``cadlag_modulus(delta = 0.05)``, ``decompose`` with reconstruction and
    ``skorohod_distance_upper`` against ``discretize_tn(path, 50)``. These
    payoffs read jump sizes and times, so every path must still be built: a
    change that speeds terminal payoffs at this workload's expense shows
    here, and so does the cubic w'' loop of ``cadlag_modulus``.

The erlang op runs only where its group is at full size: its one-sided
3-sigma verdict has a false-alarm rate of about 0.13% per seed by design.

Gates (a failure counts in ``failed`` and never aborts the run)
------------------------------------------------------------
main solve within both its own ``schemeError`` and 1e-3 of 1 - e^-2;
``g_poisson`` within 1e-6 of 1 - e^-2; the iterated op within 5e-3 of
1 - e^-1; ``is_martingale``; each MC value within 4 sigma of its closed form
(1 - e^-2, 1.75 and 0.7); ``erlang.passes``; boundary capacity exactly 0
with se 0; w'' <= w' + 1e-12; ``decompose`` reconstructs the path to 1e-12.

End-to-end metrics (untraced rounds; each the median over a run's rounds)
------------------------------------------------------------------------
``setup_s``
    import time (median of this process and two fresh interpreters) plus the
    median of three set-ups, each building sets, configs, policies and input
    paths and warming up with one pass over the ops at probe size.
``wall_s``
    op time of one round.
``peak_rss_mib``
    peak resident memory of the process.
``work_per_s``
    the workload's own work per second of its own ops: grid cell steps
    (cells x steps, a 2-D batch counted in full; the lattice ODE of
    ``g_poisson`` has no grid cells) of the grid-PIDE ops on ``pide-fine``;
    path evaluations (paths x candidates) of the MC estimators on the mc
    workloads. A triple count is not work, so pruning counts as a gain.
``pide_err_bound_ratio``
    ``schemeError`` / |value - (1 - e^-2)| of the ``glevy expect`` solve (at
    probe size on the mc workloads); the gate keeps it at least 1.

Failed ops are counted in ``failed`` out of ``attempted``; a failure rate is
no metric because it is 0 on a correct run. Both engines' rates over every
op of a round (``pide_cell_steps_per_s``, ``mc_path_evals_per_s`` and
``mc_s_to_se_0.01``, the sum over MC ops with se > 0 of op seconds x
(se / 0.01)^2) are per-layer metrics, taken from the untraced rounds of a
traced run: where an engine runs only at probe size its rate rests on a
fraction of a second per round and spreads by 20-35% between 30 s windows
on a shared 2-core VM, too much for a regression bound.

Metric-to-layer map: per-layer metrics -> the end-to-end metric they should move
--------------------------------------------------------------------------------
- ``pide.solve_ipde.{calls,s}``, ``pide.cell_steps``,
  ``pide.winning_triple_frac``, ``pide_cell_steps_per_s`` -> ``work_per_s``
  and ``wall_s`` on ``pide-fine``; no change on the mc workloads.
- ``pide.layers_mib`` (largest ``values.nbytes`` of a returned solution) ->
  ``peak_rss_mib`` on ``pide-fine``.
- ``pide.to_csv.s``, ``cli.main.s``, ``cli.self_s`` (main minus its solve,
  estimate and ``to_csv`` children), ``cli.bytes_written`` -> ``wall_s`` on
  ``pide-fine`` and ``mc-terminal``.
- ``pide.iterated_expectation.s``, ``analysis.martingale_check.s`` ->
  ``work_per_s`` on ``pide-fine``; ``pide.g_poisson.s`` -> its ``wall_s``.
- ``simulate.estimate.{calls,s}``, ``simulate.path_evals``,
  ``simulate.base_model.s``, ``simulate.draw_scenario.{calls,s}``,
  ``simulate.jumps_drawn``, ``simulate.self_s``, ``mc_path_evals_per_s``,
  ``mc_s_to_se_0.01`` -> ``work_per_s`` on ``mc-terminal``, less on
  ``mc-path-events``.
- ``paths.CadlagPath.{constructs,s}``, ``simulate.payoff.{calls,s}`` (the
  payoff or event callable of each estimator) -> ``work_per_s`` on
  ``mc-terminal``; they must not rise on ``mc-path-events``.
- ``regions.contains.{calls,s}`` -> ``work_per_s`` on ``mc-path-events``.
- ``paths.cadlag_modulus.{calls,s}``, ``paths.skeleton_points``,
  ``paths.skorohod.s``, ``analysis.decompose.s`` -> ``wall_s`` on
  ``mc-path-events``.
- ``trace.overhead_s`` (traced minus untraced ``wall_s`` in one run) ->
  none; it gives the trace numbers their context.

Per-layer times are inclusive; the traced run's span file also holds every
span's and counter's self time.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import glevy
import glevy.cli
from tracing import Tracer, instrumented

WORKLOADS = {"pide-fine": "pide", "mc-terminal": "terminal", "mc-path-events": "events"}
# the unit of work ``work_per_s`` counts for each workload's own group
WORK_UNIT = {"pide": "cells", "terminal": "path_evals", "events": "path_evals"}
DEFAULT_SEED = 1
SETUP_REPS = 3

ONE_MINUS_E2 = 1.0 - math.exp(-2.0)
ONE_MINUS_E1 = 1.0 - math.exp(-1.0)
X_MIN, X_MAX = -8.0, 12.0

SIZES = {
    "full": {
        "expect_nx": 1201,
        "expect_dt": 1e-4,
        "check_nx": 401,
        "check_dt": 1e-3,
        "iter_nx": 401,
        "iter_dt": 1e-2,
        "expect_paths": 2000,
        "mixture_paths": 4000,
        "diffusive_paths": 600,
        "erlang_paths": 5000,
        "capacity_paths": 5000,
        "analytic_paths": 40,
    },
    # probes, warm-up and the smoke test; every gate holds at these sizes
    "tiny": {
        "expect_nx": 101,
        "expect_dt": 2e-3,
        "check_nx": 101,
        "check_dt": 5e-3,
        "iter_nx": 101,
        "iter_dt": 1e-2,
        "expect_paths": 100,
        "mixture_paths": 100,
        "diffusive_paths": 60,
        "erlang_paths": 100,
        "capacity_paths": 100,
        "analytic_paths": 1,
    },
}

INTENSITY_FAMILY = {
    "family": {
        "rule": "scaled_point_mass",
        "fixed": {"location": 1.0},
        "params": {"intensity": {"min": 1.0, "max": 2.0, "count": 11}},
    }
}
CLAMPED = {"kind": "clampedLinear", "scale": 1.0, "cap": 1.0}


@dataclass
class Op:
    """One timed call into glevy and the gate on its output.

    ``info`` holds the work the op does (``cells``, ``path_evals``); the gate
    returns (passed, measured info such as ``se`` or ``err_ratio``).
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, dict]]
    info: dict = field(default_factory=dict)
    primary: bool = False


@dataclass
class OpResult:
    name: str
    seconds: float
    ok: bool
    info: dict
    primary: bool


def _seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _within_sigmas(value: float, se: float, want: float) -> bool:
    return abs(value - want) <= 4.0 * se


def _bytes_in(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def _cli_op(name: str, config: dict, argv: list[str], out: Path, check, info: dict) -> Op:
    """An op that runs ``glevy expect`` in-process and gates its result record."""
    op_dir = out / name
    op_dir.mkdir(parents=True, exist_ok=True)
    config_path = out / f"{name}.json"
    config_path.write_text(json.dumps(config))
    full_argv = argv + ["--config", str(config_path), "--out", str(op_dir), "--quiet"]

    def gate(rc):
        if rc != 0:
            return False, {}
        results = json.loads((op_dir / "expect_result.json").read_text())["results"]
        ok, measured = check(results)
        return ok, {**measured, "bytes": _bytes_in(op_dir)}

    return Op(name, lambda: glevy.cli.main(full_argv), gate, info)


# ---------------------------------------------------------------------------
# op groups
# ---------------------------------------------------------------------------


def _pide_ops(sz: dict, seed: int, out: Path, primary: bool) -> list[Op]:
    nx, dt = sz["expect_nx"], sz["expect_dt"]

    def expect_gate(results):
        value, err = results["pideValue"], results["schemeError"]
        miss = abs(value - ONE_MINUS_E2)
        return miss <= err and miss <= 1e-3, {"err_ratio": err / max(miss, 1e-300)}

    grid = {"x_min": X_MIN, "x_max": X_MAX, "nx": nx, "dt": dt, "horizon": 1.0, "export_solution": True}
    expect = _cli_op(
        "pide.expect",
        {"uncertainty": INTENSITY_FAMILY, "grid": grid, "payoff": CLAMPED},
        ["expect", "--method", "pide"],
        out,
        expect_gate,
        {"cells": nx * glevy.Grid1D(X_MIN, X_MAX, nx, dt, 1.0).steps_for(1.0)[0]},
    )

    family = glevy.uncertainty_set_from_config(INTENSITY_FAMILY)
    spec = glevy.ProcessSpec("compensatedJumpPart", family)
    check_grid = glevy.Grid1D(X_MIN, X_MAX, sz["check_nx"], sz["check_dt"], 1.0)
    martingale = Op(
        "pide.martingale",
        lambda: glevy.analysis.martingale_check(spec, 0.25, 0.75, check_grid),
        lambda res: (res.is_martingale, {}),
        {"cells": 2 * check_grid.nx * check_grid.steps_for(0.5)[0]},
    )

    locations = glevy.UncertaintySet(
        tuple(glevy.LevyTriple(glevy.DiscreteLevyMeasure.delta(z)) for z in (1.0, 1.5, 2.0))
    )
    iter_grid = glevy.Grid1D(X_MIN, X_MAX, sz["iter_nx"], sz["iter_dt"], 1.0)
    iterated = Op(
        "pide.iterated",
        lambda: glevy.pide.iterated_expectation(
            lambda a, b: np.minimum(a + b, 1.0), [0.5, 1.0], locations, iter_grid
        ),
        lambda v: (abs(v - ONE_MINUS_E1) <= 5e-3, {}),
        {"cells": (iter_grid.nx**2 + iter_grid.nx) * iter_grid.steps_for(0.5)[0]},
    )

    poisson = Op(
        "pide.g_poisson",
        lambda: glevy.pide.g_poisson_distribution(1.0, 2.0, 1.0, lambda k: np.minimum(k, 1.0)),
        lambda v: (abs(v - ONE_MINUS_E2) <= 1e-6, {}),
    )
    return [expect, martingale, iterated, poisson]


def _mc_gate(want: float):
    def gate(est):
        return _within_sigmas(est.value, est.std_error, want), {"se": est.std_error}

    return gate


def _mixtures() -> glevy.UncertaintySet:
    return glevy.UncertaintySet(
        tuple(
            glevy.LevyTriple(glevy.DiscreteLevyMeasure(np.array([[1.0], [2.0]]), np.array([a, 1.0 - a])))
            for a in (0.25, 0.5, 0.75)
        )
    )


def _terminal_ops(sz: dict, seed: int, out: Path, primary: bool) -> list[Op]:
    n = sz["expect_paths"]

    def expect_gate(results):
        value, se = results["mcValue"], results["stdError"]
        return _within_sigmas(value, se, ONE_MINUS_E2), {"se": se}

    expect = _cli_op(
        "mc.expect",
        {"uncertainty": INTENSITY_FAMILY, "horizon": 1.0, "payoff": CLAMPED, "mc": {"n_paths": n}},
        ["expect", "--method", "mc", "--seed", str(_seed(seed, 1))],
        out,
        expect_gate,
        {"path_evals": n * len(glevy.uncertainty_set_from_config(INTENSITY_FAMILY))},
    )

    terminal = lambda path: path.scalar_value(1.0)
    mixtures = _mixtures()
    switch = np.array([0.0, 0.5, 1.0])
    policies = glevy.constant_policies(mixtures, 1.0) + [
        glevy.ControlPolicy(switch, (0, 2)),
        glevy.ControlPolicy(switch, (2, 0)),
    ]
    n_mix, mix_seed = sz["mixture_paths"], _seed(seed, 2)
    mixture = Op(
        "mc.mixture_linear",
        lambda: glevy.simulate.estimate_upper_expectation(
            terminal, mixtures, policies, n_mix, mix_seed, horizon=1.0
        ),
        _mc_gate(1.75),
        {"path_evals": n_mix * len(policies)},
    )

    diffusive_set = glevy.UncertaintySet(
        tuple(
            glevy.LevyTriple(glevy.DiscreteLevyMeasure.delta(1.0, 0.4), drift=0.1 * a, cov_root=0.5)
            for a in (1, 2, 3)
        )
    )
    n_diff, diff_seed = sz["diffusive_paths"], _seed(seed, 3)
    constant = glevy.constant_policies(diffusive_set, 1.0)
    diffusive = Op(
        "mc.diffusive_linear",
        lambda: glevy.simulate.estimate_upper_expectation(
            terminal, diffusive_set, constant, n_diff, diff_seed, horizon=1.0
        ),
        _mc_gate(0.7),
        {"path_evals": n_diff * len(constant)},
    )
    return [expect, mixture, diffusive]


def _analytic_paths(n: int, seed: int) -> list[glevy.CadlagPath]:
    """Jump-diffusion paths at intensity 100, the inputs of the path analytics."""
    busy = glevy.UncertaintySet(
        (glevy.LevyTriple(glevy.DiscreteLevyMeasure.delta(1.0, 100.0), drift=0.3, cov_root=1.0),)
    )
    model = glevy.BaseJumpModel.from_uncertainty(busy)
    policy = glevy.ControlPolicy.constant(0, 0.0, 1.0)
    rng = np.random.default_rng(_seed(seed, 6))
    return [
        glevy.simulate_path(
            glevy.draw_scenario(model, 1.0, rng, with_brownian=True, brownian_dt=0.1), policy, busy
        )
        for _ in range(n)
    ]


def _analyse(path: glevy.CadlagPath):
    modulus = glevy.paths.cadlag_modulus(path, 0.05)
    xc, xd = glevy.analysis.decompose(path)
    probes = np.concatenate([path.grid_times, path.jump_times, [path.horizon]])
    recon = float(np.max(np.abs(xc.values_at(probes) + xd.values_at(probes) - path.values_at(probes))))
    distance = glevy.paths.skorohod_distance_upper(path, glevy.paths.discretize_tn(path, 50))
    return modulus, recon, distance


def _analytics_gate(out):
    modulus, recon, distance = out
    ok = modulus.w_second <= modulus.w_prime + 1e-12 and recon <= 1e-12 and math.isfinite(distance)
    return ok, {}


def _events_ops(sz: dict, seed: int, out: Path, primary: bool) -> list[Op]:
    mixtures = _mixtures()
    ops = []
    if primary:
        n_erl, erl_seed = sz["erlang_paths"], _seed(seed, 4)
        region_a = glevy.Region.open_interval(0.5, 2.5)
        region_b = glevy.Region.open_interval(0.5, 1.5)
        ops.append(
            Op(
                "events.erlang",
                lambda: glevy.simulate.erlang_bound_check(
                    mixtures, region_a, region_b, 1, (0.0, 1.0), n_erl, erl_seed
                ),
                lambda res: (res.passes, {"se": res.std_error}),
                {"path_evals": n_erl * len(mixtures)},
            )
        )

    boundary = glevy.Region.point_set([0.5, 1.5])
    on_boundary = lambda path: bool(np.any(boundary.contains(path.jump_sizes)))
    n_cap, cap_seed = sz["capacity_paths"], _seed(seed, 5)
    constant = glevy.constant_policies(mixtures, 1.0)
    ops.append(
        Op(
            "events.boundary_capacity",
            lambda: glevy.simulate.estimate_capacity(
                on_boundary, mixtures, constant, n_cap, cap_seed, horizon=1.0
            ),
            lambda est: (est.value == 0.0 and est.std_error == 0.0, {"se": est.std_error}),
            {"path_evals": n_cap * len(constant)},
        )
    )
    for i, path in enumerate(_analytic_paths(sz["analytic_paths"], seed)):
        ops.append(Op(f"events.path_analytics.{i}", lambda path=path: _analyse(path), _analytics_gate))
    return ops


GROUPS = {"pide": _pide_ops, "terminal": _terminal_ops, "events": _events_ops}


def build_ops(workload: str, level: str, seed: int, out: Path) -> list[Op]:
    """The workload's own group at ``level`` plus the other groups at probe size."""
    ops = []
    for group, build in GROUPS.items():
        primary = group == WORKLOADS[workload]
        for op in build(SIZES[level if primary else "tiny"], seed, out / group, primary):
            op.primary = primary
            ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# rounds and metrics
# ---------------------------------------------------------------------------


def run_round(ops: list[Op], tracer: Tracer | None = None) -> list[OpResult]:
    """Time each op's call, then gate its output; failures are counted, not raised."""
    results = []
    for op in ops:
        out, called = None, False
        with tracer.op(op.name) if tracer else nullcontext():
            t0 = perf_counter()
            try:
                out = op.call()
                called = True
            except Exception:
                traceback.print_exc()
            seconds = perf_counter() - t0
        ok, info = False, dict(op.info)
        if called:
            try:
                ok, measured = op.check(out)
                info.update(measured)
            except Exception:
                traceback.print_exc()
        if not ok:
            print(f"gate failed: {op.name}", file=sys.stderr)
        results.append(OpResult(op.name, seconds, bool(ok), info, op.primary))
    return results


def _rate(results: list[OpResult], key: str) -> float:
    timed = [r for r in results if key in r.info]
    return sum(r.info[key] for r in timed) / sum(r.seconds for r in timed)


def end_to_end_round(workload: str, results: list[OpResult]) -> dict:
    ratios = [r.info["err_ratio"] for r in results if "err_ratio" in r.info]
    own = [r for r in results if r.primary]
    return {
        "wall_s": _wall(results),
        "work_per_s": _rate(own, WORK_UNIT[WORKLOADS[workload]]),
        "pide_err_bound_ratio": ratios[0] if ratios else math.nan,
    }


def engine_rates(results: list[OpResult]) -> dict:
    """Both engines' rates over every op of a round, probes included."""
    return {
        "pide_cell_steps_per_s": _rate(results, "cells"),
        "mc_path_evals_per_s": _rate(results, "path_evals"),
        "mc_s_to_se_0.01": sum(
            r.seconds * (r.info["se"] / 0.01) ** 2 for r in results if r.info.get("se", 0.0) > 0.0
        ),
    }


def layer_round(tr: Tracer, results: list[OpResult]) -> dict:
    names = {s["id"]: s["name"] for s in tr.spans}
    solves = tr.named("pide.solve_ipde")
    main_solves = [s["attrs"] for s in solves if names.get(s["parent"]) == "cli.main"]
    m = {
        "pide.solve_ipde.calls": tr.calls("pide.solve_ipde"),
        "pide.solve_ipde.s": tr.total_s("pide.solve_ipde"),
        "pide.cell_steps": sum(r.info.get("cells", 0) for r in results),
        "pide.winning_triple_frac": sum(a["winners"] for a in main_solves)
        / max(sum(a["triples"] for a in main_solves), 1),
        "pide.layers_mib": max((s["attrs"]["nbytes"] for s in solves), default=0) / 2**20,
        "cli.self_s": tr.self_s("cli.main"),
        "cli.bytes_written": sum(r.info.get("bytes", 0) for r in results),
        "simulate.path_evals": tr.counts.get("simulate.path_evals", 0),
        "simulate.jumps_drawn": tr.counts.get("simulate.jumps_drawn", 0),
        "simulate.self_s": tr.self_s("simulate.estimate"),
        "paths.CadlagPath.constructs": tr.calls("paths.CadlagPath"),
        "paths.skeleton_points": tr.counts.get("paths.skeleton_points", 0),
    }
    for name in ("simulate.estimate", "simulate.draw_scenario", "simulate.payoff",
                 "regions.contains", "paths.cadlag_modulus"):
        m[f"{name}.calls"] = tr.calls(name)
    for name in ("pide.to_csv", "cli.main", "pide.iterated_expectation", "pide.g_poisson",
                 "analysis.martingale_check", "simulate.estimate", "simulate.base_model",
                 "simulate.draw_scenario", "paths.CadlagPath", "simulate.payoff",
                 "regions.contains", "paths.cadlag_modulus", "paths.skorohod", "analysis.decompose"):
        m[f"{name}.s"] = tr.total_s(name)
    return m


def _medians(rows: list[dict]) -> dict:
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def _wall(results: list[OpResult]) -> float:
    return sum(r.seconds for r in results)


def _warm_up(ops: list[Op]) -> None:
    """Call each op once so lazy set-up lands in set-up time; outputs unused."""
    for op in ops:
        try:
            op.call()
        except Exception:
            traceback.print_exc()


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out: Path,
    *,
    import_s: float,
    env: dict,
    trace_file: Path,
    level: str = "full",
) -> dict:
    """Set up, measure rounds for ``seconds`` and return counts and metric values.

    With ``trace`` the rounds alternate untraced and traced, the metrics are
    the per-layer ones plus ``trace.overhead_s``, and the spans of every
    traced round are written to ``trace_file`` when the run ends.
    """
    setups = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        ops = build_ops(workload, level, seed, out / "ops")
        _warm_up(build_ops(workload, "tiny", seed, out / "warmup"))
        setups.append(perf_counter() - t0)

    untraced, traced = [], []
    deadline = perf_counter() + seconds
    while True:
        if trace and len(untraced) > len(traced):
            tracer = Tracer()
            with instrumented(tracer):
                traced.append((run_round(ops, tracer), tracer))
        else:
            untraced.append(run_round(ops))
        if perf_counter() >= deadline and (traced or not trace):
            break

    every = [r for rs in untraced for r in rs] + [r for rs, _ in traced for r in rs]
    failed = sum(not r.ok for r in every)
    if trace:
        metrics = _medians([layer_round(tr, rs) for rs, tr in traced])
        metrics.update(_medians([engine_rates(rs) for rs in untraced]))
        metrics["trace.overhead_s"] = statistics.median(_wall(rs) for rs, _ in traced) - statistics.median(
            _wall(rs) for rs in untraced
        )
        doc = {
            "workload": workload,
            "seed": seed,
            "env": env,
            "untraced_rounds": [[asdict(r) for r in rs] for rs in untraced],
            "traced_rounds": [{"ops": [asdict(r) for r in rs], **tr.as_dict()} for rs, tr in traced],
        }
        trace_file.write_text(json.dumps(doc))
    else:
        metrics = _medians([end_to_end_round(workload, rs) for rs in untraced])
        metrics["setup_s"] = import_s + statistics.median(setups)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"attempted": len(every), "failed": failed, "metrics": metrics}
