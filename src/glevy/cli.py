"""Batch command line front-end.

One declarative config document describes a run; the subcommand picks the
computation. Every run writes a JSON result record embedding the config
hash, the seed in effect and the package version, so identical configs
produce bit-identical artifacts (wall-clock time is printed to the console,
never stored). Arrays destined for plots are written as CSV next to the
record.

Exit status: 0 success, 2 unusable config or arguments (including a missing
or ill-typed config value, an unreadable input file, and a payoff that
evaluates to non-finite values), 3 violated assumption reported by the
computation, 4 numerical abort.

Config schema (YAML or JSON; sections are consumed by the subcommand that
needs them)::

    uncertainty:            # see glevy.uncertainty.uncertainty_set_from_config
      family:
        rule: scaled_point_mass
        fixed: {location: 1.0}
        params:
          intensity: {min: 1.0, max: 2.0, count: 11}
      # or explicit: triples: [{measure: {atoms: [[1.0, 2.0]]}, drift: 0.0, cov_root: 0.0}]

    grid:                   # finite difference grid (expect/martingale-check)
      x_min: -8.0
      x_max: 12.0
      nx: 801
      dt: 2.0e-4
      horizon: 1.0
      export_solution: false  # expect only: write solution.csv + header in record
      export_rows: 201        # >= 2; the solve keeps 2 to export_rows layers and exports them all

    mc:                     # Monte Carlo settings (expect/capacity/erlang-bound)
      n_paths: 10000
      seed: 42
      brownian_dt: 0.01

    payoff:                 # named payoff (expect/gpoisson/fnspace)
      kind: clampedLinear   # linear | clampedLinear | indicatorSmoothed | table
      scale: 1.0
      cap: 1.0              # clampedLinear
      lo: 0.5               # indicatorSmoothed ramp start
      hi: 1.5               # indicatorSmoothed ramp end
      xs: [0, 1, 2]         # table knots
      ys: [0, 1, 0]

    horizon: 1.0            # process horizon where distinct from the grid's

    validate: {q: 0.5, p: 2.0}
    gpoisson: {lambda_min: 1.0, lambda_max: 2.0, t: 1.0}
    capacity: {region: {interval: [0.5, 1.5]}, min_count: 1}
    erlang: {region_a: {points: [1, 2]}, region_b: {points: [1]}, k: 1, window: [0.0, 1.0]}
    martingale: {kind: compensatedJumpPart, s: 0.25, t: 0.75}
    compensate: {input: path.jsonl}
    decompose: {input: path.jsonl}
    transport: {eps: [0.1, 0.5]}
    fnspace: {p: 1.0, region: {full: true}, discontinuity: {points: [1.0]}}
    counterexample: {t: 0.5, shift: 0.01, size_a: 1.0, size_b: 1.01, horizon: 1.0}

Regions accept {interval: [lo, hi], closed: left|right|both|none},
{points: [...]}, {full: true} or explicit {boxes: [...], atoms: [...]}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .analysis import (
    ProcessSpec,
    compensate,
    decompose,
    martingale_check,
    mean_of_jump_part,
)
from .errors import (
    AssumptionError,
    ConfigError,
    EvaluationError,
    GLevyError,
    InvalidInputError,
    NumericalAbortError,
    UnsupportedError,
)
from .fnspace import (
    TestFunction,
    membership_lpb,
    qc_criterion,
    tightness_csv,
    tightness_profile,
    ui_csv,
    uniform_integrability_profile,
    v_norm,
)
from .paths import (
    counterexample_family,
    poisson_integral,
    prm_count,
    read_records,
    skorohod_distance_upper,
    write_records,
)
from .pide import Grid1D, g_poisson_distribution, solve_ipde
from .regions import Region
from .simulate import (
    TerminalPayoff,
    constant_policies,
    erlang_bound_check,
    estimate_capacity,
    estimate_upper_expectation,
)
from .uncertainty import InverseSquareTail, transport_map, uncertainty_set_from_config, validate


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    except yaml.YAMLError as e:
        raise ConfigError(f"cannot parse config {path}: {e}")
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    return doc


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()


_REQUIRED = object()


def _get(doc, key: str, kind=float, default=_REQUIRED):
    """Return ``kind(doc[key])``, or ``default`` when absent; each refusal is a ConfigError naming the key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"the config holding {key!r} must be a mapping")
    if key not in doc:
        if default is _REQUIRED:
            raise ConfigError(f"config needs {key!r}")
        return default
    try:
        return kind(doc[key])
    except (LookupError, TypeError, ValueError, OverflowError, OSError) as e:
        raise ConfigError(f"cannot read {key!r}: {type(e).__name__}: {e}") from e


def _mapping(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a mapping, got {type(value).__name__}")
    return value


def _floats(value) -> list[float]:
    return [float(v) for v in value]


def _payoff_from_config(config: dict) -> tuple:
    doc = _get(config, "payoff", _mapping)
    kind = _get(doc, "kind", str)
    if kind == "linear":
        scale = _get(doc, "scale", float, 1.0)
        return (lambda x: scale * np.asarray(x, dtype=float)), f"linear(scale={scale})"
    if kind == "clampedLinear":
        scale = _get(doc, "scale", float, 1.0)
        cap = _get(doc, "cap", float, 1.0)
        return (
            lambda x: np.minimum(scale * np.asarray(x, dtype=float), cap)
        ), f"clampedLinear(scale={scale}, cap={cap})"
    if kind == "indicatorSmoothed":
        lo = _get(doc, "lo", float, 0.0)
        hi = _get(doc, "hi", float, 1.0)
        if not hi > lo:
            raise ConfigError("indicatorSmoothed needs hi > lo")
        return (
            lambda x: np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
        ), f"indicatorSmoothed(lo={lo}, hi={hi})"
    if kind == "table":
        xs, ys = (_get(doc, k, lambda v: np.asarray(v, dtype=float)) for k in ("xs", "ys"))
        if xs.ndim != 1 or xs.shape != ys.shape or xs.shape[0] < 2 or np.any(np.diff(xs) <= 0):
            raise ConfigError("table payoff needs matching strictly increasing xs and ys")
        return (lambda x: np.interp(np.asarray(x, dtype=float), xs, ys)), "table"
    raise ConfigError(f"unknown payoff kind {kind!r}")


def _grid_from_config(doc: dict) -> Grid1D:
    return Grid1D(
        _get(doc, "x_min"), _get(doc, "x_max"), _get(doc, "nx", int), _get(doc, "dt"), _get(doc, "horizon")
    )


def _uset(config: dict):
    return _get(config, "uncertainty", uncertainty_set_from_config)


def _mc_settings(config: dict, seed_override: int | None):
    mc = _get(config, "mc", _mapping, {})
    seed = seed_override if seed_override is not None else _get(mc, "seed", int, None)
    if seed is None:
        raise ConfigError("a seed is required for stochastic commands (mc.seed or --seed)")
    return _get(mc, "n_paths", int, 10000), seed, _get(mc, "brownian_dt", float, 0.01)


def _horizon(config: dict) -> float:
    """Top-level ``horizon``, else the grid's."""
    T = _get(config, "horizon", float, None)
    return T if T is not None else _get(_get(config, "grid", _mapping, {}), "horizon")


class _Encoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, np.floating):
            return float(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, np.bool_):
            return bool(o)
        return super().default(o)


# ---------------------------------------------------------------------------
# subcommand implementations, each returning (results dict, csv artifacts)
# ---------------------------------------------------------------------------


def _cmd_validate(config, args, out_dir):
    sec = _get(config, "validate", _mapping)
    report = validate(_uset(config), _get(sec, "q"), _get(sec, "p"))
    return {"report": report.as_dict(), "ok": report.ok}, {}


def _cmd_expect(config, args, out_dir):
    method = args.method or _get(config, "method", str, "both")
    if method not in ("pide", "mc", "both"):
        raise ConfigError(f"unknown method {method!r}")
    payoff, payoff_name = _payoff_from_config(config)
    uset = _uset(config)
    T = _horizon(config)
    results: dict = {"method": method, "payoff": payoff_name, "horizon": T}
    csvs: dict = {}
    if method in ("pide", "both"):
        grid_cfg = _get(config, "grid", _mapping)
        export = _get(grid_cfg, "export_solution", bool, False)
        # the solve keeps only the layers the export reads: first and last without one
        rows = _get(grid_cfg, "export_rows", int, 201) if export else 2
        sol = solve_ipde(payoff, uset, _grid_from_config(grid_cfg), horizon=T, max_rows=rows)
        results["pideValue"] = sol.value_at_zero()
        results["schemeError"] = sol.diagnostics["scheme_error_estimate"]
        results["pideDiagnostics"] = sol.diagnostics
        if export:
            text, header = sol.to_csv()
            csvs["solution.csv"] = text
            results["solutionHeader"] = header
    if method in ("mc", "both"):
        n_paths, seed, brownian_dt = _mc_settings(config, args.seed)
        est = estimate_upper_expectation(
            TerminalPayoff(payoff),
            uset,
            constant_policies(uset, T),
            n_paths,
            seed,
            horizon=T,
            brownian_dt=brownian_dt,
        )
        results["mcValue"] = est.value
        results["stdError"] = est.std_error
        results["argmax"] = est.argmax
        results["nPaths"] = n_paths
        results["seed"] = seed
    if method == "both":
        gap = results["pideValue"] - results["mcValue"]
        results["duality"] = {
            "gap": gap,
            "mcConsistent": results["mcValue"]
            <= results["pideValue"] + 3.0 * results["stdError"] + results["schemeError"],
            "slack": 3.0 * results["stdError"] + results["schemeError"],
        }
    return results, csvs


def _cmd_gpoisson(config, args, out_dir):
    sec = _get(config, "gpoisson", _mapping)
    payoff, payoff_name = _payoff_from_config(config)
    value = g_poisson_distribution(
        _get(sec, "lambda_min"),
        _get(sec, "lambda_max"),
        _get(sec, "t"),
        payoff,
        n_steps=_get(sec, "n_steps", int, None),
    )
    # echo the three parameters as the config wrote them
    return {"value": value, "payoff": payoff_name, **{k: sec[k] for k in ("lambda_min", "lambda_max", "t")}}, {}


def _cmd_capacity(config, args, out_dir):
    sec = _get(config, "capacity", _mapping)
    region = _get(sec, "region", Region.from_dict)
    min_count = _get(sec, "min_count", int, 1)
    if min_count < 0:
        raise ConfigError(f"capacity min_count must be >= 0, got {min_count}")
    uset = _uset(config)
    T = _horizon(config)
    n_paths, seed, brownian_dt = _mc_settings(config, args.seed)

    est = estimate_capacity(
        lambda path: prm_count(path, 0.0, path.horizon, region) >= min_count,
        uset, constant_policies(uset, T), n_paths, seed, horizon=T, brownian_dt=brownian_dt
    )
    return {
        "capacity": est.value,
        "stdError": est.std_error,
        "argmax": est.argmax,
        "minCount": min_count,
        "nPaths": n_paths,
        "seed": seed,
        "horizon": T,
    }, {}


def _cmd_erlang_bound(config, args, out_dir):
    sec = _get(config, "erlang", _mapping)
    window = _get(sec, "window", lambda w: (float(w[0]), float(w[1])), (0.0, float("inf")))
    n_paths, seed, _ = _mc_settings(config, args.seed)
    res = erlang_bound_check(
        _uset(config),
        _get(sec, "region_a", Region.from_dict),
        _get(sec, "region_b", Region.from_dict),
        _get(sec, "k", int, 1),
        window,
        n_paths,
        seed,
    )
    return {
        "mcCapacity": res.mc_capacity,
        "stdError": res.std_error,
        "analyticBound": res.analytic_bound,
        "pass": res.passes,
        "horizon": res.horizon,
        "nPaths": n_paths,
        "seed": seed,
    }, {}


def _cmd_compensate(config, args, out_dir):
    sec = _get(config, "compensate", _mapping)
    uset = _uset(config)
    path = _get(sec, "input", lambda v: read_records(str(v)))
    drift = mean_of_jump_part(uset, 1.0)
    comp = compensate(path, uset)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    out_file = str(Path(out_dir) / "compensated_path.jsonl")
    write_records(comp, out_file)
    return {
        "drift": drift.tolist(),
        "input": _get(sec, "input", str),
        "output": out_file,
        "terminalValue": np.atleast_2d(comp.values_at(comp.horizon))[-1].tolist(),
    }, {}


def _cmd_martingale_check(config, args, out_dir):
    sec = _get(config, "martingale", _mapping)
    kind = _get(sec, "kind", str)
    uset = _uset(config)
    grid = _grid_from_config(_get(config, "grid", _mapping))
    res = martingale_check(ProcessSpec(kind, uset), _get(sec, "s", float, 0.0), _get(sec, "t"), grid)
    return {"kind": kind, **res.as_dict()}, {}


def _cmd_decompose(config, args, out_dir):
    sec = _get(config, "decompose", _mapping)
    path = _get(sec, "input", lambda v: read_records(str(v)))
    xc, xd = decompose(path)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    cont_file = str(Path(out_dir) / "continuous_part.jsonl")
    jump_file = str(Path(out_dir) / "jump_part.jsonl")
    write_records(xc, cont_file)
    write_records(xd, jump_file)
    return {
        "input": _get(sec, "input", str),
        "continuous": cont_file,
        "jumps": jump_file,
        "nJumps": path.n_jumps,
    }, {}


def _cmd_transport(config, args, out_dir):
    sec = _get(config, "transport", _mapping, {})
    eps_list = _get(sec, "eps", _floats, [0.1])
    uset = _uset(config)
    base = InverseSquareTail()
    measures = []
    csvs = {}
    for i, m in enumerate(uset.measures):
        tm = transport_map(m, base)
        rows = ["lo,hi,target,weight"]
        for sh in tm.shells:
            rows.append(f"{sh.lo!r},{sh.hi!r},{sh.target!r},{sh.weight!r}")
        csvs[f"transport_shells_{i}.csv"] = "\n".join(rows) + "\n"
        errs = tm.pushforward_errors(m)
        measures.append(
            {
                "index": i,
                "nShells": len(tm.shells),
                "innerRadius": tm.inner_radius,
                "pushforwardMaxError": float(np.max(errs)) if errs.size else 0.0,
                "separationRadius": {repr(e): tm.separation_radius(e) for e in eps_list},
            }
        )
    return {"base": base.describe(), "measures": measures}, csvs


def _cmd_fnspace(config, args, out_dir):
    sec = _get(config, "fnspace", _mapping, {})
    p = _get(sec, "p", float, 1.0)
    payoff, payoff_name = _payoff_from_config(config)
    region = _get(sec, "region", Region.from_dict, None)
    disc = _get(sec, "discontinuity", Region.from_dict, None)
    f = TestFunction(lambda z: float(payoff(z)), discontinuity=disc, name=payoff_name)
    uset = _uset(config)
    family = uset.measures
    norm = v_norm(f, region, family, p)
    verdict = membership_lpb(f, region, family, p)
    qc = qc_criterion(f, family)
    eps_ladder = _get(sec, "eps", _floats, [1e-1, 1e-2, 1e-3])
    ns_ladder = _get(sec, "ns", _floats, [1.0, 4.0, 16.0, 64.0])
    tight = tightness_profile(f, family, p, eps_ladder)
    ui = uniform_integrability_profile(f, family, p, ns_ladder)
    csvs = {
        "fnspace_tightness.csv": tightness_csv(tight),
        "fnspace_ui.csv": ui_csv(ui),
    }
    return {
        "payoff": payoff_name,
        "p": p,
        "norm": norm,
        "membership": verdict.as_dict(),
        "qc": qc.as_dict(),
    }, csvs


def _cmd_counterexample(config, args, out_dir):
    sec = _get(config, "counterexample", _mapping, {})
    t = _get(sec, "t", float, 0.5)
    shift = _get(sec, "shift", float, 0.01)
    size_a = _get(sec, "size_a", float, 1.0)
    size_b = _get(sec, "size_b", float, 1.01)
    T = _get(sec, "horizon", float, 1.0)
    a = counterexample_family(t, size_a, T)
    b = counterexample_family(t + shift, size_b, T)
    dist = skorohod_distance_upper(a, b)
    target = Region.point_set([size_a])
    ia = poisson_integral(a, lambda z: 1.0, target, T)
    ib = poisson_integral(b, lambda z: 1.0, target, T)
    return {
        "pathDistanceUpper": dist,
        "integralA": ia,
        "integralB": ib,
        "integralGap": abs(ia - ib),
        "comment": (
            "nearby paths, unit gap in the point-mass jump count: the "
            "indicator of a single size is not quasi-continuous"
        ),
    }, {}


_COMMANDS = {
    "validate": _cmd_validate,
    "expect": _cmd_expect,
    "gpoisson": _cmd_gpoisson,
    "capacity": _cmd_capacity,
    "erlang-bound": _cmd_erlang_bound,
    "compensate": _cmd_compensate,
    "martingale-check": _cmd_martingale_check,
    "decompose": _cmd_decompose,
    "transport": _cmd_transport,
    "fnspace": _cmd_fnspace,
    "counterexample": _cmd_counterexample,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glevy",
        description="Worst-case jump-process computations driven by config files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} computation")
        p.add_argument("--config", default=None, help="YAML or JSON config document")
        p.add_argument("--out", default=".", help="directory for result artifacts")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress console summary")
        if name == "expect":
            p.add_argument(
                "--method", choices=("pide", "mc", "both"), default=None, help="solver selection"
            )
        else:
            p.set_defaults(method=None)
    return parser


def _write_record(out_dir: str, command: str, record: dict) -> str:
    path = Path(out_dir) / f"{command.replace('-', '_')}_result.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True, indent=2, cls=_Encoder) + "\n")
    return str(path)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        config = _load_config(args.config)
        declared = _get(config, "command", str, None)
        if declared is not None and declared != args.command:
            raise ConfigError(f"config declares command {declared!r} but {args.command!r} was invoked")
        handler = _COMMANDS[args.command]
    except GLevyError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    record = {
        "command": args.command,
        "version": __version__,
        "configHash": _config_hash(config),
        "seed": args.seed,
    }
    try:
        results, csvs = handler(config, args, args.out)
    except (ConfigError, InvalidInputError, EvaluationError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (AssumptionError, UnsupportedError) as e:
        record["status"] = "assumption-violated"
        record["error"] = str(e)
        path = _write_record(args.out, args.command, record)
        print(f"assumption violated: {e}\nreport: {path}", file=sys.stderr)
        return 3
    except NumericalAbortError as e:
        record["status"] = "numerical-abort"
        record["error"] = str(e)
        record["diagnostics"] = getattr(e, "diagnostics", {})
        path = _write_record(args.out, args.command, record)
        print(f"numerical abort: {e}\nreport: {path}", file=sys.stderr)
        return 4

    record["status"] = "ok"
    record["results"] = results
    if "seed" in results:
        record["seed"] = results["seed"]
    out_path = _write_record(args.out, args.command, record)
    for name, text in csvs.items():
        (Path(args.out) / name).write_text(text)
    if not args.quiet:
        elapsed = time.monotonic() - started
        print(f"{args.command}: ok -> {out_path} ({elapsed:.2f}s wall time)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
