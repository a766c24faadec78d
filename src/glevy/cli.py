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

Integer settings (``nx``, ``seed``, ``n_paths``, ``export_rows``,
``n_steps``, ``min_count``, ``k``) take an integer or a float with an
integral value such as 2.0; a bool, a string or a fraction exits 2. A seed,
from ``mc.seed`` or ``--seed``, lies in [0, 2**64), so each seed names one
stream. Boolean settings (``export_solution``) take ``true`` or ``false``
only; a string such as "false" or a number exits 2.

Config schema (YAML or JSON). Every key is declared below; a key that is
not exits 2, naming the nearest declared key. A section is read only by the
subcommands that consume it::

    command: expect         # optional; must name the subcommand run
    method: both            # pide | mc | both (expect); --method overrides it
    horizon: 1.0            # process horizon where distinct from the grid's

    uncertainty:            # see glevy.uncertainty.uncertainty_set_from_config
      family:               # a grid over a rule's keyword parameters
        rule: scaled_point_mass
        fixed: {location: 1.0}
        params:
          intensity: {min: 1.0, max: 2.0, count: 11}
      triples:              # or explicit triples, which take precedence
        - {measure: {atoms: [[1.0, 2.0]]}, drift: 0.0, cov_root: 0.0}
        - {measure: {locations: [[1.0]], weights: [2.0]}}

    grid:                   # finite difference grid (expect/martingale-check)
      x_min: -8.0
      x_max: 12.0
      nx: 801
      dt: 2.0e-4
      horizon: 1.0
      export_solution: false  # expect only; write solution.csv + header in record
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

    validate: {q: 0.5, p: 2.0}
    gpoisson: {lambda_min: 1.0, lambda_max: 2.0, t: 1.0, n_steps: 1000}
    capacity: {region: {interval: [0.5, 1.5], closed: left}, min_count: 1}  # closed left | right | both | none
    erlang: {region_a: {points: [1, 2]}, region_b: {atoms: [[1]]}, k: 1, window: [0.0, 1.0]}
    martingale: {kind: compensatedJumpPart, s: 0.25, t: 0.75}
    compensate: {input: path.jsonl}
    decompose: {input: path.jsonl}
    transport: {eps: [0.1, 0.5]}
    fnspace:
      p: 1.0
      region: {full: true}  # or {empty: true}
      discontinuity: {boxes: [{lo: [0.5], hi: [1.5], closed_lo: true, closed_hi: false}]}
      eps: [0.1, 0.01, 0.001]
      ns: [1, 4, 16, 64]
    counterexample: {t: 0.5, shift: 0.01, size_a: 1.0, size_b: 1.01, horizon: 1.0}
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
    _boolean,
    _integer,
    _pair,
    _read,
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
    read_records,
    skorohod_distance_upper,
    write_records,
)
from .pide import Grid1D, g_poisson_distribution, solve_ipde
from .regions import Region
from .simulate import (
    PoissonIntegralPayoff,
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
    return {} if doc is None else doc


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()


def _seed(value) -> int:
    """An integer setting in [0, 2**64), the range of the Monte Carlo stream keys."""
    seed = _integer(value)
    if not 0 <= seed < 2**64:
        raise ValueError(f"a seed must lie in [0, 2**64), got {seed}")
    return seed


def _floats(value) -> list[float]:
    return [float(v) for v in value]


def _echoed(value) -> tuple:
    """A float setting and the value as the config wrote it, for the record."""
    return float(value), value


def _records(value) -> tuple:
    """The path a config names and the path record read from it."""
    return str(value), read_records(str(value))


def _only(fields: dict, *keys) -> dict:
    """``fields`` with every key but ``keys`` optional and left as written."""
    return {k: spec if k in keys else (None, None) for k, spec in fields.items()}


_GRID = dict(
    x_min=float, x_max=float, nx=_integer, dt=float, horizon=float,
    export_solution=(_boolean, False), export_rows=(_integer, 201),
)
# every top-level key; a section with a default may be left out
_CONFIG = dict(
    command=(str, None),
    method=(str, "both"),
    horizon=(float, None),
    uncertainty=uncertainty_set_from_config,
    payoff=dict(
        kind=str, scale=(float, 1.0), cap=(float, 1.0), lo=(float, 0.0), hi=(float, 1.0),
        xs=(_floats, []), ys=(_floats, []),
    ),
    grid=_GRID,
    mc=(dict(n_paths=(_integer, 10000), seed=(_seed, None), brownian_dt=(float, 0.01)), {}),
    validate=dict(q=float, p=float),
    gpoisson=dict(lambda_min=_echoed, lambda_max=_echoed, t=_echoed, n_steps=(_integer, None)),
    capacity=dict(region=Region.from_dict, min_count=(_integer, 1)),
    erlang=dict(
        region_a=Region.from_dict, region_b=Region.from_dict, k=(_integer, 1),
        window=(_pair, (0.0, float("inf"))),
    ),
    martingale=dict(kind=str, s=(float, 0.0), t=float),
    compensate=dict(input=_records),
    decompose=dict(input=_records),
    transport=(dict(eps=(_floats, [0.1])), {}),
    fnspace=(dict(
        p=(float, 1.0), region=(Region.from_dict, None), discontinuity=(Region.from_dict, None),
        eps=(_floats, [1e-1, 1e-2, 1e-3]), ns=(_floats, [1.0, 4.0, 16.0, 64.0]),
    ), {}),
    counterexample=(dict(
        t=(float, 0.5), shift=(float, 0.01), size_a=(float, 1.0), size_b=(float, 1.01), horizon=(float, 1.0)
    ), {}),
)


def _config(doc: dict, *keys) -> dict:
    """The top-level values of ``keys``, each read by its declared reader; the other keys are not read."""
    return _read(doc, _only(_CONFIG, *keys), "config")


def _payoff(doc: dict) -> tuple:
    kind = doc["kind"]
    if kind == "linear":
        scale = doc["scale"]
        return (lambda x: scale * np.asarray(x, dtype=float)), f"linear(scale={scale})"
    if kind == "clampedLinear":
        scale, cap = doc["scale"], doc["cap"]
        return (
            lambda x: np.minimum(scale * np.asarray(x, dtype=float), cap)
        ), f"clampedLinear(scale={scale}, cap={cap})"
    if kind == "indicatorSmoothed":
        lo, hi = doc["lo"], doc["hi"]
        if not hi > lo:
            raise ConfigError("indicatorSmoothed needs hi > lo")
        return (
            lambda x: np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
        ), f"indicatorSmoothed(lo={lo}, hi={hi})"
    if kind == "table":
        xs, ys = np.asarray(doc["xs"]), np.asarray(doc["ys"])
        if xs.ndim != 1 or xs.shape != ys.shape or xs.shape[0] < 2 or np.any(np.diff(xs) <= 0):
            raise ConfigError("table payoff needs matching strictly increasing xs and ys")
        return (lambda x: np.interp(np.asarray(x, dtype=float), xs, ys)), "table"
    raise ConfigError(f"unknown payoff kind {kind!r}")


def _grid(doc: dict) -> Grid1D:
    return Grid1D(doc["x_min"], doc["x_max"], doc["nx"], doc["dt"], doc["horizon"])


def _mc_settings(mc: dict, seed_override: int | None):
    if seed_override is not None:
        mc = {**mc, "seed": _read({"--seed": seed_override}, {"--seed": _seed}, "command line")["--seed"]}
    if mc["seed"] is None:
        raise ConfigError("a seed is required for stochastic commands (mc.seed or --seed)")
    return mc["n_paths"], mc["seed"], mc["brownian_dt"]


def _horizon(config: dict) -> float:
    """Top-level ``horizon``, else the grid's; no other grid key is read."""
    T = _config(config, "horizon")["horizon"]
    if T is None:
        T = _read(config, {**_only(_CONFIG), "grid": _only(_GRID, "horizon")}, "config")["grid"]["horizon"]
    return T


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
# subcommand implementations, each returning (results dict, csv artifacts);
# an artifact is its text or a function that writes it to an open file
# ---------------------------------------------------------------------------


def _cmd_validate(config, args, out_dir):
    c = _config(config, "validate", "uncertainty")
    report = validate(c["uncertainty"], c["validate"]["q"], c["validate"]["p"])
    return {"report": report.as_dict(), "ok": report.ok}, {}


def _cmd_expect(config, args, out_dir):
    method = args.method or _config(config, "method")["method"]
    if method not in ("pide", "mc", "both"):
        raise ConfigError(f"unknown method {method!r}")
    solve, sample = method in ("pide", "both"), method in ("mc", "both")
    c = _config(config, "payoff", "uncertainty", *(["grid"] if solve else []), *(["mc"] if sample else []))
    payoff, payoff_name = _payoff(c["payoff"])
    uset = c["uncertainty"]
    T = _horizon(config)
    results: dict = {"method": method, "payoff": payoff_name, "horizon": T}
    csvs: dict = {}
    if solve:
        export = c["grid"]["export_solution"]
        # the solve keeps only the layers the export reads: first and last without one
        rows = c["grid"]["export_rows"] if export else 2
        sol = solve_ipde(payoff, uset, _grid(c["grid"]), horizon=T, max_rows=rows)
        results["pideValue"] = sol.value_at_zero()
        results["schemeError"] = sol.diagnostics["scheme_error_estimate"]
        results["pideDiagnostics"] = sol.diagnostics
        if export:
            csvs["solution.csv"] = sol.to_csv
            results["solutionHeader"] = sol.csv_header()
    if sample:
        n_paths, seed, brownian_dt = _mc_settings(c["mc"], args.seed)
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
    c = _config(config, "gpoisson", "payoff")
    sec = c["gpoisson"]
    payoff, payoff_name = _payoff(c["payoff"])
    echoed = ("lambda_min", "lambda_max", "t")
    value = g_poisson_distribution(*(sec[k][0] for k in echoed), payoff, n_steps=sec["n_steps"])
    # echo the three parameters as the config wrote them
    return {"value": value, "payoff": payoff_name, **{k: sec[k][1] for k in echoed}}, {}


def _cmd_capacity(config, args, out_dir):
    c = _config(config, "capacity", "uncertainty", "mc")
    region, min_count = c["capacity"]["region"], c["capacity"]["min_count"]
    if min_count < 0:
        raise ConfigError(f"capacity min_count must be >= 0, got {min_count}")
    uset = c["uncertainty"]
    T = _horizon(config)
    n_paths, seed, brownian_dt = _mc_settings(c["mc"], args.seed)

    # the jump count in the region is the Poisson integral of 1, taken over
    # whole blocks: both functions take every value of a block at once
    at_least = PoissonIntegralPayoff(
        lambda sizes: np.ones(np.shape(sizes)[:1]),
        region,
        lambda counts: np.where(np.asarray(counts) >= min_count, 1.0, 0.0),
    )
    est = estimate_capacity(
        at_least, uset, constant_policies(uset, T), n_paths, seed, horizon=T, brownian_dt=brownian_dt
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
    c = _config(config, "erlang", "uncertainty", "mc")
    sec = c["erlang"]
    n_paths, seed, _ = _mc_settings(c["mc"], args.seed)
    res = erlang_bound_check(c["uncertainty"], sec["region_a"], sec["region_b"], sec["k"], sec["window"], n_paths, seed)
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
    c = _config(config, "compensate", "uncertainty")
    uset = c["uncertainty"]
    name, path = c["compensate"]["input"]
    drift = mean_of_jump_part(uset, 1.0)
    comp = compensate(path, uset)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    out_file = str(Path(out_dir) / "compensated_path.jsonl")
    write_records(comp, out_file)
    return {
        "drift": drift.tolist(),
        "input": name,
        "output": out_file,
        "terminalValue": np.atleast_2d(comp.values_at(comp.horizon))[-1].tolist(),
    }, {}


def _cmd_martingale_check(config, args, out_dir):
    c = _config(config, "martingale", "uncertainty", "grid")
    sec = c["martingale"]
    kind = sec["kind"]
    res = martingale_check(ProcessSpec(kind, c["uncertainty"]), sec["s"], sec["t"], _grid(c["grid"]))
    return {"kind": kind, **res.as_dict()}, {}


def _cmd_decompose(config, args, out_dir):
    name, path = _config(config, "decompose")["decompose"]["input"]
    xc, xd = decompose(path)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    cont_file = str(Path(out_dir) / "continuous_part.jsonl")
    jump_file = str(Path(out_dir) / "jump_part.jsonl")
    write_records(xc, cont_file)
    write_records(xd, jump_file)
    return {
        "input": name,
        "continuous": cont_file,
        "jumps": jump_file,
        "nJumps": path.n_jumps,
    }, {}


def _cmd_transport(config, args, out_dir):
    c = _config(config, "transport", "uncertainty")
    eps_list = c["transport"]["eps"]
    base = InverseSquareTail()
    measures = []
    csvs = {}
    for i, m in enumerate(c["uncertainty"].measures):
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
    c = _config(config, "fnspace", "payoff", "uncertainty")
    sec = c["fnspace"]
    p, region = sec["p"], sec["region"]
    payoff, payoff_name = _payoff(c["payoff"])
    f = TestFunction(lambda z: float(payoff(z)), discontinuity=sec["discontinuity"], name=payoff_name)
    family = c["uncertainty"].measures
    norm = v_norm(f, region, family, p)
    verdict = membership_lpb(f, region, family, p)
    qc = qc_criterion(f, family)
    tight = tightness_profile(f, family, p, sec["eps"])
    ui = uniform_integrability_profile(f, family, p, sec["ns"])
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
    sec = _config(config, "counterexample")["counterexample"]
    t, shift, size_a, size_b, T = (sec[k] for k in ("t", "shift", "size_a", "size_b", "horizon"))
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
        declared = _config(config, "command")["command"]
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
    for name, content in csvs.items():
        with open(Path(args.out) / name, "w") as fh:
            if callable(content):
                content(fh)
            else:
                fh.write(content)
    if not args.quiet:
        elapsed = time.monotonic() - started
        print(f"{args.command}: ok -> {out_path} ({elapsed:.2f}s wall time)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
