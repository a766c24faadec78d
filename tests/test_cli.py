"""End-to-end checks of the command line front-end and its artifacts."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import glevy
from glevy import CadlagPath, write_records, read_records
from glevy.cli import main

UNC_FAMILY = {
    "family": {
        "rule": "scaled_point_mass",
        "fixed": {"location": 1.0},
        "params": {"intensity": {"min": 1.0, "max": 2.0, "count": 5}},
    }
}
UNC_MIXTURES = {
    "triples": [
        {"measure": {"atoms": [[1.0, a], [2.0, 1.0 - a]]}} for a in (0.25, 0.5, 0.75)
    ]
}
UNC_DIFFUSIVE = {"triples": [{"measure": {"atoms": [[1.0, 0.4]]}, "drift": 0.1, "cov_root": 0.5}]}
GRID = {"x_min": -6.0, "x_max": 8.0, "nx": 141, "dt": 0.01, "horizon": 1.0}


def write_config(tmp_path, doc, name="config.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(doc))
    return str(p)


def run(tmp_path, command, doc, *extra, out=None):
    cfg = write_config(tmp_path, doc)
    out_dir = str(out if out is not None else tmp_path)
    code = main([command, "--config", cfg, "--out", out_dir, "--quiet", *extra])
    record_file = f"{out_dir}/{command.replace('-', '_')}_result.json"
    return code, record_file


def load(record_file):
    with open(record_file) as fh:
        return json.load(fh)


# -- happy paths per subcommand ----------------------------------------------

def test_validate_command(tmp_path):
    doc = {"uncertainty": UNC_FAMILY, "validate": {"q": 0.5, "p": 2.0}}
    code, rec_file = run(tmp_path, "validate", doc)
    assert code == 0
    rec = load(rec_file)
    assert rec["status"] == "ok"
    assert rec["command"] == "validate"
    assert rec["results"]["ok"] is True
    assert len(rec["configHash"]) == 64
    assert rec["version"]


def test_expect_pide_only(tmp_path):
    doc = {
        "uncertainty": UNC_FAMILY,
        "grid": GRID,
        "payoff": {"kind": "linear"},
    }
    code, rec_file = run(tmp_path, "expect", doc, "--method", "pide")
    assert code == 0
    res = load(rec_file)["results"]
    assert res["pideValue"] == pytest.approx(2.0, abs=1e-2)
    assert "mcValue" not in res
    assert res["schemeError"] > 0
    hist = res["pideDiagnostics"]["argmax_histogram"]
    assert len(hist) == 5  # one entry per triple of UNC_FAMILY
    assert sum(hist) == GRID["nx"] * 100  # every node of each of the 100 steps


def test_expect_mc_only_and_seed_override(tmp_path):
    doc = {
        "uncertainty": UNC_FAMILY,
        "horizon": 1.0,
        "payoff": {"kind": "linear"},
        "mc": {"n_paths": 800, "seed": 11},
    }
    code, rec_file = run(tmp_path, "expect", doc, "--method", "mc")
    assert code == 0
    rec = load(rec_file)
    assert rec["seed"] == 11
    assert abs(rec["results"]["mcValue"] - 2.0) <= 4.0 * rec["results"]["stdError"]

    out2 = tmp_path / "other"
    out2.mkdir()
    code, rec_file2 = run(tmp_path, "expect", doc, "--method", "mc", "--seed", "99", out=out2)
    assert code == 0
    assert load(rec_file2)["seed"] == 99


PAYOFF_KINDS = {
    "linear": {"kind": "linear", "scale": 0.7},
    "clampedLinear": {"kind": "clampedLinear", "scale": 1.0, "cap": 1.0},
    "indicatorSmoothed": {"kind": "indicatorSmoothed", "lo": 0.5, "hi": 1.5},
    "table": {"kind": "table", "xs": [-1.0, 0.0, 1.0, 2.5], "ys": [0.0, 0.1, 0.6, 1.0]},
}


@pytest.mark.parametrize("kind", list(PAYOFF_KINDS))
def test_expect_mc_terminal_route_writes_the_path_route_record(tmp_path, monkeypatch, kind):
    doc = {"uncertainty": UNC_MIXTURES, "horizon": 1.3, "payoff": PAYOFF_KINDS[kind], "mc": {"n_paths": 300, "seed": 8}}
    terminal, path = tmp_path / "terminal", tmp_path / "path"
    terminal.mkdir(), path.mkdir()
    assert run(tmp_path, "expect", doc, "--method", "mc", out=terminal)[0] == 0
    # the payoff as a plain path callable, which the estimator cannot see through
    monkeypatch.setattr(glevy.cli, "TerminalPayoff", lambda phi: lambda p: float(phi(p.scalar_value(p.horizon))))
    assert run(tmp_path, "expect", doc, "--method", "mc", out=path)[0] == 0
    record = (terminal / "expect_result.json").read_bytes()
    assert record == (path / "expect_result.json").read_bytes()
    assert json.loads(record)["results"]["nPaths"] == 300


def test_expect_both_reports_duality(tmp_path):
    doc = {
        "uncertainty": UNC_FAMILY,
        "grid": GRID,
        "payoff": {"kind": "clampedLinear", "scale": 1.0, "cap": 1.0},
        "mc": {"n_paths": 1500, "seed": 4},
    }
    code, rec_file = run(tmp_path, "expect", doc)
    assert code == 0
    res = load(rec_file)["results"]
    assert res["method"] == "both"
    assert res["duality"]["mcConsistent"] is True
    assert res["duality"]["gap"] == pytest.approx(res["pideValue"] - res["mcValue"])


def test_expect_solution_export(tmp_path):
    doc = {
        "uncertainty": UNC_FAMILY,
        "grid": {**GRID, "export_solution": True, "export_rows": 11},
        "payoff": {"kind": "linear"},
    }
    code, rec_file = run(tmp_path, "expect", doc, "--method", "pide")
    assert code == 0
    res = load(rec_file)["results"]
    assert res["solutionHeader"]["rows"] <= 11
    csv_file = tmp_path / "solution.csv"
    lines = csv_file.read_text().strip().split("\n")
    assert lines[0].startswith("t,")
    assert len(lines) - 1 == res["solutionHeader"]["rows"]


@pytest.mark.parametrize("rows", [13, 201, 1001])
def test_export_rows_bounds_the_kept_layers(tmp_path, rows):
    # 2000 steps; the header stride counts steps, and every kept layer is exported
    doc = {
        "uncertainty": UNC_FAMILY,
        "grid": {**GRID, "dt": 5e-4, "export_solution": True, "export_rows": rows},
        "payoff": {"kind": "clampedLinear"},
    }
    code, rec_file = run(tmp_path, "expect", doc, "--method", "pide")
    assert code == 0
    header = load(rec_file)["results"]["solutionHeader"]
    assert header["stride"] == math.ceil(2000 / (rows - 1))
    assert header["rows"] == len(range(0, 2001, header["stride"])) + (2000 % header["stride"] != 0)
    assert header["pruned_triples"] == [1, 2, 3]
    assert len((tmp_path / "solution.csv").read_text().splitlines()) == header["rows"] + 1


def test_expect_family_with_zero_intensity_endpoint(tmp_path):
    # intensity 0 is the empty measure, as in gpoisson with lambda_min 0
    params = {"intensity": {"min": 0.0, "max": 2.0, "count": 5}}
    doc = {
        "uncertainty": {"family": {**UNC_FAMILY["family"], "params": params}},
        "grid": GRID,
        "payoff": {"kind": "clampedLinear"},
    }
    code, rec_file = run(tmp_path, "expect", doc, "--method", "pide")
    assert code == 0
    res = load(rec_file)["results"]
    assert res["pideValue"] == pytest.approx(1.0 - math.exp(-2.0), abs=5e-3)
    assert res["pideDiagnostics"]["pruned_triples"] == [1, 2, 3]


def test_gpoisson_command(tmp_path):
    doc = {
        "gpoisson": {"lambda_min": 1.0, "lambda_max": 1.0, "t": 1.0},
        "payoff": {"kind": "clampedLinear", "scale": 1.0, "cap": 1.0},
    }
    code, rec_file = run(tmp_path, "gpoisson", doc)
    assert code == 0
    rec = load(rec_file)
    assert rec["results"]["value"] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)


def test_capacity_command(tmp_path):
    doc = {
        "uncertainty": UNC_FAMILY,
        "horizon": 1.0,
        "capacity": {"region": {"interval": [0.5, 1.5]}, "min_count": 1},
        "mc": {"n_paths": 1200, "seed": 8},
    }
    code, rec_file = run(tmp_path, "capacity", doc)
    assert code == 0
    res = load(rec_file)["results"]
    want = 1.0 - math.exp(-2.0)
    assert abs(res["capacity"] - want) <= 4.0 * res["stdError"]


def test_erlang_bound_command(tmp_path):
    doc = {
        "uncertainty": UNC_MIXTURES,
        "horizon": 1.0,
        "erlang": {
            "region_a": {"interval": [0.5, 2.5]},
            "region_b": {"interval": [0.5, 1.5]},
            "k": 1,
            "window": [0.0, 1.0],
        },
        "mc": {"n_paths": 1500, "seed": 3},
    }
    code, rec_file = run(tmp_path, "erlang-bound", doc)
    assert code == 0
    res = load(rec_file)["results"]
    assert res["analyticBound"] == pytest.approx(0.75 * (1.0 - math.exp(-1.0)))
    assert res["pass"] is True


def test_compensate_command(tmp_path):
    path = CadlagPath.from_jumps([(0.25, 1.0), (0.6, 1.0)], horizon=1.0)
    src = tmp_path / "path.jsonl"
    write_records(path, str(src))
    doc = {"uncertainty": UNC_FAMILY, "compensate": {"input": str(src)}}
    code, rec_file = run(tmp_path, "compensate", doc)
    assert code == 0
    res = load(rec_file)["results"]
    assert res["drift"] == [2.0]
    comp = read_records(res["output"])
    assert comp.scalar_value(1.0) == pytest.approx(path.scalar_value(1.0) - 2.0)


def test_decompose_command(tmp_path):
    path = CadlagPath.from_jumps([(0.3, 1.5)], horizon=1.0)
    src = tmp_path / "path.jsonl"
    write_records(path, str(src))
    doc = {"decompose": {"input": str(src)}}
    code, rec_file = run(tmp_path, "decompose", doc)
    assert code == 0
    res = load(rec_file)["results"]
    xc = read_records(res["continuous"])
    xd = read_records(res["jumps"])
    assert xc.n_jumps == 0 and xd.n_jumps == 1
    for t in (0.0, 0.3, 0.9):
        assert xc.scalar_value(t) + xd.scalar_value(t) == pytest.approx(path.scalar_value(t))


@pytest.mark.parametrize("command", ["compensate", "decompose"])
def test_jsonl_commands_create_a_nested_out_dir(tmp_path, command):
    src = tmp_path / "path.jsonl"
    write_records(CadlagPath.from_jumps([(0.3, 1.5)], horizon=1.0), str(src))
    out = tmp_path / "new" / "nested"
    doc = {"uncertainty": UNC_FAMILY, command: {"input": str(src)}}
    code, rec_file = run(tmp_path, command, doc, out=out)
    assert code == 0
    res = load(rec_file)["results"]
    for key in ("output", "continuous", "jumps"):
        if key in res:
            assert Path(res[key]).parent == out and read_records(res[key]).horizon == 1.0


def test_martingale_check_command(tmp_path):
    doc = {
        "uncertainty": UNC_FAMILY,
        "grid": GRID,
        "martingale": {"kind": "symmetricCompensated", "s": 0.0, "t": 0.5},
    }
    code, rec_file = run(tmp_path, "martingale-check", doc)
    assert code == 0
    res = load(rec_file)["results"]
    assert res["isMartingale"] is True and res["isSymmetric"] is True


def test_transport_command(tmp_path):
    doc = {"uncertainty": UNC_MIXTURES, "transport": {"eps": [0.1, 0.5]}}
    code, rec_file = run(tmp_path, "transport", doc)
    assert code == 0
    res = load(rec_file)["results"]
    assert len(res["measures"]) == 3
    for m in res["measures"]:
        assert m["pushforwardMaxError"] <= 1e-12
    shells = (tmp_path / "transport_shells_0.csv").read_text().strip().split("\n")
    assert shells[0] == "lo,hi,target,weight"
    assert len(shells) == 1 + res["measures"][0]["nShells"]


def test_fnspace_command(tmp_path):
    doc = {
        "uncertainty": UNC_FAMILY,
        "payoff": {"kind": "linear"},
        "fnspace": {"p": 2.0, "discontinuity": {"points": [1.0]}},
    }
    code, rec_file = run(tmp_path, "fnspace", doc)
    assert code == 0
    res = load(rec_file)["results"]
    assert res["norm"] == pytest.approx(math.sqrt(2.0))
    assert res["membership"]["member"] is True
    assert res["qc"]["status"] == "not-qc"
    assert (tmp_path / "fnspace_tightness.csv").exists()
    assert (tmp_path / "fnspace_ui.csv").exists()


def test_counterexample_command(tmp_path):
    doc = {"counterexample": {"t": 0.5, "shift": 0.01, "size_a": 1.0, "size_b": 1.01}}
    code, rec_file = run(tmp_path, "counterexample", doc)
    assert code == 0
    res = load(rec_file)["results"]
    assert res["integralGap"] == pytest.approx(1.0)
    assert res["pathDistanceUpper"] < 0.02


# -- determinism --------------------------------------------------------------

def test_artifacts_bit_identical_across_runs(tmp_path):
    doc = {
        "uncertainty": UNC_FAMILY,
        "horizon": 1.0,
        "capacity": {"region": {"interval": [0.5, 1.5]}},
        "mc": {"n_paths": 500, "seed": 21},
    }
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    code_a, rec_a = run(tmp_path, "capacity", doc, out=a_dir)
    code_b, rec_b = run(tmp_path, "capacity", doc, out=b_dir)
    assert code_a == code_b == 0
    assert Path(rec_a).read_bytes() == Path(rec_b).read_bytes()


def test_pide_artifact_bit_identical(tmp_path):
    doc = {
        "uncertainty": UNC_FAMILY,
        "grid": {**GRID, "export_solution": True},
        "payoff": {"kind": "linear"},
    }
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    _, rec_a = run(tmp_path, "expect", doc, "--method", "pide", out=a_dir)
    _, rec_b = run(tmp_path, "expect", doc, "--method", "pide", out=b_dir)
    assert Path(rec_a).read_bytes() == Path(rec_b).read_bytes()
    assert (a_dir / "solution.csv").read_bytes() == (b_dir / "solution.csv").read_bytes()


# -- failure modes ------------------------------------------------------------

GPOISSON = {"lambda_min": 1.0, "lambda_max": 2.0, "t": 1.0}
EXPECT_PIDE = {"uncertainty": UNC_FAMILY, "grid": GRID, "payoff": {"kind": "linear"}, "method": "pide"}
EXPECT_MC = {"uncertainty": UNC_FAMILY, "horizon": 1.0, "payoff": {"kind": "linear"}, "method": "mc"}
ERLANG = {"region_a": {"interval": [0.5, 2.5]}, "region_b": {"interval": [0.5, 1.5]}}
MISSING_PATH = "no_such_dir/path.jsonl"
MALFORMED = {
    "yaml-parse": ("validate", "uncertainty: [unbalanced\n"),
    "gpoisson-missing-lambda_min": (
        "gpoisson",
        {"gpoisson": {"lambda_max": 2.0, "t": 1.0}, "payoff": {"kind": "linear"}},
    ),
    "gpoisson-lambda_min-text": (
        "gpoisson",
        {"gpoisson": {**GPOISSON, "lambda_min": "x"}, "payoff": {"kind": "linear"}},
    ),
    "validate-q-text": ("validate", {"uncertainty": UNC_FAMILY, "validate": {"q": "abc", "p": 2.0}}),
    "validate-param-without-count": (
        "validate",
        {
            "uncertainty": {"family": {**UNC_FAMILY["family"], "params": {"intensity": {"min": 1.0, "max": 2.0}}}},
            "validate": {"q": 0.5, "p": 2.0},
        },
    ),
    "validate-unknown-fixed-param": (
        "validate",
        {
            "uncertainty": {"family": {**UNC_FAMILY["family"], "fixed": {"bogus": 1}}},
            "validate": {"q": 0.5, "p": 2.0},
        },
    ),
    "validate-triple-without-measure": (
        "validate",
        {"uncertainty": {"triples": [{"drift": 0.0}]}, "validate": {"q": 0.5, "p": 2.0}},
    ),
    "validate-measure-unparsable": (
        "validate",
        {"uncertainty": {"triples": [{"measure": {"points": [1.0]}}]}, "validate": {"q": 0.5, "p": 2.0}},
    ),
    "validate-uncertainty-without-section": (
        "validate",
        {"uncertainty": {"measures": []}, "validate": {"q": 0.5, "p": 2.0}},
    ),
    "validate-uncertainty-list": (
        "validate",
        {"uncertainty": [UNC_FAMILY], "validate": {"q": 0.5, "p": 2.0}},
    ),
    "martingale-missing-t": (
        "martingale-check",
        {"uncertainty": UNC_FAMILY, "grid": GRID, "martingale": {"kind": "compensatedJumpPart"}},
    ),
    "expect-non-finite-payoff": ("expect", {**EXPECT_PIDE, "payoff": {"kind": "linear", "scale": math.inf}}),
    **{
        f"expect-export_rows-{rows}": (
            "expect",
            {**EXPECT_PIDE, "grid": {**GRID, "export_solution": True, "export_rows": rows}},
        )
        for rows in (1, 0, -5)
    },
    "expect-nx-text": ("expect", {**EXPECT_PIDE, "grid": {**GRID, "nx": "many"}}),
    "expect-n_paths-text": ("expect", {**EXPECT_MC, "mc": {"n_paths": "lots", "seed": 1}}),
    "expect-mc-list": ("expect", {**EXPECT_MC, "mc": [1]}),
    "capacity-box-without-lo": (
        "capacity",
        {
            "uncertainty": UNC_FAMILY,
            "horizon": 1.0,
            "capacity": {"region": {"boxes": [{"hi": [1.5]}]}},
            "mc": {"n_paths": 10, "seed": 1},
        },
    ),
    "capacity-min_count-negative": (
        "capacity",
        {
            "uncertainty": UNC_FAMILY,
            "horizon": 1.0,
            "capacity": {"region": {"interval": [0.5, 1.5]}, "min_count": -1},
            "mc": {"n_paths": 10, "seed": 1},
        },
    ),
    "erlang-missing-region_a": (
        "erlang-bound",
        {"uncertainty": UNC_MIXTURES, "erlang": {"region_b": ERLANG["region_b"]}, "mc": {"seed": 1}},
    ),
    "erlang-window-scalar": (
        "erlang-bound",
        {"uncertainty": UNC_MIXTURES, "erlang": {**ERLANG, "window": 3}, "mc": {"seed": 1}},
    ),
    "transport-list": ("transport", {"uncertainty": UNC_MIXTURES, "transport": [0.1]}),
    "fnspace-eps-scalar": (
        "fnspace",
        {"uncertainty": UNC_FAMILY, "payoff": {"kind": "linear"}, "fnspace": {"eps": 0.1}},
    ),
    "counterexample-t-text": ("counterexample", {"counterexample": {"t": "mid"}}),
    "compensate-input-number": ("compensate", {"uncertainty": UNC_FAMILY, "compensate": {"input": 5}}),
    "compensate-input-missing": (
        "compensate",
        {"uncertainty": UNC_FAMILY, "compensate": {"input": MISSING_PATH}},
    ),
    "decompose-input-missing": ("decompose", {"decompose": {"input": MISSING_PATH}}),
    "capacity-horizon-inf": (
        "capacity",
        {
            "uncertainty": UNC_FAMILY,
            "horizon": math.inf,
            "capacity": {"region": {"interval": [0.5, 1.5]}},
            "mc": {"n_paths": 10, "seed": 1},
        },
    ),
    "expect-mc-horizon-nan": ("expect", {**EXPECT_MC, "horizon": math.nan, "mc": {"n_paths": 10, "seed": 1}}),
    "expect-grid-horizon-inf": ("expect", {**EXPECT_PIDE, "grid": {**GRID, "horizon": math.inf}}),
    "martingale-t-inf": (
        "martingale-check",
        {"uncertainty": UNC_FAMILY, "grid": GRID, "martingale": {"kind": "compensatedJumpPart", "t": math.inf}},
    ),
    "gpoisson-lambda_max-inf": (
        "gpoisson",
        {"gpoisson": {**GPOISSON, "lambda_max": math.inf}, "payoff": {"kind": "linear"}},
    ),
    "gpoisson-n_steps-0": ("gpoisson", {"gpoisson": {**GPOISSON, "n_steps": 0}, "payoff": {"kind": "linear"}}),
    "expect-mc-brownian_dt-0": (
        "expect",
        {**EXPECT_MC, "uncertainty": UNC_DIFFUSIVE, "mc": {"n_paths": 10, "seed": 1, "brownian_dt": 0.0}},
    ),
    "expect-mc-brownian_dt-nan": (
        "expect",
        {**EXPECT_MC, "uncertainty": UNC_DIFFUSIVE, "mc": {"n_paths": 10, "seed": 1, "brownian_dt": math.nan}},
    ),
    "expect-mc-non-finite-payoff": (
        "expect",
        {**EXPECT_MC, "payoff": {"kind": "linear", "scale": math.inf}, "mc": {"n_paths": 50, "seed": 1}},
    ),
}


@pytest.mark.parametrize("command, config", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_exits_2(tmp_path, capsys, command, config):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(config if isinstance(config, str) else yaml.safe_dump(config))
    code = main([command, "--config", str(cfg), "--out", str(tmp_path), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not list(tmp_path.glob("*_result.json"))


def test_missing_section_exits_2(tmp_path):
    code, rec_file = run(tmp_path, "validate", {"uncertainty": UNC_FAMILY})
    assert code == 2
    assert not os.path.exists(rec_file)


def test_missing_seed_exits_2(tmp_path):
    doc = {
        "uncertainty": UNC_FAMILY,
        "horizon": 1.0,
        "capacity": {"region": {"interval": [0.5, 1.5]}},
    }
    code, rec_file = run(tmp_path, "capacity", doc)
    assert code == 2


def test_command_key_mismatch_exits_2(tmp_path):
    doc = {"command": "expect", "uncertainty": UNC_FAMILY, "validate": {"q": 0.5, "p": 2.0}}
    code, _ = run(tmp_path, "validate", doc)
    assert code == 2


def test_unknown_subcommand_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x.yaml"])
    assert exc.value.code == 2


def test_assumption_violation_exits_3(tmp_path):
    # the pure location family never charges (0.9, 1.1) with every member,
    # so the Erlang comparison's standing assumption fails
    doc = {
        "uncertainty": {
            "triples": [
                {"measure": {"atoms": [[1.0, 1.0]]}},
                {"measure": {"atoms": [[2.0, 1.0]]}},
            ]
        },
        "horizon": 1.0,
        "erlang": {
            "region_a": {"interval": [0.9, 1.1]},
            "region_b": {"interval": [0.9, 1.1]},
            "k": 1,
            "window": [0.0, 1.0],
        },
        "mc": {"n_paths": 100, "seed": 2},
    }
    code, rec_file = run(tmp_path, "erlang-bound", doc)
    assert code == 3
    rec = load(rec_file)
    assert rec["status"] == "assumption-violated"
    assert "error" in rec


def test_numerical_abort_exits_4(tmp_path):
    doc = {
        "uncertainty": {"triples": [{"measure": {"atoms": [[1.0, 3.0]]}}]},
        "grid": {"x_min": -4.0, "x_max": 6.0, "nx": 21, "dt": 0.5, "horizon": 1.0},
        "payoff": {"kind": "linear"},
    }
    code, rec_file = run(tmp_path, "expect", doc, "--method", "pide")
    assert code == 4
    rec = load(rec_file)
    assert rec["status"] == "numerical-abort"
    assert "cfl_number" in rec["diagnostics"]


def test_gpoisson_lattice_step_bound_exits_4(tmp_path):
    # dt * lambda_max = 2/3 passes the PIDE bound of 1 but not the lattice bound of 1/2
    doc = {
        "gpoisson": {"lambda_min": 1.0, "lambda_max": 2.0, "t": 1.0, "n_steps": 3},
        "payoff": {"kind": "clampedLinear", "scale": 1.0, "cap": 1.0},
    }
    code, rec_file = run(tmp_path, "gpoisson", doc)
    assert code == 4
    rec = load(rec_file)
    assert rec["status"] == "numerical-abort"
    assert rec["diagnostics"]["n_steps"] == 3


# -- console script -----------------------------------------------------------

def check_validate_subprocess(tmp_path, argv, env=None):
    doc = {"uncertainty": UNC_FAMILY, "validate": {"q": 0.5, "p": 2.0}}
    cfg = write_config(tmp_path, doc)
    proc = subprocess.run(
        [*argv, "validate", "--config", cfg, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "validate: ok" in proc.stdout, proc.stderr
    assert "wall time" in proc.stdout, proc.stderr


def test_console_entry_point(tmp_path):
    # the child imports the glevy under test, installed or not, from any cwd
    src_dir = str(Path(glevy.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    check_validate_subprocess(tmp_path, [sys.executable, "-m", "glevy"], env=env)


def test_console_script_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        meta = tomllib.load(fh)
    assert meta["project"]["scripts"]["glevy"] == "glevy.cli:main"


@pytest.mark.skipif(shutil.which("glevy") is None, reason="glevy console script not installed")
def test_installed_console_script(tmp_path):
    check_validate_subprocess(tmp_path, ["glevy"])
