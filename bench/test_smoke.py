"""Smoke test of the benchmark: every workload at probe size with all gates.

Run from the root of a source checkout::

    python3 -m pytest -q bench/test_smoke.py

Each workload runs one round of its ops at the ``tiny`` sizes, once at the
default seed and once at another, and every gate must hold. One traced run
checks the per-layer metrics and the span file, and a copy of the benchmark
without the glevy sources must refuse to run. Why each workload exists and
which layer each metric watches is recorded in ``workloads.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"] for m in _spec()[kind]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_gates_hold_at_tiny_sizes(workload, seed, tmp_path):
    results = workloads.run_round(workloads.build_ops(workload, "tiny", seed, tmp_path))
    assert [r.name for r in results if not r.ok] == []
    metrics = workloads.end_to_end_round(workload, results)
    assert set(metrics) | {"setup_s", "peak_rss_mib"} == _names("end_to_end")
    assert all(v > 0 for v in metrics.values())


def test_traced_run_reports_every_layer(tmp_path):
    trace_file = tmp_path / "trace.json"
    result = workloads.run(
        "mc-path-events",
        workloads.DEFAULT_SEED,
        0.0,
        True,
        tmp_path / "ops",
        import_s=0.0,
        env={},
        trace_file=trace_file,
        level="tiny",
    )
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == _names("per_layer")
    timed = [v for k, v in metrics.items() if k.endswith((".s", "self_s"))]
    assert all(v > 0 for v in timed)
    doc = json.loads(trace_file.read_text())
    spans = doc["traced_rounds"][0]["spans"]
    roots = {s["id"] for s in spans if s["parent"] is None}
    assert all(s["op"] in roots for s in spans)
    assert all(s["self_s"] <= s["end"] - s["start"] + 1e-9 for s in spans)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pide-fine", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
