"""Run one benchmark workload and print its result as the last stdout line.

Usage, from the root of a source checkout (no install needed; ``src`` is
put on the import path the way ``PYTHONPATH=src`` would)::

    python3 bench/run.py --workload pide-fine --seed 1 --seconds 25 --trace 0

Workloads, gates and metrics are described in ``bench/workloads.py``; the
metric names and units are the ones ``BENCHMARK.json`` declares. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run also
writes its spans to ``bench/out/trace-<workload>-seed<seed>.json``.

The BLAS thread count is fixed before numpy is imported (``--blas-threads``,
default 1, never more than the usable processors): with OpenBLAS at two
threads the first 2-D ``tensordot`` of a process stalls for about a second.
The run records the thread count, the processor count and the Python and
numpy versions on standard error. Exit status 2 means the checkout has no
glevy sources or the arguments are unusable; no result is printed then.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# times, in a fresh interpreter, the same imports this process makes
_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import workloads; print(time.perf_counter() - t)"
)


def _fresh_import_s() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(BENCH)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(proc.stdout)


def _parse(argv, spec: dict):
    parser = argparse.ArgumentParser(description="glevy benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or args.blas_threads < 1:
        parser.error("seed and seconds must be non-negative and blas-threads positive")
    return args


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    args = _parse(argv, spec)
    if not (SRC / "glevy" / "__init__.py").is_file():
        print(f"no glevy sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = min(args.blas_threads, nproc)
    for var in _BLAS_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))

    import numpy as np

    import workloads

    # set-up is sampled three times: this process's import and two fresh ones
    import_s = statistics.median([perf_counter() - _STARTED, _fresh_import_s(), _fresh_import_s()])
    env = {
        "blas_threads": threads,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print(json.dumps({"env": env}), file=sys.stderr)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    trace_file = out / f"trace-{args.workload}-seed{args.seed}.json"
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        result = workloads.run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            Path(scratch),
            import_s=import_s,
            env=env,
            trace_file=trace_file,
        )
    values = result["metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
