"""Benchmark of the sparsetuple CLI.

Run from the root of a source checkout:

    python3 bench/run.py --workload gate --seed 1 --seconds 40 --trace 0

It writes the workload's inputs (the held-out file drawn from ``--seed``),
runs ``python -m sparsetuple.cli`` from ``src/`` on them for about
``--seconds`` seconds, checks every output, and prints one JSON object as
the last line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced in-process run.  The environment, every sample and the
trace spans go to ``.bench_out/`` in the checkout.  See README.md here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread, which no machine lacks, for the benchmark and every process
# it starts: the model bytes, and so every quality metric, depend on the
# OpenBLAS thread count.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Every run must end within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str | None:
    try:
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "sparsetuple" / "cli.py").is_file():
        print(f"error: no sparsetuple sources under {SRC}", file=sys.stderr)
        return 2
    for variable in THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]

    import harness
    from workloads import WORKLOADS, write_inputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=work_root))
    try:
        inputs = write_inputs(workload, args.seed, workdir)
        tally, metrics, record = harness.run_workload(
            workload, inputs, workdir, SRC, args.seconds, bool(args.trace), deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # BENCHMARK.json gives each metric's unit and the report order.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer" if args.trace else "end_to_end"]
    report = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in group if m["name"] in metrics},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "failures": tally.reasons, "result": report, "record": record,
    }) + "\n", encoding="utf-8")
    for reason in tally.reasons:
        print(f"failure: {reason}", file=sys.stderr)
    print(json.dumps(env))
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
