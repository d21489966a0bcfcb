"""The repository's benchmark: one workload per run, checked and measured.

    python3 perfbench/run.py --workload serve_templated --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  Workloads and metrics are declared in ``BENCHMARK.json``:

* ``serve_templated`` / ``serve_adhoc_observed`` (``bench_serving.py``):
  ``latency_p50_ms`` is the open-loop due-time request latency;
* ``train_fit`` (``bench_training.py``): ``latency_p50_ms`` is the
  per-epoch time from ``TrainingHistory.wall_clock_s``.

``setup_s`` is the median of several set-ups spaced through the run
(everything before the first timed operation except generating the
benchmark's own plans) and ``peak_rss_mb`` the process's peak resident
memory through set-up and measurement.  Latency medians are taken per
window of the run, then reduced with ``metrics.good_quartile``.

The report also carries what is measured but not gated, because on a
host whose speed swings for seconds to minutes it follows the host more
than the program: tails (p99 of requests, p90 of epochs, with their
sample counts) and ``throughput_per_s`` — the burst phase's settled
requests per second (good quartile over ``submit_many`` calls), or
plans x epochs per second of ``Trainer.fit`` wall time, pre-grouping
included (good quartile over fits).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures
half the window untraced and half with a span wrapper around every
layer's public calls, and prints the per-layer metrics; a layer that
does no work on the workload reads 0.  ``trace.overhead_frac`` compares
the two halves and ``trace.coverage`` is the stage times' sum over the
traced end-to-end time, which must lie within 10% of 1.

The last line of standard output is the result JSON; the line before
it is a report (environment fingerprint, request accounting per phase,
sample counts, every check).  Both, and the spans of a traced run, are
also written under ``.perfbench_out/``.
"""

import os

#: Thread pools pinned to one thread before numpy loads: on a small box a
#: multithreaded BLAS fights the generator and drain threads for cores.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREAD_ENV_BEFORE = {name: os.environ.get(name) for name in THREAD_ENV}
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import bench_serving  # noqa: E402
import bench_training  # noqa: E402


WORKLOADS = {
    bench_serving.TEMPLATED.name: partial(bench_serving.run, bench_serving.TEMPLATED),
    bench_serving.ADHOC.name: partial(bench_serving.run, bench_serving.ADHOC),
    "train_fit": bench_training.run,
}


def git_commit() -> str:
    """HEAD of the repository this file lives in, or ``"unknown"``
    (a plain source checkout has no git metadata)."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def fingerprint(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "thread_env_before": THREAD_ENV_BEFORE,
        "threads_pinned": True,
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = ROOT / ".perfbench_out"
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        outcome = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), scratch, out_dir
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    for entry in declared:
        name = entry["name"]
        if not args.trace and name not in outcome.metrics:
            raise KeyError(f"workload {args.workload} did not measure {name}")
        metrics[name] = {"value": float(outcome.metrics.get(name, 0.0)), "unit": entry["unit"]}
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    report = {
        "environment": fingerprint(args.workload, args.seed),
        "checks": outcome.checks,
        **outcome.report,
    }
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps({"report": report, "result": result}, indent=1))
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
