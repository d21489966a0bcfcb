"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one of the paper's tables/figures and prints
it; pytest-benchmark records the wall-clock cost.  Corpora and the
expensive four-model accuracy runs are shared through the process-wide
experiment context, so the suite pays for each training once.

Scale with REPRO_SCALE (smoke / default / full); results land on stdout
and, when REPRO_RESULTS_DIR is set, as JSON files.

BLAS and OpenMP thread pools are pinned to one thread before numpy
loads, as ``perfbench/run.py`` pins them: with a multithreaded BLAS the
throughput gates' verdicts follow the host's threading more than the
code.  Every ``BENCH_*.json`` section records the thread env it ran
under.
"""

import json
import os
import sys
from pathlib import Path

#: The thread-count variables ``perfbench/run.py`` pins (same list).
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Thread pools size themselves when numpy loads; pinning after that is
# silently ignored.
assert "numpy" not in sys.modules, "numpy loaded before benchmarks/conftest.py pinned threads"
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import pytest  # noqa: E402

from repro.experiments import global_context  # noqa: E402


def update_bench_json(env_var: str, default_path: str, section: str, values: dict) -> Path:
    """Merge one benchmark section into a BENCH_*.json record.

    The throughput benchmarks run as independent tests but share one
    artifact per suite, so each test read-merges-writes its own section
    (a corrupt or legacy flat-format file is replaced rather than merged
    or crashing the bench).  Each section also records the thread env.
    """
    out_path = Path(os.environ.get(env_var, default_path))
    fresh = {"benchmark": Path(default_path).stem.removeprefix("BENCH_") + "_throughput"}
    record = fresh
    if out_path.exists():
        try:
            loaded = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            loaded = None
        # Legacy flat format had measurement scalars at the top level;
        # the sectioned format holds only the label plus dict sections.
        if isinstance(loaded, dict) and all(
            key == "benchmark" or isinstance(value, dict)
            for key, value in loaded.items()
        ):
            record = loaded
    record[section] = {**values, "thread_env": {name: os.environ.get(name) for name in THREAD_ENV}}
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    return out_path


@pytest.fixture(scope="session")
def context():
    ctx = global_context()
    print(f"\n[repro] benchmark scale preset: {ctx.scale.name}")
    return ctx


def run_and_print(experiment_id, context):
    from repro.experiments import run
    from repro.experiments.reporting import print_report

    report = run(experiment_id, context)
    print_report(report)
    return report
