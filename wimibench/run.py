"""WiMi end-to-end benchmark.

Usage, from the root of a source checkout::

    python3 wimibench/run.py --workload batch --seed 0 --seconds 10 --trace 0

Workloads are ``batch``, ``serve``, ``stream`` and ``cluster`` (see
``workloads.py`` for what each stresses and why).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the same measurement untraced and
then traced, and prints the per-layer metrics plus the tracing overhead.
Every workload prints every metric ``BENCHMARK.json`` declares for the
kind of run, and the run fails if one is missing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the run environment and what the metrics were computed from
(tail percentiles with their sample counts, generator lateness, backlog
growth, breakdown residual) and, in a traced run, the workload's own
per-stage and per-layer breakdown under ``layers``.  The run writes only under
``.wimibench_run/`` in the checkout and removes it on exit.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import shutil
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("batch", "serve", "stream", "cluster"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_units(trace: bool) -> dict[str, str]:
    """Units of the metrics ``BENCHMARK.json`` declares for this kind of run."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in declared[kind]}


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name, "unset") for name in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    # Registered before multiprocessing registers its own exit hook, so it
    # runs after that hook has released the cluster's semaphores.
    atexit.register(stop_resource_tracker)
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"wimibench: no WiMi source tree at {source}; run from the root "
            "of a checkout",
            file=sys.stderr,
        )
        return 2
    units = declared_units(bool(args.trace))
    sys.path.insert(0, str(source))
    run_dir = ROOT / ".wimibench_run" / str(os.getpid())
    run_dir.mkdir(parents=True)
    # Worker processes and their temporary files stay inside the checkout.
    os.environ["TMPDIR"] = str(run_dir)
    try:
        from repro.csi.quality import DegradedTraceWarning

        import workloads

        # Degraded captures are part of the simulated deployment; their
        # warnings are expected and would only flood stderr.
        warnings.simplefilter("ignore", DegradedTraceWarning)
        outcome = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), run_dir
        )
        if set(outcome.metrics) != set(units):
            raise RuntimeError(
                "metrics differ from BENCHMARK.json: undeclared "
                f"{sorted(set(outcome.metrics) - set(units))}, missing "
                f"{sorted(set(units) - set(outcome.metrics))}"
            )
        print(json.dumps({"environment": environment(args), **outcome.details}))
        print(json.dumps({
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in outcome.metrics.items()
            },
        }))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    return 0


def stop_resource_tracker() -> None:
    """End the helper process ``multiprocessing`` starts for the cluster."""
    resource_tracker = sys.modules.get("multiprocessing.resource_tracker")
    if resource_tracker is not None:
        resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
