"""Warm-start benchmark: cold train-and-serve vs registry restore.

The PR 6 persistence layer claims a fresh process can answer its first
identify request without retraining, by mounting the artifact store and
loading the trained bundle from the model registry.  This benchmark
measures that claim on one deployment:

* **cold** -- a new pipeline calibrates + trains on the training
  sessions (populating the store and registry as it goes), then answers
  its first identify request.  This is the pre-PR-6 process-start cost.
* **warm** -- a second pipeline, built with a *fresh memory cache* the
  way a restarted process would be, restores everything from the
  registry and answers the same request from persisted artifacts.

Both paths must produce bit-identical predictions, and the warm path
must execute **zero** pipeline stages (every resolution is a disk hit)
for a request the cold process already served, and the warm start must
be at least :data:`MIN_SPEEDUP` times faster than the cold one.  These
three conditions are the suite's gates; ``repro bench warm`` writes the
committed ``BENCH_PR6.json``.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.channel.materials import default_catalog
from repro.core.config import WiMiConfig
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.engine import StageCounter
from repro.experiments.datasets import (
    collect_dataset,
    split_dataset,
    standard_scene,
)
from repro.persist.store import ArtifactStore

#: Materials of the benchmark deployment (mirrors the serve suite).
DEFAULT_MATERIALS = ("pure_water", "pepsi", "oil")

#: Paper-protocol capture sizes, kept small enough for CI.
DEFAULT_REPETITIONS = 6
DEFAULT_PACKETS = 10

#: Gate: the warm start must beat the cold one by at least this factor.
MIN_SPEEDUP = 5.0


def run_warm_bench(
    store_path: str | Path,
    registry_path: str | Path,
    seed: int = 1,
    repetitions: int = DEFAULT_REPETITIONS,
    num_packets: int = DEFAULT_PACKETS,
    progress=None,
) -> dict:
    """Run the cold vs warm comparison; returns the result dict.

    ``store_path``/``registry_path`` should be empty or absent for a
    true cold start (existing content makes the "cold" half warmer than
    a real first boot, understating the speedup, never overstating it).
    """

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    catalog = default_catalog()
    materials = [catalog.get(name) for name in DEFAULT_MATERIALS]
    dataset = collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=repetitions,
        num_packets=num_packets, seed=seed,
    )
    train, test = split_dataset(dataset)
    refs = theory_reference_omegas(materials)
    config = WiMiConfig(
        artifact_store_path=str(store_path),
        model_registry_path=str(registry_path),
    )

    # ------------------------------------------------------------- cold
    note("cold start: fit + first identify")
    t0 = time.perf_counter()
    cold = WiMi(refs, config)
    cold.fit(train)
    fit_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    cold_first = cold.identify(test[0])
    cold_first_s = time.perf_counter() - t0
    cold_rest = cold.identify_batch(test[1:])
    cold.save_to_registry(metrics={"train_sessions": len(train)})

    # ------------------------------------------------------------- warm
    # A fresh memory cache over the now-populated store is exactly the
    # state a restarted process boots into.
    note("warm start: registry load + first identify")
    t0 = time.perf_counter()
    warm = WiMi.from_registry(str(registry_path))
    load_s = time.perf_counter() - t0
    counter = StageCounter()
    warm.engine.add_hook(counter)
    t0 = time.perf_counter()
    warm_first = warm.identify(test[0])
    warm_first_s = time.perf_counter() - t0
    warm_rest = warm.identify_batch(test[1:])

    cold_total_s = fit_s + cold_first_s
    warm_total_s = load_s + warm_first_s
    store_stats = ArtifactStore(store_path).stats()
    return {
        "seed": seed,
        "materials": list(DEFAULT_MATERIALS),
        "train_sessions": len(train),
        "test_sessions": len(test),
        "cold": {
            "fit_s": fit_s,
            "first_identify_s": cold_first_s,
            "total_s": cold_total_s,
        },
        "warm": {
            "load_s": load_s,
            "first_identify_s": warm_first_s,
            "total_s": warm_total_s,
        },
        "speedup": cold_total_s / warm_total_s if warm_total_s else 0.0,
        "predictions_identical": (
            [cold_first] + cold_rest == [warm_first] + warm_rest
        ),
        "warm_first_stage_executions": dict(counter.executions),
        "warm_disk_hits": dict(counter.disk_hits),
        "store": {
            "entries": store_stats["entries"],
            "bytes": store_stats["bytes"],
        },
    }


def run_suite(
    mode: str = "full", seed: int = 1, workers: int = 1, progress=None
) -> dict:
    """Cold vs warm over a fresh temporary store; adds the gates.

    ``mode`` and ``workers`` are ignored: the workload is CI-sized.
    """
    with tempfile.TemporaryDirectory() as root:
        results = run_warm_bench(
            store_path=f"{root}/store",
            registry_path=f"{root}/registry",
            seed=seed,
            progress=progress,
        )
    executions = sum(results["warm_first_stage_executions"].values())
    results["gates"] = {
        "predictions_identical": results["predictions_identical"],
        "zero_warm_stage_executions": executions == 0,
        "min_speedup": results["speedup"] >= MIN_SPEEDUP,
    }
    return results


def render_report(results: dict) -> str:
    """Human-readable cold-vs-warm summary for the CLI."""
    cold = results["cold"]
    warm = results["warm"]
    executions = sum(results["warm_first_stage_executions"].values())
    lines = [
        f"warm -- cold train-and-serve vs registry warm start "
        f"(seed {results['seed']}, {results['train_sessions']} train / "
        f"{results['test_sessions']} test)",
        f"  cold: fit {cold['fit_s']:.3f}s + first identify "
        f"{cold['first_identify_s']:.3f}s = {cold['total_s']:.3f}s",
        f"  warm: load {warm['load_s']:.3f}s + first identify "
        f"{warm['first_identify_s']:.3f}s = {warm['total_s']:.3f}s",
        f"  speedup: {results['speedup']:.1f}x",
        f"  predictions identical: "
        f"{'yes' if results['predictions_identical'] else 'NO'}",
        f"  warm first-identify stage executions: {executions} "
        f"(disk hits {sum(results['warm_disk_hits'].values())})",
        f"  store: {results['store']['entries']} entries, "
        f"{results['store']['bytes']} bytes",
    ]
    return "\n".join(lines)
