"""Cluster serving benchmark: sharded processes vs the thread service.

``repro bench cluster`` answers two questions about
:mod:`repro.cluster` and commits the answers as ``BENCH_PR7.json``:

1. **Throughput** -- on a wide re-measurement workload (hundreds of
   distinct sessions, each re-arriving in waves, the "many deployed
   links" regime of the north-star), does the multi-process cluster
   beat the single-process :class:`repro.serve.IdentificationService`?
   The workload is sized so the aggregate working set exceeds one
   :class:`repro.engine.StageCache` memory tier (default 4096
   entries): the shared in-process cache evicts under LRU churn and
   recomputes every artifact on the next wave, while consistent-hash
   routing keeps each cluster worker's shard inside its own cache --
   the capacity of the sharded tier scales with workers.  Both systems
   run memory-only with identical per-worker cache capacity, batch
   policy and worker count; the speedup is architectural, not a config
   handicap.
2. **Kill survival** -- with requests in flight, one worker process is
   SIGKILLed.  The orchestrator must restart it, redeliver the lost
   requests, and every prediction must match single-process serving
   exactly (zero lost requests).

The smoke preset (``--smoke``) shrinks the workload below the eviction
threshold so it fits CI; in that regime the shared cache never thrashes
and the cluster's IPC tax makes the speedup meaningless, so only the
correctness and survival assertions apply (the report records the
regime either way).  Those assertions are the suite's gates: the killed
worker restarted, zero requests were lost, and both phases' predictions
match single-process serving.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

from repro.channel.materials import default_catalog
from repro.cluster import ClusterClient, ClusterConfig
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.engine import StageCache
from repro.experiments.datasets import collect_dataset, standard_scene
from repro.serve import IdentificationService, ServiceConfig

#: Materials used by every serving bench in this repo.
DEFAULT_MATERIALS = ("pure_water", "pepsi", "oil")

#: Full-run workload: 150 repetitions x 3 materials = 450 distinct
#: sessions x ~13 cached artifacts each comfortably exceeds one
#: 4096-entry memory tier while each of 2 shards stays inside its own.
DEFAULT_REPETITIONS = 150
#: CI-sized workload; below the eviction threshold by design.
SMOKE_REPETITIONS = 12

DEFAULT_PACKETS = 6
DEFAULT_WAVES = 2
DEFAULT_WORKERS = 2

#: Kill phase: per-request service time floor that guarantees requests
#: are still in flight when the SIGKILL lands.
KILL_THROTTLE_S = 0.05
KILL_REQUESTS = 24


def _flatten(dataset: dict) -> list:
    return [s for sessions in dataset.values() for s in sessions]


def run_cluster_bench(
    seed: int = 1,
    repetitions: int = DEFAULT_REPETITIONS,
    num_packets: int = DEFAULT_PACKETS,
    waves: int = DEFAULT_WAVES,
    workers: int = DEFAULT_WORKERS,
    store_root: str | Path | None = None,
    progress=None,
) -> dict:
    """Run both phases; returns the result dict (see module docstring).

    ``store_root`` hosts the kill phase's per-worker artifact-store
    shards (a temp directory when None).
    """

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    import tempfile

    catalog = default_catalog()
    materials = [catalog.get(name) for name in DEFAULT_MATERIALS]
    note("collecting deployment")
    train = _flatten(collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=4,
        num_packets=num_packets, seed=seed,
    ))
    bench = _flatten(collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=repetitions,
        num_packets=num_packets, seed=seed + 6,
    ))
    wimi = WiMi(theory_reference_omegas(materials))
    wimi.fit(train)

    root = Path(store_root) if store_root else Path(tempfile.mkdtemp())
    registry = root / "registry"
    wimi.save_to_registry(registry, name="wimi")

    # Re-measurement workload: every distinct session arrives once per
    # wave (wave k repeats only after every session arrived k times, the
    # worst case for a shared LRU).
    workload = list(bench) * waves
    capacity = len(workload) + 8

    # ------------------------------------------------- single process
    note(f"single-process service: {len(workload)} requests")
    service = IdentificationService(
        wimi.clone_view(cache=StageCache()),
        ServiceConfig(
            queue_capacity=capacity, max_batch_size=8, num_workers=workers,
        ),
    )
    t0 = time.perf_counter()
    with service:
        handles = [service.submit(s) for s in workload]
        service_preds = [h.result(timeout=600.0) for h in handles]
    service_s = time.perf_counter() - t0
    service_counters = service.snapshot()["counters"]

    # --------------------------------------------------------- cluster
    note(f"cluster: {workers} worker processes, same workload")
    config = ClusterConfig(
        num_workers=workers, queue_capacity=capacity, max_batch_size=8,
        boot_timeout_s=120.0,
    )
    client = ClusterClient(registry, config=config)
    client.start()
    t0 = time.perf_counter()
    handles = client.submit_many(workload, timeout=None)
    cluster_preds = [h.result(timeout=600.0) for h in handles]
    cluster_s = time.perf_counter() - t0
    client.stop()
    snap = client.snapshot()
    cluster_counters = snap["cluster"]["counters"]
    merged_counters = snap["merged"]["counters"]

    # ------------------------------------------------------ kill phase
    note("kill phase: SIGKILL one worker mid-load")
    kill_sessions = (bench * ((KILL_REQUESTS // len(bench)) + 1))[
        :KILL_REQUESTS
    ]
    kill_expected = [str(x) for x in wimi.identify_batch(kill_sessions)]
    kill_config = ClusterConfig(
        num_workers=workers, queue_capacity=capacity, max_batch_size=2,
        boot_timeout_s=120.0, throttle_s=KILL_THROTTLE_S,
    )
    kill_client = ClusterClient(
        registry, config=kill_config, store_root=root / "stores"
    )
    kill_client.start()
    handles = kill_client.submit_many(kill_sessions, timeout=None)
    # The throttle guarantees the load is still in flight well past
    # this point; kill shard 0's process while it serves.
    time.sleep(KILL_THROTTLE_S * 4)
    victim = kill_client.orchestrator._slots[0]
    victim_pid = victim.process.pid
    os.kill(victim_pid, signal.SIGKILL)
    kill_preds = [h.result(timeout=600.0) for h in handles]
    kill_snap = kill_client.snapshot()
    kill_client.stop()
    kc = kill_snap["cluster"]["counters"]

    eviction_regime = (
        len(bench) * 13 > 4096  # ~13 cached artifacts per session
    )
    return {
        "seed": seed,
        "materials": list(DEFAULT_MATERIALS),
        "workers": workers,
        "distinct_sessions": len(bench),
        "waves": waves,
        "requests": len(workload),
        "num_packets": num_packets,
        "eviction_regime": eviction_regime,
        "throughput": {
            "service": {
                "seconds": service_s,
                "requests_per_s": len(workload) / service_s,
                "memory_hits": service_counters["cache.memory_hits"],
                "misses": service_counters["cache.misses"],
            },
            "cluster": {
                "seconds": cluster_s,
                "requests_per_s": len(workload) / cluster_s,
                "memory_hits": merged_counters.get("cache.memory_hits", 0),
                "misses": merged_counters.get("cache.misses", 0),
                "completed": cluster_counters["requests.completed"],
                "failed": cluster_counters["requests.failed"],
            },
            "speedup": service_s / cluster_s if cluster_s else 0.0,
            "predictions_identical": service_preds == cluster_preds,
        },
        "kill_survival": {
            "requests": len(kill_sessions),
            "killed_pid": victim_pid,
            "restarts": kc["cluster.restarts"],
            "redeliveries": kc["cluster.redeliveries"],
            "completed": kc["requests.completed"],
            "failed": kc["requests.failed"],
            "duplicate_replies": kc["cluster.duplicate_replies"],
            "zero_lost": (
                kc["requests.completed"] == len(kill_sessions)
                and kc["requests.failed"] == 0
            ),
            "predictions_identical": kill_preds == kill_expected,
        },
    }


def run_suite(
    mode: str = "full", seed: int = 1, workers: int = DEFAULT_WORKERS,
    progress=None,
) -> dict:
    """Both phases at ``mode`` size; adds the correctness gates."""
    results = run_cluster_bench(
        seed=seed,
        repetitions=(
            SMOKE_REPETITIONS if mode == "smoke" else DEFAULT_REPETITIONS
        ),
        workers=workers,
        progress=progress,
    )
    kill = results["kill_survival"]
    results["gates"] = {
        "restarted": kill["restarts"] >= 1,
        "zero_lost": kill["zero_lost"],
        "kill_predictions_identical": kill["predictions_identical"],
        "predictions_identical": (
            results["throughput"]["predictions_identical"]
        ),
    }
    return results


def render_report(results: dict) -> str:
    """Human-readable summary of one run."""
    thr = results["throughput"]
    kill = results["kill_survival"]
    svc, cl = thr["service"], thr["cluster"]
    lines = [
        f"cluster -- {results['requests']} requests "
        f"({results['distinct_sessions']} distinct sessions x"
        f"{results['waves']} waves, seed {results['seed']}), "
        f"{results['workers']} workers",
        f"  single-process service: {svc['seconds']:.2f}s "
        f"({svc['requests_per_s']:7.1f} req/s)  "
        f"{svc['memory_hits']} memory hits / {svc['misses']} misses",
        f"  cluster ({results['workers']} processes): "
        f"{cl['seconds']:.2f}s ({cl['requests_per_s']:7.1f} req/s)  "
        f"{cl['memory_hits']} memory hits / {cl['misses']} misses",
        f"  speedup: {thr['speedup']:.2f}x  predictions identical: "
        f"{'yes' if thr['predictions_identical'] else 'NO'}",
    ]
    if not results["eviction_regime"]:
        lines.append(
            "  (smoke regime: working set fits one cache; speedup "
            "not meaningful)"
        )
    lines += [
        f"  kill survival: {kill['requests']} requests, worker pid "
        f"{kill['killed_pid']} SIGKILLed mid-load",
        f"    restarts {kill['restarts']}, redeliveries "
        f"{kill['redeliveries']}, completed {kill['completed']}, "
        f"failed {kill['failed']}, duplicates "
        f"{kill['duplicate_replies']}",
        f"    zero lost: {'yes' if kill['zero_lost'] else 'NO'}  "
        f"predictions identical: "
        f"{'yes' if kill['predictions_identical'] else 'NO'}",
    ]
    return "\n".join(lines)
