"""Chaos soak harness: the failure-control plane under sustained abuse.

:func:`run_soak_bench` drives one sharded cluster through a scripted
chaos schedule; ``tests/test_soakbench.py::TestChaosSoak`` (the CI
``soak`` job) runs it and asserts every gate.  ``SOAK_PR10.json`` is
the record of one run of the full 24-repetition schedule.  Each phase
targets one mechanism of the failure-control plane:

1. **baseline** -- a clean wave; every label must match a fault-free
   ``identify_batch`` run and the per-shard artifact stores warm up.
2. **shed spike** -- a best-effort (priority -1) flood past the
   shedder's depth threshold; the excess is refused with a typed
   :class:`repro.serve.OverloadError` at admission, never queued.
3. **kill + redelivery** -- SIGKILL one worker mid-load; the
   client restarts it and re-publishes the lost envelopes
   through the jittered redelivery backoff.  Zero lost requests.
4. **store corruption + quarantine** -- bit-flip warm artifact-store
   entries on both shards, then SIGKILL both workers (second kill of
   shard 0 trips its circuit breaker open).  The restarted workers'
   cold memory tiers fall through to the corrupt disk entries, which
   are quarantined and healed by recompute; replies from the restarted
   shard close its breaker.
5. **deadlines** -- three drop points, counted separately: timeout 0
   is abandoned at admission (never published); a burst with a tiny
   timeout expires while queued (dequeue check); fresh sessions whose
   timeout covers the queue wait but not the throttled service time
   expire mid-pipeline at a stage boundary.
6. **capture fault** -- a structurally hopeless capture travels the
   full path and comes back as a typed ``CorruptTraceError`` reply (a
   resolution, not a loss).
7. **hedge** -- a wave wide enough that stragglers age past the hedge
   threshold and are speculatively re-enqueued on the sibling shard;
   first-reply-wins dedup absorbs the duplicates.

Every entry of the result's ``gates`` is true only when every admitted
request resolves, every clean prediction matches the fault-free run,
and every mechanism actually fired: expired-deadline drops at all
three points, breaker opens *and* re-closes, sheds, hedges,
redeliveries, restarts and quarantines all non-zero.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from pathlib import Path

from repro.channel.materials import default_catalog
from repro.cluster import ClusterClient, ClusterConfig
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.csi.faults import (
    AntennaDropout,
    SubcarrierErasure,
    flip_bits,
    inject_session,
)
from repro.experiments.datasets import collect_dataset, standard_scene
from repro.resilience import breaker
from repro.serve import OverloadError, QueueFullError

DEFAULT_MATERIALS = ("pure_water", "pepsi", "oil")

#: Per-request service-time floor: keeps work in flight long enough
#: for kills, hedges and stage-deadline expiries to land mid-load.
THROTTLE_S = 0.03

#: Bench sessions per material of the CI-sized schedule.
SMOKE_REPETITIONS = 6
#: Packets per capture and cluster shards (one worker process each).
NUM_PACKETS = 6
WORKERS = 2

#: Supervision timings tighter than production, as ``(module, constant,
#: value)``: phase 4's two kills with no reply in between must trip
#: shard 0's breaker, and the breaker must re-close within the heal
#: phase.
SOAK_TIMINGS = (
    (breaker, "FAILURE_THRESHOLD", 2),
    (breaker, "OPEN_DURATION_S", 0.5),
)


@contextmanager
def _soak_timings():
    """Set :data:`SOAK_TIMINGS` on their constants for the block."""
    saved = [
        (module, name, getattr(module, name))
        for module, name, _ in SOAK_TIMINGS
    ]
    for module, name, value in SOAK_TIMINGS:
        setattr(module, name, value)
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def _flatten(dataset: dict) -> list:
    return [s for sessions in dataset.values() for s in sessions]


def _wait_all(handles, collect=None) -> tuple[int, int]:
    """Resolve every handle; returns (completed, typed_failures).

    A handle that raises a *typed* error is a resolution -- the
    control plane answered -- only a hang or an unexpected exception
    type would escape and fail the bench.
    """
    completed = failed = 0
    for handle in handles:
        try:
            label = handle.result(timeout=600.0)
        except Exception:  # noqa: BLE001 - typed failures recorded below
            failed += 1
        else:
            completed += 1
            if collect is not None:
                collect.append(label)
    return completed, failed


def run_soak_bench(
    store_root: str | Path,
    seed: int = 1,
    repetitions: int = SMOKE_REPETITIONS,
) -> dict:
    """Run the chaos schedule over stores under ``store_root``; returns
    the result dict."""
    catalog = default_catalog()
    materials = [catalog.get(name) for name in DEFAULT_MATERIALS]
    train = _flatten(collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=4,
        num_packets=NUM_PACKETS, seed=seed,
    ))
    bench = _flatten(collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=repetitions,
        num_packets=NUM_PACKETS, seed=seed + 6,
    ))
    # Never-seen sessions for the stage-deadline phase: their artifacts
    # are cold everywhere, so the engine must actually execute stages
    # (a warm memory tier would short-circuit the deadline checks).
    fresh = _flatten(collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=3,
        num_packets=NUM_PACKETS, seed=seed + 17,
    ))
    wimi = WiMi(theory_reference_omegas(materials))
    wimi.fit(train)
    expected = [str(x) for x in wimi.identify_batch(bench)]

    root = Path(store_root)
    registry = root / "registry"
    wimi.save_to_registry(registry, name="wimi")

    capacity = 32
    config = ClusterConfig(
        num_workers=WORKERS,
        queue_capacity=capacity,
        max_batch_size=4,
        throttle_s=THROTTLE_S,
        hedge_after_s=0.35,
    )
    with _soak_timings():
        client = ClusterClient(
            registry, config=config, store_root=root / "stores"
        )
        client.start()
        phases: dict[str, dict] = {}
        lost = 0
        try:
            # ------------------------------------------------ 1. baseline
            labels: list[str] = []
            for start in range(0, len(bench), capacity // 2):
                chunk = bench[start:start + capacity // 2]
                completed, failed = _wait_all(
                    client.submit_many(chunk, timeout=None), collect=labels
                )
                lost += failed
            phases["baseline"] = {
                "requests": len(bench),
                "predictions_identical": labels == expected,
            }

            # ---------------------------------------------- 2. shed spike
            admitted, shed = [], 0
            for session in bench * 3:
                try:
                    admitted.append(
                        client.submit(session, timeout=None, priority=-1)
                    )
                except (OverloadError, QueueFullError):
                    shed += 1
            completed, failed = _wait_all(admitted)
            lost += failed
            phases["shed_spike"] = {
                "offered": len(bench) * 3,
                "admitted": len(admitted),
                "shed": shed,
            }

            # ----------------------------------------- 3. kill/redeliver
            handles = client.submit_many(bench[:capacity // 2], timeout=None)
            time.sleep(THROTTLE_S * 4)
            os.kill(client._slots[0].process.pid, signal.SIGKILL)
            kill_labels: list[str] = []
            completed, failed = _wait_all(handles, collect=kill_labels)
            lost += failed
            phases["kill_redeliver"] = {
                "requests": len(handles),
                "predictions_identical": (
                    kill_labels == expected[:len(handles)]
                ),
            }

            # --------------------------------- 4. corruption + quarantine
            flipped = 0
            for shard in range(WORKERS):
                objects = root / "stores" / f"shard-{shard}" / "objects"
                for index, entry in enumerate(sorted(objects.rglob("*.art"))):
                    flip_bits(entry, num_flips=8, seed=seed + index)
                    flipped += 1
            def _kill_and_await_restart(shards) -> None:
                """SIGKILL the shards' workers, wait for the replacements.

                "Replacement arrived" means the slot holds a *new* pid and
                beats ready again -- checking ``ready`` alone races the
                monitor's staleness detection and can observe the dead
                incarnation's flag.
                """
                old_pids = {
                    shard: client._slots[shard].process.pid
                    for shard in shards
                }
                for shard, pid in old_pids.items():
                    os.kill(pid, signal.SIGKILL)
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    slots = client._slots
                    if all(
                        slots[shard].process.pid != old_pids[shard]
                        and slots[shard].ready and not slots[shard].failed
                        for shard in shards
                    ):
                        return
                    time.sleep(0.05)
                raise RuntimeError(f"shards {list(shards)} never restarted")

            _kill_and_await_restart(range(WORKERS))
            # Kill shard 0 again before it serves a single reply: two
            # consecutive failures with no success in between trip its
            # circuit breaker open (replies are the only thing that resets
            # the consecutive-failure count -- a restart alone never does).
            _kill_and_await_restart([0])
            # Re-serve the warm set through the now-corrupt disk tier:
            # the restarted workers' cold memory misses fall through to
            # disk, every read quarantines and recompute heals; replies
            # from shard 0 close its breaker again.
            heal_labels: list[str] = []
            for start in range(0, len(bench), capacity // 2):
                chunk = bench[start:start + capacity // 2]
                completed, failed = _wait_all(
                    client.submit_many(chunk, timeout=None),
                    collect=heal_labels,
                )
                lost += failed
            phases["quarantine"] = {
                "entries_corrupted": flipped,
                "predictions_identical": heal_labels == expected,
            }

            # ------------------------------------------------ 5. deadlines
            admission = client.submit_many(bench[:4], timeout=0.0)
            burst = client.submit_many(
                bench[:capacity // 2], timeout=THROTTLE_S * 2
            )
            _wait_all(admission)
            _wait_all(burst)
            # Queue is idle again: a fresh-session wave whose deadline
            # covers the dequeue check but not the throttled batch run
            # expires *inside* the pipeline, at a stage boundary.
            stage = client.submit_many(fresh, timeout=THROTTLE_S * 1.5)
            _wait_all(stage)
            phases["deadlines"] = {
                "admission_offered": len(admission),
                "dequeue_offered": len(burst),
                "stage_offered": len(stage),
            }

            # -------------------------------------------- 6. capture fault
            hopeless = inject_session(
                bench[0],
                (
                    AntennaDropout(antenna=0, mode="nan"),
                    AntennaDropout(antenna=1, mode="nan"),
                    SubcarrierErasure(0.9, scope="column"),
                ),
                seed=seed,
            )
            fault_handle = client.submit(hopeless, timeout=None)
            try:
                fault_handle.result(timeout=600.0)
                fault_typed = False
            except Exception as error:  # noqa: BLE001 - typed check below
                fault_typed = "CorruptTraceError" in type(error).__name__ or (
                    "quality gate" in str(error)
                )
            phases["capture_fault"] = {"typed_failure": fault_typed}

            # ------------------------------------------------ 7. hedge
            hedge_labels: list[str] = []
            handles = client.submit_many(bench[:capacity - 2], timeout=None)
            completed, failed = _wait_all(handles, collect=hedge_labels)
            lost += failed
            phases["hedge"] = {
                "requests": len(handles),
                "predictions_identical": (
                    hedge_labels == expected[:len(handles)]
                ),
            }

            snap = client.snapshot()
        finally:
            client.stop()

    cc = snap["cluster"]["counters"]
    merged = snap["merged"]["counters"]
    gauges = snap["merged"].get("gauges", {})
    quarantined = gauges.get("store.quarantined", 0)
    gates = {
        "zero_lost": lost == 0,
        "predictions_identical": all(
            phase.get("predictions_identical", True)
            for phase in phases.values()
        ),
        "expired_admission": cc["deadline.expired_admission"] > 0,
        "expired_dequeue": merged.get("deadline.expired_dequeue", 0) > 0,
        "expired_stage": merged.get("deadline.expired_stage", 0) > 0,
        "breaker_opened": cc["breaker.opened"] > 0,
        "breaker_closed": cc["breaker.closed"] > 0,
        "shed": cc["requests.shed"] > 0,
        "hedged": cc["cluster.hedges"] > 0,
        "redelivered": cc["cluster.redeliveries"] > 0,
        "restarted": cc["cluster.restarts"] > 0,
        "quarantined": quarantined > 0,
        "capture_fault_typed": phases["capture_fault"]["typed_failure"],
    }
    return {
        "seed": seed,
        "materials": list(DEFAULT_MATERIALS),
        "workers": WORKERS,
        "distinct_sessions": len(bench),
        "phases": phases,
        "counters": {
            "cluster": {k: v for k, v in sorted(cc.items())},
            "worker_merged": {k: v for k, v in sorted(merged.items())},
            "store_quarantined": quarantined,
        },
        "gates": gates,
    }

