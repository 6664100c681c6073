"""Streaming-vs-batch latency suite behind ``repro bench stream``.

The batch pipeline cannot produce *anything* before the full trace is
captured and denoised, so its identify latency is proportional to the
trace length.  The streaming path
(:class:`repro.core.streaming.StreamingExtractor`) emits its first
preview Omega-bar after one window (``stream_window_size`` packets)
and pays a bounded per-packet cost after that, so what this bench
measures per trace length is:

* ``time_to_first_estimate_s`` -- compute from the first *target*
  packet until ``estimate()`` first reports a finite Omega-bar.  The
  baseline trace is captured (empty beaker) before the target session
  starts, so the streaming path has digested it off the critical path
  by then; its ingest cost is reported separately as
  ``baseline_ingest_s``.  The batch number it is compared against is
  likewise the compute after all packets are present;
* ``last_window_ms`` -- the worst single-packet step (push + poll),
  i.e. the bounded incremental latency;
* ``finalize_s`` -- batch ``extract`` of the buffered packets (quality
  gate included) + classify at the end;
* ``batch_identify_s`` -- the cold full-trace ``identify`` the
  streaming path replaces.

Every run also verifies the acceptance contract: the finalized
streaming prediction equals the batch prediction on the same session.
``finalize()`` is the batch ``extract``, so this holds by construction
and is gated (``predictions_identical``).

The committed report (``BENCH_PR8.json``) is the regression baseline:
:mod:`repro.experiments.bench` fails a run whose time-to-first-estimate,
finalize time or whole-stream time exceeds 3x the committed value for
the same mode.  The whole-stream time catches per-packet work that
grows with the trace length.
"""

from __future__ import annotations

import time

from repro.channel.materials import default_catalog
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.csi.collector import DataCollector, SessionConfig
from repro.engine.cache import StageCache
from repro.experiments.datasets import (
    collect_dataset,
    split_dataset,
    standard_scene,
)

#: Per-suite workload sizes.  Smoke is sized for CI; full is the
#: committed reference workload sweeping trace lengths so the
#: trace-proportional batch latency is visible against the bounded
#: streaming one.
_SIZES = {
    "smoke": {
        "train_repetitions": 4,
        "train_packets": 8,
        "trace_lengths": (48,),
        "repeats": 3,
    },
    "full": {
        "train_repetitions": 6,
        "train_packets": 10,
        "trace_lengths": (60, 120, 200),
        "repeats": 3,
    },
}


def _workload(sizes: dict):
    """A fitted pipeline plus a collector for test traces of any length."""
    catalog = default_catalog()
    materials = [catalog.get(n) for n in ("pure_water", "pepsi", "oil")]
    scene = standard_scene("lab")
    dataset = collect_dataset(
        materials,
        scene=scene,
        repetitions=sizes["train_repetitions"],
        num_packets=sizes["train_packets"],
        seed=0,
    )
    train, _ = split_dataset(dataset)
    wimi = WiMi(theory_reference_omegas(materials))
    wimi.fit(train)
    collector = DataCollector(scene, rng=1)
    return wimi, collector, catalog.get("pepsi")


def _stream_once(wimi: WiMi, session) -> dict:
    """One cold streaming replay; returns its timing breakdown."""
    view = wimi.clone_view(cache=StageCache())
    stream = view.streaming_extractor(
        scene=session.scene, material_name=session.material_name
    )
    t_base = time.perf_counter()
    stream.push_baseline(session.baseline)
    baseline_ingest_s = time.perf_counter() - t_base
    t0 = time.perf_counter()
    first_s = None
    first_packets = 0
    worst_step_s = 0.0
    for index, packet in enumerate(session.target.packets):
        t_step = time.perf_counter()
        stream.push_target(packet)
        estimate = stream.estimate()
        worst_step_s = max(worst_step_s, time.perf_counter() - t_step)
        if first_s is None and estimate.ready:
            first_s = time.perf_counter() - t0
            first_packets = index + 1
    t_fin = time.perf_counter()
    result = stream.finalize()
    finalize_s = time.perf_counter() - t_fin
    return {
        "baseline_ingest_s": baseline_ingest_s,
        "time_to_first_estimate_s": (
            first_s if first_s is not None else float("inf")
        ),
        "first_estimate_packets": first_packets,
        "last_window_ms": worst_step_s * 1000.0,
        "finalize_s": finalize_s,
        "stream_total_s": time.perf_counter() - t0,
        "label": result.label,
        "confidence": result.estimate.confidence,
    }


def bench_length(wimi: WiMi, collector, material, length: int,
                 repeats: int) -> dict:
    """Streaming vs batch on one trace length (best-of ``repeats``)."""
    session = collector.collect(
        material, SessionConfig(num_packets=length)
    )

    def run_batch() -> str:
        return wimi.clone_view(cache=StageCache()).identify(session)

    batch_label = run_batch()
    batch_s = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        run_batch()
        batch_s = min(batch_s, time.perf_counter() - t0)

    best: dict | None = None
    for _ in range(max(1, repeats)):
        attempt = _stream_once(wimi, session)
        if (
            best is None
            or attempt["time_to_first_estimate_s"]
            < best["time_to_first_estimate_s"]
        ):
            best = attempt
    assert best is not None
    first = best["time_to_first_estimate_s"]
    return {
        "packets": length,
        "batch_identify_s": batch_s,
        "baseline_ingest_s": best["baseline_ingest_s"],
        "time_to_first_estimate_s": first,
        "first_estimate_packets": best["first_estimate_packets"],
        "last_window_ms": best["last_window_ms"],
        "finalize_s": best["finalize_s"],
        "stream_total_s": best["stream_total_s"],
        "speedup_first_estimate": (
            batch_s / first if first > 0 else float("inf")
        ),
        "predictions_identical": best["label"] == batch_label,
        "label": best["label"],
    }


def run_suite(
    mode: str = "full", seed: int = 0, workers: int = 1, progress=None
) -> dict:
    """Run the streaming bench at ``mode`` ("smoke" or "full") sizes.

    ``seed`` and ``workers`` are ignored: the workload is fixed so a run
    stays comparable with the committed baseline.
    """
    if mode not in _SIZES:
        raise ValueError(f"mode must be one of {sorted(_SIZES)}, got {mode!r}")
    sizes = _SIZES[mode]
    wimi, collector, material = _workload(sizes)
    results = {}
    for length in sizes["trace_lengths"]:
        name = f"stream_len{length}"
        if progress is not None:
            progress(name)
        results[name] = bench_length(
            wimi, collector, material, length, sizes["repeats"]
        )
    results["gates"] = {
        "predictions_identical": all(
            data["predictions_identical"] for data in results.values()
        )
    }
    return results


def render_report(results: dict) -> str:
    """Human-readable summary of one suite run."""
    lines = [
        "stream -- streaming time-to-first-estimate vs batch identify",
        f"  {'benchmark':<16} {'batch':>9} {'1st est':>9} "
        f"{'finalize':>9} {'step max':>9} {'match':>6}",
    ]
    for name, data in results.items():
        if name == "gates":
            continue
        match = "yes" if data["predictions_identical"] else "NO"
        lines.append(
            f"  {name:<16} {data['batch_identify_s']:>8.3f}s "
            f"{data['time_to_first_estimate_s']:>8.3f}s "
            f"{data['finalize_s']:>8.3f}s "
            f"{data['last_window_ms']:>7.2f}ms {match:>6}"
        )
        lines.append(
            f"    first estimate after {data['first_estimate_packets']} "
            f"packets, {data['speedup_first_estimate']:.1f}x ahead of "
            "batch"
        )
    return "\n".join(lines)
