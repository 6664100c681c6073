"""Kernel performance suite behind ``repro bench perf``.

Runs a fixed suite of benchmarks over the hot paths this codebase
vectorised -- batched wavelet denoising, the CSI simulator, batched
feature extraction, SMO training, the end-to-end identification sweep
and the online serving layer.

Each benchmark times the *current* implementation against its in-tree
scalar reference (``_reference_*``), so the report carries both absolute
timings and the speedup the vectorised kernels deliver, and it verifies
on every run that the two implementations still agree numerically.
Those agreement fields are the suite's gates (:func:`run_suite`).

The committed report (``BENCH_PR4.json``) doubles as the regression
baseline: :mod:`repro.experiments.bench` compares each benchmark's
``new_s`` against the committed value for the same mode and fails the
run when one got more than 2x slower.

Latency percentiles for the serving benchmark come from the same
:class:`repro.serve.metrics.Histogram` instruments the service exports
at runtime -- the benchmark reads the service snapshot rather than
keeping its own sample buffers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from repro.channel.materials import default_catalog
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.csi.simulator import CsiSimulator
from repro.dsp.wavelet_denoise import SpatiallySelectiveDenoiser
from repro.engine.cache import StageCache
from repro.experiments.datasets import (
    collect_dataset,
    split_dataset,
    standard_scene,
)
from repro.experiments.runner import mean_accuracy_over_seeds
from repro.ml.svm import BinarySVC

#: Per-suite workload sizes.  Smoke is sized for CI (seconds overall but
#: still >= tens of milliseconds per benchmark, so a 2x gate is not
#: dominated by timer noise); full is the committed reference workload.
_SIZES = {
    "smoke": {
        "denoise_len": 128,
        "sim_packets": 60,
        "extract_repetitions": 4,
        "extract_packets": 8,
        "train_samples": 60,
        "identify_seeds": (0,),
        "identify_repetitions": 4,
        "identify_packets": 6,
        "serve_repeat": 2,
        "repeats": 1,
    },
    "full": {
        "denoise_len": 200,
        "sim_packets": 300,
        "extract_repetitions": 6,
        "extract_packets": 10,
        "train_samples": 140,
        "identify_seeds": (0, 1),
        "identify_repetitions": 6,
        "identify_packets": 10,
        "serve_repeat": 4,
        "repeats": 3,
    },
}


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds over ``repeats`` calls."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@contextmanager
def _scalar_reference_kernels():
    """Swap the vectorised hot paths for their scalar references.

    Used to emulate the pre-vectorisation pipeline for the end-to-end
    benchmarks: the simulator falls back to its per-packet loop and the
    denoiser to per-column 1-D processing.
    """
    orig_capture = CsiSimulator.capture
    orig_denoise = SpatiallySelectiveDenoiser.denoise

    def column_denoise(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self._reference_denoise(x)
        out = np.empty_like(x)
        for k in range(x.shape[1]):
            out[:, k] = self._reference_denoise(x[:, k])
        return out

    CsiSimulator.capture = CsiSimulator._reference_capture
    SpatiallySelectiveDenoiser.denoise = column_denoise
    try:
        yield
    finally:
        CsiSimulator.capture = orig_capture
        SpatiallySelectiveDenoiser.denoise = orig_denoise


# ----------------------------------------------------------------------
# Individual benchmarks
# ----------------------------------------------------------------------


def bench_denoise(sizes: dict) -> dict:
    """Batched 2-D denoiser vs the scalar per-column reference.

    Sized like a real trace: 90 channels (30 subcarriers x 3 antennas)
    over the packet counts the paper's sessions actually have -- the
    regime where per-column Python overhead dominates the scalar path.
    """
    rng = np.random.default_rng(0)
    num_samples, num_channels = sizes["denoise_len"], 90
    t = np.arange(num_samples)[:, None]
    x = 1.0 + 0.05 * np.sin(2 * np.pi * t / 64.0 + np.arange(num_channels))
    x += 0.01 * rng.standard_normal(x.shape)
    spikes = rng.random(x.shape) < 0.02
    x[spikes] += rng.standard_normal(int(spikes.sum())) * 5.0

    denoiser = SpatiallySelectiveDenoiser()
    batched = denoiser.denoise(x)
    reference = np.column_stack(
        [denoiser._reference_denoise(x[:, k]) for k in range(num_channels)]
    )
    new_s = _best_of(lambda: denoiser.denoise(x), sizes["repeats"])
    baseline_s = _best_of(
        lambda: [
            denoiser._reference_denoise(x[:, k]) for k in range(num_channels)
        ],
        sizes["repeats"],
    )
    return {
        "new_s": new_s,
        "baseline_s": baseline_s,
        "speedup": baseline_s / new_s,
        "max_abs_diff": float(np.max(np.abs(batched - reference))),
        "shape": [num_samples, num_channels],
    }


def bench_simulate(sizes: dict) -> dict:
    """Vectorised simulator capture vs the per-packet reference loop."""
    catalog = default_catalog()
    water = catalog.get("pure_water")
    scene = standard_scene("lab")
    packets = sizes["sim_packets"]

    def run_new():
        return CsiSimulator(scene, rng=0).capture(water, packets)

    def run_reference():
        return CsiSimulator(scene, rng=0)._reference_capture(water, packets)

    new_csi = run_new().matrix()
    ref_csi = run_reference().matrix()
    scale = float(np.max(np.abs(ref_csi)))
    new_s = _best_of(run_new, sizes["repeats"])
    baseline_s = _best_of(run_reference, sizes["repeats"])
    return {
        "new_s": new_s,
        "baseline_s": baseline_s,
        "speedup": baseline_s / new_s,
        "max_rel_diff": float(np.max(np.abs(new_csi - ref_csi)) / scale),
        "packets": packets,
    }


def _extract_workload(sizes: dict):
    catalog = default_catalog()
    materials = [catalog.get(n) for n in ("pure_water", "pepsi", "oil")]
    dataset = collect_dataset(
        materials,
        scene=standard_scene("lab"),
        repetitions=sizes["extract_repetitions"],
        num_packets=sizes["extract_packets"],
        seed=0,
    )
    train, test = split_dataset(dataset)
    wimi = WiMi(theory_reference_omegas(materials))
    wimi.fit(train)
    return wimi, test


def bench_extract_batch(sizes: dict) -> dict:
    """Batched extraction vs per-session extraction on scalar kernels."""
    wimi, test = _extract_workload(sizes)

    def run_new():
        return wimi.clone_view(cache=StageCache()).extract_batch(test)

    def run_reference():
        view = wimi.clone_view(cache=StageCache())
        with _scalar_reference_kernels():
            return [view.extract(s) for s in test]

    new_features = run_new()
    ref_features = run_reference()
    max_diff = max(
        abs(a.omega_mean - b.omega_mean)
        for a, b in zip(new_features, ref_features)
    )
    new_s = _best_of(run_new, sizes["repeats"])
    baseline_s = _best_of(run_reference, sizes["repeats"])
    return {
        "new_s": new_s,
        "baseline_s": baseline_s,
        "speedup": baseline_s / new_s,
        "max_omega_diff": float(max_diff),
        "sessions": len(test),
    }


def bench_train(sizes: dict) -> dict:
    """SMO with Gram cache + vectorised errors vs the reference loop."""
    rng = np.random.default_rng(0)
    n = sizes["train_samples"]
    half = n // 2
    x = np.vstack(
        [
            rng.normal(0.0, 1.0, size=(half, 4)),
            rng.normal(3.0, 1.0, size=(n - half, 4)),
        ]
    )
    y = np.concatenate([-np.ones(half), np.ones(n - half)])

    new_svc = BinarySVC().fit(x, y)
    ref_svc = BinarySVC()._reference_fit(x, y)
    agreement = float(np.mean(new_svc.predict(x) == ref_svc.predict(x)))
    new_s = _best_of(lambda: BinarySVC().fit(x, y), sizes["repeats"])
    baseline_s = _best_of(
        lambda: BinarySVC()._reference_fit(x, y), sizes["repeats"]
    )
    return {
        "new_s": new_s,
        "baseline_s": baseline_s,
        "speedup": baseline_s / new_s,
        "train_agreement": agreement,
        "samples": n,
    }


def bench_identify(sizes: dict) -> dict:
    """End-to-end identification sweep, vectorised vs scalar kernels.

    The new path is the shipped one (vectorised simulator + batched
    denoiser + one shared stage cache across seeds); the baseline runs
    the same sweep on the scalar reference kernels without cache
    sharing, emulating the pre-vectorisation pipeline.
    """
    catalog = default_catalog()
    materials = [catalog.get(n) for n in ("pure_water", "pepsi", "vinegar")]
    seeds = list(sizes["identify_seeds"])
    kwargs = dict(
        repetitions=sizes["identify_repetitions"],
        num_packets=sizes["identify_packets"],
    )

    def run_new():
        return mean_accuracy_over_seeds(materials, seeds, **kwargs)

    def run_reference():
        with _scalar_reference_kernels():
            return [
                mean_accuracy_over_seeds(
                    materials, [s], cache=StageCache(), **kwargs
                )[0]
                for s in seeds
            ]

    new_mean, new_accs = run_new()
    run_reference()
    new_s = _best_of(run_new, sizes["repeats"])
    baseline_s = _best_of(run_reference, sizes["repeats"])
    return {
        "new_s": new_s,
        "baseline_s": baseline_s,
        "speedup": baseline_s / new_s,
        "mean_accuracy": new_mean,
        "seeds": len(seeds),
    }


def bench_serve(sizes: dict) -> dict:
    """Online service throughput vs sequential cold-cache requests.

    Latency percentiles are read from the service's own
    :class:`~repro.serve.metrics.Histogram` snapshot.
    """
    from repro.serve import IdentificationService, ServiceConfig

    wimi, test = _extract_workload(sizes)
    workload = [s for _ in range(sizes["serve_repeat"]) for s in test]

    t0 = time.perf_counter()
    sequential = [
        wimi.clone_view(cache=StageCache()).identify(s) for s in workload
    ]
    baseline_s = time.perf_counter() - t0

    service = IdentificationService(
        wimi, ServiceConfig(num_workers=2, max_batch_size=8)
    )
    t0 = time.perf_counter()
    with service:
        handles = [service.submit(s) for s in workload]
        served = [h.result(timeout=60.0) for h in handles]
    new_s = time.perf_counter() - t0

    latency = service.snapshot()["histograms"]["latency_ms"]
    return {
        "new_s": new_s,
        "baseline_s": baseline_s,
        "speedup": baseline_s / new_s,
        "throughput_rps": len(workload) / new_s,
        "latency_ms": {
            k: latency[k] for k in ("p50", "p95", "p99", "max")
        },
        "predictions_identical": served == sequential,
        "requests": len(workload),
    }


_BENCHMARKS = (
    ("denoise", bench_denoise),
    ("simulate", bench_simulate),
    ("extract_batch", bench_extract_batch),
    ("train", bench_train),
    ("identify", bench_identify),
    ("serve", bench_serve),
)


#: Oracle bounds of the gated agreement fields: the denoiser and the
#: extracted Omega-bar agree with the scalar references to rounding; the
#: simulator's draw-then-compute split reassociates whole-block sums.
ORACLE_ATOL = 1e-12
SIMULATE_RTOL = 1e-9


def run_perf_bench(mode: str = "full", progress=None) -> dict:
    """Run every benchmark at ``mode`` ("smoke" or "full") sizes."""
    if mode not in _SIZES:
        raise ValueError(f"mode must be one of {sorted(_SIZES)}, got {mode!r}")
    sizes = _SIZES[mode]
    results = {}
    for name, bench in _BENCHMARKS:
        if progress is not None:
            progress(name)
        results[name] = bench(sizes)
    return results


def run_suite(
    mode: str = "full", seed: int = 0, workers: int = 1, progress=None
) -> dict:
    """Every benchmark at ``mode`` size; adds the oracle gates.

    ``seed`` and ``workers`` are ignored: the workloads are fixed so a
    run stays comparable with the committed baseline.
    """
    results = run_perf_bench(mode, progress)
    results["gates"] = {
        "serve_predictions_identical": (
            results["serve"]["predictions_identical"]
        ),
        "denoise_max_abs_diff": (
            results["denoise"]["max_abs_diff"] <= ORACLE_ATOL
        ),
        "extract_batch_max_omega_diff": (
            results["extract_batch"]["max_omega_diff"] <= ORACLE_ATOL
        ),
        "simulate_max_rel_diff": (
            results["simulate"]["max_rel_diff"] <= SIMULATE_RTOL
        ),
        "train_agreement": results["train"]["train_agreement"] == 1.0,
    }
    return results


def render_report(results: dict) -> str:
    """Human-readable summary of one suite run."""
    lines = [
        "perf -- vectorised kernels vs their scalar references",
        f"  {'benchmark':<14} {'new':>9} {'baseline':>9} {'speedup':>8}",
    ]
    for name, data in results.items():
        if name == "gates":
            continue
        lines.append(
            f"  {name:<14} {data['new_s']:>8.3f}s {data['baseline_s']:>8.3f}s "
            f"{data['speedup']:>7.2f}x"
        )
    serve = results.get("serve")
    if serve:
        latency = serve["latency_ms"]
        lines.append(
            f"  serve: {serve['throughput_rps']:.1f} req/s, latency ms "
            f"p50 {latency['p50']:.2f} p95 {latency['p95']:.2f} "
            f"p99 {latency['p99']:.2f}"
        )
    return "\n".join(lines)
