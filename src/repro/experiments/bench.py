"""One harness behind ``repro bench <suite>``.

Every benchmark is one :class:`Suite` in :data:`SUITES`: how to run it,
how to render its results and which committed artifact it writes.  The
runner (:func:`run_bench`) is the only code that writes reports and
decides the exit status, so every suite shares one report layout::

    {"schema": 1, "benchmark": <suite>, "suites": {<mode>: results}}

with ``smoke`` and ``full`` results stored side by side.  Each result
carries a ``gates`` dict of named booleans, and the runner fails when
any gate is false.

The ``e2e`` suite is the only timing gate: it runs the end-to-end
benchmark (``wimibench/``) on the change and on its parent and judges
them by the bounds ``BENCHMARK.json`` declares, the streamed session's
first estimate and finalize included.  The other suites measure
components and guard their contracts.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, NamedTuple

from repro.channel.materials import default_catalog
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.engine import StageCache, StageCounter
from repro.experiments import (
    clusterbench,
    e2ebench,
    robustness,
    soakbench,
    warmbench,
)
from repro.experiments.datasets import (
    collect_dataset,
    split_dataset,
    standard_scene,
)
from repro.serve import IdentificationService, ServiceConfig


class Suite(NamedTuple):
    """One benchmark suite of ``repro bench``."""

    #: ``run(mode, seed, workers, progress) -> results``; ``mode`` is
    #: ``"smoke"`` (CI-sized) or ``"full"``.
    run: Callable[[str, int, int, Callable[[str], None] | None], dict]
    #: Human-readable summary of one result (gates are rendered by the
    #: runner, not by the suite).
    render: Callable[[dict], str]
    description: str
    #: Committed report the suite writes by default; None for suites
    #: without one.
    artifact: str | None = None


# ----------------------------------------------------------------------
# Report I/O (shared by every suite)
# ----------------------------------------------------------------------


def load_report(path: str | Path) -> dict | None:
    """The report at ``path``, or None when absent/unreadable."""
    path = Path(path)
    if not path.is_file():
        return None
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return report if isinstance(report.get("suites"), dict) else None


def write_report(
    path: str | Path, suite: str, mode: str, results: dict
) -> dict:
    """Write/merge ``results`` under ``mode`` into the report at ``path``.

    Modes are stored side by side so a smoke-only run does not clobber
    the committed full-suite results.
    """
    report = load_report(path) or {"schema": 1, "suites": {}}
    report["benchmark"] = suite
    report["suites"][mode] = results
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    )
    return report


# ----------------------------------------------------------------------
# Suites without a module of their own: stage cache and online service
# ----------------------------------------------------------------------


def _small_deployment(seed: int):
    """Three materials, 6 repetitions of 10 packets: an unfitted WiMi
    plus the train and test sessions."""
    catalog = default_catalog()
    materials = [catalog.get(n) for n in ("pure_water", "pepsi", "oil")]
    dataset = collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=6,
        num_packets=10, seed=seed,
    )
    train, test = split_dataset(dataset)
    wimi = WiMi(theory_reference_omegas(materials))
    return wimi, train, test


def run_cache(mode: str, seed: int, workers: int, progress=None) -> dict:
    """Stage memoization: identify the same test sessions twice.

    The repeat pass must execute zero ``amplitude_denoise`` stages and
    give the same labels as the first pass.
    """
    wimi, train, test = _small_deployment(seed)
    counter = StageCounter()
    wimi.engine.add_hook(counter)
    wimi.fit(train)
    first = wimi.identify_batch(test)
    first_denoise = counter.executions.get("amplitude_denoise", 0)
    counter.reset()
    second = wimi.identify_batch(test)
    repeat_denoise = counter.executions.get("amplitude_denoise", 0)
    return {
        "seed": seed,
        "train_sessions": len(train),
        "test_sessions": len(test),
        "stages": wimi.cache.snapshot(),
        "denoise_executions": {
            "first": first_denoise, "repeat": repeat_denoise
        },
        "gates": {
            "repeat_pass_zero_denoise": repeat_denoise == 0,
            "predictions_identical": first == second,
        },
    }


def render_cache(results: dict) -> str:
    denoise = results["denoise_executions"]
    lines = [
        f"cache -- stage memoization over one deployment "
        f"(seed {results['seed']}, {results['train_sessions']} train / "
        f"{results['test_sessions']} test)",
        f"  {'stage':<22} {'executions':>10} {'memory':>8} {'disk':>6} "
        f"{'hit rate':>9}",
    ]
    for stage, stats in sorted(results["stages"].items()):
        lines.append(
            f"  {stage:<22} {stats['misses']:>10d} "
            f"{stats['memory_hits']:>8d} {stats['disk_hits']:>6d} "
            f"{stats['hit_rate']:>8.1%}"
        )
    lines.append(
        f"  denoiser stage executions: first identify pass "
        f"{denoise['first']}, repeat pass {denoise['repeat']}"
    )
    return "\n".join(lines)


def run_serve(mode: str, seed: int, workers: int, progress=None) -> dict:
    """Online service vs sequential cold-cache requests.

    Every test session re-arrives 2 (smoke) or 4 (full) times,
    interleaved, like many deployed links re-measuring.  The service's
    labels must equal the sequential ones.
    """
    wimi, train, test = _small_deployment(seed)
    wimi.fit(train)
    repeat = 2 if mode == "smoke" else 4
    workload = [s for _ in range(repeat) for s in test]

    t0 = time.perf_counter()
    sequential = [
        wimi.clone_view(cache=StageCache()).identify(s) for s in workload
    ]
    sequential_s = time.perf_counter() - t0

    config = ServiceConfig(num_workers=workers)
    service = IdentificationService(wimi, config)
    t0 = time.perf_counter()
    with service:
        handles = [service.submit(s) for s in workload]
        served = [h.result(timeout=60.0) for h in handles]
    served_s = time.perf_counter() - t0
    return {
        "seed": seed,
        "distinct_sessions": len(test),
        "repeat": repeat,
        "requests": len(workload),
        "workers": workers,
        "max_batch_size": config.max_batch_size,
        "queue_capacity": config.queue_capacity,
        "sequential_s": sequential_s,
        "served_s": served_s,
        "speedup": sequential_s / served_s,
        "metrics": service.snapshot(),
        "gates": {"predictions_identical": served == sequential},
    }


def render_serve(results: dict) -> str:
    snap = results["metrics"]
    latency = snap["histograms"]["latency_ms"]
    batches = snap["histograms"]["batch_size"]
    counters = snap["counters"]
    requests = results["requests"]
    lines = [
        f"serve -- {requests} requests "
        f"({results['distinct_sessions']} distinct sessions "
        f"x{results['repeat']}, seed {results['seed']}), "
        f"{results['workers']} workers, batch<= {results['max_batch_size']}, "
        f"queue {results['queue_capacity']}",
        f"  sequential (cold cache/request): {results['sequential_s']:.3f}s  "
        f"({requests / results['sequential_s']:7.1f} req/s)",
        f"  service (micro-batched):         {results['served_s']:.3f}s  "
        f"({requests / results['served_s']:7.1f} req/s)",
        f"  speedup: {results['speedup']:.1f}x",
        f"  latency ms: p50 {latency['p50']:.2f}  p95 {latency['p95']:.2f}  "
        f"p99 {latency['p99']:.2f}  max {latency['max']:.2f}",
        f"  batches: {batches['count']} dispatched, mean size "
        f"{batches['mean']:.2f}, size histogram {batches['buckets']}",
        f"  requests: {counters['requests.completed']} completed, "
        f"{counters['requests.failed']} failed, "
        f"{counters['requests.rejected']} rejected, "
        f"{counters['requests.retries']} retries, "
        f"{counters['requests.expired']} expired",
        f"  cache tiers: {counters['cache.memory_hits']} memory hits, "
        f"{counters['cache.disk_hits']} disk hits, "
        f"{counters['cache.misses']} misses",
        "  stage cache (shared across workers):",
    ]
    for stage, stats in sorted(snap["stage_cache"].items()):
        lines.append(
            f"    {stage:<22} {stats['misses']:>6d} exec "
            f"{stats['memory_hits']:>7d} mem {stats['disk_hits']:>5d} disk "
            f"{stats['hit_rate']:>8.1%}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The suite table and the runner
# ----------------------------------------------------------------------

#: Every suite of ``repro bench``, by name.
SUITES: dict[str, Suite] = {
    "e2e": Suite(
        e2ebench.run_suite, e2ebench.render_report,
        "wimibench on the change vs its parent, by BENCHMARK.json bounds",
    ),
    "warm": Suite(
        warmbench.run_suite, warmbench.render_report,
        "cold train-and-serve vs registry warm start",
        artifact="BENCH_PR6.json",
    ),
    "cluster": Suite(
        clusterbench.run_suite, clusterbench.render_report,
        "multi-process cluster vs single-process service, worker kill",
        artifact="BENCH_PR7.json",
    ),
    "soak": Suite(
        soakbench.run_suite, soakbench.render_report,
        "chaos soak of the failure-control plane",
        artifact="SOAK_PR10.json",
    ),
    "robustness": Suite(
        robustness.run_suite, robustness.render_report,
        "accuracy-under-fault sweeps (loss, dead antenna)",
        artifact="ROBUSTNESS_PR5.json",
    ),
    "serve": Suite(
        run_serve, render_serve, "online identification service load"
    ),
    "cache": Suite(
        run_cache, render_cache, "stage-graph memoization hit rates"
    ),
}


def render(name: str, results: dict) -> str:
    """The suite's own summary followed by the gate verdict."""
    gates = results.get("gates", {})
    lines = [SUITES[name].render(results)]
    failed = sorted(gate for gate, passed in gates.items() if not passed)
    if failed:
        lines.append(f"  GATES FAILED: {', '.join(failed)}")
    elif gates:
        lines.append(f"  all gates passed ({len(gates)})")
    else:
        lines.append("  no gates (report only)")
    return "\n".join(lines)


def run_bench(
    name: str,
    *,
    smoke: bool = False,
    seed: int = 1,
    workers: int = 2,
    output: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> tuple[str, bool]:
    """Run one suite; returns ``(rendered report, every gate passed)``."""
    mode = "smoke" if smoke else "full"
    results = SUITES[name].run(mode, seed, workers, progress)
    gates = results.setdefault("gates", {})
    text = render(name, results)
    if output is not None:
        write_report(output, name, mode, results)
        text += f"\n  report written to {output}"
    return text, all(gates.values())
