"""Command-line interface: figures, cache and serving benchmarks.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro fig15                # ten-liquid confusion matrix
    python -m repro fig17 --seed 3       # distance sweep, another deployment
    python -m repro all --seed 1         # every figure, in order
    python -m repro bench-cache          # stage-cache hit rates
    python -m repro serve-bench          # online-service load benchmark
    python -m repro perf-bench --smoke   # perf-regression suite (CI size)
    python -m repro stream-bench         # streaming vs batch latency
    python -m repro robustness-bench     # accuracy-under-fault sweeps
    python -m repro --version

Every figure command prints the same rows/series the paper's figure
plots, via :mod:`repro.experiments.reporting`.  ``bench-cache`` runs a
small identification workload through the stage-graph engine twice and
reports per-stage memoization hit rates; ``serve-bench`` replays a
synthetic multi-material workload through the
:class:`repro.serve.IdentificationService` and prints the serving
dashboard (throughput, latency percentiles, batch sizes, cache hit
rates, rejections/retries).

All subcommands live in one :data:`COMMANDS` registry; ``list`` and the
help text are generated from it, and an unknown subcommand exits with a
non-zero status and a usable message.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

from repro.experiments import figures as F
from repro.experiments import reporting as R


def _package_version() -> str:
    """The installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # pragma: no cover - metadata may be absent
        import repro

        return repro.__version__


def _fig02(args) -> str:
    data = F.phase_calibration_microbenchmark(seed=args.seed)
    return R.format_scalar_table(
        "Fig. 2/12 -- angular fluctuation (degrees)",
        {
            "raw phase": data["raw_spread_deg"],
            "antenna difference": data["pair_difference_spread_deg"],
            "good subcarriers": data["selected_spread_deg"],
        },
        unit="deg",
    )


def _fig03(args) -> str:
    return R.format_scalar_table(
        "Fig. 3 -- raw amplitude statistics",
        F.raw_amplitude_microbenchmark(seed=args.seed),
    )


def _fig06(args) -> str:
    data = F.subcarrier_variance_profile(seed=args.seed)
    lines = ["Fig. 6 -- phase-difference variance per subcarrier"]
    for k, v in enumerate(data["variances"]):
        marker = "  <-- selected" if k in data["selected_subcarriers"] else ""
        lines.append(f"  subcarrier {k:2d}: {v:8.5f}{marker}")
    return "\n".join(lines)


def _fig07(args) -> str:
    return R.format_scalar_table(
        "Fig. 7 -- denoiser RMSE vs ground truth",
        F.denoise_filter_comparison(seed=args.seed),
    )


def _fig08(args) -> str:
    return R.format_scalar_table(
        "Fig. 8 -- normalised amplitude variance",
        F.amplitude_ratio_variance(seed=args.seed),
    )


def _fig09(args) -> str:
    return R.format_cluster_table(
        "Fig. 9 -- Omega-bar clusters",
        F.material_feature_clusters(seed=args.seed),
    )


def _fig10(args) -> str:
    return R.format_pair_variance(
        "Fig. 10 -- antenna-pair stability",
        F.antenna_combination_variance(seed=args.seed),
    )


def _fig13(args) -> str:
    return R.format_scalar_table(
        "Fig. 13 -- accuracy by subcarrier set",
        F.subcarrier_choice_accuracy(seed=args.seed),
    )


def _fig14(args) -> str:
    data = F.denoise_ablation_accuracy(seed=args.seed)
    return R.format_scalar_table(
        "Fig. 14 -- accuracy with/without denoising",
        {k: v["overall"] for k, v in data.items()},
    )


def _fig15(args) -> str:
    data = F.ten_liquid_confusion(seed=args.seed)
    return R.format_confusion("Fig. 15 -- ten liquids (lab)", data["confusion"])


def _fig16(args) -> str:
    data = F.concentration_confusion(seed=args.seed)
    return R.format_confusion(
        "Fig. 16 -- saltwater concentrations", data["confusion"]
    )


def _fig17(args) -> str:
    return R.format_environment_series(
        "Fig. 17 -- accuracy vs Tx-Rx distance",
        F.distance_sweep(seed=args.seed),
        "distance",
    )


def _fig18(args) -> str:
    return R.format_environment_series(
        "Fig. 18 -- accuracy vs packet count",
        F.packet_sweep(seed=args.seed),
        "packets",
    )


def _fig19(args) -> str:
    return R.format_scalar_table(
        "Fig. 19 -- accuracy vs container diameter",
        F.container_size_sweep(seed=args.seed),
    )


def _fig20(args) -> str:
    data = F.container_material_comparison(seed=args.seed)
    return R.format_scalar_table(
        "Fig. 20 -- accuracy by container material",
        {k: v["overall"] for k, v in data.items()},
    )


def _fig21(args) -> str:
    return R.format_scalar_table(
        "Fig. 21 -- accuracy by antenna pair",
        F.antenna_pair_accuracy(seed=args.seed),
    )


def _bench_cache(args) -> str:
    """``repro bench-cache``: report stage-graph memoization hit rates.

    Runs a small fit + identify workload, then identifies the same test
    sessions a second time, and prints per-stage executions vs cache
    hits.  The second pass must execute zero denoiser/calibrator stages.
    """
    from repro.channel.materials import default_catalog
    from repro.core.feature import theory_reference_omegas
    from repro.core.pipeline import WiMi
    from repro.engine import StageCounter
    from repro.experiments.datasets import (
        collect_dataset,
        split_dataset,
        standard_scene,
    )

    catalog = default_catalog()
    materials = [catalog.get(n) for n in ("pure_water", "pepsi", "oil")]
    dataset = collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=6,
        num_packets=10, seed=args.seed,
    )
    train, test = split_dataset(dataset)

    wimi = WiMi(theory_reference_omegas(materials))
    counter = StageCounter()
    wimi.engine.add_hook(counter)

    wimi.fit(train)
    first = wimi.identify_batch(test)
    pass1_denoise = counter.executions.get("amplitude_denoise", 0)
    counter.reset()
    second = wimi.identify_batch(test)
    pass2_denoise = counter.executions.get("amplitude_denoise", 0)

    lines = [
        f"bench-cache -- stage memoization over one deployment "
        f"(seed {args.seed}, {len(train)} train / {len(test)} test)",
        f"  {'stage':<22} {'executions':>10} {'memory':>8} {'disk':>6} "
        f"{'hit rate':>9}",
    ]
    for stage, stats in sorted(wimi.cache.snapshot().items()):
        lines.append(
            f"  {stage:<22} {stats['misses']:>10d} "
            f"{stats['memory_hits']:>8d} {stats['disk_hits']:>6d} "
            f"{stats['hit_rate']:>8.1%}"
        )
    lines.append(
        f"  denoiser stage executions: first identify pass "
        f"{pass1_denoise}, repeat pass {pass2_denoise}"
    )
    lines.append(
        "  repeat-pass predictions identical: "
        f"{'yes' if first == second else 'NO'}"
    )
    return "\n".join(lines)


def _serve_bench(args) -> str:
    """``repro serve-bench``: load-test the online identification service.

    Builds one deployment, fits a WiMi, then replays a repeated
    multi-material workload two ways: sequentially with a cold artifact
    cache per request (the one-shot, no-service status quo) and through
    :class:`repro.serve.IdentificationService` (bounded queue ->
    micro-batcher -> worker pool over one shared stage cache).  Prints
    throughput, latency percentiles, the batch-size distribution,
    per-stage cache hit rates and the rejection/retry counters.
    """
    import time

    from repro.channel.materials import default_catalog
    from repro.core.feature import theory_reference_omegas
    from repro.core.pipeline import WiMi
    from repro.engine import StageCache
    from repro.experiments.datasets import (
        collect_dataset,
        split_dataset,
        standard_scene,
    )
    from repro.serve import IdentificationService, ServiceConfig

    catalog = default_catalog()
    materials = [catalog.get(n) for n in ("pure_water", "pepsi", "oil")]
    dataset = collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=6,
        num_packets=10, seed=args.seed,
    )
    train, test = split_dataset(dataset)
    wimi = WiMi(theory_reference_omegas(materials))
    wimi.fit(train)

    # Repeated-material workload: every test session arrives args.repeat
    # times, interleaved, like many deployed links re-measuring.
    workload = [s for _ in range(args.repeat) for s in test]

    t0 = time.perf_counter()
    sequential = [
        wimi.clone_view(cache=StageCache()).identify(s) for s in workload
    ]
    sequential_s = time.perf_counter() - t0

    service = IdentificationService(
        wimi,
        ServiceConfig(
            queue_capacity=args.queue_capacity,
            max_batch_size=args.batch_size,
            num_workers=args.workers,
        ),
    )
    t0 = time.perf_counter()
    with service:
        handles = [service.submit(s) for s in workload]
        served = [h.result(timeout=60.0) for h in handles]
    served_s = time.perf_counter() - t0

    snap = service.snapshot()
    latency = snap["histograms"]["latency_ms"]
    batches = snap["histograms"]["batch_size"]
    counters = snap["counters"]

    lines = [
        f"serve-bench -- {len(workload)} requests "
        f"({len(test)} distinct sessions x{args.repeat}, seed {args.seed}), "
        f"{args.workers} workers, batch<= {args.batch_size}, "
        f"queue {args.queue_capacity}",
        f"  sequential (cold cache/request): {sequential_s:.3f}s  "
        f"({len(workload) / sequential_s:7.1f} req/s)",
        f"  service (micro-batched):         {served_s:.3f}s  "
        f"({len(workload) / served_s:7.1f} req/s)",
        f"  speedup: {sequential_s / served_s:.1f}x"
        f"  predictions identical: {'yes' if served == sequential else 'NO'}",
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
    if "artifact_store" in snap:
        store = snap["artifact_store"]
        lines.append(
            f"  artifact store: {store['hits']} hits, {store['misses']} "
            f"misses, {store['writes']} writes, {store['corrupt']} corrupt"
        )
    if args.json_out:
        import json as json_module
        from pathlib import Path

        Path(args.json_out).write_text(
            json_module.dumps(
                {
                    "schema": 1,
                    "benchmark": "serve",
                    "requests": len(workload),
                    "workers": args.workers,
                    "sequential_s": sequential_s,
                    "served_s": served_s,
                    "predictions_identical": served == sequential,
                    "metrics": snap,
                },
                indent=2, sort_keys=True, default=str,
            ) + "\n"
        )
        lines.append(f"  metrics snapshot written to {args.json_out}")
    return "\n".join(lines)


def _perf_bench(args) -> str:
    """``repro perf-bench``: run the fixed performance suite.

    Times the vectorised hot paths against their in-tree scalar
    references, writes/merges the JSON report (``--output``), and
    compares against the committed baseline (``--baseline``), exiting
    non-zero when any benchmark regressed beyond ``--max-regression``.
    """
    from repro.experiments import perfbench

    mode = "smoke" if args.smoke else "full"
    baseline = perfbench.load_report(args.baseline)
    results = perfbench.run_suite(
        mode, progress=lambda name: print(f"  running {name}...", flush=True)
    )
    perfbench.write_report(args.output, mode, results)
    regressions = perfbench.compare_to_baseline(
        results, baseline, mode, args.max_regression
    )
    report = perfbench.render_report(mode, results, regressions)
    report += f"\n  report written to {args.output}"
    if regressions:
        raise SystemExit(report)
    return report


def _stream_bench(args) -> str:
    """``repro stream-bench``: streaming-vs-batch latency suite.

    Replays test sessions packet-by-packet through the streaming
    extractor, measuring time-to-first-estimate and the bounded
    per-packet step against the trace-proportional batch identify
    latency.  Writes/merges the JSON report (``--stream-output``) and
    compares the gated timings against the committed baseline
    (``--stream-baseline``), exiting non-zero when any regressed beyond
    ``--stream-max-regression``.
    """
    from repro.experiments import streambench

    mode = "smoke" if args.smoke else "full"
    baseline = streambench.load_report(args.stream_baseline)
    results = streambench.run_suite(
        mode, progress=lambda name: print(f"  running {name}...", flush=True)
    )
    streambench.write_report(args.stream_output, mode, results)
    regressions = streambench.compare_to_baseline(
        results, baseline, mode, args.stream_max_regression
    )
    report = streambench.render_report(mode, results, regressions)
    report += f"\n  report written to {args.stream_output}"
    if regressions:
        raise SystemExit(report)
    return report


def _bench_compare(args) -> str:
    """``repro bench-compare``: diff two benchmark JSON reports.

    Compares per-suite timings and speedups between two reports sharing
    the ``{"suites": {mode: {benchmark: ...}}}`` layout (e.g. a
    committed ``BENCH_PR9.json`` against a freshly written one),
    highlighting benchmarks whose timing moved beyond
    ``--compare-threshold`` in either direction.  Exits non-zero when
    any benchmark regressed.
    """
    from repro.experiments import perfbench

    old = perfbench.load_report(args.compare_old)
    new = perfbench.load_report(args.compare_new)
    missing = [
        path
        for path, report in (
            (args.compare_old, old),
            (args.compare_new, new),
        )
        if report is None
    ]
    if missing:
        raise SystemExit(
            "bench-compare: not a readable benchmark report: "
            + ", ".join(missing)
        )
    diff = perfbench.diff_reports(old, new, args.compare_threshold)
    report = perfbench.render_diff(diff, args.compare_old, args.compare_new)
    regressed = any(
        entry.get("status") == "regressed"
        for suite in diff["suites"].values()
        for entry in suite["benchmarks"].values()
    )
    if regressed:
        raise SystemExit(report)
    return report


def _robustness_bench(args) -> str:
    """``repro robustness-bench``: accuracy-under-fault sweeps.

    Runs the packet-loss and antenna-dropout sweeps (clean training,
    fault-injected test captures) and writes the JSON artifact
    (``--robustness-output``) committed alongside ``BENCH_PR4.json``.
    """
    from repro.experiments import robustness

    results = robustness.run_suite(
        workers=args.workers,
        seed=args.seed,
        progress=lambda name: print(f"  sweeping {name}...", flush=True),
    )
    robustness.write_report(args.robustness_output, results)
    report = robustness.render_report(results)
    report += f"\n  report written to {args.robustness_output}"
    return report


def _store(args) -> str:
    """``repro store``: inspect (and optionally gc) the artifact store.

    Prints total and per-stage entry counts, byte sizes, and stored
    array dtypes of the content-addressed store at ``--store-path``;
    ``--gc`` additionally prunes stale temp files and entries that
    fail integrity verification.
    """
    from repro.persist.store import ArtifactStore

    store = ArtifactStore(args.store_path)
    stats = store.stats()
    lines = [
        f"artifact store at {stats['root']}",
        f"  {stats['entries']} entries, {stats['bytes']} bytes",
    ]
    if stats["quarantine"]["entries"]:
        lines.append(
            f"  quarantine: {stats['quarantine']['entries']} entr(ies), "
            f"{stats['quarantine']['bytes']} bytes"
        )
    if stats["stages"]:
        width = max(len(s) for s in stats["stages"])
        for stage, info in stats["stages"].items():
            dtypes = ", ".join(
                f"{dtype} x{count}"
                for dtype, count in info.get("dtypes", {}).items()
            )
            lines.append(
                f"  {stage:<{width}}  {info['entries']:>6d} entries  "
                f"{info['bytes']:>10d} bytes"
                + (f"  [{dtypes}]" if dtypes else "")
            )
    else:
        lines.append("  (empty)")
    if args.gc:
        removed = store.gc()
        lines.append(
            f"  gc: removed {removed['tmp_removed']} temp file(s), "
            f"{removed['corrupt_removed']} corrupt entr(ies), "
            f"{removed['quarantine_removed']} quarantined entr(ies)"
        )
    return "\n".join(lines)


def _warm_bench(args) -> str:
    """``repro warm-bench``: cold train-and-serve vs registry warm start.

    Populates the artifact store and model registry under
    ``--store-path``, restores a second pipeline the way a restarted
    process would, verifies bit-identical predictions with zero warm
    stage executions, and writes the committed JSON artifact
    (``--warm-output``).
    """
    from repro.experiments import warmbench

    root = args.store_path
    results = warmbench.run_warm_bench(
        store_path=f"{root}/store",
        registry_path=f"{root}/registry",
        seed=args.seed,
        progress=lambda name: print(f"  {name}...", flush=True),
    )
    warmbench.write_report(args.warm_output, results)
    report = warmbench.render_report(results)
    report += f"\n  report written to {args.warm_output}"
    return report


def _cluster_bench(args) -> str:
    """``repro cluster-bench``: sharded worker processes vs the thread
    service, plus the SIGKILL-a-worker survival check.

    Runs the wide re-measurement workload through both serving stacks,
    kills one worker process mid-load, and writes the committed JSON
    artifact (``--cluster-output``).  ``--smoke`` shrinks the workload
    to CI size (correctness and survival only; the throughput regime is
    recorded in the report).
    """
    from repro.experiments import clusterbench

    repetitions = (
        clusterbench.SMOKE_REPETITIONS if args.smoke
        else clusterbench.DEFAULT_REPETITIONS
    )
    results = clusterbench.run_cluster_bench(
        seed=args.seed,
        repetitions=repetitions,
        workers=args.workers,
        progress=lambda name: print(f"  {name}...", flush=True),
    )
    clusterbench.write_report(args.cluster_output, results)
    report = clusterbench.render_report(results)
    report += f"\n  report written to {args.cluster_output}"
    return report


def _soak_bench(args) -> str:
    """``repro soak-bench``: chaos soak of the failure-control plane.

    Drives one sharded cluster through the scripted chaos schedule
    (kills, store bit-flips, load spikes, deadline abuse, hedging) and
    writes the committed JSON artifact (``--soak-output``).  Exits
    non-zero unless every gate holds: zero lost requests, fault-free
    predictions, and every resilience mechanism observed firing.
    ``--smoke`` shrinks the workload to CI size.
    """
    from repro.experiments import soakbench

    repetitions = (
        soakbench.SMOKE_REPETITIONS if args.smoke
        else soakbench.DEFAULT_REPETITIONS
    )
    results = soakbench.run_soak_bench(
        seed=args.seed,
        repetitions=repetitions,
        workers=args.workers,
        progress=lambda name: print(f"  {name}...", flush=True),
    )
    soakbench.write_report(args.soak_output, results)
    report = soakbench.render_report(results)
    report += f"\n  report written to {args.soak_output}"
    if not results["gates_passed"]:
        raise SystemExit(report)
    return report


class Command(NamedTuple):
    """One registered subcommand."""

    runner: Callable[[argparse.Namespace], str]
    description: str
    #: Whether ``repro all`` includes it (figures yes, benchmarks no).
    in_all: bool = True


#: The single subcommand registry: help listing and dispatch both come
#: from this table.
COMMANDS: dict[str, Command] = {
    "fig02": Command(_fig02, "phase calibration microbenchmark (also Fig. 12)"),
    "fig03": Command(_fig03, "raw amplitude noise statistics"),
    "fig06": Command(_fig06, "per-subcarrier phase-difference variance"),
    "fig07": Command(_fig07, "denoising method comparison"),
    "fig08": Command(_fig08, "amplitude-ratio variance"),
    "fig09": Command(_fig09, "material feature clusters"),
    "fig10": Command(_fig10, "antenna-combination variance"),
    "fig13": Command(_fig13, "subcarrier choice vs accuracy"),
    "fig14": Command(_fig14, "denoising ablation"),
    "fig15": Command(_fig15, "ten-liquid confusion matrix"),
    "fig16": Command(_fig16, "saltwater concentrations"),
    "fig17": Command(_fig17, "distance sweep"),
    "fig18": Command(_fig18, "packet-count sweep"),
    "fig19": Command(_fig19, "container-size sweep"),
    "fig20": Command(_fig20, "container-material comparison"),
    "fig21": Command(_fig21, "antenna-pair accuracy"),
    "bench-cache": Command(
        _bench_cache, "stage-graph memoization hit rates", in_all=False
    ),
    "serve-bench": Command(
        _serve_bench, "online identification service load benchmark",
        in_all=False,
    ),
    "cluster-bench": Command(
        _cluster_bench, "multi-process cluster vs single-process service",
        in_all=False,
    ),
    "perf-bench": Command(
        _perf_bench, "vectorised-kernel performance regression suite",
        in_all=False,
    ),
    "stream-bench": Command(
        _stream_bench, "streaming time-to-first-estimate vs batch latency",
        in_all=False,
    ),
    "bench-compare": Command(
        _bench_compare, "diff two benchmark JSON reports", in_all=False
    ),
    "robustness-bench": Command(
        _robustness_bench, "accuracy-under-fault sweeps (loss, dead antenna)",
        in_all=False,
    ),
    "store": Command(
        _store, "inspect/gc the persistent artifact store", in_all=False
    ),
    "warm-bench": Command(
        _warm_bench, "cold train-and-serve vs registry warm start",
        in_all=False,
    ),
    "soak-bench": Command(
        _soak_bench, "chaos soak of the failure-control plane",
        in_all=False,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate WiMi (ICDCS 2019) evaluation figures and run the "
            "engine/serving benchmarks."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
    )
    parser.add_argument(
        "command",
        choices=sorted(COMMANDS) + ["list", "all"],
        help=(
            "subcommand to run, 'list' to enumerate all of them, "
            "'all' for every figure"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="deployment seed (default 1)"
    )
    serve = parser.add_argument_group("serve-bench options")
    serve.add_argument(
        "--workers", type=int, default=2,
        help="service worker threads (default 2)",
    )
    serve.add_argument(
        "--batch-size", type=int, default=8,
        help="micro-batch size limit (default 8)",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=64,
        help="bounded request queue depth (default 64)",
    )
    serve.add_argument(
        "--repeat", type=int, default=4,
        help="times each distinct session re-arrives (default 4)",
    )
    serve.add_argument(
        "--json-out", default=None,
        help="also write the full metrics snapshot as JSON to this path",
    )
    cluster = parser.add_argument_group("cluster-bench options")
    cluster.add_argument(
        "--cluster-output", default="BENCH_PR7.json",
        help="cluster-bench JSON artifact to write (default BENCH_PR7.json)",
    )
    soak = parser.add_argument_group("soak-bench options")
    soak.add_argument(
        "--soak-output", default="SOAK_PR10.json",
        help="soak-bench JSON artifact to write (default SOAK_PR10.json)",
    )
    perf = parser.add_argument_group("perf-bench options")
    perf.add_argument(
        "--smoke", action="store_true",
        help="run the small CI-sized suite instead of the full one",
    )
    perf.add_argument(
        "--output", default="BENCH_PR4.json",
        help="JSON report to write/merge (default BENCH_PR4.json)",
    )
    perf.add_argument(
        "--baseline", default="BENCH_PR4.json",
        help="committed report to compare against (default BENCH_PR4.json)",
    )
    perf.add_argument(
        "--max-regression", type=float, default=2.0,
        help="fail when new_s exceeds this multiple of the baseline's "
        "(default 2.0; <= 0 disables the gate)",
    )
    stream = parser.add_argument_group("stream-bench options")
    stream.add_argument(
        "--stream-output", default="BENCH_PR8.json",
        help="JSON report to write/merge (default BENCH_PR8.json)",
    )
    stream.add_argument(
        "--stream-baseline", default="BENCH_PR8.json",
        help="committed report to compare against (default BENCH_PR8.json)",
    )
    stream.add_argument(
        "--stream-max-regression", type=float, default=3.0,
        help="fail when a gated streaming timing exceeds this multiple of "
        "the baseline's (default 3.0; <= 0 disables the gate)",
    )
    compare = parser.add_argument_group("bench-compare options")
    compare.add_argument(
        "--compare-old", default="BENCH_PR4.json",
        help="older/committed report (default BENCH_PR4.json)",
    )
    compare.add_argument(
        "--compare-new", default="BENCH_PR9.json",
        help="newer report to diff against it (default BENCH_PR9.json)",
    )
    compare.add_argument(
        "--compare-threshold", type=float, default=1.25,
        help="flag benchmarks whose timing moved beyond this factor "
        "(default 1.25; <= 0 reports deltas without flagging)",
    )
    robust = parser.add_argument_group("robustness-bench options")
    robust.add_argument(
        "--robustness-output", default="ROBUSTNESS_PR5.json",
        help="JSON sweep artifact to write (default ROBUSTNESS_PR5.json)",
    )
    persist = parser.add_argument_group("store / warm-bench options")
    persist.add_argument(
        "--store-path", default=".wimi-store",
        help="artifact store / registry root directory "
        "(default .wimi-store)",
    )
    persist.add_argument(
        "--gc", action="store_true",
        help="store: also prune stale temp files and corrupt entries",
    )
    persist.add_argument(
        "--warm-output", default="BENCH_PR6.json",
        help="warm-bench JSON artifact to write (default BENCH_PR6.json)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    Unknown subcommands exit non-zero (argparse status 2) with the
    valid choices spelled out on stderr.
    """
    args = build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in COMMANDS)
        for name in sorted(COMMANDS):
            print(f"{name:<{width}}  {COMMANDS[name].description}")
        return 0
    if args.command == "all":
        names = sorted(n for n, c in COMMANDS.items() if c.in_all)
    else:
        names = [args.command]
    for name in names:
        print(COMMANDS[name].runner(args))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
