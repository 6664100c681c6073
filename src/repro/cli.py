"""Command-line interface: figures, benchmark suites and the artifact store.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro fig15                # ten-liquid confusion matrix
    python -m repro fig17 --seed 3       # distance sweep, another deployment
    python -m repro all --seed 1         # every figure, in order
    python -m repro bench e2e --smoke    # speed gate: change vs parent
    python -m repro bench robustness     # accuracy under injected faults
    python -m repro --version

Every figure command prints the same rows/series the paper's figure
plots, via :mod:`repro.experiments.reporting`.  ``bench <suite>`` runs
one suite of :data:`repro.experiments.bench.SUITES`, writes its report
(``--output``, default the suite's committed artifact) and exits
non-zero when any of the suite's gates fails.

All subcommands live in one :data:`COMMANDS` registry; ``list`` and the
help text are generated from it, and an unknown subcommand exits with a
non-zero status and a usable message.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

from repro.experiments import bench
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


def _bench(args) -> str:
    """``repro bench <suite>``: run one suite and enforce its gates."""
    report, passed = bench.run_bench(
        args.suite,
        smoke=args.smoke,
        seed=args.seed,
        output=args.output,
        progress=lambda name: print(f"  {name}...", flush=True),
    )
    if not passed:
        raise SystemExit(report)
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
    "bench": Command(
        _bench, "run one benchmark suite: repro bench <suite>", in_all=False
    ),
    "store": Command(
        _store, "inspect/gc the persistent artifact store", in_all=False
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
        "suite", nargs="?", choices=sorted(bench.SUITES),
        help="benchmark suite, for 'bench' only",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="deployment seed (default 1)"
    )
    suites = parser.add_argument_group("bench options")
    suites.add_argument(
        "--smoke", action="store_true",
        help="run the small CI-sized workload instead of the full one "
        "(e2e only; robustness has one size)",
    )
    suites.add_argument(
        "--output", default=None,
        help="JSON report to write/merge (default: the suite's committed "
        "artifact; none for e2e, which commits no report)",
    )
    persist = parser.add_argument_group("store options")
    persist.add_argument(
        "--store-path", default=".wimi-store",
        help="artifact store root directory (default .wimi-store)",
    )
    persist.add_argument(
        "--gc", action="store_true",
        help="also prune stale temp files and corrupt entries",
    )
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse ``argv``, defaulting a bench suite's ``--output`` to its
    committed artifact.

    ``bench`` without a suite, a suite after any other command, or
    ``--smoke`` on a suite with one size exits with argparse's status 2.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    names = ", ".join(sorted(bench.SUITES))
    if args.command != "bench":
        if args.suite is not None:
            parser.error(f"a suite ({names}) only follows 'bench'")
        return args
    if args.suite is None:
        parser.error(f"bench needs a suite, one of: {names}")
    if args.smoke and not bench.SUITES[args.suite].smoke:
        parser.error(f"bench {args.suite} has one size; drop --smoke")
    if args.output is None:
        args.output = bench.SUITES[args.suite].artifact
    return args


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    Unknown subcommands exit non-zero (argparse status 2) with the
    valid choices spelled out on stderr.
    """
    args = parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in COMMANDS)
        for name in sorted(COMMANDS):
            print(f"{name:<{width}}  {COMMANDS[name].description}")
            if name == "bench":
                for suite, entry in bench.SUITES.items():
                    print(f"  {suite:<{width - 2}}  {entry.description}")
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
