"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import COMMANDS, build_parser, main, parse_args
from repro.experiments import bench, clusterbench, warmbench

#: Each suite's committed artifact (None: the suite commits no report).
ARTIFACTS = {
    "e2e": None,
    "warm": "BENCH_PR6.json",
    "cluster": "BENCH_PR7.json",
    "soak": "SOAK_PR10.json",
    "robustness": "ROBUSTNESS_PR5.json",
    "serve": None,
    "cache": None,
}

#: Per-bench flags that folded into --output or went away with the
#: per-bench commands, ``bench-compare`` and the committed-baseline
#: regression gate.
REMOVED_FLAGS = (
    "--stream-output", "--stream-baseline", "--stream-max-regression",
    "--warm-output", "--cluster-output", "--soak-output",
    "--robustness-output", "--json-out", "--batch-size",
    "--queue-capacity", "--repeat", "--compare-old", "--compare-new",
    "--compare-threshold", "--baseline", "--max-regression",
)


class TestRegistry:
    def test_all_figures_registered(self):
        for expected in ("fig02", "fig15", "fig21"):
            assert expected in COMMANDS

    def test_benchmarks_registered_uniformly(self):
        # Every benchmark suite dispatches through the one bench command.
        assert "bench" in COMMANDS
        assert set(bench.SUITES) == set(ARTIFACTS)
        assert not any(name.endswith("-bench") for name in COMMANDS)
        assert "bench-compare" not in COMMANDS

    def test_every_command_has_runner_and_description(self):
        for name, command in COMMANDS.items():
            assert callable(command.runner), name
            assert command.description, name

    def test_all_excludes_benchmarks(self):
        assert not COMMANDS["bench"].in_all
        assert COMMANDS["fig15"].in_all


class TestParser:
    def test_unknown_command_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fig99"])
        # Non-zero exit and a usable message naming valid choices.
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "fig15" in err

    def test_unknown_command_via_main(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["not-a-command"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_seed_parsed(self):
        args = build_parser().parse_args(["fig15", "--seed", "7"])
        assert args.seed == 7

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "repro" in out
        # Some dotted version made it out of the package metadata.
        assert any(ch.isdigit() for ch in out)


class TestExecution:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out
        assert "ten-liquid" in out
        # The listing is generated from the registries, suites included.
        for name in ("bench", *bench.SUITES):
            assert name in out

    def test_fast_figure_runs(self, capsys):
        assert main(["fig08", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 8" in out
        assert "ratio" in out

    def test_phase_figure_runs(self, capsys):
        assert main(["fig02", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "angular fluctuation" in out

    def test_serve_bench_runs(self, capsys):
        assert main(["bench", "serve", "--smoke", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "serve --" in out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "req/s" in out
        assert "batch" in out
        assert "rejected" in out and "retries" in out
        assert "stage cache" in out
        # Service labels equal the sequential labels (a gate now).
        assert "all gates passed (1)" in out


class TestBenchSuites:
    @pytest.mark.parametrize("name", sorted(ARTIFACTS))
    def test_registered_outside_all(self, name):
        assert name in bench.SUITES
        assert name not in COMMANDS
        assert not COMMANDS["bench"].in_all

    @pytest.mark.parametrize("name", sorted(ARTIFACTS))
    def test_options_parsed(self, name):
        args = parse_args(
            ["bench", name, "--smoke", "--output", "out.json",
             "--seed", "4", "--workers", "3"]
        )
        assert args.suite == name
        assert args.smoke is True
        assert args.output == "out.json"
        assert args.seed == 4
        assert args.workers == 3

    @pytest.mark.parametrize("name", sorted(ARTIFACTS))
    def test_default_output_is_the_committed_artifact(self, name):
        args = parse_args(["bench", name])
        assert args.output == ARTIFACTS[name]

    @pytest.mark.parametrize(
        "argv", [["bench"], ["bench", "nope"], ["bench", "stream"]],
        ids=["missing", "unknown", "removed"],
    )
    def test_missing_or_unknown_suite_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        for name in bench.SUITES:
            assert name in err

    @pytest.mark.parametrize("flag", REMOVED_FLAGS)
    def test_removed_flag_exits_2(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "cache", flag, "1"])
        assert excinfo.value.code == 2

    def test_warm_runs_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "warm.json"
        assert main(["bench", "warm", "--output", str(path)]) == 0
        report = json.loads(path.read_text())
        assert report["schema"] == 1
        assert report["benchmark"] == "warm"
        gates = report["suites"]["full"]["gates"]
        assert set(gates) == {
            "predictions_identical", "zero_warm_stage_executions",
            "min_speedup",
        }
        assert all(gates.values())
        assert "all gates passed (3)" in capsys.readouterr().out


def _warm_results(**overrides) -> dict:
    """A passing raw warm-start result; ``overrides`` break one condition."""
    results = {
        "seed": 1,
        "materials": ["pure_water", "pepsi", "oil"],
        "train_sessions": 12,
        "test_sessions": 6,
        "cold": {"fit_s": 0.2, "first_identify_s": 0.01, "total_s": 0.21},
        "warm": {"load_s": 0.002, "first_identify_s": 0.003, "total_s": 0.005},
        "speedup": 42.0,
        "predictions_identical": True,
        "warm_first_stage_executions": {},
        "warm_disk_hits": {"amplitude_denoise": 12},
        "store": {"entries": 224, "bytes": 570896},
    }
    results.update(overrides)
    return results


def _cluster_results(**kill_overrides) -> dict:
    """A passing raw cluster result; overrides break the kill phase."""
    kill = {
        "requests": 24, "killed_pid": 4242, "restarts": 1,
        "redeliveries": 3, "completed": 24, "failed": 0,
        "duplicate_replies": 0, "zero_lost": True,
        "predictions_identical": True,
    }
    throughput_identical = kill_overrides.pop("throughput_identical", True)
    kill.update(kill_overrides)
    side = {"seconds": 1.0, "requests_per_s": 72.0, "memory_hits": 10,
            "misses": 5}
    return {
        "seed": 1, "materials": ["pure_water", "pepsi", "oil"],
        "workers": 2, "distinct_sessions": 36, "waves": 2, "requests": 72,
        "num_packets": 6, "eviction_regime": False,
        "throughput": {
            "service": dict(side),
            "cluster": {**side, "completed": 72, "failed": 0},
            "speedup": 1.0,
            "predictions_identical": throughput_identical,
        },
        "kill_survival": kill,
    }


class TestSuiteGates:
    """The gates that used to live in CI heredocs, on synthetic results."""

    @pytest.mark.parametrize(
        "overrides, gate",
        [
            ({}, None),
            ({"predictions_identical": False}, "predictions_identical"),
            (
                {"warm_first_stage_executions": {"amplitude_denoise": 2}},
                "zero_warm_stage_executions",
            ),
            ({"speedup": 4.9}, "min_speedup"),
        ],
        ids=["passing", "predictions", "stage_executions", "speedup"],
    )
    def test_warm_gates(self, overrides, gate, monkeypatch, tmp_path):
        monkeypatch.setattr(
            warmbench, "run_warm_bench",
            lambda *args, **kwargs: _warm_results(**overrides),
        )
        self._check("warm", gate, tmp_path)

    @pytest.mark.parametrize(
        "overrides, gate",
        [
            ({}, None),
            ({"restarts": 0}, "restarted"),
            ({"zero_lost": False}, "zero_lost"),
            ({"predictions_identical": False}, "kill_predictions_identical"),
            ({"throughput_identical": False}, "predictions_identical"),
        ],
        ids=["passing", "restart", "lost", "kill_predictions", "predictions"],
    )
    def test_cluster_gates(self, overrides, gate, monkeypatch, tmp_path):
        monkeypatch.setattr(
            clusterbench, "run_cluster_bench",
            lambda **kwargs: _cluster_results(**overrides),
        )
        self._check("cluster", gate, tmp_path)

    @staticmethod
    def _check(name, gate, tmp_path):
        argv = ["bench", name, "--smoke", "--output", str(tmp_path / "r.json")]
        if gate is None:
            assert main(argv) == 0
            return
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code not in (None, 0)
        assert f"GATES FAILED: {gate}" in str(excinfo.value)


class TestPersistCommands:
    def test_registered_outside_all(self):
        assert "store" in COMMANDS
        assert not COMMANDS["store"].in_all

    def test_store_options_parsed(self):
        args = build_parser().parse_args(
            ["store", "--store-path", "/tmp/somewhere", "--gc"]
        )
        assert args.store_path == "/tmp/somewhere"
        assert args.gc is True

    def test_store_defaults(self):
        args = build_parser().parse_args(["store"])
        assert args.store_path == ".wimi-store"
        assert args.gc is False

    def test_store_command_runs_on_empty_store(self, tmp_path, capsys):
        assert main(["store", "--store-path", str(tmp_path / "empty")]) == 0
        out = capsys.readouterr().out
        assert "artifact store" in out
        assert "0 entries" in out

    def test_store_gc_reports_removals(self, tmp_path, capsys):
        root = tmp_path / "store"
        (root / "objects").mkdir(parents=True)
        (root / "objects" / "stale.tmp").write_bytes(b"crashed write")
        assert main(["store", "--store-path", str(root), "--gc"]) == 0
        out = capsys.readouterr().out
        assert "gc: removed 1 temp file(s)" in out
