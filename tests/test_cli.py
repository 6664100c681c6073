"""Tests for the command-line interface."""

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestRegistry:
    def test_all_figures_registered(self):
        for expected in ("fig02", "fig15", "fig21"):
            assert expected in COMMANDS

    def test_benchmarks_registered_uniformly(self):
        # bench-cache used to be special-cased outside the table; both
        # benchmark commands must now dispatch from the same registry.
        assert "bench-cache" in COMMANDS
        assert "serve-bench" in COMMANDS

    def test_every_command_has_runner_and_description(self):
        for name, command in COMMANDS.items():
            assert callable(command.runner), name
            assert command.description, name

    def test_all_excludes_benchmarks(self):
        assert not COMMANDS["bench-cache"].in_all
        assert not COMMANDS["serve-bench"].in_all
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

    def test_serve_bench_options_parsed(self):
        args = build_parser().parse_args(
            ["serve-bench", "--workers", "4", "--batch-size", "16",
             "--queue-capacity", "128", "--repeat", "2"]
        )
        assert args.workers == 4
        assert args.batch_size == 16
        assert args.queue_capacity == 128
        assert args.repeat == 2

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
        # The listing is generated from the registry, benchmarks included.
        assert "bench-cache" in out
        assert "serve-bench" in out

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
        assert main(["serve-bench", "--repeat", "2", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "serve-bench" in out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "req/s" in out
        assert "batch" in out
        assert "rejected" in out and "retries" in out
        assert "stage cache" in out
        assert "predictions identical: yes" in out


class TestRobustnessBench:
    def test_registered_outside_all(self):
        assert "robustness-bench" in COMMANDS
        assert not COMMANDS["robustness-bench"].in_all

    def test_options_parsed(self):
        args = build_parser().parse_args(
            ["robustness-bench", "--robustness-output", "out.json",
             "--workers", "3", "--seed", "4"]
        )
        assert args.robustness_output == "out.json"
        assert args.workers == 3
        assert args.seed == 4

    def test_default_output_is_the_committed_artifact(self):
        args = build_parser().parse_args(["robustness-bench"])
        assert args.robustness_output == "ROBUSTNESS_PR5.json"


class TestBenchCompare:
    def test_registered_outside_all(self):
        assert "bench-compare" in COMMANDS
        assert not COMMANDS["bench-compare"].in_all

    def test_options_parsed(self):
        args = build_parser().parse_args(
            ["bench-compare", "--compare-old", "a.json",
             "--compare-new", "b.json", "--compare-threshold", "1.5"]
        )
        assert args.compare_old == "a.json"
        assert args.compare_new == "b.json"
        assert args.compare_threshold == 1.5

    def test_identical_reports_compare_clean(self, tmp_path, capsys):
        import json

        report = {
            "schema": 1,
            "suites": {
                "full": {
                    "denoise": {
                        "new_s": 0.1, "baseline_s": 0.2, "speedup": 2.0
                    }
                }
            },
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(report))
        assert main(
            ["bench-compare", "--compare-old", str(path),
             "--compare-new", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out

    def test_regressed_report_exits_nonzero(self, tmp_path, capsys):
        import copy
        import json

        old = {
            "schema": 1,
            "suites": {
                "full": {
                    "denoise": {
                        "new_s": 0.1, "baseline_s": 0.2, "speedup": 2.0
                    }
                }
            },
        }
        new = copy.deepcopy(old)
        new["suites"]["full"]["denoise"]["new_s"] = 0.5
        old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
        old_path.write_text(json.dumps(old))
        new_path.write_text(json.dumps(new))
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["bench-compare", "--compare-old", str(old_path),
                 "--compare-new", str(new_path)]
            )
        assert "REGRESSED" in str(excinfo.value)

    def test_missing_report_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit, match="not a readable"):
            main(
                ["bench-compare",
                 "--compare-old", str(tmp_path / "absent.json"),
                 "--compare-new", str(tmp_path / "absent.json")]
            )


class TestPersistCommands:
    def test_registered_outside_all(self):
        assert "store" in COMMANDS
        assert "warm-bench" in COMMANDS
        assert not COMMANDS["store"].in_all
        assert not COMMANDS["warm-bench"].in_all

    def test_store_options_parsed(self):
        args = build_parser().parse_args(
            ["store", "--store-path", "/tmp/somewhere", "--gc"]
        )
        assert args.store_path == "/tmp/somewhere"
        assert args.gc is True

    def test_warm_bench_defaults_are_the_committed_artifact(self):
        args = build_parser().parse_args(["warm-bench"])
        assert args.store_path == ".wimi-store"
        assert args.warm_output == "BENCH_PR6.json"
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
