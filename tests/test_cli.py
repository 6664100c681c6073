"""Tests for the command-line interface."""

import shutil
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main, parse_args
from repro.experiments import bench
from repro.experiments.e2ebench import e2e_verdict

#: The size options each suite takes (robustness has one size).
SIZE_OPTIONS = {"e2e": ["--smoke"], "robustness": []}

#: Suites deleted because tests hold every one of their gates
#: (``stream`` went earlier, when ``e2e`` took over its timing).
REMOVED_SUITES = ("serve", "cache", "warm", "cluster", "soak")

#: Per-bench flags that folded into --output or went away with the
#: per-bench commands, ``bench-compare`` and the committed-baseline
#: regression gate.
REMOVED_FLAGS = (
    "--stream-output", "--stream-baseline", "--stream-max-regression",
    "--warm-output", "--cluster-output", "--soak-output",
    "--robustness-output", "--json-out", "--batch-size",
    "--queue-capacity", "--repeat", "--compare-old", "--compare-new",
    "--compare-threshold", "--baseline", "--max-regression", "--workers",
)


class TestRegistry:
    def test_all_figures_registered(self):
        for expected in ("fig02", "fig15", "fig21"):
            assert expected in COMMANDS

    def test_benchmarks_registered_uniformly(self):
        # Every benchmark suite dispatches through the one bench command.
        assert "bench" in COMMANDS
        assert set(bench.SUITES) == set(SIZE_OPTIONS)
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


class TestBenchSuites:
    @pytest.mark.parametrize("name", sorted(SIZE_OPTIONS))
    def test_registered_outside_all(self, name):
        assert name in bench.SUITES
        assert name not in COMMANDS
        assert not COMMANDS["bench"].in_all

    @pytest.mark.parametrize("name", sorted(SIZE_OPTIONS))
    def test_options_parsed(self, name):
        args = parse_args(
            ["bench", name, *SIZE_OPTIONS[name], "--output", "out.json",
             "--seed", "4"]
        )
        assert args.suite == name
        assert args.smoke is bool(SIZE_OPTIONS[name])
        assert args.output == "out.json"
        assert args.seed == 4

    def test_smoke_on_one_size_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "robustness", "--smoke"])
        assert excinfo.value.code == 2
        assert "robustness has one size" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(SIZE_OPTIONS))
    def test_output_has_no_default(self, name):
        # A suite writes a report only where --output points.
        assert parse_args(["bench", name]).output is None

    def test_non_report_output_is_refused(self, tmp_path, capsys):
        # The committed robustness record predates the report layout.
        record = Path(__file__).parent.parent / "ROBUSTNESS_PR5.json"
        path = tmp_path / record.name
        shutil.copy(record, path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="not a bench report"):
            bench.write_report(path, "robustness", "full", {"gates": {}})
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "robustness", "--output", str(path)])
        assert excinfo.value.code == 2
        assert str(path) in capsys.readouterr().err
        assert path.read_bytes() == before

    @pytest.mark.parametrize(
        "argv",
        [["bench"], ["bench", "nope"], ["bench", "stream"]]
        + [["bench", name] for name in REMOVED_SUITES],
        ids=["missing", "unknown", "removed"]
        + [f"removed-{name}" for name in REMOVED_SUITES],
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
            main(["bench", "robustness", flag, "1"])
        assert excinfo.value.code == 2

    def test_false_gate_exits_nonzero_and_writes_output(
        self, monkeypatch, tmp_path
    ):
        # A change run that exited non-zero fails the e2e ``exit`` gate.
        declared = {"end_to_end": []}
        results = {
            "parent_revision": "0" * 40, "pairs": 1, "seconds": 3.0,
            "seed": 1,
            **e2e_verdict(
                {"batch": [{"correct": True, "attempted": 1, "failed": 0}]},
                {"batch": [None]},
                declared,
            ),
        }
        monkeypatch.setitem(
            bench.SUITES, "e2e",
            bench.SUITES["e2e"]._replace(run=lambda *args: results),
        )
        path = tmp_path / "e2e.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "e2e", "--smoke", "--output", str(path)])
        assert excinfo.value.code not in (None, 0)
        assert "GATES FAILED: batch/exit" in str(excinfo.value)
        written = bench.load_report(path)["suites"]["smoke"]["gates"]
        assert written["batch/exit"] is False


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
