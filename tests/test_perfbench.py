"""Report I/O, gate rendering and end-to-end gate logic of ``repro bench``.

The suites themselves run in CI via ``repro bench <suite> --smoke``;
these tests cover the shared plumbing so the gates' semantics are
pinned without paying for a benchmark run.  Report tests take a
``cache`` result (:func:`_cache_result`); the end-to-end gate is fed
synthetic runs.
"""

import json
import sys
from pathlib import Path

from repro.experiments.bench import load_report, render, write_report
from repro.experiments.e2ebench import e2e_verdict, render_report, run_once

import pytest


def _cache_result(repeat_denoise=0):
    """A raw ``cache`` suite result; a non-zero ``repeat_denoise`` fails
    its ``repeat_pass_zero_denoise`` gate."""
    return {
        "seed": 1, "train_sessions": 12, "test_sessions": 6,
        "stages": {
            "amplitude_denoise": {
                "misses": 18, "memory_hits": 6, "disk_hits": 0,
                "hit_rate": 0.25,
            },
        },
        "denoise_executions": {"first": 6, "repeat": repeat_denoise},
        "gates": {
            "repeat_pass_zero_denoise": repeat_denoise == 0,
            "predictions_identical": True,
        },
    }


class TestReportIO:
    def test_load_missing_returns_none(self, tmp_path):
        assert load_report(tmp_path / "nope.json") is None

    def test_load_garbage_returns_none(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        assert load_report(path) is None
        path.write_text(json.dumps({"something": "else"}))
        assert load_report(path) is None

    def test_write_merges_suites(self, tmp_path):
        path = tmp_path / "cache.json"
        write_report(path, "cache", "full", _cache_result())
        report = write_report(path, "cache", "smoke", _cache_result(2))
        assert report["schema"] == 1
        assert report["benchmark"] == "cache"
        assert set(report["suites"]) == {"full", "smoke"}
        on_disk = load_report(path)
        assert on_disk == report
        assert on_disk["suites"]["full"] == _cache_result()
        assert on_disk["suites"]["smoke"] == _cache_result(2)


def test_render_names_failed_gates():
    text = render("cache", _cache_result(repeat_denoise=2))
    assert "denoiser stage executions: first identify pass 6" in text
    assert "GATES FAILED: repeat_pass_zero_denoise" in text
    clean = render("cache", _cache_result())
    assert "GATES FAILED" not in clean
    assert "all gates passed (2)" in clean


DECLARED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]
BASE = {
    "setup_s": 0.3, "identify_ms": 8.0, "accuracy": 1.0, "ok_frac": 1.0,
    "peak_rss_mb": 120.0,
}
#: ``identify_ms`` of three runs with a tight (1%) spread.
TIGHT = (7.9, 8.0, 8.1)


#: A ``stream`` run's details line (``first_estimate_ms``, ``finalize_ms``).
STREAM_DETAILS = {"first_estimate_ms": 2.0, "finalize_ms": 23.0}


def _run(correct=True, failed=0, details=None, **metrics):
    """One wimibench run as :func:`run_once` returns it."""
    values = {**BASE, **metrics}
    return {
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {name: {"value": v} for name, v in values.items()},
        "details": dict(details or {}),
    }


def _verdict(parent_batch=(), change_batch=(), workload="batch"):
    """The gate over three identical runs per workload on each side,
    except the runs given for ``workload``."""
    def side(batch):
        runs = {name: [_run() for _ in range(3)] for name in WORKLOADS}
        if batch:
            runs[workload] = list(batch)
        return runs

    return e2e_verdict(side(parent_batch), side(change_batch), DECLARED)


def _failed(verdict):
    return sorted(gate for gate, ok in verdict["gates"].items() if not ok)


class TestE2eVerdict:
    def test_identical_runs_pass(self):
        verdict = _verdict()
        assert _failed(verdict) == []
        assert set(verdict["workloads"]) == set(WORKLOADS)
        for workload in verdict["workloads"].values():
            assert {row["verdict"] for row in workload["metrics"].values()} \
                == {"pass"}

    def test_slower_identify_fails_and_is_named(self):
        verdict = _verdict(
            [_run(identify_ms=v) for v in TIGHT],
            [_run(identify_ms=1.5 * v) for v in TIGHT],
        )
        assert _failed(verdict) == ["batch/identify_ms"]
        row = verdict["workloads"]["batch"]["metrics"]["identify_ms"]
        assert row["verdict"] == "fail"
        assert row["n"] == [3, 3]
        assert row["change"]["median"] == pytest.approx(12.0)
        text = render_report(
            {"parent_revision": "0" * 40, "pairs": 3, "seconds": 3.0,
             "seed": 1, **verdict}
        )
        assert "batch/identify_ms" in text and "fail" in text

    def test_memory_within_bound_passes(self):
        verdict = _verdict(change_batch=[_run(peak_rss_mb=126.0)] * 3)
        assert _failed(verdict) == []

    def test_wide_parent_spread_is_unresolved(self):
        wide = [_run(identify_ms=v) for v in (5.0, 8.0, 11.0)]
        verdict = _verdict(wide, [_run(identify_ms=12.0)] * 3)
        assert _failed(verdict) == []
        rows = verdict["workloads"]["batch"]["metrics"]
        assert rows["identify_ms"]["verdict"] == "unresolved"
        # Unless every change run beats every parent run.
        faster = _verdict(wide, [_run(identify_ms=4.0)] * 3)
        rows = faster["workloads"]["batch"]["metrics"]
        assert rows["identify_ms"]["verdict"] == "pass"

    def test_incorrect_change_run_fails(self):
        verdict = _verdict(change_batch=[_run(correct=False), _run(), _run()])
        assert _failed(verdict) == ["batch/correct"]

    def test_higher_failed_share_fails(self):
        verdict = _verdict(change_batch=[_run(failed=1), _run(), _run()])
        assert _failed(verdict) == ["batch/failed_share"]

    def test_nonzero_exit_fails(self):
        verdict = _verdict(change_batch=[None, _run(), _run()])
        assert _failed(verdict) == ["batch/exit"]

    def test_identical_detail_runs_pass(self):
        runs = [_run(details=STREAM_DETAILS) for _ in range(3)]
        verdict = _verdict(runs, runs, workload="stream")
        assert _failed(verdict) == []
        rows = verdict["workloads"]["stream"]["metrics"]
        assert rows["first_estimate_ms"]["verdict"] == "pass"
        assert rows["finalize_ms"]["verdict"] == "pass"
        assert rows["finalize_ms"]["bound"] == 0.25
        assert "stream/first_estimate_ms" in verdict["gates"]

    @pytest.mark.parametrize("metric", ["first_estimate_ms", "finalize_ms"])
    def test_slower_detail_fails_and_is_named(self, metric):
        def runs(scale):
            return [
                _run(details={**STREAM_DETAILS, metric: scale * v})
                for v in TIGHT
            ]

        verdict = _verdict(runs(1.0), runs(1.5), workload="stream")
        assert _failed(verdict) == [f"stream/{metric}"]
        text = render_report(
            {"parent_revision": "0" * 40, "pairs": 3, "seconds": 3.0,
             "seed": 1, **verdict}
        )
        assert f"stream/{metric}" in text

    def test_runs_without_details_get_no_detail_rows(self):
        verdict = _verdict()
        declared = {spec["name"] for spec in DECLARED["end_to_end"]}
        for workload in verdict["workloads"].values():
            assert set(workload["metrics"]) == declared
        # One run lacking a metric drops that row from its workload.
        some = [_run(details=STREAM_DETAILS) for _ in range(2)] + [_run()]
        verdict = _verdict(some, some, workload="stream")
        assert set(verdict["workloads"]["stream"]["metrics"]) == declared


LAST_LINE = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}


@pytest.mark.parametrize(
    "lines, details",
    [
        ([STREAM_DETAILS, LAST_LINE], STREAM_DETAILS),
        ([LAST_LINE], {}),
    ],
    ids=["details_line", "last_line_only"],
)
def test_run_once_keeps_the_details_line(tmp_path, lines, details):
    script = tmp_path / "fake_bench.py"
    script.write_text(
        "".join(f"print({json.dumps(json.dumps(line))})\n" for line in lines)
    )
    result = run_once(tmp_path, [sys.executable, str(script)], "stream", 1, 1.0)
    assert result == {**LAST_LINE, "details": details}
