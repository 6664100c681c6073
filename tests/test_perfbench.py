"""Report I/O, regression-gate and end-to-end gate logic of ``repro bench``.

The suites themselves run in CI via ``repro bench <suite> --smoke``;
these tests cover the shared plumbing so the gates' semantics are
pinned without paying for a benchmark run.  Every report and baseline
test takes each suite with gated timings as one more input
(:data:`GATED`); the end-to-end gate is fed synthetic runs.
"""

import json
from pathlib import Path

from repro.experiments.bench import (
    SUITES,
    compare_to_baseline,
    load_report,
    render,
    write_report,
)
from repro.experiments.e2ebench import e2e_verdict, render_report

import pytest


def _stream_result(seconds):
    return {
        "time_to_first_estimate_s": seconds,
        "finalize_s": seconds,
        "stream_total_s": seconds,
    }


#: ``(suite, benchmark name, result factory)`` for each gated suite.
GATED = (
    ("stream", "stream_len48", _stream_result),
)


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
        for suite, bench, make in GATED:
            path = tmp_path / f"{suite}.json"
            write_report(path, suite, "full", {bench: make(0.1)})
            report = write_report(path, suite, "smoke", {bench: make(0.02)})
            assert report["schema"] == 1
            assert report["benchmark"] == suite
            assert set(report["suites"]) == {"full", "smoke"}
            on_disk = load_report(path)
            assert on_disk == report
            assert on_disk["suites"]["full"][bench] == make(0.1)
            assert on_disk["suites"]["smoke"][bench] == make(0.02)


def _compare(suite, current, baseline, mode, max_regression=None):
    entry = SUITES[suite]
    if max_regression is None:
        max_regression = entry.max_regression
    return compare_to_baseline(
        current, baseline, mode, entry.gated_fields, max_regression
    )


class TestRegressionGate:
    @staticmethod
    def _baseline(bench, make):
        return {"suites": {"smoke": {bench: make(0.1)}}}

    def test_no_baseline_passes(self):
        for suite, bench, make in GATED:
            assert _compare(suite, {bench: make(9.9)}, None, "smoke") == []

    def test_within_budget_passes(self):
        for suite, bench, make in GATED:
            # Just inside the suite's own factor (3.0 for stream).
            limit = SUITES[suite].max_regression
            current = {bench: make(0.1 * limit * 0.95)}
            baseline = self._baseline(bench, make)
            assert _compare(suite, current, baseline, "smoke") == []

    def test_regression_flagged_with_ratio(self):
        for suite, bench, make in GATED:
            current = {bench: make(0.5)}
            flagged = _compare(
                suite, current, self._baseline(bench, make), "smoke"
            )
            assert [name for name, _ in flagged] == [
                f"{bench}.{field}" for field in SUITES[suite].gated_fields
            ]
            assert all(ratio == pytest.approx(5.0) for _, ratio in flagged)

    def test_other_suite_not_compared(self):
        for suite, bench, make in GATED:
            current = {bench: make(0.5)}
            baseline = self._baseline(bench, make)
            assert _compare(suite, current, baseline, "full") == []

    def test_new_benchmark_not_compared(self):
        for suite, bench, make in GATED:
            current = {"brand_new": make(0.5), "gates": {}}
            baseline = self._baseline(bench, make)
            assert _compare(suite, current, baseline, "smoke") == []

    def test_gate_disabled(self):
        for suite, bench, make in GATED:
            current = {bench: make(0.5)}
            baseline = self._baseline(bench, make)
            assert _compare(suite, current, baseline, "smoke", 0.0) == []


def test_render_report_mentions_regressions():
    entry = {
        **_stream_result(0.5),
        "batch_identify_s": 0.1,
        "last_window_ms": 1.0,
        "predictions_identical": True,
        "first_estimate_packets": 4,
        "speedup_first_estimate": 2.0,
    }
    failing = {"stream_len48": entry, "gates": {"no_regression": False}}
    text = render(
        "stream", failing, [("stream_len48.finalize_s", 5.0)], 3.0
    )
    assert "REGRESSION: stream_len48.finalize_s is 5.00x" in text
    assert "GATES FAILED: no_regression" in text
    passing = {"stream_len48": entry, "gates": {"no_regression": True}}
    clean = render("stream", passing)
    assert "REGRESSION" not in clean
    assert "all gates passed" in clean


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


def _run(correct=True, failed=0, **metrics):
    """The last-line JSON of one wimibench run."""
    values = {**BASE, **metrics}
    return {
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {name: {"value": v} for name, v in values.items()},
    }


def _verdict(parent_batch=(), change_batch=()):
    """The gate over three identical runs per workload on each side,
    except the ``batch`` runs given."""
    def side(batch):
        runs = {name: [_run() for _ in range(3)] for name in WORKLOADS}
        if batch:
            runs["batch"] = list(batch)
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
