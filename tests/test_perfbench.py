"""Report I/O and regression-gate logic of the ``repro bench`` harness.

The suites themselves run in CI via ``repro bench <suite> --smoke``;
these tests cover the shared plumbing so the gate's semantics are
pinned without paying for a benchmark run.  Both gated suites go
through the same code, so every report and gate test takes each of
them as one more input (:data:`GATED`).
"""

import json

from repro.experiments.bench import (
    SUITES,
    compare_to_baseline,
    diff_reports,
    load_report,
    render,
    render_diff,
    write_report,
)
from repro.experiments.perfbench import run_suite

import pytest


def _result(new_s):
    return {"new_s": new_s, "baseline_s": new_s * 3, "speedup": 3.0}


def _stream_result(seconds):
    return {
        "time_to_first_estimate_s": seconds,
        "finalize_s": seconds,
        "stream_total_s": seconds,
    }


#: ``(suite, benchmark name, result factory)`` for each gated suite.
GATED = (
    ("perf", "denoise", _result),
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
            # Just inside each suite's own factor (2.0 perf, 3.0 stream).
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


class TestDiffReports:
    def _report(self, **benches):
        return {"schema": 1, "suites": {"full": benches}}

    def test_unchanged_report_is_all_ok(self):
        report = self._report(denoise=_result(0.1))
        diff = diff_reports(report, report)
        entry = diff["suites"]["full"]["benchmarks"]["denoise"]
        assert entry["status"] == "ok"
        assert entry["time_ratio"] == pytest.approx(1.0)
        assert entry["speedup_delta"] == pytest.approx(0.0)

    def test_regression_and_improvement_flagged(self):
        old = self._report(a=_result(0.1), b=_result(0.1))
        new = self._report(a=_result(0.2), b=_result(0.05))
        benches = diff_reports(old, new)["suites"]["full"]["benchmarks"]
        assert benches["a"]["status"] == "regressed"
        assert benches["b"]["status"] == "improved"

    def test_within_threshold_is_ok(self):
        old = self._report(a=_result(0.1))
        new = self._report(a=_result(0.11))
        benches = diff_reports(old, new)["suites"]["full"]["benchmarks"]
        assert benches["a"]["status"] == "ok"

    def test_added_and_removed_benchmarks_labelled(self):
        old = self._report(gone=_result(0.1))
        new = self._report(fresh=_result(0.1))
        benches = diff_reports(old, new)["suites"]["full"]["benchmarks"]
        assert benches["gone"]["status"] == "removed"
        assert benches["fresh"]["status"] == "added"

    def test_suite_on_one_side_only(self):
        old = {"schema": 1, "suites": {"full": {"a": _result(0.1)}}}
        new = {"schema": 1, "suites": {"smoke": {"a": _result(0.1)}}}
        diff = diff_reports(old, new)
        assert diff["suites"]["full"]["status"] == "removed"
        assert diff["suites"]["smoke"]["status"] == "added"

    def test_entries_without_timings_not_compared(self):
        # Reports like BENCH_PR8.json carry benchmark-specific fields
        # instead of new_s; the diff must pass them through untouched.
        old = self._report(stream={"first_estimate_packets": 4})
        new = self._report(stream={"first_estimate_packets": 5})
        entry = diff_reports(old, new)["suites"]["full"]["benchmarks"]["stream"]
        assert entry["status"] == "ok"
        assert "time_ratio" not in entry

    def test_threshold_disabled_reports_without_flagging(self):
        old = self._report(a=_result(0.1))
        new = self._report(a=_result(1.0))
        benches = diff_reports(old, new, threshold=0)["suites"]["full"][
            "benchmarks"
        ]
        assert benches["a"]["status"] == "ok"
        assert benches["a"]["time_ratio"] == pytest.approx(10.0)

    def test_render_diff_highlights_regressions(self):
        old = self._report(a=_result(0.1))
        new = self._report(a=_result(0.5))
        text = render_diff(diff_reports(old, new), "old.json", "new.json")
        assert "REGRESSED" in text
        clean = render_diff(diff_reports(old, old), "old.json", "new.json")
        assert "no regressions" in clean


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode must be one of"):
        run_suite("warp-speed")


def test_render_report_mentions_regressions():
    failing = {"denoise": _result(0.5), "gates": {"no_regression": False}}
    text = render("perf", failing, [("denoise.new_s", 5.0)], 2.0)
    assert "REGRESSION: denoise.new_s is 5.00x" in text
    assert "GATES FAILED: no_regression" in text
    passing = {"denoise": _result(0.5), "gates": {"no_regression": True}}
    clean = render("perf", passing)
    assert "REGRESSION" not in clean
    assert "all gates passed" in clean
