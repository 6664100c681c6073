"""Self-tests of the benchmark.

Run from the root of the checkout::

    python -m pytest wimibench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from run import declared_units  # noqa: E402

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.csi.quality.DegradedTraceWarning"
)

def entry_point_functions() -> dict:
    return {
        (owner, method): owner.__dict__[method]
        for owner, method, _, _ in spans.ENTRY_POINTS
    }


def test_tracer_patches_and_restores_every_entry_point():
    before = entry_point_functions()
    with spans.Tracer():
        during = entry_point_functions()
        assert all(during[key] is not before[key] for key in before)
        assert all(during[key].__wrapped__ is before[key] for key in before)
    assert entry_point_functions() == before


def test_tracer_restores_after_an_error():
    before = entry_point_functions()
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer():
            1 / 0
    assert entry_point_functions() == before


def test_self_time_subtracts_same_layer_children_only():
    tracer = spans.Tracer()
    outer = tracer._wrap(lambda: inner() and dsp(), "engine.outer", None)
    inner = tracer._wrap(lambda: True, "engine.inner", None)
    dsp = tracer._wrap(lambda: True, "dsp.kernel", None)
    outer()
    by_name = {span.name: span for span in tracer.spans}
    engine_outer = by_name["engine.outer"]
    assert engine_outer.self_s == pytest.approx(
        engine_outer.duration_s - by_name["engine.inner"].duration_s
    )
    assert by_name["dsp.kernel"].parent is engine_outer


def test_tail_uses_the_highest_percentile_with_ten_samples_beyond():
    assert workloads.tail(list(range(100)))[0] == 90.0
    assert workloads.tail(list(range(999)))[0] == 90.0
    assert workloads.tail(list(range(1000)))[0] == 99.0
    with pytest.raises(RuntimeError):
        workloads.tail(list(range(19)))


def test_arrival_schedule_is_fixed_and_half_repeats():
    first = workloads.arrival_schedule(50.0, 20.0, 1)
    assert first == workloads.arrival_schedule(50.0, 20.0, 1)
    due, picks, distinct = first
    assert due == sorted(due) and due[-1] < 20.0
    assert distinct == max(picks) + 1
    assert 0.4 < 1.0 - distinct / len(picks) < 0.6


@pytest.mark.parametrize("name", ["batch", "serve", "stream", "cluster"])
def test_tiny_untraced_run_is_correct_and_never_traces(name, tmp_path, monkeypatch):
    def no_tracing():
        raise AssertionError("an untraced run constructed a Tracer")

    monkeypatch.setattr(workloads, "Tracer", no_tracing)
    before = entry_point_functions()
    outcome = workloads.run(name, 0, 2.0, False, tmp_path, workloads.TINY)
    assert entry_point_functions() == before
    assert outcome.attempted > 0 and outcome.correct
    assert outcome.details["errors"] == 0
    if workloads.WORKLOADS[name].exact:
        assert outcome.metrics["ok_frac"] == 1.0 and outcome.failed == 0
    else:
        # Streaming labels may differ from batch identify on short traces;
        # each difference is a counted failure, never an error.
        assert outcome.failed == outcome.details["mismatches"]
    assert set(outcome.metrics) == set(declared_units(trace=False))
    assert all(value > 0 for value in outcome.metrics.values())


@pytest.fixture(scope="module")
def traced_outcomes(tmp_path_factory):
    """One tiny traced run of every workload."""
    outcomes = {}
    for name in workloads.WORKLOADS:
        before = entry_point_functions()
        outcomes[name] = workloads.run(
            name, 0, 2.0, True, tmp_path_factory.mktemp(name), workloads.TINY
        )
        assert entry_point_functions() == before
    return outcomes


@pytest.mark.parametrize("name", ["batch", "serve", "stream", "cluster"])
def test_tiny_traced_run_reports_declared_layers(name, traced_outcomes):
    outcome = traced_outcomes[name]
    assert outcome.correct
    if workloads.WORKLOADS[name].exact:
        assert outcome.failed == 0
    assert set(outcome.metrics) == set(declared_units(trace=True))
    for metric in ("core.fit_s", "ml.fit_s", "core.compute_ms"):
        assert outcome.metrics[metric] > 0
    if name == "batch":
        residual = outcome.details["breakdown"]["residual"]
        assert abs(residual) <= workloads.MAX_BREAKDOWN_RESIDUAL


#: The finer breakdown each traced workload prints in its detail line.
LAYER_DETAILS = {
    "batch": {
        *(f"engine.{stage}.self_ms" for stage in workloads.BatchWorkload.STAGES),
        "dsp.denoise_ms", "dsp.denoise_calls", "core.glue_ms",
    },
    "serve": {
        "serve.latency_p50_ms", "serve.latency_tail_ms", "serve.submit_ms",
        "serve.wait_ms", "serve.batch_size_mean", "requests.retries",
        "requests.shed", "requests.rejected", "gen.late_ms",
    },
    "stream": {
        "engine.stream_window_denoise.self_ms", "core.stream.push_ms",
        "core.stream.estimate_ms", "core.stream.finalize_ms",
        "core.stream.first_estimate_ms",
    },
    "cluster": {
        "cluster.latency_p50_ms", "cluster.latency_tail_ms",
        "cluster.submit_ms", "cluster.worker_ms", "cluster.transit_ms",
        "cluster.hedges", "cluster.redeliveries", "cluster.duplicate_replies",
        "cluster.restarts", "persist.objects_written", "persist.bytes_written",
        "persist.quarantined", "persist.registry_save_s", "gen.late_ms",
    },
}


@pytest.mark.parametrize("name", ["batch", "serve", "stream", "cluster"])
def test_tiny_traced_run_prints_its_layer_breakdown(name, traced_outcomes):
    assert LAYER_DETAILS[name] <= set(traced_outcomes[name].details["layers"])


def test_breakdown_closure_fails_when_a_stage_goes_unreported(
    tmp_path, monkeypatch
):
    stages = tuple(
        stage for stage in workloads.BatchWorkload.STAGES
        if stage != "amplitude_denoise"
    )
    monkeypatch.setattr(workloads.BatchWorkload, "STAGES", stages)
    outcome = workloads.run("batch", 0, 1.0, True, tmp_path, workloads.TINY)
    assert outcome.details["breakdown"]["residual"] < -workloads.MAX_BREAKDOWN_RESIDUAL
    assert not outcome.correct


def test_run_refuses_a_directory_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "wimibench", tmp_path / "wimibench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "wimibench/run.py", "--workload", "batch",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
