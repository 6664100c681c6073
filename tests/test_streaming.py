"""Streaming feature extraction: batch equality, previews, serving.

Pins the determinism contract of :mod:`repro.dsp.streaming` (identical
state however the packets were chunked), the accumulator primitives
against their offline references, the poll-path preview against a plain
recompute, the finalized stream against the batch pipeline (``==``), and
the end-to-end streaming paths:
:class:`repro.core.streaming.StreamingExtractor` and the serve-layer
:class:`repro.serve.StreamingGateway`.
"""

import dataclasses
import math
import signal

import numpy as np
import pytest

from repro.channel.materials import default_catalog
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.core.amplitude import _AMPLITUDE_EPS
from repro.core.streaming import (
    STREAM_HOP,
    STREAM_WINDOW_SIZE,
    StreamingExtractor,
    _TraceStream,
)
from repro.csi.collector import DataCollector, SessionConfig
from repro.csi.faults import AntennaDropout, SubcarrierErasure, inject_session
from repro.csi.quality import DegradedTraceWarning
from repro.dsp.stats import circular_mean_axis
from repro.dsp.streaming import (
    RunningCircularStats,
    RunningVariance,
    window_log_sums,
)
from repro.engine.cache import StageCache
from repro.persist import ArtifactStore
from repro.experiments.datasets import (
    collect_dataset,
    split_dataset,
    standard_scene,
)
from repro.serve import (
    StreamClosedError,
    StreamingGateway,
    StreamLimitError,
)


# ----------------------------------------------------------------------
# Running accumulators vs offline references
# ----------------------------------------------------------------------


class TestRunningCircularStats:
    def test_matches_offline_circular_mean_with_nans(self):
        rng = np.random.default_rng(0)
        angles = rng.uniform(-np.pi, np.pi, size=(50, 9))
        angles[rng.random(angles.shape) < 0.1] = np.nan
        angles[:, 4] = np.nan  # one element with no finite sample at all

        stats = RunningCircularStats(9)
        for row in angles:
            stats.add(row)

        reference = circular_mean_axis(angles, axis=0, ignore_nan=True)
        running = stats.mean()
        finite = np.isfinite(reference)
        assert np.array_equal(finite, np.isfinite(running))
        # Same resultant-vector formula, different summation order.
        assert np.allclose(running[finite], reference[finite], atol=1e-12)
        assert np.array_equal(
            stats.counts(), np.isfinite(angles).sum(axis=0)
        )
        assert stats.num_samples == 50

    def test_resultant_length_bounds_and_variance(self):
        stats = RunningCircularStats(3)
        for _ in range(20):
            stats.add(np.array([0.5, 0.5, 0.5]))
        r = stats.resultant_length()
        assert np.allclose(r, 1.0)  # identical angles: fully concentrated

    def test_rejects_shape_mismatch(self):
        stats = RunningCircularStats((2, 3))
        with pytest.raises(ValueError, match="shape"):
            stats.add(np.zeros(5))


class TestRunningVariance:
    def test_matches_numpy_sample_moments(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(200)
        acc = RunningVariance()
        for v in values:
            acc.add(v)
        assert acc.count == 200
        assert acc.mean == pytest.approx(values.mean(), abs=1e-12)
        assert acc.variance == pytest.approx(values.var(ddof=1), abs=1e-12)
        assert acc.std == pytest.approx(values.std(ddof=1), abs=1e-12)

    def test_skips_non_finite_and_reports_nan_when_starved(self):
        acc = RunningVariance()
        assert np.isnan(acc.mean)
        acc.add(float("nan"))
        acc.add(float("inf"))
        assert acc.count == 0
        acc.add(2.0)
        assert acc.mean == 2.0
        assert np.isnan(acc.variance)  # needs >= 2 samples
        acc.add(4.0)
        assert acc.variance == pytest.approx(2.0)


class TestWindowLogSums:
    def test_dead_column_counts_nothing_and_gaps_are_imputed(self):
        rng = np.random.default_rng(3)
        rows = 1.0 + 0.01 * rng.standard_normal((8, 6))
        rows[:, 2] = np.nan  # dead for the whole window
        rows[5, 4] = np.nan  # one lost sample: imputed with the median
        log_sum, count = window_log_sums(rows, 1e-9)
        assert count.tolist() == [8, 8, 0, 8, 8, 8]
        assert log_sum[2] == 0.0
        filled = rows[:, 4].copy()
        filled[5] = np.median(rows[np.isfinite(rows[:, 4]), 4])
        assert log_sum[4] == pytest.approx(np.log(filled).sum(), rel=1e-12)


# ----------------------------------------------------------------------
# End-to-end streaming extraction
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fitted():
    """A small fitted pipeline plus one held-out test session."""
    catalog = default_catalog()
    materials = [catalog.get(n) for n in ("pure_water", "pepsi", "oil")]
    scene = standard_scene("lab")
    dataset = collect_dataset(
        materials, scene=scene, repetitions=4, num_packets=8, seed=0
    )
    train, _ = split_dataset(dataset)
    wimi = WiMi(theory_reference_omegas(materials))
    wimi.fit(train)
    collector = DataCollector(scene, rng=2)
    session = collector.collect(
        catalog.get("pepsi"), SessionConfig(num_packets=40)
    )
    return wimi, session


def _stream_result(wimi, session, chunk_size, poll_every=None):
    """Finalized stream of ``session``'s target in ``chunk_size`` chunks.

    ``poll_every`` polls :meth:`estimate` after every that-many chunks
    (None: never).
    """
    stream = wimi.clone_view().streaming_extractor(
        scene=session.scene, material_name=session.material_name
    )
    stream.push_baseline(session.baseline)
    packets = list(session.target.packets)
    step = len(packets) if chunk_size is None else chunk_size
    for index, start in enumerate(range(0, len(packets), step)):
        stream.push_target(packets[start:start + step])
        if poll_every is not None and index % poll_every == 0:
            stream.estimate()
    return stream.finalize()


def _same(a, b) -> bool:
    """Exact equality of two feature fields (arrays, floats, lists)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=a.dtype.kind in "fc")
        )
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def assert_stream_equals_batch(wimi, session, chunk_size):
    """The finalized stream of ``session`` is the batch answer, ``==``.

    Every :class:`~repro.core.feature.FeatureMeasurement` field, the
    quality report and the label equal ``wimi.extract``/``identify``;
    ``chunk_size`` None pushes the whole target at once.
    """
    result = _stream_result(wimi, session, chunk_size)
    batch = wimi.extract(session)
    streamed = result.features
    assert streamed.material_name == batch.material_name
    assert len(streamed.measurements) == len(batch.measurements)
    for got, want in zip(streamed.measurements, batch.measurements):
        for field in dataclasses.fields(want):
            assert _same(
                getattr(got, field.name), getattr(want, field.name)
            ), field.name
    assert (streamed.quality is None) == (batch.quality is None)
    if batch.quality is not None:
        assert streamed.quality.to_dict() == batch.quality.to_dict()
        for trace in ("baseline", "target"):
            got = getattr(streamed.quality, trace)
            want = getattr(batch.quality, trace)
            for field in dataclasses.fields(want):
                assert _same(
                    getattr(got, field.name), getattr(want, field.name)
                ), (trace, field.name)
    assert np.array_equal(streamed.vector(), batch.vector())
    assert result.label == wimi.identify(session)
    main = batch.measurements[0]
    assert result.estimate.omega == main.omega_mean
    assert result.estimate.gamma == main.gamma
    return result


class TestChunkInvariance:
    def test_chunk_sizes_yield_identical_final_features(self, fitted):
        """Chunks of 1, 7 and the whole trace are bit-identical."""
        wimi, session = fitted
        by_packet = _stream_result(wimi, session, 1)
        by_seven = _stream_result(wimi, session, 7)
        all_at_once = _stream_result(wimi, session, None)

        reference = by_packet.features.vector()
        assert np.array_equal(by_seven.features.vector(), reference)
        assert np.array_equal(all_at_once.features.vector(), reference)
        assert by_packet.label == by_seven.label == all_at_once.label
        # Every estimate field, the confidence included.
        assert by_seven.estimate == by_packet.estimate
        assert all_at_once.estimate == by_packet.estimate

    @pytest.mark.parametrize("poll_every", [1, 4, 16])
    def test_poll_cadence_leaves_the_result_unchanged(
        self, fitted, poll_every
    ):
        """Polling every 1, 4 or 16 packets finalizes as never polling.

        The Omega-bar history behind the confidence is fed as windows
        land, not when the caller happens to poll.
        """
        wimi, session = fitted
        never = _stream_result(wimi, session, 1)
        polled = _stream_result(wimi, session, 1, poll_every=poll_every)
        assert polled.estimate == never.estimate
        assert np.array_equal(
            polled.features.vector(), never.features.vector()
        )
        assert polled.label == never.label

    def test_identify_streaming_matches_identify(self, fitted):
        wimi, session = fitted
        stream = wimi.streaming_extractor(
            scene=session.scene, material_name=session.material_name
        )
        stream.push_baseline(session.baseline)
        target = session.target
        for start in range(0, len(target), 7):
            stream.push_target(target.select(slice(start, start + 7)))
        assert stream.finalize().label == wimi.identify(session)


class TestBatchEquality:
    """``finalize()`` is batch ``extract``: features and label ``==``."""

    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    def test_held_out_session(self, fitted, chunk_size):
        wimi, session = fitted
        assert_stream_equals_batch(wimi, session, chunk_size)

    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    def test_long_session(self, fitted, long_session, chunk_size):
        wimi, _ = fitted
        assert_stream_equals_batch(wimi, long_session, chunk_size)


class TestStreamingExtractor:
    def test_estimate_converges_after_first_window(self, fitted):
        wimi, session = fitted
        stream = wimi.clone_view().streaming_extractor(scene=session.scene)
        window = STREAM_WINDOW_SIZE

        stream.push_baseline(session.baseline)
        assert not stream.estimate().ready  # no target packets yet

        packets = list(session.target.packets)
        for index, packet in enumerate(packets):
            estimate = stream.estimate()
            if index + 1 <= window:
                stream.push_target(packet)
                continue
            # Past the first window the estimate must be live.
            assert estimate.ready
            assert 0.0 <= estimate.confidence <= 1.0
            assert estimate.target_packets == index
            stream.push_target(packet)

        result = stream.finalize()
        assert result.label
        assert result.estimate.ready
        # After finalize a poll returns the sealed batch answer.
        assert stream.estimate() is result.estimate

    def test_finalize_is_idempotent_and_seals_the_stream(self, fitted):
        wimi, session = fitted
        stream = wimi.clone_view().streaming_extractor(scene=session.scene)
        stream.push_baseline(session.baseline)
        stream.push_target(session.target)
        first = stream.finalize()
        assert stream.finalize() is first
        with pytest.raises(RuntimeError, match="finalized"):
            stream.push_target(session.target.packets[0])

    def test_finalize_without_packets_raises(self, fitted):
        wimi, _ = fitted
        stream = wimi.clone_view().streaming_extractor()
        with pytest.raises(RuntimeError, match="baseline|target|packet"):
            stream.finalize()

    def test_requires_fitted_pipeline(self):
        wimi = WiMi({"pepsi": 0.2})
        with pytest.raises(RuntimeError, match="fit"):
            wimi.streaming_extractor()


@pytest.fixture(scope="module")
def long_session(fitted):
    """A 200-packet session: 49 windows per trace."""
    _, session = fitted
    collector = DataCollector(session.scene, rng=3)
    return collector.collect(
        default_catalog().get("oil"), SessionConfig(num_packets=200)
    )


def _window_oracle(trace, pair):
    """``mean_log_ratio`` recomputed from the completed windows.

    Walks every window the trace has completed, clips and logs its raw
    rows, and averages each channel over all windows -- no running
    state.
    """
    size, hop = STREAM_WINDOW_SIZE, STREAM_HOP
    rows = np.array([np.abs(p.csi).ravel() for p in trace.packets])
    total = np.zeros(rows.shape[1])
    count = 0
    for start in range(0, len(rows) - size + 1, hop):
        window = rows[start:start + size]
        total = total + np.log(np.clip(window, _AMPLITUDE_EPS, None)).sum(
            axis=0
        )
        count += size
    if count == 0:
        return np.full(trace.num_subcarriers, np.nan)
    mean = (total / count).reshape(trace.num_subcarriers, trace.num_antennas)
    return mean[:, pair[0]] - mean[:, pair[1]]


def _swap_memos(stream, memos=None):
    """Install ``memos`` as ``stream``'s memoized preview terms (None:
    none at all) and return the ones it held."""
    traces = (stream._baseline, stream._target)
    held = (
        [trace._phase_grids for trace in traces],
        stream._amplitude_memo,
    )
    if memos is None:
        memos = ([{}, {}], ((-1, -1), (math.nan, math.nan)))
    grids, stream._amplitude_memo = memos
    for trace, phase in zip(traces, grids):
        trace._phase_grids = dict(phase)
    return held


class TestPollPath:
    def test_every_poll_equals_an_unmemoized_recompute(
        self, fitted, long_session, monkeypatch
    ):
        """Per-packet polls == the preview rebuilt from the windows.

        The reference side reads no memo: every memo is dropped before
        the recompute, and the stream's own memos are put back after it,
        so the next poll neither reads what the reference built nor
        misses a stale memo the stream failed to drop.
        """
        stream = fitted[0].clone_view().streaming_extractor(
            scene=long_session.scene
        )
        stream.push_baseline(long_session.baseline)
        ready = 0
        for packet in long_session.target.packets:
            stream.push_target(packet)
            polled = stream.estimate()
            held = _swap_memos(stream)
            with monkeypatch.context() as patch:
                patch.setattr(_TraceStream, "mean_log_ratio", _window_oracle)
                reference = stream._snapshot(stream._resolve())
            _swap_memos(stream, held)
            if polled.ready:
                ready += 1
                assert polled == reference
            else:
                assert not reference.ready
                assert polled.target_packets == reference.target_packets
            assert stream.estimate() is polled  # no new packet, no work
        # Live from the first target window on.
        assert ready == len(long_session.target) - STREAM_WINDOW_SIZE + 1

    def test_log_ratio_reductions_are_bounded_by_windows(
        self, fitted, long_session, monkeypatch
    ):
        """No per-window step reduces more than one window of rows.

        Counts work rather than timing it: every window reduction sees
        exactly ``STREAM_WINDOW_SIZE`` rows, there is one per completed
        window, polls and finalize add none, and each trace keeps only
        ``(channels,)`` running sums besides its raw rows.
        """
        import repro.dsp.streaming as dsp_streaming

        reduced: list[int] = []
        window_log_sums = dsp_streaming.window_log_sums

        def counting_sums(rows, *args):
            reduced.append(len(rows))
            return window_log_sums(rows, *args)

        monkeypatch.setattr(
            "repro.engine.graph.window_log_sums", counting_sums
        )
        wimi, _ = fitted
        size, hop = STREAM_WINDOW_SIZE, STREAM_HOP
        stream = wimi.clone_view(cache=StageCache()).streaming_extractor(
            scene=long_session.scene
        )
        stream.push_baseline(long_session.baseline)
        for packet in long_session.target.packets:
            stream.push_target(packet)
            stream.estimate()
        windows = len(reduced)
        stream.finalize()

        expected = sum(
            (len(trace) - size) // hop + 1
            for trace in (long_session.baseline, long_session.target)
        )
        assert windows == len(reduced) == expected
        assert stream.estimate().windows == expected
        assert set(reduced) == {size}
        channels = long_session.target.num_subcarriers * (
            long_session.target.num_antennas
        )
        for trace in (stream._baseline, stream._target):
            assert trace._log_sum.shape == trace._count.shape == (channels,)

    @pytest.mark.parametrize("chunk_size", [1, 7])
    def test_preview_terms_rebuild_only_on_their_event(
        self, fitted, long_session, monkeypatch, chunk_size
    ):
        """Counted work: a poll rebuilds only what the last packet changed.

        The baseline's phase grids are built once after its last packet,
        however many polls follow; the target's at most once per packet;
        and the amplitude aggregates once per landed window, not per
        poll.
        """
        builds: dict[tuple[int, str], int] = {}

        def counted(name):
            statistic = getattr(RunningCircularStats, name)

            def build(self):
                key = (id(self), name)
                builds[key] = builds.get(key, 0) + 1
                return statistic(self)

            monkeypatch.setattr(RunningCircularStats, name, build)

        counted("mean")
        counted("resultant_length")
        aggregates: list[tuple[int, int]] = []
        neg_log_psi = StreamingExtractor._neg_log_psi

        def counting_neg_log_psi(self, pair):
            if pair == self._pair:
                aggregates.append(
                    (self._baseline.windows, self._target.windows)
                )
            return neg_log_psi(self, pair)

        monkeypatch.setattr(
            StreamingExtractor, "_neg_log_psi", counting_neg_log_psi
        )

        wimi, _ = fitted
        stream = wimi.clone_view(cache=StageCache()).streaming_extractor(
            scene=long_session.scene
        )
        stream.push_baseline(long_session.baseline)
        packets = list(long_session.target.packets)
        per_chunk: list[dict] = []
        for start in range(0, len(packets), chunk_size):
            before = dict(builds)
            stream.push_target(packets[start:start + chunk_size])
            for _ in range(3):
                stream.estimate()
                stream._poll = None  # force a recompute, as a new caller
            per_chunk.append(
                {k: builds.get(k, 0) - before.get(k, 0) for k in builds}
            )
        stream.finalize()

        base = id(stream._baseline._phase)
        target = id(stream._target._phase)
        assert builds[(base, "mean")] == 1
        assert builds[(base, "resultant_length")] == 1
        for counts, start in zip(
            per_chunk, range(0, len(packets), chunk_size)
        ):
            pushed = len(packets[start:start + chunk_size])
            assert 1 <= counts[(target, "mean")] <= pushed
            assert counts.get((target, "resultant_length"), 0) <= pushed
        # Each window state is aggregated once, whatever the polls: the
        # state before the first target window, then one per window.
        baseline_windows = stream._baseline.windows
        assert aggregates == [
            (baseline_windows, w)
            for w in range(stream._target.windows + 1)
        ]


class TestFaultInjectedStreaming:
    def test_quality_gate_fires_on_nan_antenna(self, fitted):
        """A NaN'd RF chain streams through but is flagged at finalize."""
        wimi, session = fitted
        faulty = inject_session(
            session, [AntennaDropout(antenna=0, mode="nan")], seed=5
        )
        stream = wimi.clone_view().streaming_extractor(scene=faulty.scene)
        stream.push_baseline(faulty.baseline)
        stream.push_target(faulty.target)
        with pytest.warns(DegradedTraceWarning):
            result = stream.finalize()
        assert result.label  # degraded plan still classifies
        assert result.features.quality is not None
        assert result.features.quality.is_degraded
        assert 0 in result.features.quality.dead_antennas
        # The surviving measurement avoided the dead chain.
        assert 0 not in result.features.measurements[0].pair
        # Its preview is NaN (0/0 over zero counts, silently).
        for trace in (stream._baseline, stream._target):
            assert np.isnan(trace.mean_log_ratio((0, 1))).all()
            assert np.isfinite(trace.mean_log_ratio((1, 2))).all()
        with pytest.warns(DegradedTraceWarning):
            assert_stream_equals_batch(wimi, faulty, None)

    def test_streaming_matches_batch_on_degraded_session(self, fitted):
        """Fault fallbacks route identically through both paths, ``==``
        at chunk sizes 1, 7 and the whole trace."""
        wimi, session = fitted
        faulty = inject_session(
            session,
            [SubcarrierErasure(rate=0.1), AntennaDropout(antenna=2)],
            seed=7,
        )
        for chunk_size in (1, 7, None):
            with pytest.warns(DegradedTraceWarning):
                result = assert_stream_equals_batch(wimi, faulty, chunk_size)
            assert result.features.quality.is_degraded


# ----------------------------------------------------------------------
# Serve layer: StreamingGateway sessions
# ----------------------------------------------------------------------


class TestStreamingGateway:
    def test_open_submit_poll_finalize(self, fitted):
        wimi, session = fitted
        gateway = StreamingGateway(wimi, max_streams=2)
        stream = gateway.open(
            scene=session.scene, material_name=session.material_name
        )
        stream.submit_baseline(session.baseline)
        stream.submit_target(session.target)
        assert stream.poll().ready
        result = stream.finalize()
        assert result.label == wimi.identify(session)
        # Poll after finalize returns the sealed estimate.
        assert stream.poll() is result.estimate
        snap = gateway.snapshot()
        assert snap["counters"]["streams.opened"] == 1
        assert snap["counters"]["streams.finalized"] == 1
        assert snap["gauges"]["streams.active"] == 0.0
        assert "stage_cache" in snap

    def test_capacity_limit_rejects_then_recovers(self, fitted):
        wimi, _ = fitted
        gateway = StreamingGateway(wimi, max_streams=1)
        first = gateway.open()
        with pytest.raises(StreamLimitError, match="capacity"):
            gateway.open()
        first.abort()
        assert gateway.active == 0
        gateway.open()  # slot freed by the abort
        snap = gateway.snapshot()
        assert snap["counters"]["streams.rejected"] == 1
        assert snap["counters"]["streams.aborted"] == 1

    def test_closed_stream_rejects_packets(self, fitted):
        wimi, session = fitted
        gateway = StreamingGateway(wimi)
        stream = gateway.open()
        stream.abort()
        stream.abort()  # idempotent
        with pytest.raises(StreamClosedError, match="closed"):
            stream.submit_target(session.target)

    def test_needs_fitted_pipeline(self):
        with pytest.raises(ValueError, match="fitted"):
            StreamingGateway(WiMi({"pepsi": 0.2}))

    def test_disk_backed_stream_caches_only_batch_stages(
        self, fitted, long_session, tmp_path
    ):
        """A polled stream leaves exactly the memory and store entries
        that ``identify`` of the same session leaves: preview windows
        are computed, never cached."""
        wimi, _ = fitted
        outcome = {}
        for name in ("stream", "identify"):
            root = tmp_path / name
            store = ArtifactStore(root)
            view = wimi.clone_view(cache=StageCache(disk_store=store))
            if name == "stream":
                stream = StreamingGateway(view, max_streams=1).open(
                    scene=long_session.scene,
                    material_name=long_session.material_name,
                )
                stream.submit_baseline(long_session.baseline)
                for packet in long_session.target.packets:
                    stream.submit_target(packet)
                    stream.poll()
                label = stream.finalize().label
            else:
                label = view.identify(long_session)
            files = {path.relative_to(root) for path in root.rglob("*.art")}
            assert store.writes == len(files)
            outcome[name] = (label, view.cache.snapshot(), len(view.cache), files)
        assert outcome["stream"] == outcome["identify"]
        _, stages, entries, files = outcome["stream"]
        assert "stream_window_denoise" not in stages
        assert entries == len(files) > 0


def _assert_closed(stream):
    """A closed session no longer accepts packets."""
    with pytest.raises(StreamClosedError):
        stream.submit_target([])


class TestGatewayGracefulDrain:
    """SIGTERM with streams in flight: finalize or fail cleanly, never
    hang, never leave a half-open session behind."""

    def test_drain_finalizes_in_flight_sessions(self, fitted):
        wimi, session = fitted
        gateway = StreamingGateway(wimi, max_streams=4)
        stream = gateway.open(
            scene=session.scene, material_name=session.material_name
        )
        stream.submit_baseline(session.baseline)
        stream.submit_target(session.target)
        outcome = gateway.drain()
        assert outcome == {"finalized": 1, "failed": 0}
        _assert_closed(stream)
        # The buffered packets were worth a classification (finalize is
        # idempotent: this returns the drain's sealed result).
        assert stream.finalize().label == wimi.identify(session)
        snap = gateway.snapshot()
        assert snap["counters"]["streams.drained"] == 1
        assert snap["gauges"]["streams.active"] == 0.0

    def test_drain_aborts_sessions_that_cannot_finalize(self, fitted):
        wimi, session = fitted
        gateway = StreamingGateway(wimi, max_streams=4)
        healthy = gateway.open(
            scene=session.scene, material_name=session.material_name
        )
        healthy.submit_baseline(session.baseline)
        healthy.submit_target(session.target)
        empty = gateway.open()  # no packets: finalize raises
        outcome = gateway.drain()
        assert outcome == {"finalized": 1, "failed": 1}
        _assert_closed(healthy)
        _assert_closed(empty)
        assert gateway.active == 0
        snap = gateway.snapshot()
        assert snap["counters"]["streams.drain_failed"] == 1
        assert snap["counters"]["streams.aborted"] == 1

    def test_draining_gateway_rejects_new_streams(self, fitted):
        from repro.serve import ServiceStoppedError

        wimi, _ = fitted
        gateway = StreamingGateway(wimi)
        gateway.drain()
        with pytest.raises(ServiceStoppedError, match="draining"):
            gateway.open()
        assert gateway.snapshot()["counters"]["streams.rejected"] == 1

    def test_sigterm_triggers_the_drain_without_a_real_signal(self, fitted):
        wimi, session = fitted
        gateway = StreamingGateway(wimi, max_streams=2)
        stream = gateway.open(
            scene=session.scene, material_name=session.material_name
        )
        stream.submit_baseline(session.baseline)
        stream.submit_target(session.target)
        handle = gateway.install_signal_handlers(resend=False)
        try:
            handle.trigger(signal.SIGTERM)
        finally:
            handle.restore()
        assert handle.triggered
        _assert_closed(stream)
        assert gateway.snapshot()["counters"]["streams.drained"] == 1

    def test_drain_is_idempotent_and_race_safe(self, fitted):
        wimi, session = fitted
        gateway = StreamingGateway(wimi, max_streams=2)
        stream = gateway.open(
            scene=session.scene, material_name=session.material_name
        )
        stream.submit_baseline(session.baseline)
        stream.submit_target(session.target)
        stream.finalize()  # owner closes first; drain must not crash
        assert gateway.drain()["failed"] == 0
        assert gateway.drain() == {"finalized": 0, "failed": 0}
