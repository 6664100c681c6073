"""Unit tests: stage-graph artifacts, keying and the stage cache."""

import dataclasses

import numpy as np
import pytest

from repro.channel.environment import make_environment
from repro.channel.geometry import CylinderTarget, LinkGeometry
from repro.channel.materials import default_catalog
from repro.core.config import WiMiConfig
from repro.csi.collector import DataCollector
from repro.csi.simulator import SimulationScene
from repro.core.pipeline import WiMi
from repro.engine import (
    ALL_STAGES,
    AMPLITUDE_DENOISE,
    CLASSIFY,
    FEATURE_EXTRACTION,
    OBSERVABLES,
    PHASE_CALIBRATION,
    STREAM_WINDOW_DENOISE,
    PhaseArtifact,
    StageCache,
    StageCounter,
    StageEvent,
    array_fingerprint,
    config_fingerprint,
    session_fingerprint,
    stage_graph,
    trace_fingerprint,
)
from repro.engine.artifacts import (
    DenoisedTraceArtifact,
    FeatureArtifact,
    ObservablesArtifact,
    StreamWindowArtifact,
    make_key,
)
from repro.engine.cache import TIER_COMPUTE, TIER_MEMORY
from repro.engine.stages import DENOISE_REVISION
from repro.persist import ArtifactStore

CATALOG = default_catalog()


@pytest.fixture(scope="module")
def sessions():
    scene = SimulationScene(
        geometry=LinkGeometry(),
        environment=make_environment("lab"),
        target=CylinderTarget(lateral_offset=0.02),
    )
    collector = DataCollector(scene, rng=11)
    return collector.collect_many(CATALOG.get("pepsi"), 2)


class TestFingerprints:
    def test_trace_fingerprint_is_content_hash(self, sessions):
        a, b = sessions
        assert trace_fingerprint(a.baseline) == trace_fingerprint(a.baseline)
        assert trace_fingerprint(a.baseline) != trace_fingerprint(a.target)
        assert trace_fingerprint(a.target) != trace_fingerprint(b.target)

    def test_trace_fingerprint_pinned_on_object(self, sessions):
        trace = sessions[0].baseline
        fp = trace_fingerprint(trace)
        assert getattr(trace, "_engine_fingerprint") == fp

    def test_session_fingerprint_distinguishes_sessions(self, sessions):
        a, b = sessions
        assert session_fingerprint(a) == session_fingerprint(a)
        assert session_fingerprint(a) != session_fingerprint(b)

    def test_config_fingerprint_empty_fields(self):
        assert config_fingerprint(WiMiConfig(), ()) == "-"

    def test_config_fingerprint_only_declared_fields(self):
        base = WiMiConfig()
        clf_changed = base.with_overrides(classifier="knn")
        wavelet_changed = base.with_overrides(wavelet_name="haar")
        fields = AMPLITUDE_DENOISE.config_fields
        # Classifier choice must not invalidate denoise artifacts...
        assert config_fingerprint(base, fields) == config_fingerprint(
            clf_changed, fields
        )
        # ...but a denoiser knob must.
        assert config_fingerprint(base, fields) != config_fingerprint(
            wavelet_changed, fields
        )

    def test_array_fingerprint_separates_dtypes(self):
        x64 = np.random.default_rng(7).normal(size=(8, 3))
        x32 = x64.astype(np.float32)
        assert array_fingerprint(x64) != array_fingerprint(x32)
        assert array_fingerprint(x32) == array_fingerprint(x32.copy())


class TestStageGraph:
    def test_all_stages_declared_once(self):
        names = [spec.name for spec in ALL_STAGES]
        assert len(names) == len(set(names)) == 8

    def test_edges_reference_known_stages(self):
        graph = stage_graph()
        for stage, inputs in graph.items():
            for upstream in inputs:
                assert upstream in graph, f"{stage} consumes unknown {upstream}"

    def test_chain_shape(self):
        graph = stage_graph()
        assert graph[PHASE_CALIBRATION.name] == ()
        assert AMPLITUDE_DENOISE.name in graph["observables"]
        assert FEATURE_EXTRACTION.name in graph[CLASSIFY.name]


class TestDenoiseRevision:
    """A store written before a denoiser revision cannot serve its output.

    The sentinel sits under the key formula a stage used before
    ``DENOISE_REVISION`` entered its key; a fresh process over that store
    must recompute the stage instead of returning it.  That covers the
    two denoise stages and the two stages built from their output.
    """

    @staticmethod
    def _engine(store, counter):
        wimi = WiMi({"pepsi": 1.0}, cache=StageCache(disk_store=store))
        wimi.engine.add_hook(counter)
        return wimi.engine

    def test_amplitude_denoise_recomputes_old_key(self, sessions, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        trace = sessions[0].baseline
        old_key = make_key(
            trace_fingerprint(trace),
            config_fingerprint(WiMiConfig(), AMPLITUDE_DENOISE.config_fields),
        )
        sentinel = np.full(np.abs(trace.matrix()).shape, -1.0)
        store.put(
            AMPLITUDE_DENOISE.name,
            old_key,
            DenoisedTraceArtifact(key=old_key, amplitudes=sentinel),
        )
        counter = StageCounter()
        artifact = self._engine(store, counter).amplitude_denoise(trace)
        assert counter.executions == {AMPLITUDE_DENOISE.name: 1}
        assert artifact.key != old_key
        assert np.all(artifact.amplitudes > 0.0)

    def test_stream_window_recomputes_old_key(self, sessions, tmp_path):
        """Neither the pre-revision key nor the revision-1 key (denoised
        rows, before the stage became log-amplitude sums) is served."""
        store = ArtifactStore(tmp_path / "store")
        rows = np.abs(sessions[0].baseline.matrix()[:8]).reshape(8, -1)
        old_fields = AMPLITUDE_DENOISE.config_fields + (
            "stream_window_size",
            "stream_hop",
        )
        base = (
            array_fingerprint(rows),
            0,
            config_fingerprint(WiMiConfig(), old_fields),
        )
        old_keys = (make_key(*base), make_key(*base, DENOISE_REVISION))
        channels = rows.shape[1]
        for old_key in old_keys:
            store.put(
                STREAM_WINDOW_DENOISE.name,
                old_key,
                StreamWindowArtifact(
                    key=old_key,
                    start=0,
                    log_sum=np.full(channels, 99.0),
                    count=np.full(channels, -1),
                ),
            )
        counter = StageCounter()
        artifact = self._engine(store, counter).stream_window_denoise(rows, 0)
        assert counter.executions == {STREAM_WINDOW_DENOISE.name: 1}
        assert artifact.key not in old_keys
        assert np.all(artifact.count == 8)
        assert np.all(artifact.log_sum != 99.0)

    def test_observables_recompute_old_key(self, sessions, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        session = sessions[0]
        old_key = make_key(
            session_fingerprint(session),
            (0, 1),
            config_fingerprint(WiMiConfig(), OBSERVABLES.config_fields),
        )
        width = session.baseline.matrix().shape[1]
        store.put(
            OBSERVABLES.name,
            old_key,
            ObservablesArtifact(
                key=old_key,
                pair=(0, 1),
                theta_wrapped=np.full(width, 99.0),
                neg_log_psi=np.full(width, 99.0),
            ),
        )
        counter = StageCounter()
        artifact = self._engine(store, counter).observables(session, (0, 1))
        assert counter.executions[OBSERVABLES.name] == 1
        assert artifact.key != old_key
        assert np.all(artifact.theta_wrapped != 99.0)

    def test_feature_extraction_recomputes_old_key(self, sessions, tmp_path):
        session = sessions[0]
        subcarriers = tuple(range(8))
        fresh = WiMi({"pepsi": 1.0}).engine.extract_feature(
            session, (0, 1), subcarriers
        )
        old_key = make_key(
            session_fingerprint(session),
            (0, 1),
            subcarriers,
            None,
            repr(None),
            1,
            0,
            config_fingerprint(WiMiConfig(), FEATURE_EXTRACTION.config_fields),
            config_fingerprint(WiMiConfig(), OBSERVABLES.config_fields),
        )
        store = ArtifactStore(tmp_path / "store")
        store.put(
            FEATURE_EXTRACTION.name,
            old_key,
            FeatureArtifact(
                key=old_key,
                measurement=dataclasses.replace(fresh.measurement, gamma=-99),
            ),
        )
        counter = StageCounter()
        artifact = self._engine(store, counter).extract_feature(
            session, (0, 1), subcarriers
        )
        assert counter.executions[FEATURE_EXTRACTION.name] == 1
        assert artifact.key == fresh.key != old_key
        assert artifact.measurement.gamma == fresh.measurement.gamma != -99

    def test_other_stage_keys_unchanged(self, sessions, tmp_path):
        session = sessions[0]
        events = []
        engine = self._engine(ArtifactStore(tmp_path / "store"), events.append)
        engine.phase_calibration(session, (0, 1))
        assert events[0].key == make_key(
            session_fingerprint(session),
            (0, 1),
            config_fingerprint(WiMiConfig(), PHASE_CALIBRATION.config_fields),
        )


class TestStageCache:
    def test_resolve_miss_then_hit(self):
        cache = StageCache()
        calls = []
        value, tier = cache.resolve_tier(
            "s", "k", lambda: calls.append(1) or 42
        )
        assert (value, tier) == (42, TIER_COMPUTE)
        value, tier = cache.resolve_tier(
            "s", "k", lambda: calls.append(1) or 99
        )
        assert (value, tier) == (42, TIER_MEMORY)
        assert len(calls) == 1
        assert cache.stats["s"].hits == 1
        assert cache.stats["s"].misses == 1
        assert cache.stats["s"].hit_rate == 0.5

    def test_keys_are_per_stage(self):
        cache = StageCache()
        cache.store("a", "k", 1)
        cache.store("b", "k", 2)
        assert cache.lookup_tier("a", "k") == (1, TIER_MEMORY)
        assert cache.lookup_tier("b", "k") == (2, TIER_MEMORY)

    def test_lru_eviction(self):
        cache = StageCache(max_entries=2)
        cache.store("s", "k1", 1)
        cache.store("s", "k2", 2)
        cache.lookup_tier("s", "k1")  # refresh k1; k2 becomes LRU
        cache.store("s", "k3", 3)
        assert ("s", "k1") in cache
        assert ("s", "k2") not in cache
        assert ("s", "k3") in cache

    def test_invalidate_stage(self):
        cache = StageCache()
        cache.store("a", "k1", 1)
        cache.store("a", "k2", 2)
        cache.store("b", "k1", 3)
        assert cache.invalidate_stage("a") == 2
        assert len(cache) == 1
        assert ("b", "k1") in cache

    def test_clear_resets_stats(self):
        cache = StageCache()
        cache.resolve_tier("s", "k", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.snapshot() == {}

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            StageCache(max_entries=0)

    def test_snapshot_is_plain_data(self):
        cache = StageCache()
        cache.resolve_tier("s", "k", lambda: 1)
        cache.resolve_tier("s", "k", lambda: 1)
        snap = cache.snapshot()
        assert snap == {
            "s": {
                "hits": 1,
                "memory_hits": 1,
                "disk_hits": 0,
                "misses": 1,
                "hit_rate": 0.5,
            }
        }


class TestStageCounter:
    def test_counts_executions_and_hits(self):
        counter = StageCounter()
        counter(StageEvent(stage="s", key="k", cache_hit=False))
        counter(StageEvent(stage="s", key="k", cache_hit=True))
        counter(StageEvent(stage="s", key="k", cache_hit=True))
        assert counter.executions == {"s": 1}
        assert counter.hits == {"s": 2}
        assert counter.total("s") == 3
        counter.reset()
        assert counter.total("s") == 0


class TestArtifactImmutability:
    def test_cached_arrays_are_read_only(self):
        artifact = PhaseArtifact(
            key="k", pair=(0, 1), theta_wrapped=np.zeros(4)
        )
        with pytest.raises(ValueError):
            artifact.theta_wrapped[0] = 1.0
