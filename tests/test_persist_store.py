"""ArtifactStore: CAS semantics, atomicity, corruption tolerance, gc.

The multi-process test reuses :func:`repro.experiments.runner.parallel_map`
(the same spawn-context pool the experiment sweeps use), so the worker
below must stay module-level and its payload picklable.
"""

import shutil
from dataclasses import dataclass

import numpy as np

from repro.csi import quality
from repro.csi.faults import flip_bits, truncate_file
from repro.csi.quality import assess_trace
from repro.engine.artifacts import (
    Artifact,
    DenoisedTraceArtifact,
    TraceQualityArtifact,
)
from repro.experiments.runner import parallel_map
from repro.persist import ArtifactStore
from repro.persist.serialize import deserialize_artifact, frame, pack
from tests.test_csi_faults import make_trace

STAGE = "amplitude_denoise"


def _artifact(key: str = "k1", seed: int = 0) -> DenoisedTraceArtifact:
    rng = np.random.default_rng(seed)
    return DenoisedTraceArtifact(key=key, amplitudes=rng.normal(size=(4, 8, 3)))


@dataclass(frozen=True)
class UnpersistableArtifact(Artifact):
    """An artifact type the codec does not know."""


def _racing_put(root: str) -> bool:
    """Module-level worker: every process writes the *same* (stage, key)."""
    store = ArtifactStore(root)
    artifact = _artifact(key="shared", seed=7)
    store.put(STAGE, "shared", artifact)
    loaded = store.get(STAGE, "shared")
    return loaded is not None and np.array_equal(
        loaded.amplitudes, artifact.amplitudes
    )


class TestRoundTrip:
    def test_put_get_is_bit_exact(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        artifact = _artifact()
        assert store.put(STAGE, "k1", artifact)
        loaded = store.get(STAGE, "k1")
        assert isinstance(loaded, DenoisedTraceArtifact)
        assert loaded.key == "k1"
        assert np.array_equal(loaded.amplitudes, artifact.amplitudes)
        assert store.counters()["writes"] == 1
        assert store.counters()["hits"] == 1

    def test_missing_entry_is_a_counted_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.get(STAGE, "nope") is None
        assert store.counters()["misses"] == 1
        assert store.counters()["corrupt"] == 0

    def test_put_is_content_addressed_skip_if_exists(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.put(STAGE, "k1", _artifact())
        assert not store.put(STAGE, "k1", _artifact())
        assert store.counters()["writes"] == 1

    def test_contains(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(STAGE, "k1", _artifact())
        assert (STAGE, "k1") in store
        assert (STAGE, "k2") not in store

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for index in range(5):
            store.put(STAGE, f"k{index}", _artifact(key=f"k{index}", seed=index))
        assert list((tmp_path / "store").rglob("*.tmp")) == []

    def test_unpersistable_artifact_is_skipped_silently(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert not store.put(STAGE, "weird", UnpersistableArtifact(key="weird"))
        assert store.get(STAGE, "weird") is None


class TestCorruptionTolerance:
    """Damage must read as a miss, never as an exception or a wrong artifact."""

    def test_truncated_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(STAGE, "k1", _artifact())
        truncate_file(store.path_for(STAGE, "k1"), keep_fraction=0.3)
        assert store.get(STAGE, "k1") is None
        assert store.counters()["corrupt"] == 1
        assert store.counters()["misses"] == 1

    def test_bit_flipped_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(STAGE, "k1", _artifact())
        flip_bits(store.path_for(STAGE, "k1"), num_flips=16, seed=5)
        assert store.get(STAGE, "k1") is None
        assert store.counters()["corrupt"] == 1

    def test_entry_moved_to_wrong_address_is_not_served(self, tmp_path):
        # A valid file for key A dropped at key B's address must not be
        # served as B: the recorded artifact key is re-checked on read.
        store = ArtifactStore(tmp_path / "store")
        store.put(STAGE, "key-a", _artifact(key="key-a"))
        wrong = store.path_for(STAGE, "key-b")
        wrong.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(store.path_for(STAGE, "key-a"), wrong)
        assert store.get(STAGE, "key-b") is None
        assert store.counters()["corrupt"] == 1

    def test_foreign_file_in_tree_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        path = store.path_for(STAGE, "k1")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an artifact at all")
        assert store.get(STAGE, "k1") is None
        assert store.counters()["corrupt"] == 1


class TestStatsAndGc:
    def test_stats_counts_per_stage(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("stage_a", "k1", _artifact(key="k1"))
        store.put("stage_a", "k2", _artifact(key="k2", seed=1))
        store.put("stage_b", "k1", _artifact(key="k1"))
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["stages"]["stage_a"]["entries"] == 2
        assert stats["stages"]["stage_b"]["entries"] == 1
        assert stats["bytes"] > 0

    def test_stats_reports_stored_array_dtypes(self, tmp_path):
        # The census counts every stored member dtype of a stage.
        store = ArtifactStore(tmp_path / "store")
        store.put(STAGE, "k64", _artifact(key="k64"))
        rng = np.random.default_rng(5)
        f32 = DenoisedTraceArtifact(
            key="k32", amplitudes=rng.normal(size=(4, 8, 3)).astype(np.float32)
        )
        store.put(STAGE, "k32", f32)
        dtypes = store.stats()["stages"][STAGE]["dtypes"]
        assert dtypes == {"float32": 1, "float64": 1}

    def test_stats_skips_unreadable_entries(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(STAGE, "good", _artifact(key="good"))
        store.put(STAGE, "bad", _artifact(key="bad", seed=1))
        truncate_file(store.path_for(STAGE, "bad"), keep_fraction=0.2)
        stats = store.stats()
        assert stats["stages"][STAGE]["entries"] == 1
        assert stats["stages"][STAGE]["dtypes"] == {"float64": 1}

    def test_stats_on_empty_store(self, tmp_path):
        stats = ArtifactStore(tmp_path / "never-created").stats()
        assert stats["entries"] == 0
        assert stats["stages"] == {}

    def test_gc_removes_tmp_and_corrupt_only(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(STAGE, "good", _artifact(key="good"))
        store.put(STAGE, "bad", _artifact(key="bad", seed=1))
        truncate_file(store.path_for(STAGE, "bad"), keep_fraction=0.2)
        stale = store.path_for(STAGE, "good").parent / "leftover.123.tmp"
        stale.write_bytes(b"crashed mid-write")
        removed = store.gc()
        assert removed == {
            "tmp_removed": 1, "corrupt_removed": 1, "quarantine_removed": 0,
        }
        assert store.get(STAGE, "good") is not None
        assert not store.path_for(STAGE, "bad").exists()

    def test_gc_removes_retired_stream_window_entries(self, tmp_path):
        # Streaming preview windows were once cached as their own
        # artifact type; stores written then still hold such entries.
        store = ArtifactStore(tmp_path / "store")
        store.put(STAGE, "good", _artifact(key="good"))
        meta = {"type": "StreamWindowArtifact", "key": "w", "start": 0}
        arrays = {"log_sum": np.zeros(90), "count": np.full(90, 8)}
        window = store.path_for("stream_window_denoise", "w")
        window.parent.mkdir(parents=True)
        window.write_bytes(frame(pack(meta, arrays)))
        assert store.stats()["stages"]["stream_window_denoise"]["entries"] == 1
        removed = store.gc()
        assert removed["corrupt_removed"] == 1
        assert not window.exists()
        assert store.get(STAGE, "good") is not None


class TestQuarantine:
    """Corrupt objects are moved aside, never re-read, and self-heal."""

    def test_corrupt_entry_is_quarantined_not_deleted(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(STAGE, "k1", _artifact())
        flip_bits(store.path_for(STAGE, "k1"), num_flips=16, seed=5)
        assert store.get(STAGE, "k1") is None
        assert store.counters()["quarantined"] == 1
        # The damaged bytes are preserved for forensics...
        quarantined = list((store.root / "quarantine").rglob("*.art"))
        assert len(quarantined) == 1
        # ...and the live address is vacated.
        assert not store.path_for(STAGE, "k1").exists()

    def test_quarantined_entry_is_never_re_read(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(STAGE, "k1", _artifact())
        flip_bits(store.path_for(STAGE, "k1"), num_flips=16, seed=5)
        assert store.get(STAGE, "k1") is None
        # Second read: a plain miss. The corrupt bytes are out of the
        # object tree, so they are not re-parsed (corrupt stays at 1).
        assert store.get(STAGE, "k1") is None
        assert store.counters()["corrupt"] == 1
        assert store.counters()["quarantined"] == 1
        assert store.counters()["misses"] == 2

    def test_recompute_heals_a_quarantined_address(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        artifact = _artifact()
        store.put(STAGE, "k1", artifact)
        flip_bits(store.path_for(STAGE, "k1"), num_flips=16, seed=5)
        assert store.get(STAGE, "k1") is None
        # The caller recomputes and re-puts: the address heals.
        assert store.put(STAGE, "k1", artifact)
        assert store.counters()["healed"] == 1
        loaded = store.get(STAGE, "k1")
        assert loaded is not None
        assert np.array_equal(loaded.amplitudes, artifact.amplitudes)

    def test_stats_reports_quarantine_usage(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(STAGE, "k1", _artifact())
        flip_bits(store.path_for(STAGE, "k1"), num_flips=16, seed=5)
        store.get(STAGE, "k1")
        quarantine = store.stats()["quarantine"]
        assert quarantine["entries"] == 1
        assert quarantine["bytes"] > 0

    def test_trace_quality_gated_with_other_thresholds_is_quarantined(
        self, tmp_path, monkeypatch
    ):
        store = ArtifactStore(tmp_path / "store")
        artifact = TraceQualityArtifact(
            key="q1", report=assess_trace(make_trace())
        )
        with monkeypatch.context() as patched:
            patched.setattr(quality, "MIN_PACKETS", 4)
            store.put("trace_quality", "q1", artifact)
        # A report judged by another gate is never served: a counted
        # miss, its bytes quarantined, and a recompute heals the address.
        assert store.get("trace_quality", "q1") is None
        assert store.counters()["quarantined"] == 1
        assert not store.path_for("trace_quality", "q1").exists()
        assert store.put("trace_quality", "q1", artifact)
        assert store.get("trace_quality", "q1") is not None

    def test_gc_purges_the_quarantine(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(STAGE, "k1", _artifact())
        flip_bits(store.path_for(STAGE, "k1"), num_flips=16, seed=5)
        store.get(STAGE, "k1")
        removed = store.gc()
        assert removed["quarantine_removed"] == 1
        assert list((store.root / "quarantine").rglob("*.art")) == []


class TestMultiProcess:
    def test_racing_writers_converge_to_one_valid_entry(self, tmp_path):
        root = str(tmp_path / "store")
        results = parallel_map(_racing_put, [root] * 4, workers=2)
        assert results == [True] * 4
        # Exactly one completed entry, no torn files, content verifies.
        store = ArtifactStore(root)
        entries = list((store.root / "objects").rglob("*.art"))
        assert len(entries) == 1
        assert list(store.root.rglob("*.tmp")) == []
        survivor = deserialize_artifact(entries[0].read_bytes())
        assert survivor.key == "shared"
        loaded = store.get(STAGE, "shared")
        assert np.array_equal(loaded.amplitudes, _artifact("shared", 7).amplitudes)
