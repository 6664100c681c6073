"""Tests for CSI trace serialisation."""

import numpy as np
import pytest

from repro.channel.environment import make_environment
from repro.channel.geometry import CylinderTarget, LinkGeometry
from repro.channel.materials import default_catalog
from repro.csi.collector import DataCollector, SessionConfig
from repro.csi.faults import PacketLoss, inject_session
from repro.csi.io import load_session, load_trace, save_session, save_trace
from repro.csi.quality import assess_trace
from repro.csi.simulator import SimulationScene


@pytest.fixture(scope="module")
def session():
    scene = SimulationScene(
        geometry=LinkGeometry(),
        environment=make_environment("lab"),
        target=CylinderTarget(lateral_offset=0.02),
    )
    return DataCollector(scene, rng=0).collect(
        default_catalog().get("milk"), SessionConfig(num_packets=6)
    )


class TestBinaryTrace:
    def test_roundtrip_precision(self, session, tmp_path):
        path = tmp_path / "trace.wimi"
        save_trace(session.baseline, path)
        loaded = load_trace(path)
        assert len(loaded) == len(session.baseline)
        np.testing.assert_allclose(
            loaded.matrix(), session.baseline.matrix(), rtol=1e-3, atol=1e-4
        )

    def test_metadata_preserved(self, session, tmp_path):
        path = tmp_path / "trace.wimi"
        save_trace(session.baseline, path)
        loaded = load_trace(path)
        assert loaded.carrier_hz == session.baseline.carrier_hz
        np.testing.assert_allclose(
            loaded.timestamps(), session.baseline.timestamps()
        )

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.wimi"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError, match="magic"):
            load_trace(path)

    def test_truncated_rejected(self, session, tmp_path):
        path = tmp_path / "trace.wimi"
        save_trace(session.baseline, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_trace(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.wimi"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="truncated"):
            load_trace(path)

    def test_pipeline_results_survive_roundtrip(self, session, tmp_path):
        # Quantisation must not change what the pipeline measures.
        from repro.core.phase import PhaseCalibrator

        path = tmp_path / "trace.wimi"
        save_trace(session.baseline, path)
        loaded = load_trace(path)
        cal = PhaseCalibrator()
        before = cal.averaged_phase_difference(session.baseline, (0, 1))
        after = cal.averaged_phase_difference(loaded, (0, 1))
        np.testing.assert_allclose(after, before, atol=1e-3)


class TestSessionArchive:
    def test_roundtrip(self, session, tmp_path):
        # A lossy capture keeps its sequence gaps and receive times.
        for loss in (0.0, 0.3):
            saved = inject_session(session, (PacketLoss(loss),), seed=1)
            path = tmp_path / f"session-{loss}.npz"
            save_session(saved, path)
            loaded = load_session(path)
            assert loaded.material_name == "milk"
            for before, after in (
                (saved.baseline, loaded.baseline),
                (saved.target, loaded.target),
            ):
                np.testing.assert_allclose(after.matrix(), before.matrix())
                assert np.array_equal(after.timestamps(), before.timestamps())
                assert np.array_equal(after.sequences, before.sequences)
                assert (
                    assess_trace(after).loss_rate
                    == assess_trace(before).loss_rate
                )
            assert (assess_trace(loaded.target).loss_rate > 0) == (loss > 0)

    def test_archive_without_bookkeeping_loads(self, session, tmp_path):
        path = tmp_path / "session.npz"
        np.savez(
            path,
            baseline=session.baseline.matrix(),
            target=session.target.matrix(),
            carrier_hz=np.array([session.baseline.carrier_hz]),
            material_name=np.array([session.material_name]),
        )
        loaded = load_session(path)
        assert np.array_equal(loaded.target.sequences, np.arange(6))
        np.testing.assert_allclose(
            loaded.target.timestamps(), np.arange(6) * 0.01
        )

    def test_missing_arrays_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, baseline=np.zeros((1, 2, 2), dtype=complex))
        with pytest.raises(ValueError, match="missing arrays"):
            load_session(path)


class TestOnDiskFaults:
    """Damaged ``.wimi`` files surface as typed errors with byte offsets."""

    def test_truncation_reports_byte_offset(self, session, tmp_path):
        from repro.csi.faults import truncate_file
        from repro.csi.quality import CorruptTraceError

        path = tmp_path / "trace.wimi"
        save_trace(session.baseline, path)
        new_size = truncate_file(path, keep_fraction=0.5)
        with pytest.raises(CorruptTraceError, match="truncated") as excinfo:
            load_trace(path)
        assert excinfo.value.byte_offset is not None
        assert 0 <= excinfo.value.byte_offset <= new_size

    def test_bit_flips_rejected_not_crashed(self, session, tmp_path):
        from repro.csi.faults import flip_bits
        from repro.csi.quality import CorruptTraceError

        # Any corruption outcome must be a typed rejection (or a clean
        # load when the flips only grazed payload mantissa bits) --
        # never an uncontrolled crash.
        for seed in range(8):
            path = tmp_path / f"trace{seed}.wimi"
            save_trace(session.baseline, path)
            flip_bits(path, num_flips=16, seed=seed)
            try:
                load_trace(path)
            except CorruptTraceError as error:
                assert error.byte_offset is None or error.byte_offset >= 0

    def test_header_magic_flip_pinpointed_at_offset_zero(
        self, session, tmp_path
    ):
        from repro.csi.quality import CorruptTraceError

        path = tmp_path / "trace.wimi"
        save_trace(session.baseline, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptTraceError, match="magic") as excinfo:
            load_trace(path)
        assert excinfo.value.byte_offset == 0

    def test_corrupt_error_is_a_value_error(self):
        from repro.csi.quality import CorruptTraceError

        assert issubclass(CorruptTraceError, ValueError)
