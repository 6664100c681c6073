"""Bit-exact round-trips through the npz/json artifact payload codec."""

import numpy as np
import pytest

from repro.core.feature import FeatureMeasurement
from repro.csi import quality
from repro.csi.quality import TraceQualityReport, quality_thresholds
from repro.engine.artifacts import (
    Artifact,
    ClassificationArtifact,
    DenoisedTraceArtifact,
    FeatureArtifact,
    ObservablesArtifact,
    PhaseArtifact,
    SubcarrierArtifact,
    TraceQualityArtifact,
)
from repro.persist.serialize import (
    MAGIC,
    IntegrityError,
    deserialize_artifact,
    frame,
    pack,
    payload_array_dtypes,
    serialize_artifact,
    unframe,
    unpack,
)

RNG = np.random.default_rng(3)


def _roundtrip(artifact):
    return deserialize_artifact(serialize_artifact(artifact))


def _quality_report() -> TraceQualityReport:
    return TraceQualityReport(
        num_packets=10,
        num_antennas=3,
        num_subcarriers=30,
        finite_fraction=0.97,
        antenna_finite_fraction=RNG.uniform(0.9, 1.0, size=3),
        subcarrier_finite_fraction=RNG.uniform(0.9, 1.0, size=30),
        antenna_live_fraction=RNG.uniform(0.9, 1.0, size=3),
        subcarrier_live_fraction=RNG.uniform(0.9, 1.0, size=30),
        loss_rate=0.1,
        sequence_gaps=1,
        duplicate_packets=0,
        reordered_packets=2,
        clipped_packets=1,
        clipping_rate=0.1,
    )


class TestPayloadCodec:
    def test_pack_unpack_is_bit_exact(self):
        meta = {"a": 1, "label": "milk", "pair": [0, 2], "x": 0.25}
        arrays = {
            "f64": RNG.normal(size=(5, 3)),
            "ints": np.arange(7),
        }
        out_meta, out_arrays = unpack(pack(meta, arrays))
        assert out_meta == meta
        assert set(out_arrays) == set(arrays)
        for name in arrays:
            assert out_arrays[name].dtype == arrays[name].dtype
            assert np.array_equal(out_arrays[name], arrays[name])

    def test_meta_member_name_is_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            pack({}, {"__meta__": np.zeros(1)})

    def test_payload_without_meta_rejected(self):
        import io

        buffer = io.BytesIO()
        np.savez(buffer, stray=np.zeros(2))
        with pytest.raises(IntegrityError, match="metadata"):
            unpack(buffer.getvalue())


class TestIntegrityFrame:
    def test_frame_unframe_roundtrip(self):
        payload = b"some payload bytes"
        framed = frame(payload)
        assert framed.startswith(MAGIC)
        assert unframe(framed) == payload

    def test_truncation_detected(self):
        framed = frame(b"x" * 100)
        with pytest.raises(IntegrityError):
            unframe(framed[: len(framed) // 2])

    def test_too_short_for_header_detected(self):
        with pytest.raises(IntegrityError, match="too short"):
            unframe(MAGIC[:4])

    def test_foreign_magic_detected(self):
        framed = bytearray(frame(b"payload"))
        framed[0] ^= 0xFF
        with pytest.raises(IntegrityError, match="magic"):
            unframe(bytes(framed))

    def test_payload_bit_flip_detected(self):
        framed = bytearray(frame(b"payload"))
        framed[-1] ^= 0x01
        with pytest.raises(IntegrityError, match="digest"):
            unframe(bytes(framed))


class TestArtifactRoundTrips:
    def test_phase_artifact(self):
        artifact = PhaseArtifact(
            key="k-phase", pair=(0, 2), theta_wrapped=RNG.normal(size=30)
        )
        out = _roundtrip(artifact)
        assert isinstance(out, PhaseArtifact)
        assert out.key == artifact.key
        assert out.pair == (0, 2)
        assert np.array_equal(out.theta_wrapped, artifact.theta_wrapped)

    def test_denoised_trace_artifact(self):
        artifact = DenoisedTraceArtifact(
            key="k-den", amplitudes=RNG.normal(size=(6, 30, 3))
        )
        out = _roundtrip(artifact)
        assert np.array_equal(out.amplitudes, artifact.amplitudes)
        assert out.amplitudes.dtype == artifact.amplitudes.dtype

    def test_observables_artifact(self):
        artifact = ObservablesArtifact(
            key="k-obs",
            pair=(1, 2),
            theta_wrapped=RNG.normal(size=30),
            neg_log_psi=RNG.normal(size=30),
        )
        out = _roundtrip(artifact)
        assert out.pair == (1, 2)
        assert np.array_equal(out.theta_wrapped, artifact.theta_wrapped)
        assert np.array_equal(out.neg_log_psi, artifact.neg_log_psi)

    def test_subcarrier_artifact(self):
        out = _roundtrip(
            SubcarrierArtifact(key="k-sub", pair=(0, 1), subcarriers=(2, 9, 17))
        )
        assert out.subcarriers == (2, 9, 17)
        assert all(isinstance(k, int) for k in out.subcarriers)

    def test_classification_artifact(self):
        out = _roundtrip(
            ClassificationArtifact(key="k-cls", label="milk", confidence=0.75)
        )
        assert out.label == "milk"
        assert out.confidence == 0.75

    def test_classification_nan_confidence_survives(self):
        out = _roundtrip(ClassificationArtifact(key="k", label="oil"))
        assert np.isnan(out.confidence)

    def test_trace_quality_artifact(self):
        report = _quality_report()
        artifact = TraceQualityArtifact(key="k-q", report=report)
        data = serialize_artifact(artifact)
        out = deserialize_artifact(data)
        assert out.report.num_packets == 10
        assert out.report.loss_rate == 0.1
        # The payload records the gate the report was judged by.
        meta, _ = unpack(unframe(data))
        assert meta["report"]["thresholds"] == quality_thresholds()
        assert np.array_equal(
            out.report.subcarrier_live_fraction,
            report.subcarrier_live_fraction,
        )

    def test_trace_quality_gated_with_other_thresholds_is_refused(
        self, monkeypatch
    ):
        artifact = TraceQualityArtifact(key="k-q", report=_quality_report())
        with monkeypatch.context() as patched:
            patched.setattr(quality, "MAX_LOSS_RATE", 0.1)
            other = serialize_artifact(artifact)
        with pytest.raises(ValueError, match="max_loss_rate"):
            deserialize_artifact(other)

    def test_feature_artifact_full(self):
        measurement = FeatureMeasurement(
            omegas=RNG.normal(size=4),
            delta_theta=RNG.normal(size=4),
            delta_psi=RNG.uniform(0.5, 1.5, size=4),
            gamma=2,
            pair=(0, 2),
            subcarriers=[3, 9, 15, 21],
            material_name="pepsi",
            theta_aligned=RNG.normal(size=4),
            neg_log_psi=RNG.normal(size=4),
            omega_coarse=1.25,
            include_coarse=True,
        )
        out = _roundtrip(FeatureArtifact(key="k-f", measurement=measurement))
        m = out.measurement
        assert np.array_equal(m.omegas, measurement.omegas)
        assert np.array_equal(m.delta_theta, measurement.delta_theta)
        assert np.array_equal(m.theta_aligned, measurement.theta_aligned)
        assert np.array_equal(m.neg_log_psi, measurement.neg_log_psi)
        assert m.gamma == 2
        assert m.pair == (0, 2)
        assert m.subcarriers == [3, 9, 15, 21]
        assert m.material_name == "pepsi"
        assert m.omega_coarse == 1.25

    def test_feature_artifact_minimal(self):
        # No optional blocks and a NaN coarse feature (two-antenna rig).
        measurement = FeatureMeasurement(
            omegas=RNG.normal(size=4),
            delta_theta=RNG.normal(size=4),
            delta_psi=RNG.uniform(0.5, 1.5, size=4),
            gamma=0,
            pair=(0, 1),
            include_coarse=False,
        )
        m = _roundtrip(FeatureArtifact(key="k", measurement=measurement)).measurement
        assert m.theta_aligned is None
        assert m.neg_log_psi is None
        assert np.isnan(m.omega_coarse)
        assert not m.include_coarse

    def test_roundtripped_arrays_are_frozen(self):
        out = _roundtrip(
            PhaseArtifact(key="k", pair=(0, 1), theta_wrapped=RNG.normal(size=5))
        )
        with pytest.raises(ValueError):
            out.theta_wrapped[0] = 0.0


class TestDtypePreservation:
    """Non-float64 arrays survive the codec bit-identically.

    The codec must neither widen a float32 member to float64 nor lose
    mantissa bits (npz stores members at their native dtype).
    """

    def test_float32_denoised_trace_round_trips_bit_identically(self):
        amplitudes = RNG.normal(size=(6, 30, 3)).astype(np.float32)
        out = _roundtrip(DenoisedTraceArtifact(key="k", amplitudes=amplitudes))
        assert out.amplitudes.dtype == np.float32
        assert out.amplitudes.tobytes() == amplitudes.tobytes()

    def test_float32_observables_round_trip_bit_identically(self):
        artifact = ObservablesArtifact(
            key="k",
            pair=(0, 2),
            theta_wrapped=RNG.normal(size=30).astype(np.float32),
            neg_log_psi=RNG.normal(size=30).astype(np.float32),
        )
        out = _roundtrip(artifact)
        assert out.theta_wrapped.dtype == np.float32
        assert out.neg_log_psi.dtype == np.float32
        assert np.array_equal(out.theta_wrapped, artifact.theta_wrapped)
        assert np.array_equal(out.neg_log_psi, artifact.neg_log_psi)

    def test_payload_array_dtypes_reports_members(self):
        data = serialize_artifact(
            DenoisedTraceArtifact(
                key="k",
                amplitudes=RNG.normal(size=(4, 30, 3)).astype(np.float32),
            )
        )
        assert payload_array_dtypes(data) == {"amplitudes": "float32"}

    def test_payload_array_dtypes_rejects_damage(self):
        data = bytearray(
            serialize_artifact(
                DenoisedTraceArtifact(key="k", amplitudes=RNG.normal(size=(2, 4)))
            )
        )
        data[-1] ^= 0x01
        with pytest.raises(IntegrityError):
            payload_array_dtypes(bytes(data))


class TestUnknownTypes:
    def test_serialize_unknown_artifact_raises_typeerror(self):
        class Mystery(Artifact):
            pass

        with pytest.raises(TypeError, match="no serialization"):
            serialize_artifact(Mystery(key="k"))

    def test_deserialize_unknown_type_is_integrity_error(self):
        data = frame(pack({"type": "Mystery", "key": "k"}, {}))
        with pytest.raises(IntegrityError, match="unknown artifact type"):
            deserialize_artifact(data)
