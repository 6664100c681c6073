"""Tests for trace quality assessment and gating."""

import numpy as np
import pytest

from repro.csi.faults import (
    AgcClipping,
    AntennaDropout,
    DuplicatePackets,
    PacketLoss,
    PacketReorder,
    SubcarrierErasure,
    inject,
)
from repro.csi.model import CsiPacket, CsiTrace
from repro.csi.quality import (
    _CLIPPED_COMPONENT_FRACTION,
    _LIVE_EPS,
    _RAIL_TOLERANCE,
    CorruptTraceError,
    DegradedTraceWarning,
    QualityThresholds,
    assess_session,
    _clipped_packet_count,
    assess_trace,
    gate_report,
    gate_session,
    gate_trace,
    validate_policy,
)
from tests.test_csi_faults import make_trace


def _oracle_clipped_packet_count(matrix):
    """The per-packet loop the vectorised clip count replaced."""
    if matrix.shape[0] == 0:
        return 0
    components = np.stack([np.abs(matrix.real), np.abs(matrix.imag)], axis=-1)
    components = np.where(np.isfinite(components), components, 0.0)
    rails = components.max(axis=(1, 2, 3))
    clipped = 0
    for m, rail in enumerate(rails):
        if rail <= _LIVE_EPS:
            continue
        at_rail = components[m] >= _RAIL_TOLERANCE * rail
        if at_rail.mean() >= _CLIPPED_COMPONENT_FRACTION:
            clipped += 1
    return clipped


@pytest.fixture()
def trace():
    return make_trace()


class TestAssessClean:
    def test_clean_trace_is_clean(self, trace):
        report = assess_trace(trace)
        assert report.is_clean
        assert not report.is_corrupt and not report.is_degraded
        assert report.finite_fraction == 1.0
        assert report.loss_rate == 0.0
        assert report.dead_antennas == ()
        assert report.bad_subcarriers == ()
        assert report.live_antennas == (0, 1, 2)
        assert len(report.live_subcarriers) == trace.num_subcarriers

    def test_shapes(self, trace):
        report = assess_trace(trace)
        assert report.antenna_live_fraction.shape == (3,)
        assert report.subcarrier_live_fraction.shape == (30,)
        assert report.num_packets == len(trace)

    def test_assessment_never_raises(self, trace):
        degraded = inject(
            trace,
            (AntennaDropout(antenna=0), SubcarrierErasure(0.9)),
            seed=0,
        )
        report = assess_trace(degraded)  # measurement only, no gate
        assert report.is_corrupt

    def test_empty_trace_is_corrupt(self):
        report = assess_trace(CsiTrace(packets=[]))
        assert report.num_packets == 0
        assert report.is_corrupt

    def test_to_dict_round_trips_to_json(self, trace):
        import json

        payload = assess_trace(trace).to_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestAssessFaults:
    def test_packet_loss_measured_from_sequence_gaps(self, trace):
        lossy = inject(trace, (PacketLoss(0.4),), seed=0)
        report = assess_trace(lossy)
        expected_gaps = (
            max(p.sequence for p in lossy)
            - min(p.sequence for p in lossy)
            + 1
            - len(lossy)
        )
        assert report.sequence_gaps == expected_gaps
        assert report.loss_rate > 0
        assert report.is_degraded and not report.is_corrupt

    def test_dead_antenna_detected_nan(self, trace):
        report = assess_trace(
            inject(trace, (AntennaDropout(antenna=1, mode="nan"),), seed=0)
        )
        assert report.dead_antennas == (1,)
        assert report.live_antennas == (0, 2)

    def test_dead_antenna_detected_zero(self, trace):
        # A zeroed chain is finite but must still be disqualified.
        report = assess_trace(
            inject(trace, (AntennaDropout(antenna=2, mode="zero"),), seed=0)
        )
        assert report.dead_antennas == (2,)
        assert report.finite_fraction == 1.0

    def test_dead_antenna_does_not_condemn_subcarriers(self, trace):
        # Per-subcarrier fractions are measured over live antennas only:
        # one dead chain of three must not read as a whole-band failure.
        report = assess_trace(
            inject(trace, (AntennaDropout(antenna=0, mode="nan"),), seed=0)
        )
        assert report.bad_subcarriers == ()
        assert len(report.live_subcarriers) == 30

    def test_bad_subcarriers_detected(self, trace):
        report = assess_trace(
            inject(trace, (SubcarrierErasure(0.2, scope="column"),), seed=0)
        )
        assert len(report.bad_subcarriers) == 6
        assert report.dead_antennas == ()

    def test_duplicates_and_reordering_counted(self, trace):
        report = assess_trace(
            inject(
                trace,
                (DuplicatePackets(0.3), PacketReorder(0.3)),
                seed=0,
            )
        )
        assert report.duplicate_packets > 0
        assert report.reordered_packets > 0

    def test_agc_clipping_detected(self, trace):
        clipped = inject(trace, (AgcClipping(1.0, level=0.2),), seed=0)
        report = assess_trace(clipped)
        assert report.clipped_packets > 0
        assert report.clipping_rate > 0.5
        assert "AGC" in "; ".join(report.hard_failures)

    def test_clean_trace_not_flagged_as_clipped(self, trace):
        assert assess_trace(trace).clipped_packets == 0


class TestClippedPacketCountOracle:
    """The whole-array clip count equals the per-packet loop exactly."""

    @staticmethod
    def _assert_matches_oracle(matrix):
        count = _clipped_packet_count(matrix)
        assert isinstance(count, int)
        assert count == _oracle_clipped_packet_count(matrix)
        return count

    def test_clean_traces(self):
        for seed in range(3):
            matrix = make_trace(num_packets=50, seed=seed).matrix()
            assert self._assert_matches_oracle(matrix) == 0

    @pytest.mark.parametrize("level", [0.05, 0.2, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("fraction", [0.3, 1.0])
    def test_agc_clipping_levels(self, trace, level, fraction):
        clipped = inject(trace, (AgcClipping(fraction, level=level),), seed=1)
        self._assert_matches_oracle(clipped.matrix())

    def test_counts_span_the_threshold(self, trace):
        counts = {
            self._assert_matches_oracle(
                inject(trace, (AgcClipping(0.5, level=level),), seed=2)
                .matrix()
            )
            for level in (0.1, 0.6, 0.95)
        }
        assert 0 in counts and max(counts) > 0

    def test_non_finite_entries(self, trace):
        matrix = inject(
            trace,
            (AgcClipping(0.5, level=0.2),
             SubcarrierErasure(0.3, scope="cells")),
            seed=3,
        ).matrix().copy()
        matrix[2] = np.nan                 # a fully non-finite packet
        matrix[5, 0, 0] = np.inf
        matrix[6, 1, 1] = complex(np.nan, 1.0)
        assert not np.isfinite(matrix).all()
        self._assert_matches_oracle(matrix)

    def test_all_zero_packets_are_skipped(self, trace):
        matrix = inject(trace, (AgcClipping(1.0, level=0.2),), seed=0)
        matrix = matrix.matrix().copy()
        matrix[[0, 3, 7]] = 0.0            # rail <= _LIVE_EPS
        matrix[4] = 1e-14
        count = self._assert_matches_oracle(matrix)
        assert count == len(matrix) - 4

    def test_empty_matrix(self):
        empty = np.zeros((0, 30, 3), dtype=complex)
        assert self._assert_matches_oracle(empty) == 0


class TestThresholds:
    def test_defaults_validated(self):
        with pytest.raises(ValueError, match="min_packets"):
            QualityThresholds(min_packets=0)
        with pytest.raises(ValueError, match="max_loss_rate"):
            QualityThresholds(max_loss_rate=1.5)
        with pytest.raises(ValueError, match="min_live_antennas"):
            QualityThresholds(min_live_antennas=0)

    def test_with_overrides(self):
        strict = QualityThresholds().with_overrides(max_loss_rate=0.1)
        assert strict.max_loss_rate == 0.1
        assert strict.min_packets == QualityThresholds().min_packets

    def test_thresholds_drive_qualification(self, trace):
        lossy = inject(trace, (PacketLoss(0.4),), seed=0)
        lax = assess_trace(lossy, QualityThresholds(max_loss_rate=0.99))
        strict = assess_trace(lossy, QualityThresholds(max_loss_rate=0.01))
        assert not lax.is_corrupt
        assert strict.is_corrupt

    def test_min_live_antennas_hard_gate(self, trace):
        two_dead = inject(
            trace,
            (
                AntennaDropout(antenna=0, mode="nan"),
                AntennaDropout(antenna=1, mode="zero"),
            ),
            seed=0,
        )
        report = assess_trace(two_dead)
        assert report.is_corrupt
        assert any("live antennas" in f for f in report.hard_failures)


class TestGating:
    def test_policy_validation(self):
        assert validate_policy("degrade") == "degrade"
        with pytest.raises(ValueError, match="policy"):
            validate_policy("panic")

    def test_clean_trace_passes_silently(self, trace):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = gate_trace(trace, policy="degrade")
        assert report.is_clean

    def test_degrade_policy_warns(self, trace):
        lossy = inject(trace, (PacketLoss(0.3),), seed=0)
        with pytest.warns(DegradedTraceWarning, match="lost packet"):
            gate_trace(lossy, policy="degrade")

    def test_raise_policy_rejects_degradation(self, trace):
        lossy = inject(trace, (PacketLoss(0.3),), seed=0)
        with pytest.raises(CorruptTraceError, match="policy 'raise'"):
            gate_trace(lossy, policy="raise")

    def test_skip_policy_is_silent(self, trace):
        import warnings

        broken = inject(trace, (SubcarrierErasure(0.9),), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = gate_trace(broken, policy="skip")
        assert report.is_corrupt  # measured, but not enforced

    def test_hard_failure_raises_under_degrade(self, trace):
        broken = inject(trace, (SubcarrierErasure(0.95),), seed=0)
        with pytest.raises(CorruptTraceError, match="rejected by quality gate"):
            gate_trace(broken, policy="degrade", label="bench capture")

    def test_error_message_carries_label(self, trace):
        broken = inject(trace, (SubcarrierErasure(0.95),), seed=0)
        with pytest.raises(CorruptTraceError, match="bench capture"):
            gate_trace(broken, policy="degrade", label="bench capture")


class TestSessionReports:
    def make_session(self, baseline_faults=(), target_faults=()):
        from dataclasses import dataclass

        @dataclass
        class FakeSession:
            baseline: CsiTrace
            target: CsiTrace

        return FakeSession(
            baseline=inject(make_trace(seed=1), baseline_faults, seed=5),
            target=inject(make_trace(seed=2), target_faults, seed=5),
        )

    def test_union_of_channel_failures(self):
        session = self.make_session(
            baseline_faults=(AntennaDropout(antenna=0),),
            target_faults=(AntennaDropout(antenna=2),),
        )
        report = assess_session(session)
        assert report.dead_antennas == (0, 2)
        assert report.is_degraded and not report.is_corrupt

    def test_issues_name_the_afflicted_trace(self):
        session = self.make_session(
            target_faults=(AntennaDropout(antenna=1),)
        )
        report = assess_session(session)
        assert any(issue.startswith("target:") for issue in report.issues)
        assert not any(
            issue.startswith("baseline:") for issue in report.issues
        )

    def test_gate_session_raises_on_either_trace(self):
        session = self.make_session(
            baseline_faults=(SubcarrierErasure(0.95),)
        )
        with pytest.raises(CorruptTraceError):
            gate_session(session)

    def test_gate_report_accepts_session_reports(self):
        session = self.make_session(
            target_faults=(PacketLoss(0.3),)
        )
        report = assess_session(session)
        with pytest.warns(DegradedTraceWarning):
            gate_report(report, policy="degrade", label="session")
