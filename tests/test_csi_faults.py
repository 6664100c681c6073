"""Tests for the seeded CSI fault injectors."""

import numpy as np
import pytest

from repro.csi.faults import (
    AgcClipping,
    AntennaDropout,
    DuplicatePackets,
    PacketLoss,
    PacketReorder,
    SubcarrierErasure,
    TimestampJitter,
    flip_bits,
    inject,
    inject_session,
    truncate_file,
)
from repro.csi.model import CsiPacket, CsiTrace


def make_trace(num_packets=20, num_sc=30, num_ant=3, seed=0):
    rng = np.random.default_rng(seed)
    packets = []
    for m in range(num_packets):
        csi = rng.normal(size=(num_sc, num_ant)) + 1j * rng.normal(
            size=(num_sc, num_ant)
        )
        packets.append(CsiPacket(csi=csi, timestamp_s=0.01 * m, sequence=m))
    return CsiTrace.from_packets(packets, label="synthetic")


@pytest.fixture()
def trace():
    return make_trace()


class TestDeterminism:
    FAULTS = (
        PacketLoss(0.3),
        PacketReorder(0.2),
        DuplicatePackets(0.2),
        AntennaDropout(),
        AgcClipping(0.3),
        SubcarrierErasure(0.2, scope="cells"),
        TimestampJitter(1e-3),
    )

    def test_same_seed_same_output(self, trace):
        a = inject(trace, self.FAULTS, seed=7)
        b = inject(trace, self.FAULTS, seed=7)
        assert len(a) == len(b)
        np.testing.assert_array_equal(a.matrix(), b.matrix())
        np.testing.assert_array_equal(a.timestamps(), b.timestamps())

    def test_different_seed_different_output(self, trace):
        a = inject(trace, (PacketLoss(0.5),), seed=1)
        b = inject(trace, (PacketLoss(0.5),), seed=2)
        assert [p.sequence for p in a] != [p.sequence for p in b]

    def test_seed_and_rng_mutually_exclusive(self, trace):
        with pytest.raises(ValueError, match="not both"):
            inject(
                trace, (PacketLoss(0.5),),
                seed=1, rng=np.random.default_rng(1),
            )

    def test_input_not_mutated(self, trace):
        before = trace.matrix().copy()
        sequences = [p.sequence for p in trace]
        inject(trace, self.FAULTS, seed=3)
        np.testing.assert_array_equal(trace.matrix(), before)
        assert [p.sequence for p in trace] == sequences


class TestPacketLoss:
    def test_drops_expected_share(self, trace):
        out = inject(trace, (PacketLoss(0.5),), seed=0)
        assert 2 <= len(out) < len(trace)

    def test_sequence_gaps_remain_visible(self, trace):
        out = inject(trace, (PacketLoss(0.5),), seed=0)
        kept = [p.sequence for p in out]
        assert kept == sorted(kept)
        assert max(kept) - min(kept) + 1 > len(kept)

    def test_min_keep_survives_total_loss(self, trace):
        out = inject(trace, (PacketLoss(1.0),), seed=0)
        assert len(out) == 2

    def test_rate_validated(self):
        with pytest.raises(ValueError, match="rate"):
            PacketLoss(1.5)


class TestAntennaDropout:
    def test_nan_mode_kills_chain(self, trace):
        out = inject(trace, (AntennaDropout(antenna=1, mode="nan"),), seed=0)
        matrix = out.matrix()
        assert np.isnan(matrix[:, :, 1]).all()
        assert np.isfinite(matrix[:, :, [0, 2]]).all()

    def test_zero_mode_is_finite_but_dead(self, trace):
        out = inject(trace, (AntennaDropout(antenna=2, mode="zero"),), seed=0)
        matrix = out.matrix()
        assert (matrix[:, :, 2] == 0).all()
        assert np.isfinite(matrix).all()

    def test_random_victim_in_range(self, trace):
        out = inject(trace, (AntennaDropout(),), seed=5)
        dead = np.flatnonzero(np.isnan(out.matrix()).all(axis=(0, 1)))
        assert len(dead) == 1

    def test_out_of_range_antenna_rejected(self, trace):
        with pytest.raises(ValueError, match="out of range"):
            inject(trace, (AntennaDropout(antenna=9),), seed=0)


class TestSubcarrierErasure:
    def test_column_scope_kills_whole_columns(self, trace):
        out = inject(
            trace, (SubcarrierErasure(0.2, scope="column"),), seed=0
        )
        matrix = out.matrix()
        column_dead = np.isnan(matrix).all(axis=(0, 2))
        assert column_dead.sum() == round(0.2 * trace.num_subcarriers)
        assert np.isfinite(matrix[:, ~column_dead, :]).all()

    def test_cells_scope_is_sporadic(self, trace):
        out = inject(
            trace, (SubcarrierErasure(0.1, scope="cells"),), seed=0
        )
        nan_fraction = np.isnan(out.matrix()).mean()
        assert 0.02 < nan_fraction < 0.25
        assert not np.isnan(out.matrix()).all(axis=(0, 2)).any()

    def test_zero_mode(self, trace):
        out = inject(
            trace,
            (SubcarrierErasure(0.2, mode="zero", scope="column"),),
            seed=0,
        )
        assert np.isfinite(out.matrix()).all()
        assert (np.abs(out.matrix()) < 1e-12).any()


class TestOtherInjectors:
    def test_reorder_preserves_multiset(self, trace):
        out = inject(trace, (PacketReorder(0.5),), seed=0)
        assert sorted(p.sequence for p in out) == [
            p.sequence for p in trace
        ]
        assert [p.sequence for p in out] != [p.sequence for p in trace]

    def test_duplicates_reuse_sequence_numbers(self, trace):
        out = inject(trace, (DuplicatePackets(0.5),), seed=0)
        sequences = [p.sequence for p in out]
        assert len(out) > len(trace)
        assert len(set(sequences)) == len(trace)

    def test_clipping_flattens_burst(self, trace):
        out = inject(trace, (AgcClipping(0.5, level=0.3),), seed=0)
        before = trace.matrix()
        after = out.matrix()
        assert after.shape == before.shape
        # Clipped packets lose their peaks; none gain amplitude.
        peaks_before = np.abs(before.real).max(axis=(1, 2))
        peaks_after = np.abs(after.real).max(axis=(1, 2))
        assert (peaks_after <= peaks_before + 1e-12).all()
        assert (peaks_after < peaks_before - 1e-12).any()

    def test_timestamp_jitter_moves_only_time(self, trace):
        out = inject(trace, (TimestampJitter(1e-3),), seed=0)
        np.testing.assert_array_equal(out.matrix(), trace.matrix())
        assert not np.array_equal(out.timestamps(), trace.timestamps())


class TestSessionInjection:
    def test_both_traces_hit_deterministically(self):
        from dataclasses import dataclass

        @dataclass
        class FakeSession:
            baseline: CsiTrace
            target: CsiTrace

        session = FakeSession(
            baseline=make_trace(seed=1), target=make_trace(seed=2)
        )
        faults = (PacketLoss(0.4),)
        a = inject_session(session, faults, seed=11)
        b = inject_session(session, faults, seed=11)
        assert len(a.baseline) < len(session.baseline)
        assert len(a.target) < len(session.target)
        assert [p.sequence for p in a.baseline] == [
            p.sequence for p in b.baseline
        ]
        assert [p.sequence for p in a.target] == [
            p.sequence for p in b.target
        ]


class TestFileFaults:
    def test_truncate_file(self, tmp_path):
        path = tmp_path / "log.wimi"
        path.write_bytes(bytes(100))
        assert truncate_file(path, keep_fraction=0.25) == 25
        assert len(path.read_bytes()) == 25

    def test_flip_bits_deterministic(self, tmp_path):
        original = bytes(range(64))
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        a.write_bytes(original)
        b.write_bytes(original)
        offsets_a = flip_bits(a, num_flips=4, seed=9)
        offsets_b = flip_bits(b, num_flips=4, seed=9)
        assert offsets_a == offsets_b
        assert a.read_bytes() == b.read_bytes() != original
