"""Tests for the CSI data containers."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.channel.materials import default_catalog
from repro.csi.collector import DataCollector, SessionConfig
from repro.csi.faults import (
    AgcClipping,
    DuplicatePackets,
    PacketLoss,
    PacketReorder,
    SubcarrierErasure,
    TimestampJitter,
    inject,
)
from repro.csi.io import load_session, load_trace, save_session, save_trace
from repro.csi.model import CsiPacket, CsiTrace
from repro.engine.artifacts import session_fingerprint, trace_fingerprint
from repro.experiments.datasets import standard_scene


def _matrix(m=4, k=30, a=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, k, a)) + 1j * rng.standard_normal((m, k, a))


class TestCsiPacket:
    def test_shape_accessors(self):
        p = CsiPacket(csi=_matrix()[0])
        assert p.num_subcarriers == 30
        assert p.num_antennas == 3

    def test_amplitude_phase(self):
        p = CsiPacket(csi=np.full((2, 2), 3.0 + 4.0j))
        np.testing.assert_allclose(p.amplitude(), 5.0)
        np.testing.assert_allclose(p.phase(), np.arctan2(4.0, 3.0))

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            CsiPacket(csi=np.zeros(4, dtype=complex))

    def test_rejects_real(self):
        with pytest.raises(TypeError, match="complex"):
            CsiPacket(csi=np.zeros((2, 2)))


class TestCsiTrace:
    def test_matrix_roundtrip(self):
        m = _matrix()
        trace = CsiTrace.from_matrix(m)
        np.testing.assert_allclose(trace.matrix(), m)

    def test_lengths_and_indexing(self):
        trace = CsiTrace.from_matrix(_matrix(m=5))
        assert len(trace) == 5
        assert trace[2].sequence == 2
        assert trace.num_subcarriers == 30
        assert trace.num_antennas == 3

    def test_timestamps_spacing(self):
        trace = CsiTrace.from_matrix(_matrix(m=3), packet_interval_s=0.01)
        np.testing.assert_allclose(trace.timestamps(), [0.0, 0.01, 0.02])

    def test_subset(self):
        trace = CsiTrace.from_matrix(_matrix(m=6))
        sub = trace.subset(2)
        assert len(sub) == 2
        assert sub.carrier_hz == trace.carrier_hz

    def test_subset_negative_rejected(self):
        with pytest.raises(ValueError, match="num_packets"):
            CsiTrace.from_matrix(_matrix()).subset(-1)

    def test_empty_trace(self):
        trace = CsiTrace()
        assert len(trace) == 0
        assert trace.num_subcarriers == 0
        assert trace.matrix().shape == (0, 0, 0)

    def test_inconsistent_packets_rejected(self):
        p1 = CsiPacket(csi=np.zeros((3, 2), dtype=complex))
        p2 = CsiPacket(csi=np.zeros((4, 2), dtype=complex))
        with pytest.raises(ValueError, match="inconsistent"):
            CsiTrace.from_packets([p1, p2])

    def test_from_matrix_rejects_2d(self):
        with pytest.raises(ValueError, match="3-D"):
            CsiTrace.from_matrix(np.zeros((3, 2), dtype=complex))

    def test_amplitudes_phases_shapes(self):
        trace = CsiTrace.from_matrix(_matrix())
        assert trace.amplitudes().shape == (4, 30, 3)
        assert trace.phases().shape == (4, 30, 3)


def _trace(m=12, seed=0):
    """A trace with non-trivial timestamps and sequence numbers."""
    rng = np.random.default_rng(seed)
    return CsiTrace(
        csi=_matrix(m=m, seed=seed),
        timestamps_s=np.sort(rng.uniform(0.0, 1.0, m)),
        sequences=np.arange(100, 100 + m),
        label="t",
    )


class TestReadOnlyStorage:
    def test_every_array_rejects_writes(self):
        trace = _trace()
        for array in (trace.matrix(), trace.timestamps(), trace.sequences):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            trace.packets[0].csi[:] = 0
        with pytest.raises(ValueError, match="read-only"):
            trace[3].csi[0, 0] = 0

    def test_fingerprint_cannot_go_stale(self):
        trace = _trace()
        pinned = trace_fingerprint(trace)
        with pytest.raises(ValueError, match="read-only"):
            trace.packets[0].csi[:] = 0
        with pytest.raises(AttributeError):
            trace.csi = np.zeros_like(trace.csi)
        assert trace_fingerprint(trace) == pinned
        same = CsiTrace.from_matrix(trace.matrix())
        assert trace_fingerprint(same) == pinned

    def test_matrix_is_the_stored_array(self):
        trace = _trace()
        assert trace.matrix() is trace.matrix()
        assert trace.matrix().flags.c_contiguous
        assert trace.matrix().dtype == np.complex128

    def test_from_matrix_takes_its_input_without_a_copy(self):
        matrix = _matrix()
        trace = CsiTrace.from_matrix(matrix)
        assert np.shares_memory(trace.matrix(), matrix)
        assert trace.sequences.tolist() == [0, 1, 2, 3]

    def test_packets_and_slices_are_views(self):
        trace = _trace()
        assert np.shares_memory(trace[2].csi, trace.matrix())
        assert np.shares_memory(trace.subset(5).matrix(), trace.matrix())
        window = trace.select(slice(3, 7))
        assert np.shares_memory(window.matrix(), trace.matrix())
        assert window.sequences.tolist() == [103, 104, 105, 106]
        assert [p.sequence for p in window] == [103, 104, 105, 106]

    def test_index_selection_copies_rows_in_order(self):
        trace = _trace()
        picked = trace.select(np.array([4, 1, 1]))
        assert picked.sequences.tolist() == [104, 101, 101]
        np.testing.assert_array_equal(
            picked.matrix(), trace.matrix()[[4, 1, 1]]
        )
        assert not picked.matrix().flags.writeable

    def test_from_packets_round_trips(self):
        trace = _trace()
        again = CsiTrace.from_packets(trace.packets, label=trace.label)
        np.testing.assert_array_equal(again.matrix(), trace.matrix())
        np.testing.assert_array_equal(again.timestamps(), trace.timestamps())
        np.testing.assert_array_equal(again.sequences, trace.sequences)

    def test_bookkeeping_length_must_match(self):
        with pytest.raises(ValueError, match="timestamps"):
            CsiTrace(csi=_matrix(m=3), timestamps_s=np.zeros(2),
                     sequences=np.arange(3))

    def test_pickle_keeps_it_read_only(self):
        trace = _trace()
        pinned = trace_fingerprint(trace)
        loaded = pickle.loads(pickle.dumps(trace))
        assert not loaded.matrix().flags.writeable
        assert not loaded.timestamps().flags.writeable
        assert not loaded.sequences.flags.writeable
        assert trace_fingerprint(loaded) == pinned
        np.testing.assert_array_equal(loaded.sequences, trace.sequences)
        assert (loaded.carrier_hz, loaded.label) == (trace.carrier_hz, "t")

    def test_io_round_trips_keep_it_read_only(self, tmp_path):
        session = DataCollector(standard_scene("lab"), rng=0).collect(
            default_catalog().get("milk"), SessionConfig(num_packets=6)
        )
        save_session(session, tmp_path / "s.npz")
        loaded = load_session(tmp_path / "s.npz")
        assert session_fingerprint(loaded) == session_fingerprint(session)
        save_trace(session.target, tmp_path / "t.wimi")
        for trace in (loaded.baseline, loaded.target,
                      load_trace(tmp_path / "t.wimi")):
            assert not trace.matrix().flags.writeable
            assert not trace.timestamps().flags.writeable


# ----------------------------------------------------------------------
# Fault injectors against the per-packet code they replaced
# ----------------------------------------------------------------------


def _as_packets(trace):
    return [(p.csi.copy(), p.timestamp_s, p.sequence) for p in trace]


def _old_loss(packets, rate, rng, min_keep=2):
    n = len(packets)
    keep = rng.random(n) >= rate
    if keep.sum() < min(min_keep, n):
        forced = rng.choice(n, size=min(min_keep, n), replace=False)
        keep[forced] = True
    return [packets[m] for m in range(n) if keep[m]]


def _old_reorder(packets, fraction, rng):
    packets = list(packets)
    n = len(packets)
    num_swaps = int(round(fraction * max(n - 1, 0)))
    if num_swaps > 0:
        positions = rng.choice(n - 1, size=num_swaps, replace=False)
        for pos in positions:
            packets[pos], packets[pos + 1] = packets[pos + 1], packets[pos]
    return packets


def _old_duplicate(packets, rate, rng):
    duplicated = rng.random(len(packets)) < rate
    out = []
    for m, packet in enumerate(packets):
        out.append(packet)
        if duplicated[m]:
            out.append(packet)
    return out


def _old_jitter(packets, std_s, rng):
    offsets = rng.normal(0.0, std_s, size=len(packets))
    return [
        (csi, float(t + offsets[m]), s)
        for m, (csi, t, s) in enumerate(packets)
    ]


def _old_clipping(packets, fraction, level, rng):
    n = len(packets)
    burst = int(round(fraction * n))
    if burst == 0 or n == 0:
        return packets
    start = int(rng.integers(max(n - burst, 0) + 1))
    out = list(packets)
    for m in range(start, start + burst):
        csi, t, s = out[m]
        components = np.stack([np.abs(csi.real), np.abs(csi.imag)])
        finite = np.isfinite(components)
        if not finite.any():
            continue
        rail = level * float(np.where(finite, components, 0.0).max())
        if rail <= 0.0:
            continue
        clipped = np.clip(csi.real, -rail, rail) + 1j * np.clip(
            csi.imag, -rail, rail
        )
        out[m] = (clipped, t, s)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "injector, oracle",
    [
        (PacketLoss(0.4), lambda p, rng: _old_loss(p, 0.4, rng)),
        (PacketLoss(1.0), lambda p, rng: _old_loss(p, 1.0, rng)),
        (PacketReorder(0.5), lambda p, rng: _old_reorder(p, 0.5, rng)),
        (DuplicatePackets(0.3), lambda p, rng: _old_duplicate(p, 0.3, rng)),
        (TimestampJitter(2e-3), lambda p, rng: _old_jitter(p, 2e-3, rng)),
        (
            AgcClipping(0.5, level=0.3),
            lambda p, rng: _old_clipping(p, 0.5, 0.3, rng),
        ),
    ],
    ids=["loss", "loss_all", "reorder", "duplicate", "jitter", "clipping"],
)
def test_faults_match_the_per_packet_code(injector, oracle, seed):
    base = inject(
        _trace(m=20, seed=seed), (SubcarrierErasure(0.1, scope="cells"),),
        seed=seed,
    )
    matrix = base.matrix().copy()
    matrix[seed] = np.nan  # a whole non-finite packet
    trace = replace(base, csi=matrix)

    got = injector.apply(trace, np.random.default_rng(seed))
    want = oracle(_as_packets(trace), np.random.default_rng(seed))
    assert got.sequences.tolist() == [s for _, _, s in want]
    assert got.timestamps().tolist() == [t for _, t, _ in want]
    np.testing.assert_array_equal(
        got.matrix(), np.stack([csi for csi, _, _ in want])
    )
