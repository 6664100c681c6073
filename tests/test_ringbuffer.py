"""RowRingBuffer: the streaming path's zero-copy window arena.

Covers view semantics, copy-in on append, growth, errors, and the
allocation claim itself: assembling overlapping denoise windows out of
the arena allocates strictly less than ``np.stack`` over a row list.
"""

import tracemalloc

import numpy as np
import pytest

from repro.dsp.ringbuffer import RowRingBuffer

RNG = np.random.default_rng(7)


class TestRowRingBuffer:
    def test_append_and_window_views(self):
        buffer = RowRingBuffer(channels=4, capacity=2)
        rows = RNG.normal(size=(10, 4))
        for row in rows:
            buffer.append(row)
        assert len(buffer) == 10
        window = buffer.window(3, 8)
        assert window.flags.c_contiguous
        assert not window.flags.writeable
        assert np.array_equal(window, rows[3:8])
        assert np.array_equal(buffer.rows(), rows)

    def test_window_is_zero_copy(self):
        buffer = RowRingBuffer(channels=3, capacity=16)
        for row in RNG.normal(size=(8, 3)):
            buffer.append(row)
        view = buffer.window(2, 6)
        assert view.base is not None  # a view, not a fresh array

    def test_append_copies_the_row(self):
        buffer = RowRingBuffer(channels=3)
        row = np.ones(3)
        buffer.append(row)
        row[:] = 99.0  # caller may reuse its row afterwards
        assert np.array_equal(buffer.window(0, 1)[0], np.ones(3))

    def test_old_views_survive_growth(self):
        buffer = RowRingBuffer(channels=2, capacity=2)
        first = buffer.append(np.array([1.0, 2.0]))
        buffer.append(np.array([3.0, 4.0]))
        for k in range(20):  # force several grows
            buffer.append(np.array([float(k), 0.0]))
        assert np.array_equal(first, [1.0, 2.0])

    def test_shape_and_range_errors(self):
        buffer = RowRingBuffer(channels=3)
        with pytest.raises(ValueError, match="row shape"):
            buffer.append(np.zeros(4))
        buffer.append(np.zeros(3))
        with pytest.raises(IndexError, match="out of range"):
            buffer.window(0, 2)
        with pytest.raises(ValueError, match="channels"):
            RowRingBuffer(channels=0)


def _traced_peak(emit) -> int:
    tracemalloc.start()
    emit()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_window_assembly_allocates_less_than_row_list_stacking():
    """Overlapping windows (hop < window, as the streaming extractor
    runs them) are arena views: tracemalloc sees the list-of-arrays
    scheme peak at one stacked block per emission, the ring at almost
    nothing.  Ingest is identical in both schemes and happens before
    tracing starts."""
    rows = RNG.normal(size=(512, 90))
    window, hop = 16, 4
    kept = [np.array(row) for row in rows]
    buffer = RowRingBuffer(rows.shape[1])
    for row in rows:
        buffer.append(row)
    starts = range(0, len(kept) - window + 1, hop)

    def emit_list():
        for start in starts:
            np.stack(kept[start : start + window])

    def emit_ring():
        for start in starts:
            buffer.window(start, start + window)

    list_peak = _traced_peak(emit_list)
    ring_peak = _traced_peak(emit_ring)
    assert ring_peak < list_peak
    # One stacked float64 block is window * channels * 8 bytes; the
    # views cost a small constant, far under a single block.
    assert list_peak >= window * rows.shape[1] * 8
    assert ring_peak < window * rows.shape[1] * 8
