"""Preallocated row-buffer batch assembly for the streaming hot path.

Before this module the streaming trace state kept every raw amplitude
row as its own small array in a Python list and re-assembled each
denoise window with ``np.stack`` -- one fresh ``(window, channels)``
allocation plus ``window`` row copies per emitted window, forever.
:class:`RowRingBuffer` replaces that with one contiguous, preallocated
2-D arena that grows geometrically: appending copies the row once into
the arena, and a window is a **zero-copy view** ``buffer[start:stop]``
(C-contiguous, because the slice runs along the leading axis).

Ownership rules (see DESIGN.md §14):

* The buffer owns its storage; ``append`` copies the caller's row in,
  so the caller may reuse/mutate its row afterwards.
* Views handed out by :meth:`window`/:meth:`rows` are **read-only** and
  remain valid forever: rows are append-only (committed rows are never
  rewritten) and a capacity grow allocates a new arena, leaving old
  views attached to the old one.
* Consumers must not hold a view across process boundaries; hash or
  copy it (``np.array(view)``) if it must outlive this process.
"""

from __future__ import annotations

import numpy as np

#: Initial row capacity of a fresh buffer.
_INITIAL_CAPACITY = 16


class RowRingBuffer:
    """Append-only contiguous ``(rows, channels)`` arena with view reads.

    Args:
        channels: Row width (fixed for the buffer's lifetime).
        capacity: Initial preallocated row count; grows by doubling.
    """

    def __init__(
        self,
        channels: int,
        capacity: int = _INITIAL_CAPACITY,
    ):
        if channels < 1:
            raise ValueError(f"channels must be >= 1, got {channels}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._buffer = np.empty((capacity, channels))
        self._length = 0

    @property
    def channels(self) -> int:
        """Row width."""
        return self._buffer.shape[1]

    @property
    def capacity(self) -> int:
        """Currently allocated row slots."""
        return self._buffer.shape[0]

    def __len__(self) -> int:
        return self._length

    def append(self, row: np.ndarray) -> np.ndarray:
        """Copy one row in; returns a read-only view of the stored row."""
        row = np.asarray(row)
        if row.shape != (self.channels,):
            raise ValueError(
                f"row shape {row.shape} does not match ({self.channels},)"
            )
        if self._length == self.capacity:
            self._grow(2 * self.capacity)
        self._buffer[self._length] = row
        stored = self._buffer[self._length]
        stored.setflags(write=False)
        self._length += 1
        return stored

    def _grow(self, capacity: int) -> None:
        old = self._buffer
        self._buffer = np.empty((capacity, old.shape[1]))
        self._buffer[: self._length] = old[: self._length]

    def window(self, start: int, stop: int) -> np.ndarray:
        """Zero-copy read-only view of rows ``[start, stop)``.

        The view is C-contiguous (leading-axis slice of a C-ordered
        arena), so content hashing and BLAS consumers see one straight
        memory run -- no ``np.stack`` re-assembly.
        """
        if not 0 <= start <= stop <= self._length:
            raise IndexError(
                f"window [{start}, {stop}) out of range for "
                f"{self._length} rows"
            )
        view = self._buffer[start:stop]
        view.setflags(write=False)
        return view

    def rows(self) -> np.ndarray:
        """Read-only view of every committed row."""
        return self.window(0, self._length)
