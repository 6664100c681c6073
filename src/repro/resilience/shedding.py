"""Adaptive load shedding at admission edges.

The shedder reads queue depth relative to capacity as *pressure* and
compares it against a per-priority threshold: low-priority work sheds
first, the lower its priority the earlier, while normal and protected
work (priority >= 0) is never shed on depth -- a full queue already
has its own typed rejection.  Shed requests get a typed
``OverloadError`` immediately instead of sitting in the queue until
their deadline lapses -- failing fast is the whole point: the caller
learns *overload* (retryable elsewhere/later), not *timeout*
(ambiguous).
"""

from __future__ import annotations

#: Shed threshold of priority-0 work.
BASE_PRESSURE = 1.0
#: Threshold shift per priority unit: priority -1 sheds this much earlier.
PRIORITY_STEP = 0.15
#: Lower bound on any shed threshold, so deeply negative priorities
#: still get service on an idle system.
FLOOR_PRESSURE = 0.25


class LoadShedder:
    """Priority-aware queue-depth admission controller.

    Args:
        capacity: Queue capacity the depth signal is normalized by.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity

    def pressure(self, depth: int) -> float:
        """Queue depth as a fraction of capacity."""
        return max(0, depth) / self.capacity

    def threshold(self, priority: int = 0) -> float:
        """Shed threshold for ``priority`` (higher priority sheds later)."""
        return max(FLOOR_PRESSURE, BASE_PRESSURE + priority * PRIORITY_STEP)

    def admit(self, depth: int, priority: int = 0) -> bool:
        """Whether a request at ``priority`` should be admitted now.

        A threshold at or above 1.0 (priority >= 0) never sheds: depth
        saturation already has its own typed rejection (queue-full) at
        the bounded queue itself.  Lower thresholds shed on depth,
        before the queue hard-fills.
        """
        threshold = self.threshold(priority)
        return threshold >= 1.0 or self.pressure(depth) < threshold
