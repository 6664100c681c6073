"""Good-subcarrier selection (paper Eq. 7, Fig. 6).

Different subcarriers of a 20 MHz channel are affected differently by
multipath (frequency-selective fading).  At subcarriers where reflections
are relatively weak, the inter-antenna phase difference barely moves across
packets; where reflections are strong, temporal fading makes it wander.
The paper therefore ranks subcarriers by the variance of the
phase-difference series across ``M`` packets (Eq. 7) and keeps the ``P``
most stable ("good") ones.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.csi.model import CsiTrace
from repro.csi.quality import CorruptTraceError
from repro.csi.subcarriers import validate_subcarrier_selection
from repro.dsp.stats import phase_difference_variance_axis
from repro.core.phase import PhaseCalibrator


def _usable_order(
    scores: np.ndarray, exclude: Sequence[int] | None
) -> list[int]:
    """Subcarrier positions by ascending score, minus excluded and
    non-finite (dead-channel) entries; raises when nothing survives."""
    scores = np.asarray(scores, dtype=float)
    banned = set(int(k) for k in exclude) if exclude else set()
    order = [
        int(k)
        for k in np.argsort(scores, kind="stable")
        if k not in banned and np.isfinite(scores[k])
    ]
    if not order:
        raise CorruptTraceError(
            f"no usable subcarriers remain out of {scores.size} "
            f"({len(banned)} excluded by quality gating, the rest "
            f"scored non-finite)"
        )
    return order


class SubcarrierSelector:
    """Ranks report subcarriers by phase-difference stability."""

    def __init__(self, calibrator: PhaseCalibrator | None = None):
        self.calibrator = calibrator if calibrator is not None else PhaseCalibrator()

    def variances(
        self, trace: CsiTrace, pair: tuple[int, int]
    ) -> np.ndarray:
        """Eq. 7 per-subcarrier variance of the phase-difference series.

        Returns shape ``(K,)``; the Fig. 6 curve.  NaN-aware: degraded
        packets are excluded per subcarrier (identical result on clean
        traces) and a subcarrier with no finite reading scores NaN,
        which the selection methods filter out.
        """
        diffs = self.calibrator.phase_difference(trace, pair)
        if diffs.shape[0] < 2:
            raise ValueError(
                "need at least 2 packets to estimate variance, got "
                f"{diffs.shape[0]}"
            )
        return phase_difference_variance_axis(diffs, axis=0)

    def combined_variances(
        self,
        baseline: CsiTrace,
        target: CsiTrace,
        pair: tuple[int, int],
    ) -> np.ndarray:
        """Variance pooled over the session's two traces.

        A subcarrier is only useful if it is stable both before and after
        the liquid is poured, so the selection score sums both variances.
        """
        return self.variances(baseline, pair) + self.variances(target, pair)

    def select(
        self,
        baseline: CsiTrace,
        target: CsiTrace,
        pair: tuple[int, int],
        count: int = 4,
        exclude: Sequence[int] | None = None,
    ) -> list[int]:
        """Positions of the ``count`` most stable subcarriers (ascending
        variance order).

        ``exclude`` removes quality-disqualified subcarriers from the
        candidate set; non-finite scores (fully dead channels) are
        dropped automatically.  Raises
        :class:`~repro.csi.quality.CorruptTraceError` when no usable
        subcarrier remains.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        scores = self.combined_variances(baseline, target, pair)
        usable = _usable_order(scores, exclude)
        best = usable[: min(count, len(usable))]
        return validate_subcarrier_selection(sorted(best), scores.size)

    def pooled_variances(
        self,
        sessions,
        pair: tuple[int, int],
    ) -> np.ndarray:
        """Eq. 7 variances summed over sessions, shape ``(K,)``.

        The shared scoring behind :meth:`rank_pooled` /
        :meth:`select_pooled`; also what the stage-graph engine's
        ``subcarrier_selection`` stage memoizes.  A session that scores
        every subcarrier of ``pair`` non-finite (a dead chain) is left out
        of the pool, which it would otherwise void; raises
        :class:`~repro.csi.quality.CorruptTraceError` when no session is
        left.
        """
        if not sessions:
            raise ValueError("need at least one session to pool over")
        total: np.ndarray | None = None
        for session in sessions:
            scores = self.combined_variances(
                session.baseline, session.target, pair
            )
            if not np.isfinite(scores).any():
                continue
            total = scores if total is None else total + scores
        if total is None:
            raise CorruptTraceError(
                f"all {len(sessions)} sessions score antenna pair {pair} "
                f"non-finite on every subcarrier (dead chain)"
            )
        return total

    def rank_pooled(
        self,
        sessions,
        pair: tuple[int, int],
        exclude: Sequence[int] | None = None,
    ) -> list[int]:
        """Usable subcarrier positions ordered best (lowest variance) first.

        Pools Eq. 7 variances over ``sessions`` like :meth:`select_pooled`
        but returns the complete ranking instead of the top few.
        Excluded and non-finite-scoring subcarriers are omitted.
        """
        total = self.pooled_variances(sessions, pair)
        return _usable_order(total, exclude)

    def select_pooled(
        self,
        sessions,
        pair: tuple[int, int],
        count: int = 4,
        exclude: Sequence[int] | None = None,
    ) -> list[int]:
        """Deployment-level selection: pool Eq. 7 variances over sessions.

        The paper selects good subcarriers once per deployment (Fig. 6
        names subcarriers 5, 20, 23, 24) and reuses them; pooling the
        variance scores over the calibration sessions reproduces that.
        ``sessions`` is a list of :class:`repro.csi.collector.CaptureSession`.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        total = self.pooled_variances(sessions, pair)
        usable = _usable_order(total, exclude)
        best = usable[: min(count, len(usable))]
        return validate_subcarrier_selection(sorted(best), total.size)
