"""Antenna-pair selection (paper Sec. III-F, Fig. 10, Fig. 21).

A receiver with ``p`` antennas offers ``p (p - 1) / 2`` antenna pairs, and
their phase-difference / amplitude-ratio stability differs: RF chains have
unequal noise and each pair sees slightly different multipath.  WiMi ranks
the pairs by a combined stability score and uses the best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.amplitude import AmplitudeProcessor
from repro.core.subcarrier import SubcarrierSelector
from repro.core.validation import validate_antenna_pair
from repro.csi.collector import CaptureSession
from repro.csi.model import CsiTrace
from repro.csi.quality import CorruptTraceError
from repro.dsp.stats import finite_mean


@dataclass(frozen=True)
class PairStability:
    """Stability diagnostics of one antenna pair (Fig. 10 data).

    Lower is better for both components and for the combined score.
    """

    pair: tuple[int, int]
    phase_variance: float
    ratio_variance: float

    @property
    def score(self) -> float:
        """Combined stability score (sum of the normalised variances)."""
        return self.phase_variance + self.ratio_variance

    @property
    def usable(self) -> bool:
        """Whether the score is meaningful (a dead chain scores NaN)."""
        return math.isfinite(self.score)


class AntennaPairSelector:
    """Ranks antenna pairs by phase/amplitude stability."""

    def __init__(
        self,
        selector: SubcarrierSelector | None = None,
        amplitude: AmplitudeProcessor | None = None,
    ):
        self.selector = selector if selector is not None else SubcarrierSelector()
        # Raw (undenoised) amplitudes: the selection must be cheap and is a
        # relative comparison, so the denoiser adds nothing here.
        self.amplitude = (
            amplitude if amplitude is not None else AmplitudeProcessor(denoise=False)
        )

    def all_pairs(
        self,
        trace: CsiTrace,
        exclude_antennas: Sequence[int] | None = None,
    ) -> list[tuple[int, int]]:
        """All unordered antenna pairs of a trace.

        ``exclude_antennas`` drops pairs touching quality-disqualified
        chains; raises :class:`~repro.csi.quality.CorruptTraceError`
        when no pair of live antennas remains.
        """
        n = trace.num_antennas
        if n < 2:
            raise ValueError(f"need >= 2 antennas, got {n}")
        banned = set(exclude_antennas or ())
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if i not in banned and j not in banned
        ]
        if not pairs:
            raise CorruptTraceError(
                f"no usable antenna pairs: {sorted(banned)} of {n} "
                f"antennas disqualified by quality gating"
            )
        return pairs

    def stability(
        self, session: CaptureSession, pair: tuple[int, int]
    ) -> PairStability:
        """Fig. 10 stability metrics of one pair, pooled over the session.

        NaN-aware: subcarriers whose score is NaN (dead channels) are
        excluded from the pooled means; a pair with no finite subcarrier
        at all scores NaN and is reported unusable.
        """
        validate_antenna_pair(pair, session.num_antennas)
        phase_var = float(
            finite_mean(
                self.selector.combined_variances(
                    session.baseline, session.target, pair
                )
            )
        )
        ratio_var = float(
            finite_mean(
                self.amplitude.ratio_variance_per_subcarrier(
                    session.baseline, pair
                )
            )
            + finite_mean(
                self.amplitude.ratio_variance_per_subcarrier(
                    session.target, pair
                )
            )
        )
        return PairStability(
            pair=pair, phase_variance=phase_var, ratio_variance=ratio_var
        )

    def rank(
        self,
        session: CaptureSession,
        exclude_antennas: Sequence[int] | None = None,
    ) -> list[PairStability]:
        """Usable pairs, most stable first.

        Pairs touching ``exclude_antennas`` and pairs whose stability
        score is non-finite are omitted; raises
        :class:`~repro.csi.quality.CorruptTraceError` when nothing
        usable remains.
        """
        stats = [
            self.stability(session, pair)
            for pair in self.all_pairs(session.baseline, exclude_antennas)
        ]
        usable = [s for s in stats if s.usable]
        if not usable:
            raise CorruptTraceError(
                f"no antenna pair with a finite stability score among "
                f"{[s.pair for s in stats]} (all candidate chains dead "
                f"or saturated)"
            )
        return sorted(usable, key=lambda s: s.score)
