"""Amplitude Denoising Module (paper Sec. III-C).

Three stages, mirroring the paper:

1. **Outlier rejection** -- amplitudes outside ``mu +/- 3 sigma`` are
   dropped (replaced by the surviving median).
2. **Impulse-noise removal** -- the spatially-selective wavelet filter of
   Eq. 8-13 (see :mod:`repro.dsp.wavelet_denoise`), applied to each
   (subcarrier, antenna) amplitude time series.
3. **Amplitude ratio** -- close-by antennas see near-identical multipath
   and share the hardware gain, so the *ratio* of their amplitudes is far
   more stable than either amplitude alone (Fig. 8); the ratio is what
   feeds the material feature.
"""

from __future__ import annotations

import numpy as np

from repro.core.validation import validate_antenna, validate_antenna_pair
from repro.csi.model import CsiTrace
from repro.dsp.stats import finite_mean, finite_median
from repro.dsp.wavelet_denoise import SpatiallySelectiveDenoiser

#: Amplitudes below this are clamped before ratios/logs (quantisation can
#: produce exact zeros).
_AMPLITUDE_EPS = 1e-9


class AmplitudeProcessor:
    """Denoises CSI amplitudes and forms inter-antenna ratios."""

    def __init__(self, denoise: bool = True):
        self.denoiser = SpatiallySelectiveDenoiser()
        self.denoise = denoise

    # ------------------------------------------------------------------

    def clean_amplitudes(self, trace: CsiTrace) -> np.ndarray:
        """Denoised ``|H|`` series, shape ``(M, K, A)``.

        With ``denoise=False`` the raw amplitudes are returned (the
        Fig. 14 ablation).  Uncached: the stage-graph engine's
        ``amplitude_denoise`` stage memoizes it in its
        :class:`repro.engine.cache.StageCache`, keyed by the trace's
        content hash.
        """
        amps = trace.amplitudes()
        if amps.size == 0:
            raise ValueError("empty trace")
        if not self.denoise:
            return np.clip(amps, _AMPLITUDE_EPS, None)
        num_packets, num_sc, num_ant = amps.shape
        # One batched denoiser pass over all (subcarrier, antenna)
        # columns at once: (M, K, A) -> (M, K*A) -> denoise -> back.
        columns = amps.reshape(num_packets, num_sc * num_ant)
        # The wavelet convolution would smear a single NaN over the whole
        # series; impute degraded samples with the series' finite median
        # first.  A fully dead series has no median to impute from -- it
        # is denoised as zeros and restored to NaN afterwards, so the
        # quality-driven channel exclusion (not silent garbage) decides
        # its fate.
        finite = np.isfinite(columns)
        dead_columns = None
        if not finite.all():
            medians = finite_median(columns, axis=0)
            fill = np.where(np.isfinite(medians), medians, 0.0)
            columns = np.where(finite, columns, fill[None, :])
            dead = ~finite.any(axis=0)
            if dead.any():
                dead_columns = dead
        cleaned = self.denoiser.denoise(columns)
        if dead_columns is not None:
            cleaned = np.where(dead_columns[None, :], np.nan, cleaned)
        cleaned = cleaned.reshape(num_packets, num_sc, num_ant)
        return np.clip(cleaned, _AMPLITUDE_EPS, None)

    def amplitude_ratio(
        self, trace: CsiTrace, pair: tuple[int, int]
    ) -> np.ndarray:
        """Per-packet inter-antenna amplitude ratio, shape ``(M, K)``."""
        i, j = self._check_pair(trace, pair)
        cleaned = self.clean_amplitudes(trace)
        return cleaned[:, :, i] / cleaned[:, :, j]

    def averaged_amplitude_ratio(
        self, trace: CsiTrace, pair: tuple[int, int]
    ) -> np.ndarray:
        """Packet-averaged ratio per subcarrier, shape ``(K,)``.

        Averaged in the log domain, the natural scale of a ratio (the
        feature consumes ``ln`` of it anyway).  Packets that are NaN on a
        subcarrier are excluded from that subcarrier's mean; a subcarrier
        with no finite packet at all averages to NaN for the downstream
        guards to reject by name.
        """
        ratio = self.amplitude_ratio(trace, pair)
        return np.exp(finite_mean(np.log(ratio), axis=0))

    @staticmethod
    def averaged_ratio_from_clean(
        cleaned: np.ndarray, pair: tuple[int, int]
    ) -> np.ndarray:
        """:meth:`averaged_amplitude_ratio` from a precomputed clean cube.

        Lets the stage-graph engine form every antenna pair's ratio from
        one cached denoiser pass: ``cleaned`` is the ``(M, K, A)`` output
        of :meth:`clean_amplitudes`.
        """
        i, j = validate_antenna_pair(pair, cleaned.shape[2])
        ratio = cleaned[:, :, i] / cleaned[:, :, j]
        return np.exp(finite_mean(np.log(ratio), axis=0))

    # ------------------------------------------------------------------
    # Diagnostics for the Fig. 8 microbenchmark
    # ------------------------------------------------------------------

    def amplitude_variance_per_subcarrier(
        self, trace: CsiTrace, antenna: int
    ) -> np.ndarray:
        """Normalised variance of raw ``|H|`` across packets, shape ``(K,)``.

        Normalised by the squared mean so antennas with different gains
        are comparable (Fig. 8 plots all curves on one axis).
        """
        amps = trace.amplitudes()
        if amps.size == 0:
            raise ValueError("empty trace")
        validate_antenna(antenna, amps.shape[2])
        series = amps[:, :, antenna]
        means = np.clip(series.mean(axis=0), _AMPLITUDE_EPS, None)
        return series.var(axis=0) / (means ** 2)

    def ratio_variance_per_subcarrier(
        self, trace: CsiTrace, pair: tuple[int, int]
    ) -> np.ndarray:
        """Normalised variance of the raw amplitude ratio, shape ``(K,)``.

        NaN-aware: degraded packets are excluded per subcarrier, and a
        subcarrier with no finite ratio scores NaN (filtered out by the
        antenna-pair selector instead of poisoning its stability score).
        """
        i, j = self._check_pair(trace, pair)
        amps = np.clip(trace.amplitudes(), _AMPLITUDE_EPS, None)
        ratio = amps[:, :, i] / amps[:, :, j]
        means = np.clip(finite_mean(ratio, axis=0), _AMPLITUDE_EPS, None)
        variance = finite_mean((ratio - means[None, :]) ** 2, axis=0)
        return variance / (means ** 2)

    # ------------------------------------------------------------------

    @staticmethod
    def _check_pair(trace: CsiTrace, pair: tuple[int, int]) -> tuple[int, int]:
        if len(trace) == 0:
            raise ValueError("empty trace")
        return validate_antenna_pair(pair, trace.num_antennas)
