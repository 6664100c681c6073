"""Phase Calibration Module (paper Sec. III-B, Eq. 5-6).

Raw CSI phase from a commodity NIC is corrupted per packet by carrier
frequency offset, sampling frequency offset and packet boundary delay --
``phi_measured = phi_true + k (lam_b + lam_s) + beta + Z`` (Eq. 5) -- so
across packets it is uniformly scattered over ``[0, 2 pi)`` (Fig. 2).

All antennas of one board share the sampling and oscillator clocks, so the
corruption is *common mode*: the phase difference between two antennas,

    Delta-phi_k = phi_k,i - phi_k,j = true difference + Delta-Z   (Eq. 6),

removes it entirely, leaving only the Gaussian measurement-noise
difference ``Delta-Z``, which averages out over a packet window.
"""

from __future__ import annotations

import numpy as np

from repro.core.validation import validate_antenna, validate_antenna_pair
from repro.csi.model import CsiTrace
from repro.dsp.stats import (
    angular_spread_deg,
    angular_spread_deg_axis,
    circular_mean_axis,
)


class PhaseCalibrator:
    """Extracts calibrated inter-antenna phase differences from traces."""

    def raw_phases(self, trace: CsiTrace, antenna: int = 0) -> np.ndarray:
        """Uncalibrated per-packet phases, shape ``(M, K)``.

        These are the grey dots of Fig. 2: dominated by per-packet clock
        errors, useless for sensing.  Exposed for the microbenchmarks.
        """
        self._check_antenna(trace, antenna)
        return np.angle(trace.matrix()[:, :, antenna])

    def phase_difference(
        self, trace: CsiTrace, pair: tuple[int, int]
    ) -> np.ndarray:
        """Eq. 6: per-packet inter-antenna phase difference, shape ``(M, K)``.

        Computed as ``angle(H_i * conj(H_j))``, which is inherently wrapped
        to ``(-pi, pi]`` and immune to the common clock corruption.  A
        reading of exactly 0 (an attenuated chain quantised to zero) has
        no phase: ``np.angle`` would return 0 or pi from the signs of the
        zeros, so those entries are NaN and the NaN-aware means skip them.
        """
        i, j = self._check_pair(trace, pair)
        matrix = trace.matrix()
        product = matrix[:, :, i] * np.conj(matrix[:, :, j])
        phase = np.angle(product)
        phase[product == 0] = np.nan
        return phase

    def averaged_phase_difference(
        self, trace: CsiTrace, pair: tuple[int, int]
    ) -> np.ndarray:
        """Per-subcarrier circular mean over the packet window, shape ``(K,)``.

        This is the "averaging over a time window" that removes
        ``Delta-Z`` in Eq. 6.

        NaN-aware: packets with non-finite readings on a subcarrier are
        excluded from that subcarrier's mean (bit-identical to the plain
        mean on clean traces); a subcarrier with no finite reading at
        all averages to NaN, which the downstream feature guard rejects
        by name.
        """
        diffs = self.phase_difference(trace, pair)
        return circular_mean_axis(diffs, axis=0, ignore_nan=True)

    def angular_fluctuation_deg(
        self,
        trace: CsiTrace,
        pair: tuple[int, int] | None = None,
        antenna: int = 0,
        subcarrier: int | None = None,
    ) -> float:
        """The paper's Fig. 2/12 spread metric, in degrees.

        With ``pair`` given, measures the spread of the calibrated phase
        differences; otherwise the spread of raw single-antenna phase.
        ``subcarrier`` restricts to one report position (the figures plot a
        single subcarrier); default pools all subcarriers' deviations from
        their own means.
        """
        if pair is not None:
            values = self.phase_difference(trace, pair)
        else:
            values = self.raw_phases(trace, antenna)
        if subcarrier is not None:
            if not 0 <= subcarrier < values.shape[1]:
                raise ValueError(
                    f"subcarrier {subcarrier} out of range "
                    f"[0, {values.shape[1]})"
                )
            return angular_spread_deg(values[:, subcarrier])
        # Pool per-subcarrier spreads (each subcarrier has its own centre).
        return float(np.mean(angular_spread_deg_axis(values, axis=0)))

    # ------------------------------------------------------------------

    @staticmethod
    def _check_antenna(trace: CsiTrace, antenna: int) -> None:
        if len(trace) == 0:
            raise ValueError("empty trace")
        validate_antenna(antenna, trace.num_antennas)

    @staticmethod
    def _check_pair(trace: CsiTrace, pair: tuple[int, int]) -> tuple[int, int]:
        if len(trace) == 0:
            raise ValueError("empty trace")
        return validate_antenna_pair(pair, trace.num_antennas)
