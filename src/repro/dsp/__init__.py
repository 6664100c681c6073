"""Signal-processing substrate, implemented from scratch.

The paper's amplitude denoiser needs per-scale wavelet coefficients and an
undecimated (stationary) transform; no wavelet library is available
offline, so :mod:`repro.dsp.wavelet` implements the db2 undecimated SWT
with exact reconstruction.  :mod:`repro.dsp.wavelet_denoise` builds the
paper's Eq. 8-13 spatially-selective correlation denoiser on top.
:mod:`repro.dsp.filters` provides the three baseline filters of Fig. 7
(median, sliding mean, Butterworth -- including our own bilinear-transform
Butterworth design).  :mod:`repro.dsp.stats` has the circular and robust
statistics used throughout (angular spread, MAD).
"""

from repro.dsp.filters import (
    butter_lowpass_coefficients,
    butterworth_filter,
    lfilter,
    filtfilt,
    median_filter,
    sliding_mean_filter,
)
from repro.dsp.stats import (
    angular_spread_deg,
    circular_mean,
    circular_std,
    mad,
    robust_sigma,
)
from repro.dsp.streaming import RunningCircularStats, RunningVariance
from repro.dsp.wavelet import iswt, swt
from repro.dsp.wavelet_denoise import (
    SpatiallySelectiveDenoiser,
    remove_outliers,
)

__all__ = [
    "RunningCircularStats",
    "RunningVariance",
    "SpatiallySelectiveDenoiser",
    "angular_spread_deg",
    "butter_lowpass_coefficients",
    "butterworth_filter",
    "circular_mean",
    "circular_std",
    "filtfilt",
    "iswt",
    "lfilter",
    "mad",
    "median_filter",
    "remove_outliers",
    "robust_sigma",
    "sliding_mean_filter",
    "swt",
]
