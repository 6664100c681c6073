"""Single-pass (streaming) statistics and windowed amplitude sums.

WiMi's capture regime is one packet every ~10 ms, but the batch pipeline
buffers a whole trace before the first DSP stage runs.  This module holds
the incremental primitives behind the streaming preview that runs
*while* the trace is still arriving:

* :class:`RunningCircularStats` -- element-wise circular mean/variance
  accumulated as resultant vectors, one packet at a time.  Mirrors the
  NaN-masking semantics of :func:`repro.dsp.stats.circular_mean_axis`
  with ``ignore_nan=True``: a non-finite reading is excluded from its
  element's mean, an element with no finite reading at all is NaN.
* :class:`RunningVariance` -- Welford's online mean/variance.
* :func:`window_log_sums` -- one fixed-size packet window of raw
  amplitudes reduced to per-channel sums of clipped log amplitude and
  sample counts, after median imputation.  Streams add these to running
  sums, so a preview mean costs O(channels).

Determinism contract: every accumulator ingests exactly one packet per
``add``/window step, so the final state after a stream is a function of
the packet *sequence* alone -- feeding the same packets in chunks of 1,
7 or all-at-once produces bit-identical results (the chunk-invariance
property ``tests/test_streaming.py`` pins).
"""

from __future__ import annotations

import math

import numpy as np

from repro.dsp.stats import finite_median


class RunningCircularStats:
    """Element-wise circular mean/variance accumulated one sample at a time.

    Holds a complex resultant-vector sum and a finite-sample count per
    element.  ``add`` is O(shape) per call and the state is independent
    of how calls were batched upstream.
    """

    def __init__(self, shape: tuple[int, ...] | int):
        self._resultant = np.zeros(shape, dtype=complex)
        self._count = np.zeros(shape, dtype=np.int64)
        #: Total samples offered (including ones masked per element).
        self.num_samples = 0

    @property
    def shape(self) -> tuple[int, ...]:
        """Element shape of the accumulated statistics."""
        return self._resultant.shape

    def add(self, angles_rad: np.ndarray) -> None:
        """Accumulate one sample of angles (radians), NaN-aware."""
        angles = np.asarray(angles_rad, dtype=float)
        if angles.shape != self._resultant.shape:
            raise ValueError(
                f"sample shape {angles.shape} does not match accumulator "
                f"shape {self._resultant.shape}"
            )
        mask = np.isfinite(angles)
        unit = np.exp(1j * np.where(mask, angles, 0.0))
        self._resultant += np.where(mask, unit, 0.0)
        self._count += mask
        self.num_samples += 1

    def counts(self) -> np.ndarray:
        """Finite-sample count per element."""
        return self._count.copy()

    def mean(self) -> np.ndarray:
        """Circular mean direction per element; NaN where no finite sample."""
        safe = np.where(self._count > 0, self._count, 1)
        return np.where(
            self._count > 0,
            np.angle(self._resultant / safe),
            math.nan,
        )

    def resultant_length(self) -> np.ndarray:
        """Mean resultant length ``R`` in [0, 1]; NaN where empty.

        ``R`` near 1 means the accumulated angles are tightly
        concentrated -- the streaming confidence signal.
        """
        safe = np.where(self._count > 0, self._count, 1)
        return np.where(
            self._count > 0,
            np.abs(self._resultant / safe),
            math.nan,
        )


class RunningVariance:
    """Welford's online mean and sample variance of a scalar series.

    Non-finite samples are ignored (they would permanently poison the
    moments); ``count`` reflects only the accepted samples.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Accumulate one sample (non-finite values are skipped)."""
        value = float(value)
        if not math.isfinite(value):
            return
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    @property
    def mean(self) -> float:
        """Running mean (NaN before the first finite sample)."""
        return self._mean if self.count > 0 else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (``n - 1`` denominator; NaN below 2 samples)."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation (NaN below 2 samples)."""
        variance = self.variance
        return math.sqrt(variance) if math.isfinite(variance) else math.nan


def window_log_sums(
    rows: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel sum of clipped log amplitude over one window, and counts.

    ``rows`` is one ``(window, channels)`` slab of raw amplitudes.
    Non-finite samples are imputed with their column's in-window finite
    median, and every sample is clipped at ``floor`` before the log.  A
    column with no finite sample in the window contributes a zero sum
    and a zero count, so the consumer's running mean leaves it NaN
    instead of inventing a level.  There is no outlier screen: the
    preview's 8-packet windows are too short for a 3-sigma outlier (see
    :func:`repro.dsp.wavelet_denoise.remove_outliers`).
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.size == 0:
        raise ValueError(
            f"expected non-empty (window, channels) rows, got {rows.shape}"
        )
    finite = np.isfinite(rows)
    live = finite.any(axis=0)
    if not finite.all():
        medians = finite_median(rows, axis=0)
        rows = np.where(finite, rows, np.where(live, medians, 0.0)[None, :])
    log_sum = np.log(np.clip(rows, floor, None)).sum(axis=0)
    count = np.where(live, rows.shape[0], 0)
    return np.where(live, log_sum, 0.0), count
