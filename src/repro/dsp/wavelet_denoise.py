"""Spatially-selective wavelet denoiser (paper Sec. III-C, Eq. 8-13).

The paper's amplitude denoiser rests on one observation: across wavelet
scales, *useful signal* coefficients are strongly correlated while
*impulse-noise* coefficients are not (Eq. 8-10 prove the noise power in a
scale decays with the scale).  Multiplying the coefficients of adjacent
scales therefore amplifies signal locations relative to noise -- the
spatially-selective filtering of Xu, Weaver, Healy & Lu (1994), the
paper's reference [24].

Algorithm, per wavelet scale ``l`` (undecimated transform so every scale
has full length):

1. ``Corr_l = W_l * W_{l+1}``                                  (Eq. 11)
2. ``NCorr_l = Corr_l * sqrt(PW_l / PCorr_l)``                 (Eq. 12)
3. positions with ``|NCorr_l| >= |W_l|`` are signal: move those
   coefficients into the output and zero them in the work buffer (Eq. 13;
   note the paper's printed equation and its prose contradict each other
   -- we implement the original reference's convention, where *high
   cross-scale correlation marks signal to keep*).  Exact ties are kept:
   the comparison carries a relative slack of :data:`EQ13_TIE_RTOL`.
4. repeat 1-3 until the residual power ``PW_l`` drops to the noise
   threshold estimated by the robust median rule (reference [24]).

Everything left in the work buffers when iteration stops is treated as
noise and discarded; the inverse transform of the extracted coefficients
is the denoised signal.

Batched operation
-----------------
Every entry point accepts either a 1-D series ``(time,)`` or a 2-D
``(time, channels)`` array.  The wavelet transform runs along axis 0 for
all channels at once and the extract-and-repeat loop keeps a
per-channel *active mask* (each channel stops iterating at its own
threshold), so one call denoises every (subcarrier, antenna) column of
a CSI trace -- the pipeline's hot path.  A 1-D series is exactly one
``(time, 1)`` column of that same path.  (A column inside a wider batch
can differ from its own 1-D call only where numpy sums a per-column
power in a different order and that sum lands within rounding of a
threshold.)  The original scalar implementations are kept as
``_reference_*`` oracles for the equivalence tests
(``tests/test_perf_equivalence.py``, <= 1e-12 relative).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.dsp.stats import _sorted_median, robust_sigma, robust_sigma_axis
from repro.dsp.wavelet import (
    _reference_iswt,
    _reference_swt,
    iswt,
    max_swt_level,
    swt,
)

#: Threshold of the 3-sigma outlier-rejection pre-step.
OUTLIER_SIGMAS = 3.0
#: Safety bound on each scale's extract-and-repeat loop.
MAX_ITERATIONS = 20

#: Per-thread reusable work/out coefficient buffers of
#: ``SpatiallySelectiveDenoiser._workspace``.  One denoiser is shared by
#: every serving worker thread (``WiMi.clone_view`` shares the amplitude
#: processor), so concurrent ``denoise`` calls never see each other's
#: scratch.
_SCRATCH = threading.local()

#: Eq. 13 tie rule.  A column whose residual holds one nonzero
#: coefficient gives ``|NCorr| == |W|`` in exact arithmetic, so without
#: slack the last rounding bit decides whether it is kept.  Keeping
#: ``|NCorr| >= |W| * (1 - EQ13_TIE_RTOL)`` settles every such tie as
#: "keep", far above rounding and far below any real contrast.
EQ13_TIE_RTOL = 1e-9


def _reference_remove_outliers(
    x: np.ndarray, num_sigmas: float = 3.0
) -> tuple[np.ndarray, np.ndarray]:
    """Original strictly-1-D :func:`remove_outliers` (equivalence ref)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("expected a non-empty signal")
    if num_sigmas <= 0:
        raise ValueError(f"num_sigmas must be positive, got {num_sigmas}")
    mu = float(np.mean(x))
    sigma = float(np.std(x))
    if sigma == 0.0:
        return x.copy(), np.zeros(x.shape, dtype=bool)
    mask = np.abs(x - mu) > num_sigmas * sigma
    cleaned = x.copy()
    if mask.any():
        survivors = x[~mask]
        fill = float(np.median(survivors)) if survivors.size else mu
        cleaned[mask] = fill
    return cleaned, mask


def _as_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(x, columns)``: ``x`` as floats and its ``(time, channels)`` view.

    A 1-D series becomes one ``(time, 1)`` column, so every entry point
    runs the one batched path.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(
            f"expected a 1-D or 2-D (time, channels) signal, "
            f"got shape {x.shape}"
        )
    return x, x[:, None] if x.ndim == 1 else x


def remove_outliers(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Paper's first denoising step: 3-sigma outlier rejection.

    Samples outside ``[mu - 3 sigma, mu + 3 sigma]`` are replaced by the
    median of the surviving samples (the paper "filters out" the outliers;
    replacing keeps the series aligned in time, which the wavelet stage
    needs).  A column always keeps survivors: more than a ninth of its
    samples cannot lie beyond 3 sigma.

    ``x`` may be 1-D or 2-D ``(time, channels)``; in the 2-D form every
    channel column is screened against its own mean/std.

    Fewer than ``OUTLIER_SIGMAS**2 = 9`` samples cannot hold an outlier,
    so such input is returned unchanged without the screen.  ``np.std``
    measures the spread about the same computed mean the screen centres
    on, and about any centre one sample's squared deviation is at most
    the sum of all ``n``, so no z-score exceeds ``sqrt(n)``, whatever the
    rounding of the mean.  Up to 8 samples ``sqrt(n)`` is at least 6%
    below the threshold, far beyond rounding.  From ``n = 9`` on the
    screen runs: Samuelson's ``sqrt(n - 1)`` bound about the exact mean
    does not cover a rounded one.

    Returns:
        ``(cleaned, outlier_mask)``.
    """
    series, x = _as_columns(x)
    if x.size == 0:
        raise ValueError("expected a non-empty signal")
    if x.shape[0] < OUTLIER_SIGMAS**2:
        return series.copy(), np.zeros(series.shape, dtype=bool)
    mu = np.mean(x, axis=0)
    sigma = np.std(x, axis=0)
    mask = np.zeros(x.shape, dtype=bool)
    screened = sigma > 0.0
    mask[:, screened] = (
        np.abs(x[:, screened] - mu[screened])
        > OUTLIER_SIGMAS * sigma[screened]
    )
    median = _sorted_median(np.where(mask, np.nan, x), axis=0)
    cleaned = np.where(mask, median, x)
    return cleaned.reshape(series.shape), mask.reshape(series.shape)


class SpatiallySelectiveDenoiser:
    """The paper's two-step amplitude denoiser.

    A :data:`OUTLIER_SIGMAS` outlier screen, then the Eq. 8-13
    correlation filter on the db2 SWT (:mod:`repro.dsp.wavelet`), at
    most :data:`MAX_ITERATIONS` extract rounds per scale.  The object
    holds no state; it is safe to share across threads.
    """

    def denoise(self, x: np.ndarray) -> np.ndarray:
        """Full pipeline: outlier rejection, then correlation filtering.

        Accepts 1-D ``(time,)`` or 2-D ``(time, channels)`` input; the
        2-D form denoises every channel in one batched pass.
        """
        cleaned, _ = remove_outliers(x)
        return self.correlation_filter(cleaned)

    def correlation_filter(self, x: np.ndarray) -> np.ndarray:
        """Eq. 8-13 cross-scale correlation filtering (no outlier step)."""
        x, columns = _as_columns(x)
        if max_swt_level(x.shape[0]) == 0:
            # Too short to transform: nothing to do.
            return x.copy()
        approx, details = swt(columns)
        new_details = self._filter_details(details)
        return iswt(approx, new_details).reshape(x.shape)

    # ------------------------------------------------------------------

    @staticmethod
    def _workspace(
        details: list[np.ndarray],
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-thread reusable ``(work, out)`` coefficient buffers.

        ``work`` is refilled with copies of ``details``; ``out`` is
        zeroed.  One buffer set is kept per thread and reused while the
        coefficient shapes repeat -- the common case for same-length
        traces -- so a warm call allocates nothing.  Ownership rule: the
        buffers belong to this thread's *current* call only; they are
        invalidated by the next call on the same thread.  Nothing
        returned to callers aliases them (``iswt`` consumes the
        extracted coefficients and returns a fresh array).
        """
        key = tuple(d.shape for d in details)
        cached = getattr(_SCRATCH, "buffers", None)
        if cached is not None and cached[0] == key:
            _, work, out = cached
            for buf, d in zip(work, details):
                np.copyto(buf, d)
            for buf in out:
                buf.fill(0.0)
        else:
            work = [d.copy() for d in details]
            out = [np.zeros_like(d) for d in details]
            _SCRATCH.buffers = (key, work, out)
        return work, out

    def _filter_details(self, details: list[np.ndarray]) -> list[np.ndarray]:
        """Extract signal coefficients scale by scale.

        ``details[l]`` is correlated with ``details[l+1]``; the coarsest
        scale has no neighbour and pairs with itself (plain magnitude
        comparison), which reduces to keeping its strongest coefficients.

        The extract-and-repeat loop runs on all ``(time, channels)``
        columns simultaneously; a per-channel active mask freezes
        channels whose residual power has hit their own threshold (the
        batched equivalent of the scalar ``break``).
        """
        work, out = self._workspace(details)
        num_levels = len(details)
        for l in range(num_levels):
            neighbour_idx = l + 1 if l + 1 < num_levels else l
            threshold = self._noise_threshold(details[l])
            active = np.ones(details[l].shape[1], dtype=bool)
            for _ in range(MAX_ITERATIONS):
                power = np.sum(work[l] ** 2, axis=0)
                active &= power > threshold
                if not active.any():
                    break
                mask = self._signal_mask(work[l], work[neighbour_idx], power)
                mask &= active[None, :]
                active &= mask.any(axis=0)
                if not active.any():
                    break
                np.add(out[l], work[l], out=out[l], where=mask)
                np.copyto(work[l], 0.0, where=mask)
        return out

    @staticmethod
    def _signal_mask(
        w_l: np.ndarray, w_next: np.ndarray, p_w: np.ndarray
    ) -> np.ndarray:
        """Positions where cross-scale correlation dominates (signal).

        ``p_w`` is the per-channel power ``sum(w_l ** 2, axis=0)``, which
        the extract loop has already computed for its stopping test.
        Eq. 12-13 run in place on the one ``corr`` buffer: a full-size
        temporary per step cost more than the arithmetic.
        """
        corr = w_l * w_next  # Eq. 11
        p_corr = np.sum(corr ** 2, axis=0)
        valid = (p_corr > 0.0) & (p_w > 0.0)
        scale = np.zeros(p_w.shape)
        np.divide(p_w, p_corr, out=scale, where=valid)
        np.sqrt(scale, out=scale)
        ncorr = np.multiply(corr, scale, out=corr)  # Eq. 12
        # Eq. 13 (reference convention, ties kept)
        limit = np.abs(w_l)
        limit *= 1.0 - EQ13_TIE_RTOL
        keep = np.abs(ncorr, out=ncorr) >= limit
        keep &= valid
        return keep

    @staticmethod
    def _noise_threshold(detail: np.ndarray) -> np.ndarray:
        """Per-channel residual-power stopping threshold (robust median rule).

        The noise std-dev in a detail band is estimated as
        ``MAD / 0.6745``; iteration stops once the remaining band power is
        what pure noise of that level would carry.
        """
        sigma = robust_sigma_axis(detail, axis=0)
        return detail.shape[0] * sigma * sigma

    # ------------------------------------------------------------------
    # Scalar reference path (pre-vectorization), the oracle of the
    # equivalence tests.
    # ------------------------------------------------------------------

    def _reference_denoise(self, x: np.ndarray) -> np.ndarray:
        """Original strictly-1-D :meth:`denoise`."""
        cleaned, _ = _reference_remove_outliers(x, OUTLIER_SIGMAS)
        return self._reference_correlation_filter(cleaned)

    def _reference_correlation_filter(self, x: np.ndarray) -> np.ndarray:
        """Original strictly-1-D :meth:`correlation_filter`."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
        if max_swt_level(x.size) == 0:
            return x.copy()
        approx, details = _reference_swt(x)
        new_details = self._reference_filter_details(details)
        return _reference_iswt(approx, new_details)

    def _reference_filter_details(
        self, details: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Scalar (1-D) extract-and-repeat loop of Eq. 11-13."""
        work = [d.copy() for d in details]
        out = [np.zeros_like(d) for d in details]
        num_levels = len(details)
        for l in range(num_levels):
            w_next = work[l + 1 if l + 1 < num_levels else l]
            sigma = robust_sigma(details[l])
            threshold = details[l].size * sigma * sigma
            for _ in range(MAX_ITERATIONS):
                p_w = float(np.sum(work[l] ** 2))
                if p_w <= threshold:
                    break
                corr = work[l] * w_next  # Eq. 11
                p_corr = float(np.sum(corr ** 2))
                if p_corr == 0.0:
                    break
                ncorr = corr * np.sqrt(p_w / p_corr)  # Eq. 12
                mask = np.abs(ncorr) >= np.abs(work[l]) * (1.0 - EQ13_TIE_RTOL)
                if not mask.any():
                    break
                out[l][mask] += work[l][mask]
                work[l][mask] = 0.0
        return out
