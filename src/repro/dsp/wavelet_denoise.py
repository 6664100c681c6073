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
   cross-scale correlation marks signal to keep*)
4. repeat 1-3 until the residual power ``PW_l`` drops to the noise
   threshold estimated by the robust median rule (reference [24]).

Everything left in the work buffers when iteration stops is treated as
noise and discarded; the inverse transform of the extracted coefficients
is the denoised signal.

Batched operation
-----------------
Every entry point accepts either a 1-D series ``(time,)`` or a 2-D
``(time, channels)`` array.  In the 2-D form the wavelet transform runs
along axis 0 for all channels at once and the extract-and-repeat loop
keeps a per-channel *active mask* (each channel stops iterating at its
own threshold), so one call denoises every (subcarrier, antenna) column
of a CSI trace -- the pipeline's hot path.  Per-channel results equal
the corresponding 1-D call to within floating-point summation order
(<= 1e-9; see ``tests/test_perf_equivalence.py``).  The original scalar
implementations are kept as ``_reference_*`` for the equivalence tests
and the perf-bench baseline.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.dsp.stats import robust_sigma, robust_sigma_axis
from repro.dsp.wavelet import (
    Wavelet,
    _reference_iswt,
    _reference_swt,
    get_wavelet,
    iswt,
    max_swt_level,
    swt,
)


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


def remove_outliers(
    x: np.ndarray, num_sigmas: float = 3.0
) -> tuple[np.ndarray, np.ndarray]:
    """Paper's first denoising step: 3-sigma outlier rejection.

    Samples outside ``[mu - k sigma, mu + k sigma]`` are replaced by the
    median of the surviving samples (the paper "filters out" the outliers;
    replacing keeps the series aligned in time, which the wavelet stage
    needs).

    ``x`` may be 1-D or 2-D ``(time, channels)``; in the 2-D form every
    channel column is screened against its own mean/std.

    Returns:
        ``(cleaned, outlier_mask)``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return _reference_remove_outliers(x, num_sigmas)
    if x.ndim != 2:
        raise ValueError(
            f"expected a 1-D or 2-D (time, channels) signal, "
            f"got shape {x.shape}"
        )
    if x.size == 0:
        raise ValueError("expected a non-empty signal")
    if num_sigmas <= 0:
        raise ValueError(f"num_sigmas must be positive, got {num_sigmas}")
    mu = np.mean(x, axis=0)
    sigma = np.std(x, axis=0)
    mask = np.zeros(x.shape, dtype=bool)
    screened = sigma > 0.0
    mask[:, screened] = (
        np.abs(x[:, screened] - mu[screened])
        > num_sigmas * sigma[screened]
    )
    # Same order statistics and (lo + hi) / 2 as np.median: bit-identical.
    ordered = np.sort(np.where(mask, np.inf, x), axis=0)
    n = x.shape[0] - mask.sum(axis=0)
    cols = np.arange(x.shape[1])
    lo = ordered[np.maximum(n - 1, 0) // 2, cols]
    hi = ordered[n // 2, cols]
    median = np.where(n % 2 == 1, lo, (lo + hi) / 2)
    fill = np.where(n > 0, median, mu)
    return np.where(mask, fill, x), mask


@dataclass
class SpatiallySelectiveDenoiser:
    """The paper's two-step amplitude denoiser as a reusable object.

    Attributes:
        wavelet_name: Filter bank to use (default db2 -- short enough for
            the paper's 20-packet windows).
        levels: SWT depth (clamped to what the signal length allows).
        outlier_sigmas: Threshold of the outlier-rejection pre-step.
        max_iterations: Safety bound on the extract-and-repeat loop.

    Thread-safety: one denoiser instance is shared by every serving
    worker thread (``WiMi.clone_view`` shares the amplitude processor),
    so the reusable work/out coefficient buffers live in a
    ``threading.local`` slot -- concurrent ``denoise`` calls never see
    each other's scratch.  The buffers are only valid inside one
    ``_filter_details`` call; nothing returned to callers aliases them
    (``iswt`` consumes the extracted coefficients and returns a fresh
    array).
    """

    wavelet_name: str = "db2"
    levels: int = 3
    outlier_sigmas: float = 3.0
    max_iterations: int = 20

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        # Fail fast on unknown wavelet names.
        self._wavelet: Wavelet = get_wavelet(self.wavelet_name)
        self._scratch = threading.local()

    def __getstate__(self) -> dict:
        # threading.local cannot be pickled; scratch buffers are
        # per-process/thread anyway, so drop them and rebuild on load.
        state = self.__dict__.copy()
        state.pop("_scratch", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._scratch = threading.local()

    # ------------------------------------------------------------------

    def denoise(self, x: np.ndarray) -> np.ndarray:
        """Full pipeline: outlier rejection, then correlation filtering.

        Accepts 1-D ``(time,)`` or 2-D ``(time, channels)`` input; the
        2-D form denoises every channel in one batched pass.
        """
        cleaned, _ = remove_outliers(x, self.outlier_sigmas)
        return self.correlation_filter(cleaned)

    def correlation_filter(self, x: np.ndarray) -> np.ndarray:
        """Eq. 8-13 cross-scale correlation filtering (no outlier step)."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2):
            raise ValueError(
                f"expected a 1-D or 2-D (time, channels) signal, "
                f"got shape {x.shape}"
            )
        limit = max_swt_level(x.shape[0], self._wavelet)
        if limit == 0:
            # Too short to transform: nothing to do.
            return x.copy()
        levels = min(self.levels, limit)
        approx, details = swt(x, self._wavelet, levels)
        new_details = self._filter_details(details)
        return iswt(approx, new_details, self._wavelet)

    # ------------------------------------------------------------------

    def _workspace(
        self, details: list[np.ndarray], slot: str
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-thread reusable ``(work, out)`` coefficient buffers.

        ``work`` is refilled with copies of ``details``; ``out`` is
        zeroed.  One buffer set is kept per ``slot`` (batched vs scalar
        path) and reused while the coefficient shapes repeat --
        the common case for streaming windows and same-length traces --
        so a warm call allocates nothing.  Ownership rule: the buffers
        belong to this thread's *current* call only; they are
        invalidated by the next call on the same thread.
        """
        key = tuple(d.shape for d in details)
        cached = getattr(self._scratch, slot, None)
        if cached is not None and cached[0] == key:
            _, work, out = cached
            for buf, d in zip(work, details):
                np.copyto(buf, d)
            for buf in out:
                buf.fill(0.0)
        else:
            work = [d.copy() for d in details]
            out = [np.zeros_like(d) for d in details]
            setattr(self._scratch, slot, (key, work, out))
        return work, out

    def _filter_details(self, details: list[np.ndarray]) -> list[np.ndarray]:
        """Extract signal coefficients scale by scale.

        ``details[l]`` is correlated with ``details[l+1]``; the coarsest
        scale has no neighbour and pairs with itself (plain magnitude
        comparison), which reduces to keeping its strongest coefficients.

        With 2-D coefficient arrays the extract-and-repeat loop runs on
        all channels simultaneously; a per-channel active mask freezes
        channels whose residual power has hit their own threshold (the
        batched equivalent of the scalar ``break``).
        """
        if details[0].ndim == 1:
            return self._filter_details_1d(details)
        work, out = self._workspace(details, "batched")
        num_levels = len(details)
        for l in range(num_levels):
            neighbour_idx = l + 1 if l + 1 < num_levels else l
            threshold = self._noise_threshold(details[l])
            active = np.ones(details[l].shape[1], dtype=bool)
            for _ in range(self.max_iterations):
                power = np.sum(work[l] ** 2, axis=0)
                active &= power > threshold
                if not active.any():
                    break
                mask = self._signal_mask(work[l], work[neighbour_idx])
                mask &= active[None, :]
                active &= mask.any(axis=0)
                if not active.any():
                    break
                out[l][mask] += work[l][mask]
                work[l][mask] = 0.0
        return out

    def _filter_details_1d(
        self, details: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Scalar (1-D) extract-and-repeat loop.

        Shares the per-thread workspace so repeated same-length calls
        (the per-column reference path iterates one call per channel)
        stop re-allocating their work/out lists every call.
        """
        work, out = self._workspace(details, "scalar")
        num_levels = len(details)
        for l in range(num_levels):
            neighbour_idx = l + 1 if l + 1 < num_levels else l
            threshold = self._noise_threshold(details[l])
            for _ in range(self.max_iterations):
                power = float(np.sum(work[l] ** 2))
                if power <= threshold:
                    break
                mask = self._signal_mask(work[l], work[neighbour_idx])
                if not mask.any():
                    break
                out[l][mask] += work[l][mask]
                work[l][mask] = 0.0
        return out

    @staticmethod
    def _signal_mask(w_l: np.ndarray, w_next: np.ndarray) -> np.ndarray:
        """Positions where cross-scale correlation dominates (signal)."""
        corr = w_l * w_next  # Eq. 11
        if w_l.ndim == 1:
            p_w = float(np.sum(w_l ** 2))
            p_corr = float(np.sum(corr ** 2))
            if p_corr == 0.0 or p_w == 0.0:
                return np.zeros(w_l.shape, dtype=bool)
            ncorr = corr * np.sqrt(p_w / p_corr)  # Eq. 12
            return np.abs(ncorr) >= np.abs(w_l)  # Eq. 13 (reference conv.)
        p_w = np.sum(w_l ** 2, axis=0)
        p_corr = np.sum(corr ** 2, axis=0)
        valid = (p_corr > 0.0) & (p_w > 0.0)
        scale = np.zeros(p_w.shape)
        scale[valid] = np.sqrt(p_w[valid] / p_corr[valid])
        ncorr = corr * scale[None, :]
        return (np.abs(ncorr) >= np.abs(w_l)) & valid[None, :]

    @staticmethod
    def _noise_threshold(detail: np.ndarray) -> float | np.ndarray:
        """Residual-power stopping threshold from the robust median rule.

        The noise std-dev in a detail band is estimated as
        ``MAD / 0.6745``; iteration stops once the remaining band power is
        what pure noise of that level would carry.  For 2-D coefficients
        the threshold is per channel.
        """
        if detail.ndim == 1:
            sigma = robust_sigma(detail)
            return detail.size * sigma * sigma
        sigma = robust_sigma_axis(detail, axis=0)
        return detail.shape[0] * sigma * sigma

    # ------------------------------------------------------------------
    # Scalar reference path (pre-vectorization), for equivalence tests
    # and the perf-bench baseline.
    # ------------------------------------------------------------------

    def _reference_denoise(self, x: np.ndarray) -> np.ndarray:
        """Original strictly-1-D :meth:`denoise`."""
        cleaned, _ = _reference_remove_outliers(x, self.outlier_sigmas)
        return self._reference_correlation_filter(cleaned)

    def _reference_correlation_filter(self, x: np.ndarray) -> np.ndarray:
        """Original strictly-1-D :meth:`correlation_filter`."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
        limit = max_swt_level(x.size, self._wavelet)
        if limit == 0:
            return x.copy()
        levels = min(self.levels, limit)
        approx, details = _reference_swt(x, self._wavelet, levels)
        new_details = self._filter_details_1d(details)
        return _reference_iswt(approx, new_details, self._wavelet)


def wavelet_denoise(
    x: np.ndarray,
    wavelet_name: str = "db2",
    levels: int = 3,
    outlier_sigmas: float = 3.0,
) -> np.ndarray:
    """Convenience wrapper around :class:`SpatiallySelectiveDenoiser`."""
    denoiser = SpatiallySelectiveDenoiser(
        wavelet_name=wavelet_name, levels=levels, outlier_sigmas=outlier_sigmas
    )
    return denoiser.denoise(x)
