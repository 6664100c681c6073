"""Circular and robust statistics.

Phase readings live on the circle, so their spread must be measured with
circular statistics (a cluster of phases around +/- pi has a tiny circular
variance but a huge linear one).  The paper quantifies calibration quality
as "angular fluctuation ... around 18 degrees" (Fig. 2/12); we reproduce
that metric with :func:`angular_spread_deg`.

The wavelet denoiser needs a robust noise-level estimate; following the
paper's reference [24] we use the median absolute deviation of the finest
detail coefficients (:func:`robust_sigma`).
"""

from __future__ import annotations

import math

import numpy as np


def _masked_unit_mean(
    angles: np.ndarray, axis: int | None = None
) -> np.ndarray:
    """Mean of ``exp(1j * angles)`` over finite entries only.

    Slices with no finite entry yield NaN.  On an all-finite input the
    result is bit-identical to ``np.mean(np.exp(1j * angles), axis)``
    (the mask multiplies by exactly 1 and the same pairwise summation
    runs over the same values), so NaN-aware callers pay no numerical
    drift on clean data.
    """
    mask = np.isfinite(angles)
    z = np.exp(1j * np.where(mask, angles, 0.0))
    counts = mask.sum(axis=axis)
    total = np.where(mask, z, 0.0).sum(axis=axis)
    safe = np.where(counts > 0, counts, 1)
    return np.where(counts > 0, total / safe, complex("nan+nanj"))


def finite_fraction(x: np.ndarray, axis: int | None = None) -> float | np.ndarray:
    """Share of finite entries (1.0 for empty input: nothing is broken)."""
    x = np.asarray(x)
    if x.size == 0:
        return 1.0
    frac = np.isfinite(x).mean(axis=axis)
    return float(frac) if axis is None else frac


def finite_mean(x: np.ndarray, axis: int | None = None) -> float | np.ndarray:
    """Mean over finite entries only; NaN where a slice has none.

    Bit-identical to ``np.mean`` on all-finite input, and silent (no
    RuntimeWarning) on all-NaN slices, unlike ``np.nanmean``.
    """
    x = np.asarray(x, dtype=float)
    mask = np.isfinite(x)
    counts = mask.sum(axis=axis)
    total = np.where(mask, x, 0.0).sum(axis=axis)
    safe = np.where(counts > 0, counts, 1)
    out = np.where(counts > 0, total / safe, math.nan)
    return float(out) if axis is None else out


def finite_median(x: np.ndarray, axis: int | None = None) -> float | np.ndarray:
    """Median over finite entries only; NaN where a slice has none.

    Avoids ``np.nanmedian``'s all-NaN-slice RuntimeWarning (which the
    robustness CI job promotes to an error) by pre-filling empty slices.
    """
    x = np.asarray(x, dtype=float)
    mask = np.isfinite(x)
    if axis is None:
        values = x[mask]
        return float(np.median(values)) if values.size else math.nan
    counts = mask.sum(axis=axis)
    empty = counts == 0
    if np.any(empty):
        x = np.where(np.expand_dims(empty, axis), 0.0, x)
        mask = np.isfinite(x)
    if np.all(mask):
        result = np.median(x, axis=axis)
    else:
        result = np.nanmedian(np.where(mask, x, math.nan), axis=axis)
    return np.where(empty, math.nan, result)


def circular_mean(angles_rad: np.ndarray, ignore_nan: bool = False) -> float:
    """Mean direction of a set of angles (radians, in ``(-pi, pi]``).

    With ``ignore_nan``, non-finite angles are excluded (NaN if none
    remain) instead of poisoning the mean.
    """
    angles = np.asarray(angles_rad, dtype=float)
    if angles.size == 0:
        raise ValueError("circular_mean of an empty set is undefined")
    if ignore_nan:
        return float(np.angle(_masked_unit_mean(angles)))
    return float(np.angle(np.mean(np.exp(1j * angles))))


def resultant_length(
    angles_rad: np.ndarray, ignore_nan: bool = False
) -> float:
    """Mean resultant length ``R`` in [0, 1]; 1 = perfectly concentrated."""
    angles = np.asarray(angles_rad, dtype=float)
    if angles.size == 0:
        raise ValueError("resultant_length of an empty set is undefined")
    if ignore_nan:
        return float(np.abs(_masked_unit_mean(angles)))
    return float(np.abs(np.mean(np.exp(1j * angles))))


def circular_variance(
    angles_rad: np.ndarray, ignore_nan: bool = False
) -> float:
    """Circular variance ``1 - R`` in [0, 1]."""
    return 1.0 - resultant_length(angles_rad, ignore_nan=ignore_nan)


def circular_std(angles_rad: np.ndarray, ignore_nan: bool = False) -> float:
    """Circular standard deviation ``sqrt(-2 ln R)`` in radians.

    Unbounded for uniformly scattered angles; ~linear std for tight
    clusters.
    """
    r = resultant_length(angles_rad, ignore_nan=ignore_nan)
    if math.isnan(r):
        return math.nan
    if r <= 0.0:
        return math.inf
    return math.sqrt(max(-2.0 * math.log(r), 0.0))


def angular_spread_deg(angles_rad: np.ndarray) -> float:
    """Angular fluctuation in degrees -- the paper's Fig. 2/12 metric.

    Defined as the circular standard deviation converted to degrees.  The
    paper reports ~18 deg after antenna differencing and ~5 deg after
    good-subcarrier selection; uniformly random raw phases give a huge
    value (circular std of a uniform distribution diverges; we cap the
    report at 180 deg for readability).
    """
    spread = math.degrees(circular_std(angles_rad))
    return min(spread, 180.0)


def wrap_phase(angles_rad: np.ndarray | float) -> np.ndarray | float:
    """Wrap angles into ``(-pi, pi]``."""
    wrapped = np.angle(np.exp(1j * np.asarray(angles_rad, dtype=float)))
    if np.isscalar(angles_rad):
        return float(wrapped)
    return wrapped


def circular_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shortest signed angular difference ``a - b`` wrapped to (-pi, pi]."""
    return np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b))))


def mad(x: np.ndarray, ignore_nan: bool = False) -> float:
    """Median absolute deviation (no scaling)."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("mad of an empty array is undefined")
    if ignore_nan:
        centre = finite_median(x)
        if math.isnan(centre):
            return math.nan
        return float(finite_median(np.abs(x - centre)))
    return float(np.median(np.abs(x - np.median(x))))


def robust_sigma(x: np.ndarray, ignore_nan: bool = False) -> float:
    """Gaussian-consistent robust scale: ``MAD / 0.6745``.

    The standard robust noise estimate for wavelet coefficients (Donoho &
    Johnstone; the paper's reference [24] uses the same median estimator).
    """
    return mad(x, ignore_nan=ignore_nan) / 0.6745


def sample_variance(x: np.ndarray, ignore_nan: bool = False) -> float:
    """Plain (population) variance -- paper Eq. 7 uses the 1/M form.

    With ``ignore_nan``, non-finite samples are excluded (NaN if none
    remain).
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("variance of an empty array is undefined")
    if ignore_nan:
        mask = np.isfinite(x)
        if not mask.any():
            return math.nan
        centre = finite_mean(x)
        return float(finite_mean(np.where(mask, (x - centre) ** 2, math.nan)))
    return float(np.mean((x - np.mean(x)) ** 2))


# ----------------------------------------------------------------------
# Axis-aware variants -- one call instead of a per-column comprehension.
# Each reduces along ``axis`` and mirrors its scalar sibling exactly.
# ----------------------------------------------------------------------


def circular_mean_axis(
    angles_rad: np.ndarray, axis: int = 0, ignore_nan: bool = False
) -> np.ndarray:
    """Per-slice :func:`circular_mean` along ``axis``."""
    angles = np.asarray(angles_rad, dtype=float)
    if angles.size == 0:
        raise ValueError("circular_mean of an empty set is undefined")
    if ignore_nan:
        return np.angle(_masked_unit_mean(angles, axis=axis))
    return np.angle(np.mean(np.exp(1j * angles), axis=axis))


def resultant_length_axis(
    angles_rad: np.ndarray, axis: int = 0, ignore_nan: bool = False
) -> np.ndarray:
    """Per-slice :func:`resultant_length` along ``axis``."""
    angles = np.asarray(angles_rad, dtype=float)
    if angles.size == 0:
        raise ValueError("resultant_length of an empty set is undefined")
    if ignore_nan:
        return np.abs(_masked_unit_mean(angles, axis=axis))
    return np.abs(np.mean(np.exp(1j * angles), axis=axis))


def circular_std_axis(
    angles_rad: np.ndarray, axis: int = 0, ignore_nan: bool = False
) -> np.ndarray:
    """Per-slice :func:`circular_std` along ``axis``.

    Inf where ``R <= 0``; NaN where (under ``ignore_nan``) a slice has
    no finite entry at all.
    """
    r = resultant_length_axis(angles_rad, axis=axis, ignore_nan=ignore_nan)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.full(r.shape, math.inf)
    out[np.isnan(r)] = math.nan
    positive = r > 0.0
    out[positive] = np.sqrt(np.clip(-2.0 * np.log(r[positive]), 0.0, None))
    return out


def angular_spread_deg_axis(
    angles_rad: np.ndarray, axis: int = 0, ignore_nan: bool = False
) -> np.ndarray:
    """Per-slice :func:`angular_spread_deg` along ``axis`` (capped 180)."""
    return np.minimum(
        np.degrees(circular_std_axis(angles_rad, axis, ignore_nan=ignore_nan)),
        180.0,
    )


def mad_axis(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Per-slice :func:`mad` along ``axis``."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("mad of an empty array is undefined")
    med = np.median(x, axis=axis, keepdims=True)
    return np.median(np.abs(x - med), axis=axis)


def robust_sigma_axis(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Per-slice :func:`robust_sigma` along ``axis``."""
    return mad_axis(x, axis=axis) / 0.6745


def phase_difference_variance(
    phase_diffs_rad: np.ndarray, ignore_nan: bool = False
) -> float:
    """Paper Eq. 7: variance of a phase-difference series across packets.

    Computed circularly-safely: the series is first re-centred on its
    circular mean (so a cluster straddling +/- pi is not torn apart), then
    the linear 1/M variance is taken.  With ``ignore_nan``, non-finite
    samples are excluded and an all-non-finite series scores NaN (so a
    dead channel can be filtered rather than crash the selection).
    """
    diffs = np.asarray(phase_diffs_rad, dtype=float)
    if diffs.size == 0:
        raise ValueError("variance of an empty series is undefined")
    if ignore_nan:
        mask = np.isfinite(diffs)
        if not mask.any():
            return math.nan
        centre = circular_mean(diffs, ignore_nan=True)
        centred = circular_difference(
            np.where(mask, diffs, centre), np.full(diffs.shape, centre)
        )
        return float(finite_mean(np.where(mask, centred, math.nan) ** 2))
    centred = circular_difference(diffs, np.full(diffs.shape, circular_mean(diffs)))
    return float(np.mean(centred ** 2))
