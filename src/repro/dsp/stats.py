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


def _sorted_median(
    x: np.ndarray, axis: int, skip_nan: bool = True
) -> np.ndarray:
    """Median along ``axis`` of each slice's non-NaN entries; NaN where none.

    One sort per slice, as a contiguous row: NaN sorts last, so a slice's
    ``kept`` non-NaN entries lead, and the median is read from their
    middle with ``np.median``'s order statistics ``(kept - 1) // 2`` and
    ``kept // 2`` and its ``(lo + hi) / 2`` -- bit-identical to
    ``np.median`` of the kept values (up to the sign of a zero median
    where ``-0.0`` and ``0.0`` tie at the middle: they compare equal, so
    neither the sort nor ``np.median``'s partition orders them).
    Callers map the entries they want dropped to NaN first.  With
    ``skip_nan=False`` a slice holding a NaN gives NaN instead, as in
    ``np.median``.
    """
    moved = np.moveaxis(x, axis, -1)
    n = moved.shape[-1]
    rows = moved.reshape(-1, n).copy()
    rows.sort(axis=-1)
    lo, hi = rows[:, (n - 1) // 2], rows[:, n // 2]
    median = hi.copy() if n % 2 == 1 else (lo + hi) / 2
    holed = np.flatnonzero(np.isnan(rows[:, -1]))  # NaN sorts last
    median[holed] = math.nan
    if skip_nan and holed.size:
        kept = n - np.isnan(rows).sum(axis=-1)[holed]
        lo = rows[holed, np.maximum(kept - 1, 0) // 2]
        hi = rows[holed, kept // 2]
        median[holed] = np.where(kept % 2 == 1, lo, (lo + hi) / 2)
    return median.reshape(moved.shape[:-1])


def finite_median(x: np.ndarray, axis: int | None = None) -> float | np.ndarray:
    """Median over finite entries only; NaN where a slice has none.

    Silent on all-NaN slices, unlike ``np.nanmedian`` (whose
    RuntimeWarning the robustness CI job promotes to an error).  Every
    median is one :func:`_sorted_median` row sort, bit-identical to
    ``np.median`` of the finite entries.
    """
    x = np.asarray(x, dtype=float)
    mask = np.isfinite(x)
    if axis is None:
        values = x[mask]
        return float(_sorted_median(values, 0)) if values.size else math.nan
    return _sorted_median(np.where(mask, x, math.nan), axis)


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
    """Per-slice :func:`mad` along ``axis``.

    Each median is one row sort, bit-identical to ``np.median``; as
    there, a slice holding a NaN gives NaN.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("mad of an empty array is undefined")
    centre = np.expand_dims(_sorted_median(x, axis, skip_nan=False), axis)
    return _sorted_median(np.abs(x - centre), axis, skip_nan=False)


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


def phase_difference_variance_axis(
    phase_diffs_rad: np.ndarray, axis: int = 0
) -> np.ndarray:
    """Per-slice :func:`phase_difference_variance` (``ignore_nan=True``)
    along ``axis``: non-finite samples are excluded and a slice with no
    finite sample scores NaN, silently.

    Each slice is reduced as a contiguous row, as the scalar function
    reduces its 1-D copy, so the sums run the same pairwise order and the
    result is bit-identical to it.  A plain reduction down ``axis`` of
    the ``(packets, subcarriers)`` matrix sums sequentially instead and
    differs in the last bits, which can reorder near-tied subcarriers.
    """
    diffs = np.asarray(phase_diffs_rad, dtype=float)
    if diffs.size == 0:
        raise ValueError("variance of an empty series is undefined")
    rows = np.ascontiguousarray(np.moveaxis(diffs, axis, -1))
    mask = np.isfinite(rows)
    centre = np.angle(_masked_unit_mean(rows, axis=-1))[..., None]
    centred = circular_difference(np.where(mask, rows, centre), centre)
    return finite_mean(np.where(mask, centred, math.nan) ** 2, axis=-1)
