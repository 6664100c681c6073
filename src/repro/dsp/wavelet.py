"""db2 stationary wavelet transform, from scratch.

Implements, with plain NumPy, the undecimated / stationary transform
(:func:`swt` / :func:`iswt`, "algorithme a trous") needed by the paper's
correlation denoiser, where every scale keeps the full signal length so
adjacent-scale products (Eq. 11) are well defined, to a fixed depth of
:data:`WAVELET_LEVELS` scales.

The filter bank is Daubechies db2, short enough for the paper's
20-packet windows.  Conventions: the scaling (lowpass) filter ``h`` is
normalised to unit energy (``sum(h) = sqrt(2)``); the wavelet (highpass)
filter is the quadrature mirror ``g[n] = (-1)^n h[L-1-n]``.  Signals are
extended periodically, which gives exact perfect reconstruction.
"""

from __future__ import annotations

import numpy as np

#: Filter bank of the Sec. III-C amplitude denoiser.
WAVELET_NAME = "db2"
#: SWT depth of the amplitude denoiser (fewer where the signal is short).
WAVELET_LEVELS = 3

#: db2 scaling (lowpass) analysis filter, unit-energy normalisation.
DEC_LO = np.array(
    (
        0.48296291314469025,
        0.836516303737469,
        0.22414386804185735,
        -0.12940952255092145,
    )
)
#: db2 wavelet (highpass) analysis filter, quadrature mirror of DEC_LO.
DEC_HI = np.array([(-1.0) ** n for n in range(DEC_LO.size)]) * DEC_LO[::-1]
DEC_LO.flags.writeable = False
DEC_HI.flags.writeable = False


# ----------------------------------------------------------------------
# Undecimated (stationary) transform -- "algorithme a trous"
# ----------------------------------------------------------------------


def _reference_atrous_correlate(
    x: np.ndarray, filt: np.ndarray, hole: int
) -> np.ndarray:
    """Scalar (1-D, index-matrix) periodic correlation -- kept as the
    oracle for the shifted-sum kernel."""
    n = x.size
    idx = (np.arange(n)[:, None] + hole * np.arange(filt.size)[None, :]) % n
    return x[idx] @ filt


def _reference_atrous_adjoint(
    y: np.ndarray, filt: np.ndarray, hole: int
) -> np.ndarray:
    """Scalar adjoint of :func:`_reference_atrous_correlate`."""
    n = y.size
    idx = (np.arange(n)[:, None] - hole * np.arange(filt.size)[None, :]) % n
    return y[idx] @ filt


def _atrous_correlate(x: np.ndarray, filt: np.ndarray, hole: int) -> np.ndarray:
    """Periodic correlation with the filter upsampled by ``hole``.

    ``out[i] = sum_k filt[k] * x[(i + hole*k) mod n]`` along axis 0, for
    any trailing shape: one call filters every channel column.  Each tap
    adds a slice view of ``x`` doubled along axis 0, so the work is
    element-wise and a column's result does not depend on how many
    columns ride along.
    """
    n = x.shape[0]
    doubled = np.concatenate([x, x])
    out = np.zeros(x.shape)
    for k, tap in enumerate(filt):
        shift = (hole * k) % n
        out += tap * doubled[shift : shift + n]
    return out


def _atrous_adjoint(y: np.ndarray, filt: np.ndarray, hole: int) -> np.ndarray:
    """Adjoint of :func:`_atrous_correlate` (periodic convolution)."""
    return _atrous_correlate(y, filt, -hole)


def max_swt_level(signal_length: int) -> int:
    """Deepest SWT level whose dilated filter still fits the signal."""
    level = 0
    while (2 ** level) * (DEC_LO.size - 1) + 1 <= signal_length:
        level += 1
    return level


def _swt_depth(signal_length: int) -> int:
    """Number of scales :func:`swt` computes for a signal this long.

    :data:`WAVELET_LEVELS`, clamped to :func:`max_swt_level`; a signal
    too short for even one scale is an error.
    """
    limit = max_swt_level(signal_length)
    if limit == 0:
        raise ValueError(
            f"signal of length {signal_length} too short for wavelet "
            f"{WAVELET_NAME!r}"
        )
    return min(WAVELET_LEVELS, limit)


def swt(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Stationary wavelet transform to :func:`_swt_depth` scales.

    Returns ``(approx, details)`` where ``details[0]`` is the finest scale
    and every array has the input length -- which is what makes the
    adjacent-scale correlation of the paper's Eq. 11 well defined.

    ``x`` may be 1-D ``(time,)`` or 2-D ``(time, channels)``; the
    transform runs along axis 0 and 2-D input transforms every channel
    column in one call (the batched hot path of the amplitude denoiser).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(
            f"swt expects a 1-D or 2-D (time, channels) signal, "
            f"got shape {x.shape}"
        )
    details: list[np.ndarray] = []
    approx = x
    for lev in range(_swt_depth(x.shape[0])):
        hole = 2 ** lev
        details.append(_atrous_correlate(approx, DEC_HI, hole))
        approx = _atrous_correlate(approx, DEC_LO, hole)
    return approx, details


def iswt(approx: np.ndarray, details: list[np.ndarray]) -> np.ndarray:
    """Inverse stationary transform (exact for orthonormal filters).

    Uses the identity ``x = (H^T a + G^T d) / 2`` level by level, which
    follows from the analysis operators satisfying
    ``H^T H + G^T G = 2 I``.
    """
    current = np.asarray(approx, dtype=float)
    for lev in reversed(range(len(details))):
        hole = 2 ** lev
        current = 0.5 * (
            _atrous_adjoint(current, DEC_LO, hole)
            + _atrous_adjoint(
                np.asarray(details[lev], dtype=float), DEC_HI, hole
            )
        )
    return current


# ----------------------------------------------------------------------
# Scalar reference implementations (pre-vectorization), kept as oracles
# for the equivalence tests (``tests/test_perf_equivalence.py``).
# ----------------------------------------------------------------------


def _reference_swt(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Strictly 1-D :func:`swt` using the original index-matrix kernels."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"swt expects a 1-D signal, got shape {x.shape}")
    details: list[np.ndarray] = []
    approx = x
    for lev in range(_swt_depth(x.size)):
        hole = 2 ** lev
        details.append(_reference_atrous_correlate(approx, DEC_HI, hole))
        approx = _reference_atrous_correlate(approx, DEC_LO, hole)
    return approx, details


def _reference_iswt(
    approx: np.ndarray, details: list[np.ndarray]
) -> np.ndarray:
    """Strictly 1-D :func:`iswt` using the original index-matrix kernels."""
    current = np.asarray(approx, dtype=float)
    for lev in reversed(range(len(details))):
        hole = 2 ** lev
        current = 0.5 * (
            _reference_atrous_adjoint(current, DEC_LO, hole)
            + _reference_atrous_adjoint(
                np.asarray(details[lev], dtype=float), DEC_HI, hole
            )
        )
    return current
