"""The RBF kernel of the SVM: ``K(x, y) = exp(-gamma ||x - y||^2)``."""

from __future__ import annotations

import numpy as np


def _as_2d(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError(f"expected 2-D data, got shape {x.shape}")
    return x


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances ``||a_i - b_j||^2``, shape ``(n_a, n_b)``.

    The shared building block of the RBF Gram matrix: the one-vs-one
    ensemble computes this once on the full training set and slices the
    per-machine submatrices out of it instead of re-evaluating kernels
    pair by pair.
    """
    a = _as_2d(a)
    b = _as_2d(b)
    return (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )


def rbf_from_sq_dists(sq: np.ndarray, gamma: float) -> np.ndarray:
    """RBF kernel values from precomputed squared distances."""
    return np.exp(-gamma * np.clip(sq, 0.0, None))


def scale_gamma(x_train: np.ndarray) -> float:
    """The sklearn-style "scale" gamma ``1 / (n_features * var(X))``.

    Resolved once per machine on its training data; constant data gives
    ``1.0``.
    """
    x = _as_2d(x_train)
    variance = float(np.var(x))
    if variance <= 0:
        return 1.0
    return 1.0 / (x.shape[1] * variance)
