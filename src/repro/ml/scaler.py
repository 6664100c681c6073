"""Feature standardisation."""

from __future__ import annotations

import numpy as np


class StandardScaler:
    """Zero-mean unit-variance feature scaling.

    Constant features (zero variance) are centred but left unscaled, which
    keeps the transform well-defined for degenerate inputs.
    """

    def __init__(self):
        self._mean: np.ndarray | None = None
        self._scale: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        """Learn per-feature mean and scale."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._mean = x.mean(axis=0)
        std = x.std(axis=0)
        self._scale = np.where(std > 0, std, 1.0)
        return self

    @property
    def mean_(self) -> np.ndarray:
        """Per-feature means learned by :meth:`fit`."""
        if self._mean is None:
            raise RuntimeError("StandardScaler is not fitted")
        return self._mean

    @property
    def scale_(self) -> np.ndarray:
        """Per-feature scales learned by :meth:`fit`."""
        if self._scale is None:
            raise RuntimeError("StandardScaler is not fitted")
        return self._scale

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Apply the learned standardisation."""
        if self._mean is None or self._scale is None:
            raise RuntimeError("StandardScaler is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self._mean.size:
            raise ValueError(
                f"expected {self._mean.size} features, got {x.shape[1]}"
            )
        return (x - self._mean) / self._scale

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        """Fit then transform in one call."""
        return self.fit(x).transform(x)
