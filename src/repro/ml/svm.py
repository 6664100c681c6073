"""Soft-margin binary SVM trained with Platt's SMO algorithm.

This is the classifier behind the paper's material identification step,
implemented from scratch: sequential minimal optimisation over the dual
problem with the standard two-multiplier analytic update, error caching
and the usual KKT-violation selection heuristics (simplified Platt, 1998).

The datasets here are small (tens of samples per class, a handful of
features), so clarity wins over micro-optimisation; training a 10-class
one-vs-one ensemble on the paper's full dataset takes well under a second.
"""

from __future__ import annotations

import numpy as np

from repro.ml.kernels import pairwise_sq_dists, rbf_from_sq_dists, scale_gamma

#: KKT violation tolerance of SMO.
SMO_TOL = 1e-3
#: SMO stops after this many consecutive full passes without any
#: multiplier update...
SMO_MAX_PASSES = 5
#: ...or after this many passes in all.
SMO_MAX_ITER = 200


class BinarySVC:
    """Binary soft-margin RBF SVM; gamma is the "scale" heuristic.

    Args:
        C: Soft-margin penalty.
        seed: RNG seed for the second-multiplier tie-breaking.
    """

    def __init__(self, C: float = 10.0, seed: int = 0):
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        self.C = C
        self.seed = seed
        self._fitted = False

    # ------------------------------------------------------------------

    def fit(
        self, x: np.ndarray, y: np.ndarray, gram: np.ndarray | None = None
    ) -> "BinarySVC":
        """Train on labels in ``{-1, +1}``.

        ``gram`` optionally supplies the precomputed training Gram matrix
        ``K(x, x)`` (e.g. a slice of a shared matrix built once by a
        multiclass ensemble); it must equal what the kernel would produce
        on ``x``, including a gamma resolved on ``x``.
        """
        x, y, gram = self._prepare_fit(x, y, gram)
        n = x.shape[0]

        alpha = np.zeros(n)
        b = 0.0
        rng = np.random.default_rng(self.seed)

        # Error cache: margins[i] = sum_k alpha_k y_k K(k, i), kept current
        # with a rank-2 vectorised update per accepted pair instead of an
        # O(n) reduction per decision lookup.  Refreshed from alpha once
        # per outer pass so incremental rounding drift cannot accumulate
        # across the whole run.
        margins = np.zeros(n)

        passes = 0
        total = 0
        while passes < SMO_MAX_PASSES and total < SMO_MAX_ITER:
            if total:
                margins = np.sum((alpha * y)[:, None] * gram, axis=0)
            changed = 0
            for i in range(n):
                e_i = margins[i] + b - y[i]
                if (y[i] * e_i < -SMO_TOL and alpha[i] < self.C) or (
                    y[i] * e_i > SMO_TOL and alpha[i] > 0
                ):
                    j = int(rng.integers(0, n - 1))
                    if j >= i:
                        j += 1
                    e_j = margins[j] + b - y[j]
                    a_i_old, a_j_old = alpha[i], alpha[j]
                    if y[i] != y[j]:
                        low = max(0.0, a_j_old - a_i_old)
                        high = min(self.C, self.C + a_j_old - a_i_old)
                    else:
                        low = max(0.0, a_i_old + a_j_old - self.C)
                        high = min(self.C, a_i_old + a_j_old)
                    if low >= high:
                        continue
                    eta = 2.0 * gram[i, j] - gram[i, i] - gram[j, j]
                    if eta >= 0:
                        continue
                    a_j = a_j_old - y[j] * (e_i - e_j) / eta
                    a_j = min(max(a_j, low), high)
                    if abs(a_j - a_j_old) < 1e-6:
                        continue
                    a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j)
                    b1 = (
                        b
                        - e_i
                        - y[i] * (a_i - a_i_old) * gram[i, i]
                        - y[j] * (a_j - a_j_old) * gram[i, j]
                    )
                    b2 = (
                        b
                        - e_j
                        - y[i] * (a_i - a_i_old) * gram[i, j]
                        - y[j] * (a_j - a_j_old) * gram[j, j]
                    )
                    if 0 < a_i < self.C:
                        b = b1
                    elif 0 < a_j < self.C:
                        b = b2
                    else:
                        b = (b1 + b2) / 2.0
                    margins += (a_i - a_i_old) * y[i] * gram[i] + (
                        (a_j - a_j_old) * y[j] * gram[j]
                    )
                    alpha[i], alpha[j] = a_i, a_j
                    changed += 1
            passes = passes + 1 if changed == 0 else 0
            total += 1

        self._finish_fit(x, y, alpha, b)
        return self

    def _reference_fit(self, x: np.ndarray, y: np.ndarray) -> "BinarySVC":
        """Original SMO loop with per-element decision recomputation.

        Kept as the behavioural baseline: same pair-selection heuristics
        and update rules, but each error lookup is an O(n) reduction over
        the Gram column.  The equivalence tests compare :meth:`fit`
        against this.
        """
        x, y, gram = self._prepare_fit(x, y, None)
        n = x.shape[0]

        alpha = np.zeros(n)
        b = 0.0
        rng = np.random.default_rng(self.seed)

        def decision(i: int) -> float:
            return float(np.sum(alpha * y * gram[:, i]) + b)

        passes = 0
        total = 0
        while passes < SMO_MAX_PASSES and total < SMO_MAX_ITER:
            changed = 0
            for i in range(n):
                e_i = decision(i) - y[i]
                if (y[i] * e_i < -SMO_TOL and alpha[i] < self.C) or (
                    y[i] * e_i > SMO_TOL and alpha[i] > 0
                ):
                    j = int(rng.integers(0, n - 1))
                    if j >= i:
                        j += 1
                    e_j = decision(j) - y[j]
                    a_i_old, a_j_old = alpha[i], alpha[j]
                    if y[i] != y[j]:
                        low = max(0.0, a_j_old - a_i_old)
                        high = min(self.C, self.C + a_j_old - a_i_old)
                    else:
                        low = max(0.0, a_i_old + a_j_old - self.C)
                        high = min(self.C, a_i_old + a_j_old)
                    if low >= high:
                        continue
                    eta = 2.0 * gram[i, j] - gram[i, i] - gram[j, j]
                    if eta >= 0:
                        continue
                    a_j = a_j_old - y[j] * (e_i - e_j) / eta
                    a_j = min(max(a_j, low), high)
                    if abs(a_j - a_j_old) < 1e-6:
                        continue
                    a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j)
                    b1 = (
                        b
                        - e_i
                        - y[i] * (a_i - a_i_old) * gram[i, i]
                        - y[j] * (a_j - a_j_old) * gram[i, j]
                    )
                    b2 = (
                        b
                        - e_j
                        - y[i] * (a_i - a_i_old) * gram[i, j]
                        - y[j] * (a_j - a_j_old) * gram[j, j]
                    )
                    if 0 < a_i < self.C:
                        b = b1
                    elif 0 < a_j < self.C:
                        b = b2
                    else:
                        b = (b1 + b2) / 2.0
                    alpha[i], alpha[j] = a_i, a_j
                    changed += 1
            passes = passes + 1 if changed == 0 else 0
            total += 1

        self._finish_fit(x, y, alpha, b)
        return self

    def _prepare_fit(
        self, x: np.ndarray, y: np.ndarray, gram: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validate inputs, resolve gamma, and return the Gram matrix."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if x.shape[0] != y.size:
            raise ValueError(
                f"{x.shape[0]} samples but {y.size} labels"
            )
        labels = set(np.unique(y))
        if not labels <= {-1.0, 1.0}:
            raise ValueError(f"labels must be -1/+1, got {sorted(labels)}")
        if len(labels) < 2:
            raise ValueError("need both classes present to train")

        n = x.shape[0]
        self._x = x
        self._y = y
        self._gamma = scale_gamma(x)
        if gram is None:
            gram = rbf_from_sq_dists(pairwise_sq_dists(x, x), self._gamma)
        else:
            gram = np.asarray(gram, dtype=float)
            if gram.shape != (n, n):
                raise ValueError(
                    f"gram shape {gram.shape} does not match {n} samples"
                )
        return x, y, gram

    def _finish_fit(
        self, x: np.ndarray, y: np.ndarray, alpha: np.ndarray, b: float
    ) -> None:
        support = alpha > 1e-8
        self._alpha = alpha[support]
        self._support_x = x[support]
        self._support_y = y[support]
        self._b = b
        self._fitted = True

    # ------------------------------------------------------------------

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Signed margin for each sample (positive = class +1)."""
        if not self._fitted:
            raise RuntimeError("BinarySVC is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        k = rbf_from_sq_dists(
            pairwise_sq_dists(x, self._support_x), self._gamma
        )
        return k @ (self._alpha * self._support_y) + self._b

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted labels in ``{-1, +1}``."""
        scores = self.decision_function(x)
        return np.where(scores >= 0.0, 1.0, -1.0)
