"""Multiclass SVM wrappers (one-vs-one and one-vs-rest)."""

from __future__ import annotations

import numpy as np

from repro.ml.kernels import (
    LinearKernel,
    PolynomialKernel,
    RBFKernel,
    make_kernel,
    pairwise_sq_dists,
    rbf_from_sq_dists,
)
from repro.ml.svm import BinarySVC


def _validate_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D, got shape {x.shape}")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"{x.shape[0]} samples but {y.shape[0]} labels")
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    return x, y


class _SharedGram:
    """Pairwise kernel structure computed once per training set.

    The one-vs-one ensemble trains ``C(n_classes, 2)`` machines on
    overlapping subsets of the same samples; each machine's Gram matrix is
    a submatrix of one full-set pairwise computation.  For RBF the shared
    part is the squared-distance matrix (gamma is resolved per machine on
    its subset); for linear/polynomial kernels it is the dot-product
    matrix.
    """

    def __init__(self, kernel, x: np.ndarray):
        self.kernel = kernel
        if isinstance(kernel, RBFKernel):
            self._shared = pairwise_sq_dists(x, x)
        elif isinstance(kernel, (LinearKernel, PolynomialKernel)):
            self._shared = x @ x.T
        else:
            self._shared = None

    def submatrix(
        self, machine: BinarySVC, x_sub: np.ndarray, idx: np.ndarray
    ) -> np.ndarray | None:
        """Gram matrix for one machine's sample subset, or None.

        Must match what ``machine.fit`` would compute on ``x_sub`` --
        for RBF that means resolving gamma on the subset, exactly as
        :meth:`BinarySVC._prepare_fit` does.
        """
        if self._shared is None:
            return None
        block = self._shared[np.ix_(idx, idx)]
        kernel = machine.kernel
        if isinstance(kernel, RBFKernel):
            return rbf_from_sq_dists(block, kernel.resolve_gamma(x_sub))
        if isinstance(kernel, PolynomialKernel):
            return (block + kernel.coef0) ** kernel.degree
        return block


class OneVsOneSVC:
    """One-vs-one multiclass SVM -- one binary machine per class pair.

    Prediction is by majority vote with margin-sum tie-breaking.  This is
    the classical libsvm strategy and what "the SVM classifier" of the
    paper resolves to for its 10-liquid problem.
    """

    def __init__(self, kernel="rbf", C: float = 10.0, seed: int = 0, **kernel_params):
        self.kernel_name = kernel
        self.kernel_params = kernel_params
        self.C = C
        self.seed = seed
        self._machines: dict[tuple[int, int], BinarySVC] = {}
        self._classes: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "OneVsOneSVC":
        """Train all pairwise machines."""
        x, y = _validate_xy(x, y)
        self._classes = np.unique(y)
        if self._classes.size < 2:
            raise ValueError("need at least two classes")
        self._machines = {}
        shared = _SharedGram(
            make_kernel(self.kernel_name, **self.kernel_params), x
        )
        for a in range(self._classes.size):
            for b in range(a + 1, self._classes.size):
                mask = (y == self._classes[a]) | (y == self._classes[b])
                idx = np.nonzero(mask)[0]
                labels = np.where(y[mask] == self._classes[a], 1.0, -1.0)
                machine = BinarySVC(
                    kernel=make_kernel(self.kernel_name, **self.kernel_params),
                    C=self.C,
                    seed=self.seed,
                )
                x_sub = x[mask]
                machine.fit(
                    x_sub, labels, gram=shared.submatrix(machine, x_sub, idx)
                )
                self._machines[(a, b)] = machine
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Majority-vote predictions."""
        if self._classes is None:
            raise RuntimeError("OneVsOneSVC is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        votes = np.zeros((x.shape[0], self._classes.size))
        margins = np.zeros_like(votes)
        for (a, b), machine in self._machines.items():
            scores = machine.decision_function(x)
            winner_a = scores >= 0
            votes[winner_a, a] += 1
            votes[~winner_a, b] += 1
            margins[:, a] += scores
            margins[:, b] -= scores
        # Ties broken by accumulated margin.
        best = np.argmax(votes + 1e-9 * np.tanh(margins), axis=1)
        return self._classes[best]

    @property
    def classes_(self) -> np.ndarray:
        """Class labels seen during fit."""
        if self._classes is None:
            raise RuntimeError("OneVsOneSVC is not fitted")
        return self._classes


class OneVsRestSVC:
    """One-vs-rest multiclass SVM -- one machine per class."""

    def __init__(self, kernel="rbf", C: float = 10.0, seed: int = 0, **kernel_params):
        self.kernel_name = kernel
        self.kernel_params = kernel_params
        self.C = C
        self.seed = seed
        self._machines: list[BinarySVC] = []
        self._classes: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "OneVsRestSVC":
        """Train one machine per class against the rest."""
        x, y = _validate_xy(x, y)
        self._classes = np.unique(y)
        if self._classes.size < 2:
            raise ValueError("need at least two classes")
        self._machines = []
        # Every one-vs-rest machine trains on the full set, so they all
        # share one Gram matrix (gamma resolves identically on full x).
        shared = _SharedGram(
            make_kernel(self.kernel_name, **self.kernel_params), x
        )
        idx = np.arange(x.shape[0])
        gram = None
        for cls in self._classes:
            labels = np.where(y == cls, 1.0, -1.0)
            machine = BinarySVC(
                kernel=make_kernel(self.kernel_name, **self.kernel_params),
                C=self.C,
                seed=self.seed,
            )
            if gram is None:
                gram = shared.submatrix(machine, x, idx)
            machine.fit(x, labels, gram=gram)
            self._machines.append(machine)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Highest-margin predictions."""
        if self._classes is None:
            raise RuntimeError("OneVsRestSVC is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        scores = np.stack(
            [m.decision_function(x) for m in self._machines], axis=1
        )
        return self._classes[np.argmax(scores, axis=1)]

    @property
    def classes_(self) -> np.ndarray:
        """Class labels seen during fit."""
        if self._classes is None:
            raise RuntimeError("OneVsRestSVC is not fitted")
        return self._classes


#: Default multiclass SVM, matching the paper's classifier choice.
SVC = OneVsOneSVC
