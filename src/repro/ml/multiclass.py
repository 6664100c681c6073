"""One-vs-one multiclass RBF SVM."""

from __future__ import annotations

import numpy as np

from repro.ml.kernels import pairwise_sq_dists, rbf_from_sq_dists, scale_gamma
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
    """Squared distances of one training set, computed once.

    The one-vs-one ensemble trains ``C(n_classes, 2)`` machines on
    overlapping subsets of the same samples; each machine's Gram matrix is
    the RBF of a submatrix of one full-set squared-distance matrix (gamma
    is resolved per machine on its subset).
    """

    def __init__(self, x: np.ndarray):
        self._sq = pairwise_sq_dists(x, x)

    def submatrix(self, x_sub: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Gram matrix for one machine's sample subset.

        Matches what ``BinarySVC.fit`` would compute on ``x_sub``: gamma
        is resolved on the subset, exactly as
        :meth:`BinarySVC._prepare_fit` does.
        """
        return rbf_from_sq_dists(
            self._sq[np.ix_(idx, idx)], scale_gamma(x_sub)
        )


class _StackedMachines:
    """Every machine of an ensemble evaluated in one kernel pass.

    The support vectors of all machines are stacked into one array, with
    each machine's ``alpha * y`` and its own gamma repeated per support
    vector.  One pairwise computation against the stack, one
    elementwise kernel and one ``np.add.reduceat`` over the machine
    segments give every decision value at once -- libsvm's sharing of
    kernel values across one-vs-one machines, and the predict-side twin
    of :class:`_SharedGram`.  Each column equals that machine's
    :meth:`BinarySVC.decision_function` (the per-machine oracle) up to
    summation order.
    """

    def __init__(self, machines: list[BinarySVC]):
        counts = np.array([m._alpha.size for m in machines])
        self._support_x = np.concatenate([m._support_x for m in machines])
        self._coef = np.concatenate(
            [m._alpha * m._support_y for m in machines]
        )
        self._bias = np.array([m._b for m in machines], dtype=float)
        # Segment starts of the machines that have support vectors; a
        # machine without any decides by its bias alone.
        self._nonempty = counts > 0
        self._starts = (np.cumsum(counts) - counts)[self._nonempty]
        self._neg_gamma = -np.repeat(
            np.asarray([m._gamma for m in machines], dtype=float), counts
        )

    def decisions(self, x: np.ndarray) -> np.ndarray:
        """``(samples, machines)`` decision values, in machine order."""
        sq = np.clip(pairwise_sq_dists(x, self._support_x), 0.0, None)
        k = np.exp(self._neg_gamma * sq)
        scores = np.zeros((x.shape[0], self._bias.size))
        if self._starts.size:
            scores[:, self._nonempty] = np.add.reduceat(
                k * self._coef, self._starts, axis=1
            )
        return scores + self._bias


class OneVsOneSVC:
    """One-vs-one multiclass SVM -- one binary machine per class pair.

    Prediction is by majority vote with margin-sum tie-breaking.  This is
    the classical libsvm strategy and what "the SVM classifier" of the
    paper resolves to for its 10-liquid problem.
    """

    def __init__(self, C: float = 10.0, seed: int = 0):
        self.C = C
        self.seed = seed
        self._machines: dict[tuple[int, int], BinarySVC] = {}
        self._classes: np.ndarray | None = None
        self._stack: _StackedMachines | None = None

    def set_machines(
        self, classes: np.ndarray, machines: dict[tuple[int, int], BinarySVC]
    ) -> None:
        """Install fitted pairwise machines and stack them for predict.

        ``machines`` maps class-index pairs ``(a, b)``, ``a < b``, to the
        machine voting ``a`` on a non-negative score.  The stack and the
        vote maps are built here, once, so concurrent predicts only read.
        """
        self._classes = np.asarray(classes)
        self._machines = dict(machines)
        self._stack = _StackedMachines(list(self._machines.values()))
        # Machine (a, b) gives its vote to a on a non-negative score and
        # to b otherwise, and adds its score to a's margin and takes it
        # from b's.  With vote_map[m] = +1 at a and -1 at b, and b_votes
        # counting the machines each class is "b" of:
        #   votes = b_votes + (scores >= 0) @ vote_map
        #   margins = scores @ vote_map
        pairs = np.array(list(self._machines), dtype=int).reshape(-1, 2)
        rows = np.arange(pairs.shape[0])
        self._vote_map = np.zeros((pairs.shape[0], self._classes.size))
        self._vote_map[rows, pairs[:, 0]] = 1.0
        self._vote_map[rows, pairs[:, 1]] = -1.0
        self._b_votes = np.bincount(pairs[:, 1], minlength=self._classes.size)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "OneVsOneSVC":
        """Train all pairwise machines."""
        x, y = _validate_xy(x, y)
        classes = np.unique(y)
        if classes.size < 2:
            raise ValueError("need at least two classes")
        machines = {}
        shared = _SharedGram(x)
        for a in range(classes.size):
            for b in range(a + 1, classes.size):
                mask = (y == classes[a]) | (y == classes[b])
                idx = np.nonzero(mask)[0]
                labels = np.where(y[mask] == classes[a], 1.0, -1.0)
                machine = BinarySVC(C=self.C, seed=self.seed)
                x_sub = x[mask]
                machine.fit(x_sub, labels, gram=shared.submatrix(x_sub, idx))
                machines[(a, b)] = machine
        self.set_machines(classes, machines)
        return self

    def decision_matrix(self, x: np.ndarray) -> np.ndarray:
        """``(samples, machines)`` decision values, in ``_machines`` order.

        Column ``m`` is machine ``m``'s signed margin (non-negative votes
        for its first class), from one kernel pass over every machine.
        """
        if self._stack is None:
            raise RuntimeError("OneVsOneSVC is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self._stack.decisions(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Majority-vote predictions."""
        scores = self.decision_matrix(x)
        votes = self._b_votes + (scores >= 0) @ self._vote_map
        margins = scores @ self._vote_map
        # Ties broken by accumulated margin.
        best = np.argmax(votes + 1e-9 * np.tanh(margins), axis=1)
        return self._classes[best]

    @property
    def classes_(self) -> np.ndarray:
        """Class labels seen during fit."""
        if self._classes is None:
            raise RuntimeError("OneVsOneSVC is not fitted")
        return self._classes

