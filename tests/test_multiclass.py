"""Tests for the one-vs-one multiclass SVM."""

import numpy as np
import pytest

from repro.ml.multiclass import OneVsOneSVC


def _three_blobs(n=25, seed=0):
    rng = np.random.default_rng(seed)
    centres = np.array([[0, 0], [6, 0], [0, 6]])
    xs, ys = [], []
    for label, c in zip("abc", centres):
        xs.append(rng.standard_normal((n, 2)) + c)
        ys.extend([label] * n)
    return np.vstack(xs), np.array(ys)


class TestOneVsOne:
    def test_three_classes(self):
        x, y = _three_blobs()
        clf = OneVsOneSVC().fit(x, y)
        assert np.mean(clf.predict(x) == y) >= 0.97

    def test_classes_property(self):
        x, y = _three_blobs()
        clf = OneVsOneSVC().fit(x, y)
        assert set(clf.classes_) == {"a", "b", "c"}

    def test_string_and_preserved_dtype(self):
        x, y = _three_blobs()
        preds = OneVsOneSVC().fit(x, y).predict(x[:3])
        assert all(isinstance(p, str) for p in preds.tolist())

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="two classes"):
            OneVsOneSVC().fit(np.zeros((4, 2)), np.array(["a"] * 4))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            OneVsOneSVC().predict(np.zeros((1, 2)))


def _blobs(n_classes, n=12, seed=0):
    rng = np.random.default_rng(seed)
    x = np.vstack(
        [rng.normal(3.0 * c, 1.0, size=(n, 3)) for c in range(n_classes)]
    )
    return x, np.repeat(np.arange(n_classes), n)


def _per_machine(machines, x):
    """Oracle: each machine's own decision_function, in machine order."""
    return np.stack([m.decision_function(x) for m in machines], axis=1)


def _loop_vote(clf, x):
    """Oracle: the machine-by-machine one-vs-one vote."""
    votes = np.zeros((x.shape[0], clf.classes_.size))
    margins = np.zeros_like(votes)
    for (a, b), machine in clf._machines.items():
        scores = machine.decision_function(x)
        votes[scores >= 0, a] += 1
        votes[scores < 0, b] += 1
        margins[:, a] += scores
        margins[:, b] -= scores
    return clf.classes_[np.argmax(votes + 1e-9 * np.tanh(margins), axis=1)]


def _assert_close(matrix, oracle):
    scale = np.max(np.abs(oracle))
    np.testing.assert_allclose(matrix, oracle, rtol=1e-12, atol=1e-12 * scale)


class TestDecisionMatrix:
    """One kernel pass over every machine equals the per-machine loop."""

    def test_matches_per_machine_oracle(self):
        x, y = _blobs(4)
        x_test = np.random.default_rng(1).normal(4.0, 4.0, size=(30, 3))
        clf = OneVsOneSVC().fit(x, y)
        matrix = clf.decision_matrix(x_test)
        assert matrix.shape == (30, len(clf._machines)) == (30, 6)
        _assert_close(matrix, _per_machine(clf._machines.values(), x_test))
        assert np.array_equal(clf.predict(x_test), _loop_vote(clf, x_test))

    def test_machine_without_support_vectors_decides_by_bias(self):
        # Classes 0 and 1 sit on the same points: SMO never moves a
        # multiplier of machine (0, 1), so it keeps no support vector.
        x = np.vstack(
            [np.zeros((5, 2)), np.zeros((5, 2)), np.full((5, 2), 5.0)]
        )
        y = np.repeat(np.arange(3), 5)
        clf = OneVsOneSVC().fit(x, y)
        empty = clf._machines[(0, 1)]
        assert empty._alpha.size == 0
        matrix = clf.decision_matrix(x)
        assert np.all(matrix[:, 0] == empty._b)
        _assert_close(matrix, _per_machine(clf._machines.values(), x))

    def test_state_round_trip_gives_the_identical_matrix(self):
        from repro.core.database import DatabaseClassifier, MaterialDatabase

        x, y = _blobs(4)
        db = MaterialDatabase(
            entries={f"m{c}": list(x[y == c]) for c in np.unique(y)}
        )
        fitted = DatabaseClassifier().fit(db)
        restored = DatabaseClassifier.from_state(*fitted.to_state())
        x_test = fitted._scaler.transform(x + 0.5)
        assert np.array_equal(
            restored._clf.decision_matrix(x_test),
            fitted._clf.decision_matrix(x_test),
        )

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            OneVsOneSVC().decision_matrix(np.zeros((1, 2)))

    def test_predict_is_one_kernel_pass(self, monkeypatch):
        import repro.ml.kernels as kernels
        import repro.ml.multiclass as multiclass
        import repro.ml.svm as svm

        x, y = _blobs(10)
        clf = OneVsOneSVC().fit(x, y)
        original = kernels.pairwise_sq_dists
        calls = []

        def counted(a, b):
            calls.append(b.shape[0])
            return original(a, b)

        monkeypatch.setattr(kernels, "pairwise_sq_dists", counted)
        monkeypatch.setattr(multiclass, "pairwise_sq_dists", counted)
        monkeypatch.setattr(svm, "pairwise_sq_dists", counted)
        clf.predict(x[:1])
        assert len(calls) == 1
        # Against every support vector of all 45 machines at once.
        assert calls[0] == sum(m._alpha.size for m in clf._machines.values())
        calls.clear()
        _per_machine(clf._machines.values(), x[:1])
        assert len(calls) == len(clf._machines) == 45
