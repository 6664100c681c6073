"""Tests for the from-scratch SMO-trained SVM."""

import numpy as np
import pytest

from repro.ml.svm import BinarySVC


def _blobs(n=40, gap=4.0, seed=0):
    rng = np.random.default_rng(seed)
    x_pos = rng.standard_normal((n, 2)) + [gap / 2, 0]
    x_neg = rng.standard_normal((n, 2)) - [gap / 2, 0]
    x = np.vstack([x_pos, x_neg])
    y = np.concatenate([np.ones(n), -np.ones(n)])
    return x, y


class TestBinarySVC:
    def test_separable_blobs_rbf(self):
        x, y = _blobs()
        clf = BinarySVC().fit(x, y)
        assert np.mean(clf.predict(x) == y) >= 0.97

    def test_xor_needs_rbf(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (120, 2))
        y = np.where(x[:, 0] * x[:, 1] > 0, 1.0, -1.0)
        rbf = BinarySVC(C=50.0).fit(x, y)
        assert np.mean(rbf.predict(x) == y) > 0.9

    def test_decision_function_sign_matches_predict(self):
        x, y = _blobs()
        clf = BinarySVC().fit(x, y)
        scores = clf.decision_function(x)
        np.testing.assert_array_equal(
            np.where(scores >= 0, 1.0, -1.0), clf.predict(x)
        )

    def test_support_vectors_subset(self):
        x, y = _blobs()
        clf = BinarySVC(C=1.0).fit(x, y)
        assert 0 < clf._alpha.size <= x.shape[0]

    def test_margin_shrinks_support_with_large_gap(self):
        x_wide, y = _blobs(gap=8.0)
        x_narrow, _ = _blobs(gap=1.0)
        wide = BinarySVC(C=1.0).fit(x_wide, y)._alpha.size
        narrow = BinarySVC(C=1.0).fit(x_narrow, y)._alpha.size
        assert wide < narrow

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            BinarySVC().predict(np.zeros((1, 2)))

    def test_bad_labels_rejected(self):
        x, _ = _blobs(n=5)
        with pytest.raises(ValueError, match="labels"):
            BinarySVC().fit(x, np.arange(10))

    def test_single_class_rejected(self):
        x, _ = _blobs(n=5)
        with pytest.raises(ValueError, match="both classes"):
            BinarySVC().fit(x, np.ones(10))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            BinarySVC().fit(np.zeros((4, 2)), np.ones(3))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError, match="C"):
            BinarySVC(C=0.0)

    def test_deterministic_given_seed(self):
        x, y = _blobs()
        s1 = BinarySVC(seed=3).fit(x, y).decision_function(x)
        s2 = BinarySVC(seed=3).fit(x, y).decision_function(x)
        np.testing.assert_allclose(s1, s2)
