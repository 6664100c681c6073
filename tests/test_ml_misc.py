"""Tests for kNN, nearest-centroid, scaler and the RBF kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.centroid import NearestCentroidClassifier
from repro.ml.kernels import pairwise_sq_dists, rbf_from_sq_dists, scale_gamma
from repro.ml.knn import KNeighborsClassifier
from repro.ml.scaler import StandardScaler


def _blobs(n=20, seed=0):
    rng = np.random.default_rng(seed)
    x = np.vstack(
        [rng.standard_normal((n, 2)), rng.standard_normal((n, 2)) + 5]
    )
    y = np.array(["lo"] * n + ["hi"] * n)
    return x, y


class TestKNN:
    def test_classifies_blobs(self):
        x, y = _blobs()
        clf = KNeighborsClassifier(k=3).fit(x, y)
        assert np.mean(clf.predict(x) == y) >= 0.95

    def test_k1_memorises(self):
        x, y = _blobs()
        clf = KNeighborsClassifier(k=1).fit(x, y)
        assert np.mean(clf.predict(x) == y) == 1.0

    def test_k_larger_than_dataset_clamped(self):
        x, y = _blobs(n=3)
        clf = KNeighborsClassifier(k=100).fit(x, y)
        clf.predict(x)  # must not raise

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError, match="k"):
            KNeighborsClassifier(k=0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            KNeighborsClassifier().predict(np.zeros((1, 2)))

    def test_tie_breaks_to_nearest(self):
        x = np.array([[0.0], [1.0]])
        y = np.array(["a", "b"])
        clf = KNeighborsClassifier(k=2).fit(x, y)
        assert clf.predict(np.array([[0.1]]))[0] == "a"


class TestNearestCentroid:
    def test_centroids_are_class_means(self):
        x, y = _blobs()
        clf = NearestCentroidClassifier().fit(x, y)
        for label, centroid in zip(clf.classes_, clf.centroids_):
            np.testing.assert_allclose(centroid, x[y == label].mean(axis=0))

    def test_classifies_blobs(self):
        x, y = _blobs()
        clf = NearestCentroidClassifier().fit(x, y)
        assert np.mean(clf.predict(x) == y) >= 0.95

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            NearestCentroidClassifier().predict(np.zeros((1, 2)))


class TestScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, (200, 4))
        out = StandardScaler().fit_transform(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-10)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 3))
        scaler = StandardScaler().fit(x)
        np.testing.assert_allclose(
            scaler.transform(x) * scaler.scale_ + scaler.mean_, x, atol=1e-12
        )

    def test_constant_feature_survives(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        out = StandardScaler().fit_transform(x)
        np.testing.assert_allclose(out[:, 0], 0.0)

    def test_feature_count_checked(self):
        scaler = StandardScaler().fit(np.zeros((5, 3)))
        with pytest.raises(ValueError, match="features"):
            scaler.transform(np.zeros((2, 4)))

    def test_accessors(self):
        scaler = StandardScaler().fit(np.arange(10.0)[:, None])
        assert scaler.mean_[0] == pytest.approx(4.5)
        assert scaler.scale_[0] > 0

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            StandardScaler().transform(np.zeros((1, 1)))


def _rbf(a, b, gamma):
    return rbf_from_sq_dists(pairwise_sq_dists(a, b), gamma)


class TestKernels:
    def test_rbf_diagonal_ones(self):
        x = np.random.default_rng(0).standard_normal((5, 3))
        k = _rbf(x, x, 0.5)
        np.testing.assert_allclose(np.diag(k), 1.0)

    def test_rbf_decays_with_distance(self):
        near = _rbf(np.array([[0.0]]), np.array([[0.1]]), 1.0)[0, 0]
        far = _rbf(np.array([[0.0]]), np.array([[3.0]]), 1.0)[0, 0]
        assert near > far

    def test_rbf_scale_heuristic(self):
        x = np.random.default_rng(1).standard_normal((50, 4))
        gamma = scale_gamma(x)
        assert gamma == pytest.approx(1.0 / (4 * np.var(x)), rel=1e-9)
        assert scale_gamma(np.full((6, 2), 3.0)) == 1.0  # constant data

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10), min_size=2, max_size=2
        ),
        st.lists(
            st.floats(min_value=-10, max_value=10), min_size=2, max_size=2
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_rbf_bounded_and_symmetric(self, u, v):
        a, b = np.array([u]), np.array([v])
        kab = _rbf(a, b, 0.3)[0, 0]
        kba = _rbf(b, a, 0.3)[0, 0]
        assert 0.0 <= kab <= 1.0
        assert kab == pytest.approx(kba)
