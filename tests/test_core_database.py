"""Tests for the material feature database and classifier wrapper."""

import math

import numpy as np
import pytest

from repro.core.database import DatabaseClassifier, MaterialDatabase
from repro.core.feature import (
    _MIN_DENOMINATOR_RAD,
    FeatureMeasurement,
    SessionFeatures,
    theory_reference_omegas,
)
from repro.core.pipeline import WiMi
from repro.experiments.datasets import collect_dataset, paper_liquids


def _measurement(omega, name, coarse=float("nan")):
    omegas = np.array([omega, omega * 1.01])
    return FeatureMeasurement(
        omegas=omegas,
        delta_theta=np.array([-5.0, -5.0]),
        delta_psi=np.exp(-omegas * -5.0),
        gamma=-1,
        pair=(0, 1),
        subcarriers=[3, 4],
        material_name=name,
        theta_aligned=np.array([-5.0 + 2 * np.pi, -5.0 + 2 * np.pi]),
        neg_log_psi=omegas * -5.0,
        omega_coarse=coarse,
    )


def _database():
    db = MaterialDatabase()
    rng = np.random.default_rng(0)
    for name, omega in (("water", 0.16), ("oil", 0.09), ("soy", 0.38)):
        for _ in range(6):
            db.add(_measurement(omega + rng.normal(0, 0.002), name))
    return db


class TestDatabase:
    def test_add_and_count(self):
        db = _database()
        assert db.count("water") == 6
        assert len(db) == 18
        assert set(db.labels) == {"water", "oil", "soy"}

    def test_unlabelled_rejected(self):
        db = MaterialDatabase()
        with pytest.raises(ValueError, match="label"):
            db.add(_measurement(0.1, ""))

    def test_explicit_label(self):
        db = MaterialDatabase()
        db.add(_measurement(0.1, ""), label="mystery")
        assert db.count("mystery") == 1

    def test_mean_feature(self):
        db = _database()
        assert db.mean_feature("water").shape == (2,)

    def test_feature_spread(self):
        db = _database()
        assert db.feature_spread("water") < 0.01

    def test_missing_material(self):
        with pytest.raises(KeyError, match="no entries"):
            _database().mean_feature("wine")

    def test_dataset_shapes(self):
        x, y = _database().dataset()
        assert x.shape == (18, 2)
        assert y.shape == (18,)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            MaterialDatabase().dataset()

    def test_inconsistent_vectors_rejected(self):
        db = MaterialDatabase(
            entries={"a": [np.zeros(2)], "b": [np.zeros(3)]}
        )
        with pytest.raises(ValueError, match="inconsistent"):
            db.dataset()


class TestClassifier:
    @pytest.mark.parametrize("kind", ["svm", "knn", "centroid"])
    def test_fit_predict(self, kind):
        db = _database()
        clf = DatabaseClassifier(kind=kind).fit(db)
        pred = clf.predict_one(_measurement(0.16, ""))
        assert pred == "water"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="classifier kind"):
            DatabaseClassifier(kind="forest")

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            DatabaseClassifier().predict(np.zeros((1, 2)))

    def test_single_material_rejected(self):
        db = MaterialDatabase()
        for _ in range(3):
            db.add(_measurement(0.2, "only"))
        with pytest.raises(ValueError, match="two materials"):
            DatabaseClassifier().fit(db)

    def test_branch_resolution_recovers_wrapped(self):
        db = _database()
        clf = DatabaseClassifier().fit(db)
        # A soy measurement whose principal branch is wrong by one wrap.
        m = _measurement(0.38, "")
        predicted = clf.resolve_branch_and_predict(
            m, envelope=(0.05, 0.6)
        )
        assert predicted == "soy"

    def test_branch_resolution_without_observables(self):
        db = _database()
        clf = DatabaseClassifier().fit(db)
        bare = FeatureMeasurement(
            omegas=np.array([0.09, 0.09]),
            delta_theta=np.array([-1.0, -1.0]),
            delta_psi=np.array([1.0, 1.0]),
            gamma=0,
            pair=(0, 1),
            subcarriers=[3, 4],
        )
        assert clf.resolve_branch_and_predict(bare) == "oil"


def _observed(theta, neg_log_psi):
    """A two-subcarrier measurement with the given branch observables."""
    theta = np.asarray(theta, dtype=float)
    neg_log_psi = np.asarray(neg_log_psi, dtype=float)
    return FeatureMeasurement(
        omegas=neg_log_psi / theta,
        delta_theta=theta,
        delta_psi=np.exp(-neg_log_psi),
        gamma=0,
        pair=(0, 1),
        subcarriers=[3, 4],
        theta_aligned=theta,
        neg_log_psi=neg_log_psi,
    )


@pytest.fixture(scope="module")
def golden_wimi():
    """The golden corpus of test_integration_properties: a fitted
    ten-liquid pipeline plus one held-out 20-packet session per liquid."""
    liquids = paper_liquids()
    data = collect_dataset(liquids, repetitions=3, num_packets=20, seed=11)
    train = [s for sessions in data.values() for s in sessions[:2]]
    test = [s for sessions in data.values() for s in sessions[2:]]
    return WiMi(theory_reference_omegas(liquids)).fit(train), train + test


class TestBranchSearchMatchesReference:
    """The all-branch array search equals the branch-by-branch scan."""

    @staticmethod
    def _assert_twin(clf, features, envelope):
        for block, m in enumerate(features.measurements):
            fast = clf._resolve_block(features, block, m, 4, envelope)
            slow = clf._reference_resolve_block(
                features, block, m, 4, envelope
            )
            assert np.array_equal(fast, slow, equal_nan=True)

    @pytest.mark.parametrize("with_envelope", [True, False])
    def test_golden_corpus_blocks(self, golden_wimi, with_envelope):
        wimi, sessions = golden_wimi
        envelope = wimi._omega_envelope() if with_envelope else None
        for session in sessions:
            self._assert_twin(
                wimi._classifier, wimi.extract(session), envelope
            )

    def test_every_branch_outside_the_envelope(self):
        clf = DatabaseClassifier().fit(_database())
        m = _measurement(0.38, "")
        features = SessionFeatures(measurements=[m])
        self._assert_twin(clf, features, (100.0, 200.0))
        assert np.array_equal(
            clf._resolve_block(features, 0, m, 4, (100.0, 200.0)), m.vector()
        )

    def test_exact_tie_takes_the_lower_gamma(self):
        """Two branches at exactly equal centroid distance: both searches
        keep the first minimum, the lower gamma."""
        clf = DatabaseClassifier().fit(_database())
        m = _observed([-5.0 + 2 * np.pi] * 2, [-0.8, -0.9])
        features = SessionFeatures(measurements=[m])
        low, high = m.vector_for_gamma(-1), m.vector_for_gamma(2)
        assert not np.array_equal(low, high)
        # One centroid on each branch's scaled vector, scaled exactly as
        # the searches scale it: both branches sit at distance 0.
        mean, scale = clf._scaler.mean_, clf._scaler.scale_
        clf._centroids._centroids = np.stack(
            [(high - mean) / scale, (low - mean) / scale]
        )
        for search in (clf._resolve_block, clf._reference_resolve_block):
            assert np.array_equal(search(features, 0, m, 4, None), low)

    @pytest.mark.parametrize("envelope", [None, (0.05, 0.6)])
    def test_nan_neg_log_psi(self, envelope):
        clf = DatabaseClassifier().fit(_database())
        m = _observed([-5.0 + 2 * np.pi] * 2, [np.nan, -0.8])
        features = SessionFeatures(measurements=[m])
        self._assert_twin(clf, features, envelope)
        # A NaN distance never wins, so no branch is chosen.
        assert np.array_equal(
            clf._resolve_block(features, 0, m, 4, envelope),
            m.vector(),
            equal_nan=True,
        )

    @pytest.mark.parametrize("envelope", [None, (0.05, 0.6)])
    def test_unwrapped_phase_at_and_near_zero(self, envelope):
        clf = DatabaseClassifier().fit(_database())
        two_pi = 2.0 * math.pi
        thetas = (
            [-two_pi, -two_pi],  # exactly 0 at gamma = 1
            [-two_pi + 0.5 * _MIN_DENOMINATOR_RAD] * 2,  # inside the clamp
            [-2 * two_pi - 0.5 * _MIN_DENOMINATOR_RAD] * 2,
        )
        for theta in thetas:
            m = _observed(theta, [-0.8, -0.9])
            branches = m.vectors_for_gammas(np.arange(-4, 5))
            for row, gamma in zip(branches, range(-4, 5)):
                assert np.array_equal(row, m.vector_for_gamma(gamma))
            self._assert_twin(clf, SessionFeatures(measurements=[m]), envelope)
        zero = _observed(thetas[0], [-0.8, -0.9]).vectors_for_gammas([1])
        assert np.array_equal(
            zero[0], np.array([-0.8, -0.9]) / _MIN_DENOMINATOR_RAD
        )
