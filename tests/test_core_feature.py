"""Tests for the material feature extractor and gamma resolution."""

import dataclasses
import math

import numpy as np
import pytest

from repro.channel.environment import make_environment
from repro.channel.geometry import CylinderTarget, LinkGeometry
from repro.channel.materials import AIR, default_catalog
from repro.channel.propagation import material_feature_theory
from repro.core.amplitude import AmplitudeProcessor
from repro.core.feature import (
    FeatureMeasurement,
    MaterialFeatureExtractor,
    SessionFeatures,
    coarse_omega_estimate,
    resolve_gamma,
    resolve_gamma_with_coarse,
    theory_reference_omegas,
)
from repro.csi.collector import CaptureSession
from repro.csi.impairments import clean_profile
from repro.csi.simulator import CsiSimulator, SimulationScene

CATALOG = default_catalog()
REFS = theory_reference_omegas(
    [CATALOG.get(n) for n in ("pure_water", "oil", "liquor", "soy", "pepsi")]
)


def _clean_session(material_name, offset=0.015):
    env = dataclasses.replace(make_environment("lab"),
        num_paths=0, noise_floor=0.0, temporal_jitter_rad=0.0, gain_jitter=0.0
    )
    scene = SimulationScene(
        geometry=LinkGeometry(),
        environment=env,
        target=CylinderTarget(lateral_offset=offset),
    )
    sim = CsiSimulator(scene, clean_profile(), rng=0)
    return CaptureSession(
        baseline=sim.capture(AIR, 3),
        target=sim.capture(CATALOG.get(material_name), 3),
        material_name=material_name,
        scene=scene,
    )


class TestResolveGamma:
    def test_exact_inputs_recover_gamma(self):
        # Construct a synthetic measurement for water.
        omega = REFS["pure_water"]
        true_theta = -6.2
        n = omega * true_theta
        wrapped = math.atan2(math.sin(true_theta), math.cos(true_theta))
        gamma, est = resolve_gamma(wrapped, n, REFS)
        assert wrapped + 2 * math.pi * gamma == pytest.approx(true_theta)
        assert est == pytest.approx(omega, rel=1e-6)

    def test_envelope_strategy(self):
        omega = REFS["liquor"]
        true_theta = -4.2
        n = omega * true_theta
        wrapped = math.atan2(math.sin(true_theta), math.cos(true_theta))
        gamma, est = resolve_gamma(wrapped, n, REFS, strategy="envelope")
        assert est > 0.0

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            resolve_gamma(0.1, 0.1, REFS, strategy="magic")

    def test_empty_refs_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            resolve_gamma(0.1, 0.1, {})

    def test_nonpositive_refs_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            resolve_gamma(0.1, 0.1, {"x": -0.2})

    def test_with_coarse_recovers(self):
        omega = REFS["soy"]
        true_theta = -5.5
        n = omega * true_theta
        wrapped = math.atan2(math.sin(true_theta), math.cos(true_theta))
        gamma, est = resolve_gamma_with_coarse(wrapped, n, omega * 1.2)
        assert est == pytest.approx(omega, rel=1e-6)

    def test_with_coarse_invalid_omega(self):
        with pytest.raises(ValueError, match="omega_coarse"):
            resolve_gamma_with_coarse(0.1, 0.1, -1.0)

    def test_coarse_estimate_principal_value(self):
        omega = REFS["pepsi"]
        theta = -1.5
        assert coarse_omega_estimate(theta, omega * theta, REFS) == (
            pytest.approx(omega, rel=1e-9)
        )


class TestExtractorCleanChannel:
    @pytest.mark.parametrize(
        "name", ["pure_water", "oil", "liquor", "soy", "pepsi"]
    )
    def test_recovers_theory_feature(self, name):
        session = _clean_session(name)
        extractor = MaterialFeatureExtractor(
            REFS, amplitude=AmplitudeProcessor(denoise=False)
        )
        result = extractor.measure(
            session, (0, 1), list(range(30)), coarse_pair=(1, 2)
        )
        assert result.omega_mean == pytest.approx(REFS[name], rel=0.02)

    def test_size_independence(self):
        # Different beaker offsets (hence different D1-D2) give the same
        # feature -- the paper's central claim.
        extractor = MaterialFeatureExtractor(
            REFS, amplitude=AmplitudeProcessor(denoise=False)
        )
        values = []
        for offset in (0.010, 0.018, 0.025):
            session = _clean_session("pure_water", offset=offset)
            result = extractor.measure(
                session, (0, 1), list(range(30)), coarse_pair=(1, 2)
            )
            values.append(result.omega_mean)
        assert max(values) - min(values) < 0.01

    def test_true_omega_pins_gamma(self):
        session = _clean_session("liquor")
        extractor = MaterialFeatureExtractor(REFS)
        result = extractor.measure(
            session,
            (0, 1),
            list(range(30)),
            true_omega=REFS["liquor"],
        )
        assert result.omega_mean == pytest.approx(REFS["liquor"], rel=0.05)

    def test_empty_subcarriers_rejected(self):
        session = _clean_session("oil")
        extractor = MaterialFeatureExtractor(REFS)
        with pytest.raises(ValueError, match="subcarrier"):
            extractor.measure(session, (0, 1), [])


class TestFeatureMeasurement:
    def _measurement(self):
        session = _clean_session("pure_water")
        extractor = MaterialFeatureExtractor(
            REFS, amplitude=AmplitudeProcessor(denoise=False)
        )
        return extractor.measure(
            session, (0, 1), [3, 7, 12], coarse_pair=(1, 2)
        )

    def test_vector_includes_coarse(self):
        m = self._measurement()
        assert m.vector().size == 4  # 3 subcarriers + coarse

    def test_vector_for_gamma_consistent(self):
        m = self._measurement()
        np.testing.assert_allclose(m.vector_for_gamma(m.gamma), m.vector())

    def test_vector_for_other_gamma_differs(self):
        m = self._measurement()
        assert not np.allclose(
            m.vector_for_gamma(m.gamma + 1), m.vector()
        )

    def test_include_coarse_flag(self):
        m = self._measurement()
        m2 = FeatureMeasurement(
            omegas=m.omegas,
            delta_theta=m.delta_theta,
            delta_psi=m.delta_psi,
            gamma=m.gamma,
            pair=m.pair,
            subcarriers=m.subcarriers,
            theta_aligned=m.theta_aligned,
            neg_log_psi=m.neg_log_psi,
            omega_coarse=m.omega_coarse,
            include_coarse=False,
        )
        assert m2.vector().size == 3


class TestSessionFeatures:
    def _features(self):
        session = _clean_session("pure_water")
        extractor = MaterialFeatureExtractor(
            REFS, amplitude=AmplitudeProcessor(denoise=False)
        )
        m1 = extractor.measure(session, (0, 1), [1, 2], coarse_pair=(1, 2))
        m2 = extractor.measure(session, (0, 2), [1, 2], coarse_pair=(1, 2))
        return SessionFeatures(
            measurements=[m1, m2], material_name="pure_water"
        )

    def test_concatenated_vector(self):
        f = self._features()
        assert f.vector().size == 6  # 2 blocks x (2 subcarriers + coarse)

    def test_block_slices_cover_vector(self):
        f = self._features()
        slices = f.block_slices()
        assert slices[0].stop == slices[1].start
        assert slices[-1].stop == f.vector().size

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SessionFeatures(measurements=[])


class TestGammaProperties:
    """Property-based checks of the wrap-resolution algebra."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.sampled_from(list(REFS)),
        st.floats(min_value=-14.0, max_value=-0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_dictionary_roundtrip_on_exact_inputs(self, name, true_theta):
        import math

        from repro.core.feature import resolve_gamma

        omega = REFS[name]
        n = omega * true_theta
        wrapped = math.atan2(math.sin(true_theta), math.cos(true_theta))
        gamma, est = resolve_gamma(wrapped, n, REFS, max_gamma=4)
        # The resolved branch reproduces the true (unwrapped) phase ...
        assert wrapped + 2 * math.pi * gamma == pytest.approx(
            true_theta, abs=1e-6
        )
        # ... hence the exact feature.
        assert est == pytest.approx(omega, rel=1e-6)

    @given(
        st.floats(min_value=0.08, max_value=0.45),
        st.floats(min_value=-14.0, max_value=-0.5),
        st.floats(min_value=0.7, max_value=1.4),
    )
    @settings(max_examples=60, deadline=None)
    def test_coarse_roundtrip_tolerates_coarse_error(
        self, omega, true_theta, coarse_factor
    ):
        import math

        from repro.core.feature import resolve_gamma_with_coarse

        n = omega * true_theta
        wrapped = math.atan2(math.sin(true_theta), math.cos(true_theta))
        gamma, est = resolve_gamma_with_coarse(
            wrapped, n, omega * coarse_factor, max_gamma=4
        )
        predicted = n / (omega * coarse_factor)
        # Correct recovery is guaranteed whenever the coarse estimate's
        # phase prediction is within half a wrap of the truth.
        if abs(predicted - true_theta) < math.pi:
            assert est == pytest.approx(omega, rel=1e-6)
