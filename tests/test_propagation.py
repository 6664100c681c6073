"""Tests for the plane-wave propagation physics (paper Sec. II-B)."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.materials import AIR, Material, default_catalog, pure_water
from repro.channel.propagation import (
    SPEED_OF_LIGHT,
    amplitude_ratio_through,
    attenuation_constant,
    material_feature_theory,
    penetration_response,
    phase_change_through,
    phase_constant,
    propagation_constants,
)


class TestPropagationConstants:
    def test_free_space_phase_constant(self):
        # beta_free = 2 pi / lambda.
        beta = phase_constant(AIR, 5.32e9)
        expected = 2.0 * math.pi * 5.32e9 / SPEED_OF_LIGHT
        assert beta == pytest.approx(expected, rel=1e-3)

    def test_air_attenuation_negligible(self):
        assert attenuation_constant(AIR) == pytest.approx(0.0, abs=1e-9)

    def test_lossless_low_loss_limit(self):
        # For small tan(delta): alpha ~ beta tan(delta) / 2.
        m = Material("x", 4.0, 0.04)
        alpha, beta = propagation_constants(m)
        assert alpha == pytest.approx(beta * 0.01 / 2.0, rel=0.01)

    def test_beta_scales_with_sqrt_permittivity(self):
        m4 = Material("a", 4.0, 0.0)
        m16 = Material("b", 16.0, 0.0)
        assert phase_constant(m16) == pytest.approx(
            2.0 * phase_constant(m4), rel=1e-9
        )

    def test_constants_scale_with_frequency(self):
        m = pure_water()
        _, b1 = propagation_constants(m, 5.0e9)
        _, b2 = propagation_constants(m, 10.0e9)
        assert b2 == pytest.approx(2.0 * b1, rel=0.01)

    def test_water_values_plausible(self):
        alpha, beta = propagation_constants(pure_water())
        # ~5 GHz water: wavelength ~7 mm in medium, strong loss.
        assert 800 < beta < 1100
        assert 100 < alpha < 200

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError, match="frequency"):
            propagation_constants(AIR, -1.0)

    def test_wavelength_in_air(self):
        wavelength = 2.0 * math.pi / phase_constant(AIR, 5.32e9)
        assert wavelength == pytest.approx(0.05635, rel=1e-3)

    def test_wavelength_shrinks_in_dense_media(self):
        # In-medium wavelength 2 pi / beta.
        assert phase_constant(pure_water()) > 5 * phase_constant(AIR)


class TestPenetration:
    def test_phase_change_positive_for_dense_media(self):
        assert phase_change_through(pure_water(), 0.01) > 0.0

    def test_phase_change_linear_in_distance(self):
        one = phase_change_through(pure_water(), 0.01)
        two = phase_change_through(pure_water(), 0.02)
        assert two == pytest.approx(2.0 * one)

    def test_amplitude_ratio_in_unit_interval(self):
        ratio = amplitude_ratio_through(pure_water(), 0.01)
        assert 0.0 < ratio < 1.0

    def test_amplitude_ratio_zero_distance(self):
        assert amplitude_ratio_through(pure_water(), 0.0) == pytest.approx(1.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="path length"):
            phase_change_through(pure_water(), -0.01)
        with pytest.raises(ValueError, match="path length"):
            amplitude_ratio_through(pure_water(), -0.01)

    def test_penetration_response_consistent(self):
        d = 0.012
        response = penetration_response(pure_water(), d)
        assert abs(response) == pytest.approx(
            amplitude_ratio_through(pure_water(), d)
        )
        assert cmath.phase(response) == pytest.approx(
            -phase_change_through(pure_water(), d) % (2 * math.pi) - (
                2 * math.pi
                if (-phase_change_through(pure_water(), d) % (2 * math.pi))
                > math.pi
                else 0.0
            ),
            abs=1e-9,
        )


class TestMaterialFeature:
    def test_positive_for_all_catalog_liquids(self):
        catalog = default_catalog()
        for material in catalog:
            if material.name == "air":
                continue
            assert material_feature_theory(material) > 0.0, material.name

    def test_equals_alpha_over_beta_difference(self):
        m = pure_water()
        alpha, beta = propagation_constants(m)
        alpha_f, beta_f = propagation_constants(AIR)
        expected = (alpha - alpha_f) / (beta - beta_f)
        assert material_feature_theory(m) == pytest.approx(expected)

    def test_size_independence_by_construction(self):
        # Omega-bar derives only from (alpha, beta); verify the Eq. 20/21
        # algebra: for any D, (-ln ratio) / phase = Omega-bar.
        m = pure_water()
        omega = material_feature_theory(m)
        for d in (0.001, 0.01, 0.1):
            n = -math.log(amplitude_ratio_through(m, d))
            theta = phase_change_through(m, d)
            assert n / theta == pytest.approx(omega, rel=1e-9)

    def test_air_vs_air_rejected(self):
        with pytest.raises(ValueError, match="indistinguishable"):
            material_feature_theory(AIR)

    def test_catalog_orders_as_designed(self):
        # The designed feature ordering that drives the experiments.
        catalog = default_catalog()
        omega = {
            name: material_feature_theory(catalog.get(name))
            for name in ("oil", "pure_water", "pepsi", "coke", "soy", "liquor")
        }
        assert omega["oil"] < omega["pure_water"] < omega["pepsi"]
        assert omega["pepsi"] < omega["coke"] < omega["soy"] < omega["liquor"]

    def test_saltwater_feature_monotone_in_concentration(self):
        from repro.channel.materials import saltwater

        values = [
            material_feature_theory(saltwater(c)) for c in (1.2, 2.7, 5.9)
        ]
        assert values == sorted(values)


class TestPropertyBased:
    @given(
        st.floats(min_value=1.1, max_value=90.0),
        st.floats(min_value=0.01, max_value=50.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_constants_positive(self, er, ei):
        alpha, beta = propagation_constants(Material("x", er, ei))
        assert alpha > 0.0
        assert beta > 0.0

    @given(
        st.floats(min_value=1.1, max_value=90.0),
        st.floats(min_value=0.01, max_value=50.0),
        st.floats(min_value=0.0, max_value=0.2),
    )
    @settings(max_examples=50, deadline=None)
    def test_ratio_decays_with_distance(self, er, ei, d):
        m = Material("x", er, ei)
        assert amplitude_ratio_through(m, d) <= 1.0 + 1e-12

    @given(
        st.floats(min_value=1.1, max_value=90.0),
        st.floats(min_value=0.01, max_value=50.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_feature_scale_invariant_in_distance(self, er, ei):
        m = Material("x", er, ei)
        omega = material_feature_theory(m)
        n = -math.log(amplitude_ratio_through(m, 0.037))
        theta = phase_change_through(m, 0.037)
        assert n / theta == pytest.approx(omega, rel=1e-6)
