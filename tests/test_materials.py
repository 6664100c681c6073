"""Tests for the dielectric material catalog."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.materials import (
    AIR,
    CONTAINER_MATERIALS,
    DEFAULT_FREQUENCY_HZ,
    PAPER_LIQUID_ORDER,
    Material,
    MaterialCatalog,
    default_catalog,
    pure_water,
    saltwater,
)


class TestMaterial:
    def test_complex_permittivity_sign_convention(self):
        m = Material("x", 10.0, 2.0)
        assert m.complex_permittivity == complex(10.0, -2.0)

    def test_rejects_sub_vacuum_permittivity(self):
        with pytest.raises(ValueError, match="eps_real"):
            Material("x", 0.5, 0.0)

    def test_rejects_negative_loss(self):
        with pytest.raises(ValueError, match="eps_imag"):
            Material("x", 2.0, -0.1)

    def test_rejects_negative_conductivity(self):
        with pytest.raises(ValueError, match="conductivity"):
            Material("x", 2.0, 0.1, conductivity=-1.0)

    def test_effective_eps_imag_at_reference(self):
        m = saltwater(2.7)
        assert m.effective_eps_imag(DEFAULT_FREQUENCY_HZ) == pytest.approx(
            m.eps_imag
        )

    def test_conductivity_loss_grows_at_lower_frequency(self):
        m = saltwater(2.7)
        low = m.effective_eps_imag(2.4e9)
        high = m.effective_eps_imag(DEFAULT_FREQUENCY_HZ)
        assert low > high

    def test_nonconductive_material_frequency_flat(self):
        m = Material("x", 5.0, 1.0)
        assert m.effective_eps_imag(2.4e9) == pytest.approx(1.0)

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError, match="frequency"):
            pure_water().effective_eps_imag(0.0)


class TestAir:
    def test_air_is_lossless(self):
        assert AIR.eps_imag == 0.0

    def test_air_near_vacuum(self):
        assert AIR.eps_real == pytest.approx(1.0, abs=1e-3)


class TestSaltwater:
    def test_zero_concentration_is_water(self):
        m = saltwater(0.0)
        assert m.eps_real == pytest.approx(pure_water().eps_real)
        assert m.eps_imag == pytest.approx(pure_water().eps_imag)

    def test_loss_monotone_in_salinity(self):
        losses = [saltwater(c).eps_imag for c in (0.5, 1.2, 2.7, 5.9)]
        assert losses == sorted(losses)

    def test_permittivity_decrement(self):
        assert saltwater(5.9).eps_real < pure_water().eps_real

    def test_negative_concentration_rejected(self):
        with pytest.raises(ValueError, match="concentration"):
            saltwater(-1.0)

    def test_paper_series_names(self):
        assert saltwater(1.2).name == "saltwater_1.2g"


class TestCatalog:
    def test_default_catalog_has_paper_liquids(self):
        catalog = default_catalog()
        for name in PAPER_LIQUID_ORDER:
            assert name in catalog

    def test_default_catalog_has_saltwater_series(self):
        catalog = default_catalog()
        for name in ("saltwater_1.2g", "saltwater_2.7g", "saltwater_5.9g"):
            assert name in catalog

    def test_unknown_material_helpful_error(self):
        with pytest.raises(KeyError, match="catalog has"):
            default_catalog().get("mercury")

    def test_subset_preserves_order(self):
        catalog = default_catalog()
        sub = catalog.subset(["oil", "milk"])
        assert sub.names == ["oil", "milk"]

    def test_add_replaces(self):
        catalog = MaterialCatalog()
        catalog.add(Material("x", 2.0, 0.1))
        catalog.add(Material("x", 3.0, 0.1))
        assert catalog.get("x").eps_real == 3.0

    def test_len_and_iter(self):
        catalog = default_catalog()
        assert len(catalog) == len(list(catalog))

    def test_container_materials_defined(self):
        assert set(CONTAINER_MATERIALS) == {"plastic", "glass"}

    def test_pepsi_and_coke_are_close(self):
        # The designed hard pair: close in permittivity space.
        catalog = default_catalog()
        pepsi, coke = catalog.get("pepsi"), catalog.get("coke")
        assert abs(pepsi.eps_real - coke.eps_real) < 2.0
        assert abs(pepsi.eps_imag - coke.eps_imag) < 2.0

    def test_oil_is_far_from_water(self):
        catalog = default_catalog()
        assert catalog.get("oil").eps_real < 5.0
        assert catalog.get("pure_water").eps_real > 60.0


class TestPropertyBased:
    @given(st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=40, deadline=None)
    def test_saltwater_always_valid(self, grams):
        m = saltwater(grams)
        assert m.eps_real >= 1.0
        assert m.eps_imag >= 0.0
        assert math.isfinite(m.eps_imag)

    @given(
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=60.0),
        st.floats(min_value=1e8, max_value=1e11),
    )
    @settings(max_examples=40, deadline=None)
    def test_effective_loss_nonnegative(self, er, ei, freq):
        m = Material("x", er, ei, conductivity=0.5)
        assert m.effective_eps_imag(freq) >= 0.0
