"""Tests for the from-scratch db2 stationary wavelet transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.wavelet import (
    DEC_HI,
    DEC_LO,
    WAVELET_LEVELS,
    WAVELET_NAME,
    iswt,
    max_swt_level,
    swt,
)


@pytest.fixture(params=[WAVELET_NAME])
def wavelet(request):
    """Name of the filter bank a case runs on, which its test id records."""
    return request.param


class TestFilterBanks:
    def test_scaling_filter_unit_energy(self, wavelet):
        assert np.sum(DEC_LO**2) == pytest.approx(1.0, abs=1e-10)

    def test_scaling_filter_sums_to_sqrt2(self, wavelet):
        assert np.sum(DEC_LO) == pytest.approx(np.sqrt(2.0), abs=1e-8)

    def test_highpass_is_quadrature_mirror(self, wavelet):
        assert DEC_HI[0] == pytest.approx(DEC_LO[-1])
        # Orthogonality of lo and hi filters.
        assert np.dot(DEC_LO, DEC_HI) == pytest.approx(0.0, abs=1e-10)

    def test_highpass_zero_dc(self, wavelet):
        # A highpass filter must kill constants.
        assert np.sum(DEC_HI) == pytest.approx(0.0, abs=1e-8)

    def test_shifted_orthonormality(self, wavelet):
        for shift in range(2, DEC_LO.size, 2):
            overlap = np.dot(DEC_LO[:-shift], DEC_LO[shift:])
            assert overlap == pytest.approx(0.0, abs=1e-10)

    def test_filters_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            DEC_LO[0] = 0.0


class TestStationaryTransform:
    def test_swt_keeps_length(self, wavelet):
        x = np.random.default_rng(7).standard_normal(40)
        approx, details = swt(x)
        assert approx.size == 40
        assert len(details) == WAVELET_LEVELS
        assert all(d.size == 40 for d in details)

    def test_iswt_roundtrip(self, wavelet):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(48)
        approx, details = swt(x)
        np.testing.assert_allclose(iswt(approx, details), x, atol=1e-9)

    def test_energy_preserved(self, wavelet):
        # H^T H + G^T G = 2 I at every scale, so each level splits twice
        # the energy of its input between approximation and detail.
        x = np.random.default_rng(2).standard_normal(128)
        approx, details = swt(x)
        energy = np.sum(approx**2) / 2 ** len(details) + sum(
            np.sum(d**2) / 2 ** (lev + 1) for lev, d in enumerate(details)
        )
        assert energy == pytest.approx(np.sum(x**2), rel=1e-10)

    def test_constant_signal_details_zero(self, wavelet):
        x = np.full(32, 3.0)
        _, details = swt(x)
        for d in details:
            np.testing.assert_allclose(d, 0.0, atol=1e-9)

    def test_max_swt_level_positive(self):
        assert max_swt_level(20) >= 2

    def test_swt_level_clamped(self, wavelet):
        # Eight samples fit the filter dilated twice, not three times.
        assert max_swt_level(8) == 2 < WAVELET_LEVELS
        x = np.random.default_rng(9).standard_normal(8)
        approx, details = swt(x)
        assert len(details) == 2
        np.testing.assert_allclose(iswt(approx, details), x, atol=1e-9)

    def test_too_short_signal_rejected(self):
        assert max_swt_level(3) == 0
        with pytest.raises(ValueError, match="too short"):
            swt(np.ones(3))

    def test_rejects_3d_input(self):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            swt(np.zeros((8, 2, 2)))

    def test_impulse_localised_in_details(self):
        # An isolated spike should show up strongly in the finest scale.
        x = np.zeros(64)
        x[30] = 10.0
        _, details = swt(x)
        finest = np.abs(details[0])
        assert np.argmax(finest) in range(26, 34)


class TestPropertyBased:
    @given(
        data=st.lists(
            st.floats(min_value=-1e3, max_value=1e3),
            min_size=12,
            max_size=64,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_swt_roundtrip_property(self, data):
        x = np.array(data)
        approx, details = swt(x)
        np.testing.assert_allclose(
            iswt(approx, details), x, atol=1e-7 * (1 + np.max(np.abs(x)))
        )

    @given(
        data=st.lists(
            st.floats(min_value=-100, max_value=100),
            min_size=8,
            max_size=64,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_swt_linear(self, data):
        x = np.array(data)
        a1, d1 = swt(x)
        a2, d2 = swt(2.0 * x)
        np.testing.assert_allclose(a2, 2.0 * a1, atol=1e-8)
        for fine, doubled in zip(d1, d2):
            np.testing.assert_allclose(doubled, 2.0 * fine, atol=1e-8)
