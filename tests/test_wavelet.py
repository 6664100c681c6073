"""Tests for the from-scratch wavelet transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.wavelet import (
    Wavelet,
    dwt,
    get_wavelet,
    idwt,
    iswt,
    max_dwt_level,
    max_swt_level,
    swt,
    wavedec,
    waverec,
)


#: Every built-in filter bank.
WAVELETS = ("db2", "db3", "db4", "haar", "sym4")


@pytest.fixture(params=WAVELETS)
def wavelet(request):
    return get_wavelet(request.param)


class TestFilterBanks:
    def test_known_wavelets_available(self):
        for expected in WAVELETS:
            assert get_wavelet(expected).name == expected

    def test_unknown_wavelet_rejected(self):
        with pytest.raises(KeyError, match="unknown wavelet"):
            get_wavelet("db17")

    def test_scaling_filter_unit_energy(self, wavelet):
        assert np.sum(wavelet.dec_lo**2) == pytest.approx(1.0, abs=1e-10)

    def test_scaling_filter_sums_to_sqrt2(self, wavelet):
        assert np.sum(wavelet.dec_lo) == pytest.approx(np.sqrt(2.0), abs=1e-8)

    def test_highpass_is_quadrature_mirror(self, wavelet):
        h = wavelet.dec_lo
        g = wavelet.dec_hi
        assert g[0] == pytest.approx(h[-1])
        # Orthogonality of lo and hi filters.
        assert np.dot(h, g) == pytest.approx(0.0, abs=1e-10)

    def test_highpass_zero_dc(self, wavelet):
        # A highpass filter must kill constants.
        assert np.sum(wavelet.dec_hi) == pytest.approx(0.0, abs=1e-8)

    def test_shifted_orthonormality(self, wavelet):
        h = wavelet.dec_lo
        for shift in range(2, h.size, 2):
            overlap = np.dot(h[:-shift], h[shift:])
            assert overlap == pytest.approx(0.0, abs=1e-10)


class TestSingleLevelDWT:
    def test_perfect_reconstruction_even_length(self, wavelet):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(64)
        a, d = dwt(x, wavelet)
        assert a.size == 32 and d.size == 32
        np.testing.assert_allclose(idwt(a, d, wavelet), x, atol=1e-10)

    def test_odd_length_padding_roundtrip(self, wavelet):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(31)
        a, d = dwt(x, wavelet)
        recon = idwt(a, d, wavelet, output_length=31)
        np.testing.assert_allclose(recon, x, atol=1e-10)

    def test_energy_preserved(self, wavelet):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(128)
        a, d = dwt(x, wavelet)
        assert np.sum(a**2) + np.sum(d**2) == pytest.approx(
            np.sum(x**2), rel=1e-10
        )

    def test_constant_signal_has_no_detail(self, wavelet):
        x = np.full(32, 5.0)
        a, d = dwt(x, wavelet)
        np.testing.assert_allclose(d, 0.0, atol=1e-10)

    def test_haar_known_values(self):
        haar = get_wavelet("haar")
        a, d = dwt(np.array([1.0, 3.0, 2.0, 4.0]), haar)
        np.testing.assert_allclose(a, [4.0, 6.0] / np.sqrt(2))
        np.testing.assert_allclose(d, [-2.0, -2.0] / np.sqrt(2))

    def test_rejects_2d_input(self, wavelet):
        with pytest.raises(ValueError, match="1-D"):
            dwt(np.zeros((4, 4)), wavelet)

    def test_rejects_too_short(self, wavelet):
        with pytest.raises(ValueError, match="too short"):
            dwt(np.array([1.0]), wavelet)

    def test_idwt_length_mismatch_rejected(self, wavelet):
        with pytest.raises(ValueError, match="mismatch"):
            idwt(np.zeros(4), np.zeros(5), wavelet)


class TestMultiLevel:
    def test_wavedec_waverec_roundtrip(self, wavelet):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(100)
        dec = wavedec(x, wavelet, level=2)
        np.testing.assert_allclose(waverec(dec), x, atol=1e-9)

    def test_wavedec_default_max_level(self, wavelet):
        x = np.random.default_rng(4).standard_normal(64)
        dec = wavedec(x, wavelet)
        assert dec.levels == max_dwt_level(64, wavelet)

    def test_level_clamped(self, wavelet):
        x = np.random.default_rng(5).standard_normal(32)
        dec = wavedec(x, wavelet, level=99)
        assert dec.levels <= max_dwt_level(32, wavelet)

    def test_max_level_haar(self):
        assert max_dwt_level(64, get_wavelet("haar")) == 6

    def test_too_short_signal_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            wavedec(np.array([1.0, 2.0]), get_wavelet("db4"))

    def test_detail_lengths_halve(self, wavelet):
        x = np.random.default_rng(6).standard_normal(64)
        dec = wavedec(x, wavelet, level=3)
        assert [d.size for d in dec.details] == [32, 16, 8]


class TestStationaryTransform:
    def test_swt_keeps_length(self, wavelet):
        x = np.random.default_rng(7).standard_normal(40)
        approx, details = swt(x, wavelet, level=2)
        assert approx.size == 40
        assert all(d.size == 40 for d in details)

    def test_iswt_roundtrip(self, wavelet):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(48)
        approx, details = swt(x, wavelet, level=3)
        np.testing.assert_allclose(iswt(approx, details, wavelet), x, atol=1e-9)

    def test_constant_signal_details_zero(self, wavelet):
        x = np.full(32, 3.0)
        _, details = swt(x, wavelet, level=2)
        for d in details:
            np.testing.assert_allclose(d, 0.0, atol=1e-9)

    def test_max_swt_level_positive(self):
        assert max_swt_level(20, get_wavelet("db2")) >= 2

    def test_swt_level_clamped(self, wavelet):
        x = np.random.default_rng(9).standard_normal(16)
        approx, details = swt(x, wavelet, level=50)
        assert len(details) <= max_swt_level(16, wavelet)

    def test_impulse_localised_in_details(self):
        # An isolated spike should show up strongly in the finest scale.
        x = np.zeros(64)
        x[30] = 10.0
        _, details = swt(x, get_wavelet("db2"), level=2)
        finest = np.abs(details[0])
        assert np.argmax(finest) in range(26, 34)


class TestPropertyBased:
    @given(
        data=st.lists(
            st.floats(min_value=-1e3, max_value=1e3),
            min_size=16,
            max_size=80,
        ),
        name=st.sampled_from(["haar", "db2", "db3"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_wavedec_roundtrip_property(self, data, name):
        x = np.array(data)
        w = get_wavelet(name)
        dec = wavedec(x, w, level=2)
        np.testing.assert_allclose(waverec(dec), x, atol=1e-7 * (1 + np.max(np.abs(x))))

    @given(
        data=st.lists(
            st.floats(min_value=-1e3, max_value=1e3),
            min_size=12,
            max_size=64,
        ),
        name=st.sampled_from(["haar", "db2"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_swt_roundtrip_property(self, data, name):
        x = np.array(data)
        w = get_wavelet(name)
        approx, details = swt(x, w, level=2)
        np.testing.assert_allclose(
            iswt(approx, details, w), x, atol=1e-7 * (1 + np.max(np.abs(x)))
        )

    @given(
        data=st.lists(
            st.floats(min_value=-100, max_value=100),
            min_size=8,
            max_size=64,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_dwt_linear(self, data):
        x = np.array(data)
        if x.size % 2 == 1:
            x = x[:-1]
        if x.size < 4:
            return
        w = get_wavelet("db2")
        a1, d1 = dwt(x, w)
        a2, d2 = dwt(2.0 * x, w)
        np.testing.assert_allclose(a2, 2.0 * a1, atol=1e-8)
        np.testing.assert_allclose(d2, 2.0 * d1, atol=1e-8)
