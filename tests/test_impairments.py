"""Tests for the hardware impairment models."""

import dataclasses

import numpy as np
import pytest

from repro.csi.impairments import HardwareProfile, IntelQuantizer, clean_profile


def _clean_csi(k=30, a=3):
    rng = np.random.default_rng(0)
    mags = 1.0 + 0.1 * rng.standard_normal((k, a))
    phases = rng.uniform(-np.pi, np.pi, (k, a))
    return mags * np.exp(1j * phases)


class TestQuantizer:
    def test_roundtrip_accuracy(self):
        csi = _clean_csi()
        out = IntelQuantizer().apply(csi)
        assert np.max(np.abs(out - csi)) < 0.02

    def test_disabled_is_identity(self):
        csi = _clean_csi()
        np.testing.assert_allclose(IntelQuantizer(enabled=False).apply(csi), csi)

    def test_zero_input(self):
        csi = np.zeros((3, 2), dtype=complex)
        np.testing.assert_allclose(IntelQuantizer().apply(csi), csi)

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError, match="max_level"):
            IntelQuantizer(max_level=0)

    def test_coarse_quantiser_visible(self):
        csi = _clean_csi()
        out = IntelQuantizer(max_level=7).apply(csi)
        assert np.max(np.abs(out - csi)) > 0.01


class TestClockErrors:
    def test_common_across_antennas_cancels_in_difference(self):
        profile = HardwareProfile(
            phase_noise_rad=0.0,
            antenna_noise_factors=(0.0, 0.0, 0.0),
            amplitude_noise=0.0,
            common_gain_jitter=0.0,
            outlier_probability=0.0,
            impulse_probability=0.0,
            quantizer=IntelQuantizer(enabled=False),
        )
        rng = np.random.default_rng(1)
        csi = _clean_csi()
        corrupted = profile.apply_to_packet(csi, rng)
        # Per-antenna phase changes radically ...
        assert np.max(np.abs(np.angle(corrupted) - np.angle(csi))) > 0.5
        # ... but the inter-antenna difference is untouched.
        diff_before = np.angle(csi[:, 0] * np.conj(csi[:, 1]))
        diff_after = np.angle(corrupted[:, 0] * np.conj(corrupted[:, 1]))
        np.testing.assert_allclose(diff_after, diff_before, atol=1e-9)

    def test_clock_error_is_linear_in_subcarrier(self):
        profile = HardwareProfile()
        rng = np.random.default_rng(2)
        err = profile.clock_phase_error(30, rng)
        diffs = np.diff(err)
        np.testing.assert_allclose(diffs, diffs[0], atol=1e-12)

    def test_clean_profile_is_identity(self):
        rng = np.random.default_rng(3)
        csi = _clean_csi()
        out = clean_profile().apply_to_packet(csi, rng)
        np.testing.assert_allclose(out, csi, atol=1e-12)


class TestAmplitudeImpairments:
    def test_common_gain_preserves_ratio(self):
        profile = dataclasses.replace(clean_profile(), common_gain_jitter=0.3)
        rng = np.random.default_rng(4)
        csi = _clean_csi()
        out = profile.apply_to_packet(csi, rng)
        ratio_before = np.abs(csi[:, 0]) / np.abs(csi[:, 1])
        ratio_after = np.abs(out[:, 0]) / np.abs(out[:, 1])
        np.testing.assert_allclose(ratio_after, ratio_before, atol=1e-9)

    def test_outliers_rescale_whole_packet(self):
        profile = dataclasses.replace(clean_profile(),
            outlier_probability=1.0, outlier_magnitude_range=(2.0, 2.0)
        )
        rng = np.random.default_rng(5)
        csi = _clean_csi()
        out = profile.apply_to_packet(csi, rng)
        scale = np.abs(out) / np.abs(csi)
        assert np.allclose(scale, scale.flat[0])
        assert scale.flat[0] == pytest.approx(2.0) or scale.flat[0] == pytest.approx(0.5)

    def test_impulse_hits_one_antenna_broadband(self):
        profile = dataclasses.replace(clean_profile(),
            impulse_probability=1.0, impulse_magnitude=0.5
        )
        rng = np.random.default_rng(6)
        csi = _clean_csi()
        out = profile.apply_to_packet(csi, rng)
        # Every antenna got an event (probability 1) and most subcarriers
        # moved.
        moved = np.abs(out - csi) > 1e-6
        assert moved.mean() > 0.9

    def test_antenna_noise_factors_order(self):
        profile = HardwareProfile()
        assert profile.noise_factor(2) > profile.noise_factor(0)

    def test_noise_factor_cycles(self):
        profile = HardwareProfile(antenna_noise_factors=(1.0, 2.0))
        assert profile.noise_factor(2) == 1.0

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError, match="outlier_probability"):
            HardwareProfile(outlier_probability=1.5)
        with pytest.raises(ValueError, match="impulse_probability"):
            HardwareProfile(impulse_probability=-0.1)

    def test_invalid_outlier_range_rejected(self):
        with pytest.raises(ValueError, match="magnitude range"):
            HardwareProfile(outlier_magnitude_range=(0.5, 2.0))

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="std-devs"):
            HardwareProfile(phase_noise_rad=-0.1)
