"""Tests for the spatially-selective wavelet denoiser (Eq. 8-13)."""

import pickle
import threading
import tracemalloc

import numpy as np
import pytest

from repro.dsp.wavelet_denoise import (
    SpatiallySelectiveDenoiser,
    remove_outliers,
    wavelet_denoise,
)


class TestOutlierRemoval:
    def test_flags_extreme_samples(self):
        x = np.ones(50)
        x[10] = 50.0
        cleaned, mask = remove_outliers(x)
        assert mask[10]
        assert mask.sum() == 1
        assert cleaned[10] == pytest.approx(1.0)

    def test_clean_signal_untouched(self):
        rng = np.random.default_rng(0)
        x = 1.0 + 0.01 * rng.standard_normal(100)
        cleaned, mask = remove_outliers(x)
        assert not mask.any()
        np.testing.assert_allclose(cleaned, x)

    def test_constant_signal(self):
        cleaned, mask = remove_outliers(np.full(10, 2.0))
        assert not mask.any()

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="non-empty"):
            remove_outliers(np.array([]))
        with pytest.raises(ValueError, match="num_sigmas"):
            remove_outliers(np.ones(5), num_sigmas=0.0)
        with pytest.raises(ValueError, match="1-D or 2-D"):
            remove_outliers(np.ones((2, 2, 2)))

    def test_2d_matches_per_column(self):
        rng = np.random.default_rng(7)
        x = 1.0 + 0.01 * rng.standard_normal((40, 3))
        x[5, 0] = 40.0
        x[20, 2] = -40.0
        cleaned, mask = remove_outliers(x)
        for c in range(x.shape[1]):
            ref_clean, ref_mask = remove_outliers(x[:, c])
            np.testing.assert_array_equal(mask[:, c], ref_mask)
            np.testing.assert_array_equal(cleaned[:, c], ref_clean)


class TestDenoiser:
    def test_removes_impulse_spikes(self):
        rng = np.random.default_rng(1)
        truth = np.full(64, 1.0)
        noisy = truth.copy()
        spikes = rng.choice(64, size=5, replace=False)
        noisy[spikes] += rng.choice([-0.5, 0.5], size=5)
        out = wavelet_denoise(noisy)
        assert np.sqrt(np.mean((out - truth) ** 2)) < np.sqrt(
            np.mean((noisy - truth) ** 2)
        )

    def test_short_series_passthrough(self):
        denoiser = SpatiallySelectiveDenoiser()
        x = np.array([1.0, 2.0, 1.5])
        out = denoiser.correlation_filter(x)
        np.testing.assert_allclose(out, x)

    def test_constant_preserved(self):
        out = wavelet_denoise(np.full(32, 3.0))
        np.testing.assert_allclose(out, 3.0, atol=1e-9)

    def test_output_length_matches(self):
        rng = np.random.default_rng(2)
        for n in (16, 20, 33, 64):
            x = 1.0 + 0.1 * rng.standard_normal(n)
            assert wavelet_denoise(x).size == n

    def test_reduces_noise_energy_on_impulse_bursts(self):
        rng = np.random.default_rng(3)
        truth = 1.0 + 0.05 * np.sin(np.linspace(0, 4 * np.pi, 128))
        noisy = truth.copy()
        # Bursts: consecutive corrupted samples.
        for start in (20, 60, 100):
            noisy[start : start + 3] += rng.uniform(0.3, 0.6, 3)
        out = wavelet_denoise(noisy)
        err_out = np.mean((out - truth) ** 2)
        err_in = np.mean((noisy - truth) ** 2)
        assert err_out < err_in / 2

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="levels"):
            SpatiallySelectiveDenoiser(levels=0)
        with pytest.raises(KeyError, match="unknown wavelet"):
            SpatiallySelectiveDenoiser(wavelet_name="db99")
        with pytest.raises(ValueError, match="max_iterations"):
            SpatiallySelectiveDenoiser(max_iterations=0)

    def test_denoise_combines_stages(self):
        # A huge outlier plus impulse noise: both stages must engage.
        rng = np.random.default_rng(4)
        truth = np.full(40, 1.0)
        noisy = truth + 0.02 * rng.standard_normal(40)
        noisy[5] = 10.0       # outlier (3-sigma stage)
        noisy[20] += 0.4      # impulse (wavelet stage)
        out = SpatiallySelectiveDenoiser().denoise(noisy)
        assert abs(out[5] - 1.0) < 0.5
        assert np.max(np.abs(out - truth)) < 0.5


class TestDenoiserWorkspaces:
    """Per-thread reusable work/out coefficient buffers."""

    def _trace(self):
        t = np.arange(64)[:, None]
        x = 1.0 + 0.05 * np.sin(2 * np.pi * t / 16.0 + np.arange(6))
        return x + 0.01 * np.random.default_rng(0).standard_normal(x.shape)

    def test_warm_scalar_path_allocates_less_than_cold(self):
        # Repeated same-shape scalar calls reuse the work/out coefficient
        # lists instead of reallocating them every call (the per-column
        # reference path makes one call per channel, all same-shape).
        x = self._trace()[:, 0]
        denoiser = SpatiallySelectiveDenoiser()

        def peak_of_call():
            tracemalloc.start()
            denoiser._reference_denoise(x)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        cold = peak_of_call()  # first call builds the workspace
        warm = min(peak_of_call() for _ in range(3))
        assert warm < cold

    def test_scalar_path_matches_without_workspace_reuse_artifacts(self):
        # Back-to-back warm calls must not leak state between calls.
        x = self._trace()[:, 0]
        denoiser = SpatiallySelectiveDenoiser()
        first = denoiser._reference_denoise(x)
        second = denoiser._reference_denoise(x)
        assert np.array_equal(first, second)

    def test_workspaces_are_thread_local(self):
        x = self._trace()
        denoiser = SpatiallySelectiveDenoiser()
        expected = denoiser.denoise(x)
        results = {}

        def worker(name):
            results[name] = [denoiser.denoise(x) for _ in range(5)]

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for outs in results.values():
            for out in outs:
                assert np.array_equal(out, expected)

    def test_denoiser_survives_pickling(self):
        x = self._trace()
        denoiser = SpatiallySelectiveDenoiser()
        denoiser.denoise(x)  # warm the workspace
        clone = pickle.loads(pickle.dumps(denoiser))
        assert np.array_equal(clone.denoise(x), denoiser.denoise(x))
