"""Tests for the Amplitude Denoising Module."""

import numpy as np
import pytest

from repro.channel.environment import make_environment
from repro.channel.geometry import CylinderTarget, LinkGeometry
from repro.channel.materials import default_catalog
from repro.core.amplitude import AmplitudeProcessor
from repro.csi.collector import DataCollector, SessionConfig
from repro.csi.simulator import SimulationScene


@pytest.fixture(scope="module")
def trace():
    scene = SimulationScene(
        geometry=LinkGeometry(),
        environment=make_environment("lab"),
        target=CylinderTarget(lateral_offset=0.02),
    )
    collector = DataCollector(scene, rng=0)
    return collector.collect(
        default_catalog().get("milk"), SessionConfig(num_packets=30)
    ).baseline


class TestCleanAmplitudes:
    def test_shape(self, trace):
        amp = AmplitudeProcessor()
        assert amp.clean_amplitudes(trace).shape == (30, 30, 3)

    def test_denoising_reduces_variance(self, trace):
        raw = AmplitudeProcessor(denoise=False).clean_amplitudes(trace)
        cleaned = AmplitudeProcessor(denoise=True).clean_amplitudes(trace)
        assert cleaned.var(axis=0).mean() < raw.var(axis=0).mean()

    def test_positive_output(self, trace):
        cleaned = AmplitudeProcessor().clean_amplitudes(trace)
        assert np.all(cleaned > 0.0)

    def test_short_trace_outliers_only(self, trace):
        amp = AmplitudeProcessor()
        short = trace.subset(3)
        assert amp.clean_amplitudes(short).shape == (3, 30, 3)


class TestRatios:
    def test_ratio_shape(self, trace):
        amp = AmplitudeProcessor()
        assert amp.amplitude_ratio(trace, (0, 1)).shape == (30, 30)

    def test_averaged_ratio_is_log_mean(self, trace):
        amp = AmplitudeProcessor(denoise=False)
        ratio = amp.amplitude_ratio(trace, (0, 1))
        expected = np.exp(np.mean(np.log(ratio), axis=0))
        np.testing.assert_allclose(
            amp.averaged_amplitude_ratio(trace, (0, 1)), expected
        )

    def test_ratio_inverse_pair(self, trace):
        amp = AmplitudeProcessor(denoise=False)
        r01 = amp.averaged_amplitude_ratio(trace, (0, 1))
        r10 = amp.averaged_amplitude_ratio(trace, (1, 0))
        np.testing.assert_allclose(r01 * r10, 1.0, rtol=1e-9)

    def test_same_antenna_rejected(self, trace):
        with pytest.raises(ValueError, match="distinct"):
            AmplitudeProcessor().amplitude_ratio(trace, (2, 2))


class TestVarianceDiagnostics:
    def test_ratio_more_stable_than_antennas(self, trace):
        amp = AmplitudeProcessor(denoise=False)
        ant = amp.amplitude_variance_per_subcarrier(trace, 0).mean()
        ratio = amp.ratio_variance_per_subcarrier(trace, (0, 1)).mean()
        assert ratio < ant

    def test_variance_shapes(self, trace):
        amp = AmplitudeProcessor(denoise=False)
        assert amp.amplitude_variance_per_subcarrier(trace, 1).shape == (30,)
        assert amp.ratio_variance_per_subcarrier(trace, (0, 2)).shape == (30,)

    def test_invalid_antenna_rejected(self, trace):
        with pytest.raises(ValueError, match="antenna"):
            AmplitudeProcessor().amplitude_variance_per_subcarrier(trace, 7)
