"""Tests for the environment presets."""

import numpy as np
import pytest

from repro.channel.environment import (
    _PRESETS,
    Environment,
    make_environment,
)
from repro.channel.geometry import LinkGeometry


class TestPresets:
    def test_three_presets(self):
        assert sorted(_PRESETS) == ["hall", "lab", "library"]

    def test_multipath_richness_ordering(self):
        hall = make_environment("hall")
        lab = make_environment("lab")
        library = make_environment("library")
        assert hall.num_paths < lab.num_paths < library.num_paths
        assert hall.gain_range[1] < lab.gain_range[1] < library.gain_range[1]

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError, match="unknown environment"):
            make_environment("bathroom")


class TestDistanceScaling:
    def test_reference_distance_unchanged(self):
        env = make_environment("lab")
        assert env.scaled_gain_range(2.0) == pytest.approx(env.gain_range)

    def test_longer_link_stronger_relative_multipath(self):
        env = make_environment("lab")
        lo3, hi3 = env.scaled_gain_range(3.0)
        assert hi3 == pytest.approx(env.gain_range[1] * 1.5)
        assert lo3 > env.gain_range[0]

    def test_invalid_distance_rejected(self):
        with pytest.raises(ValueError, match="distance"):
            make_environment("lab").scaled_gain_range(0.0)


class TestChannelBuilding:
    def test_build_channel_path_count(self):
        env = make_environment("library")
        channel = env.build_channel(LinkGeometry(), np.random.default_rng(0))
        assert len(channel.paths) == env.num_paths

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="num_paths"):
            Environment(
                name="x", num_paths=-1, gain_range=(0.1, 0.2),
                temporal_jitter_rad=0.1, gain_jitter=0.1,
                session_drift_rad=0.1, noise_floor=0.01,
            )
        with pytest.raises(ValueError, match="jitter"):
            Environment(
                name="x", num_paths=1, gain_range=(0.1, 0.2),
                temporal_jitter_rad=-0.1, gain_jitter=0.1,
                session_drift_rad=0.1, noise_floor=0.01,
            )
        with pytest.raises(ValueError, match="noise_floor"):
            Environment(
                name="x", num_paths=1, gain_range=(0.1, 0.2),
                temporal_jitter_rad=0.1, gain_jitter=0.1,
                session_drift_rad=0.1, noise_floor=-0.01,
            )
