"""Tests for the moving-liquid extension (paper Discussion)."""

import dataclasses

import numpy as np
import pytest

from repro.channel.environment import make_environment
from repro.channel.geometry import CylinderTarget, LinkGeometry
from repro.channel.materials import default_catalog
from repro.csi.collector import DataCollector, SessionConfig
from repro.csi.impairments import clean_profile
from repro.csi.simulator import CsiSimulator, SimulationScene

CATALOG = default_catalog()


def _scene():
    env = dataclasses.replace(make_environment("lab"),
        num_paths=0, noise_floor=0.0, temporal_jitter_rad=0.0, gain_jitter=0.0
    )
    return SimulationScene(
        geometry=LinkGeometry(),
        environment=env,
        target=CylinderTarget(lateral_offset=0.015),
    )


class TestMovingTarget:
    def test_static_capture_is_stationary(self):
        sim = CsiSimulator(_scene(), clean_profile(), rng=0)
        trace = sim.capture(CATALOG.get("milk"), 5, motion_std_m=0.0)
        matrix = trace.matrix()
        np.testing.assert_allclose(matrix[0], matrix[-1], atol=1e-9)

    def test_motion_makes_packets_differ(self):
        sim = CsiSimulator(_scene(), clean_profile(), rng=0)
        trace = sim.capture(CATALOG.get("milk"), 5, motion_std_m=0.004)
        matrix = trace.matrix()
        assert np.max(np.abs(matrix[0] - matrix[1])) > 1e-3

    def test_motion_increases_phase_variance(self):
        from repro.core.subcarrier import SubcarrierSelector
        from repro.csi.collector import CaptureSession

        sim = CsiSimulator(_scene(), clean_profile(), rng=0)
        static = sim.capture(CATALOG.get("milk"), 10, motion_std_m=0.0)
        moving = sim.capture(CATALOG.get("milk"), 10, motion_std_m=0.004)
        selector = SubcarrierSelector()
        v_static = selector.variances(static, (0, 1)).mean()
        v_moving = selector.variances(moving, (0, 1)).mean()
        assert v_moving > v_static

    def test_negative_motion_rejected(self):
        sim = CsiSimulator(_scene(), clean_profile(), rng=0)
        with pytest.raises(ValueError, match="motion_std_m"):
            sim.capture(CATALOG.get("milk"), 2, motion_std_m=-0.001)

    def test_session_config_motion(self):
        scene = SimulationScene(
            geometry=LinkGeometry(),
            environment=make_environment("lab"),
            target=CylinderTarget(lateral_offset=0.02),
        )
        collector = DataCollector(scene, rng=0)
        config = SessionConfig(num_packets=5, target_motion_std=0.003)
        session = collector.collect(CATALOG.get("milk"), config)
        assert len(session.target) == 5

    def test_session_config_invalid_motion(self):
        with pytest.raises(ValueError, match="target_motion_std"):
            SessionConfig(target_motion_std=-0.1)

    def test_scene_restored_after_motion_capture(self):
        scene = _scene()
        sim = CsiSimulator(scene, clean_profile(), rng=0)
        sim.capture(CATALOG.get("milk"), 3, motion_std_m=0.005)
        assert sim.scene is scene
