"""Tests for the end-to-end CSI capture simulator."""

import dataclasses

import numpy as np
import pytest

from repro.channel.environment import make_environment
from repro.channel.geometry import CylinderTarget, LinkGeometry
from repro.channel.materials import AIR, default_catalog
from repro.channel.propagation import propagation_constants
from repro.csi.impairments import clean_profile
from repro.csi.simulator import CsiSimulator, SimulationScene


def _quiet_env():
    return dataclasses.replace(make_environment("lab"),
        num_paths=0, noise_floor=0.0, temporal_jitter_rad=0.0, gain_jitter=0.0
    )


@pytest.fixture
def scene():
    return SimulationScene(
        geometry=LinkGeometry(),
        environment=_quiet_env(),
        target=CylinderTarget(lateral_offset=0.015),
    )


@pytest.fixture
def catalog():
    return default_catalog()


class TestSceneValidation:
    def test_invalid_carrier_rejected(self):
        with pytest.raises(ValueError, match="carrier"):
            SimulationScene(carrier_hz=0.0)

    def test_invalid_leak_gain_rejected(self):
        with pytest.raises(ValueError, match="leak_gain"):
            SimulationScene(diffraction_leak_gain=-0.1)


class TestCapture:
    def test_trace_shape(self, scene, catalog):
        sim = CsiSimulator(scene, clean_profile(), rng=0)
        trace = sim.capture(catalog.get("milk"), 5)
        assert len(trace) == 5
        assert trace.num_subcarriers == 30
        assert trace.num_antennas == 3

    def test_no_target_capture(self):
        scene = SimulationScene(environment=_quiet_env())
        sim = CsiSimulator(scene, clean_profile(), rng=0)
        trace = sim.capture(None, 2)
        np.testing.assert_allclose(np.abs(trace.matrix()), 1.0, atol=1e-9)

    def test_material_without_target_rejected(self, catalog):
        scene = SimulationScene(environment=_quiet_env())
        sim = CsiSimulator(scene, clean_profile(), rng=0)
        with pytest.raises(ValueError, match="no target"):
            sim.capture(catalog.get("milk"), 1)

    def test_negative_packets_rejected(self, scene, catalog):
        sim = CsiSimulator(scene, clean_profile(), rng=0)
        with pytest.raises(ValueError, match="num_packets"):
            sim.capture(catalog.get("milk"), -1)

    def test_emitted_trace_is_complex128(self, scene, catalog):
        trace = CsiSimulator(scene, rng=0).capture(catalog.get("pure_water"), 8)
        assert trace.matrix().dtype == np.complex128


class TestTargetPhysics:
    def test_differential_phase_matches_theory(self, scene, catalog):
        """The clean-channel measurement must recover Eq. 18 exactly."""
        material = catalog.get("pure_water")
        sim = CsiSimulator(scene, clean_profile(), rng=0)
        base = sim.capture(AIR, 1)
        target = sim.capture(material, 1)

        a_t, b_t = propagation_constants(material)
        a_f, b_f = propagation_constants(AIR)
        d = scene.geometry.liquid_path_lengths(scene.target)
        lever = d[0] - d[1]
        expected_theta = lever * (b_t - b_f)

        h_b, h_t = base.matrix()[0], target.matrix()[0]
        diff_b = np.angle(h_b[:, 0] * np.conj(h_b[:, 1]))
        diff_t = np.angle(h_t[:, 0] * np.conj(h_t[:, 1]))
        measured = -np.angle(np.exp(1j * (diff_t - diff_b)))
        wrapped_expected = np.angle(np.exp(1j * expected_theta))
        np.testing.assert_allclose(
            measured, wrapped_expected, atol=0.02
        )

    def test_differential_amplitude_matches_theory(self, scene, catalog):
        """The clean-channel measurement must recover Eq. 19 exactly."""
        material = catalog.get("pure_water")
        sim = CsiSimulator(scene, clean_profile(), rng=0)
        base = sim.capture(AIR, 1)
        target = sim.capture(material, 1)

        a_t, _ = propagation_constants(material)
        d = scene.geometry.liquid_path_lengths(scene.target)
        lever = d[0] - d[1]
        expected_n = lever * a_t

        h_b, h_t = np.abs(base.matrix()[0]), np.abs(target.matrix()[0])
        psi = (h_t[:, 0] / h_t[:, 1]) / (h_b[:, 0] / h_b[:, 1])
        measured_n = -np.log(psi)
        np.testing.assert_allclose(measured_n, expected_n, rtol=0.05)

    def test_bulk_gain_normalised(self, scene, catalog):
        sim = CsiSimulator(scene, clean_profile(), rng=0)
        grid = sim.target_multiplier(catalog.get("soy"))
        geo_mean = np.exp(np.mean(np.log(np.abs(grid))))
        # Diffraction blending may shift it by ~kappa (< 0.01%).
        assert geo_mean == pytest.approx(1.0, rel=1e-3)

    def test_bulk_gain_raw_physics_when_disabled(self, catalog):
        scene = SimulationScene(
            geometry=LinkGeometry(),
            environment=_quiet_env(),
            target=CylinderTarget(lateral_offset=0.015),
            normalize_bulk_gain=False,
        )
        sim = CsiSimulator(scene, clean_profile(), rng=0)
        grid = sim.target_multiplier(catalog.get("pure_water"))
        # Unnormalised: ~13 cm of water attenuates enormously.
        assert np.max(np.abs(grid)) < 1e-4

    def test_large_beaker_no_diffraction(self, scene, catalog):
        sim = CsiSimulator(scene, clean_profile(), rng=0)
        grid = sim.target_multiplier(catalog.get("oil"))
        # kappa ~ 1: ratios follow pure penetration physics.
        assert grid.shape == (30, 3)

    def test_small_beaker_diffraction_blends(self, catalog):
        scene = SimulationScene(
            geometry=LinkGeometry(),
            environment=_quiet_env(),
            target=CylinderTarget(diameter=0.032, lateral_offset=0.004),
        )
        sim_a = CsiSimulator(scene, clean_profile(), rng=1)
        sim_b = CsiSimulator(scene, clean_profile(), rng=2)
        # Placement-sensitive leak phase: two placements differ.
        grid_a = sim_a.target_multiplier(catalog.get("pure_water"))
        grid_b = sim_b.target_multiplier(catalog.get("pure_water"))
        assert np.max(np.abs(grid_a - grid_b)) > 0.01

    def test_reproducible_with_seed(self, scene, catalog):
        t1 = CsiSimulator(scene, rng=7).capture(catalog.get("milk"), 3)
        t2 = CsiSimulator(scene, rng=7).capture(catalog.get("milk"), 3)
        np.testing.assert_allclose(t1.matrix(), t2.matrix())
