"""Tests for the absolute-feature baseline (paper Sec. III-D)."""

import dataclasses

import numpy as np
import pytest

from repro.channel.environment import make_environment
from repro.channel.geometry import CylinderTarget, LinkGeometry
from repro.channel.materials import AIR, default_catalog
from repro.channel.propagation import material_feature_theory
from repro.core.baselines import AbsoluteFeatureExtractor
from repro.csi.collector import CaptureSession, DataCollector
from repro.csi.impairments import clean_profile
from repro.csi.simulator import CsiSimulator, SimulationScene

CATALOG = default_catalog()


def _quiet_scene(normalize=True):
    env = dataclasses.replace(make_environment("lab"),
        num_paths=0, noise_floor=0.0, temporal_jitter_rad=0.0, gain_jitter=0.0
    )
    return SimulationScene(
        geometry=LinkGeometry(),
        environment=env,
        target=CylinderTarget(lateral_offset=0.015),
        normalize_bulk_gain=normalize,
    )


class TestAbsoluteFeature:
    def test_recovers_feature_on_rfid_grade_hardware(self):
        # With a clean (RFID-like) capture chain AND the raw physical
        # amplitudes (no AGC normalisation), the absolute feature equals
        # Eq. 21's material feature -- TagScan's premise.
        material = CATALOG.get("pure_water")
        scene = _quiet_scene(normalize=False)
        sim = CsiSimulator(scene, clean_profile(), rng=0)
        session = CaptureSession(
            baseline=sim.capture(AIR, 3),
            target=sim.capture(material, 3),
            material_name="pure_water",
            scene=scene,
        )
        omega = material_feature_theory(material)
        extractor = AbsoluteFeatureExtractor(omega, denoise=False)
        result = extractor.measure(session, list(range(30)))
        assert result.omega_mean == pytest.approx(omega, rel=0.05)

    def test_no_discrimination_on_wifi_hardware(self):
        # With the commodity Wi-Fi impairment stack, per-packet clock
        # errors randomise the absolute phase: two materials with a large
        # true feature gap become indistinguishable.
        water = CATALOG.get("pure_water")
        soy = CATALOG.get("soy")
        scene = SimulationScene(
            geometry=LinkGeometry(),
            environment=make_environment("lab"),
            target=CylinderTarget(lateral_offset=0.015),
        )
        collector = DataCollector(scene, rng=0)
        nominal = material_feature_theory(water)
        extractor = AbsoluteFeatureExtractor(nominal)
        water_vals = [
            extractor.measure(collector.collect(water), [3, 10, 20]).omega_mean
            for _ in range(4)
        ]
        soy_vals = [
            extractor.measure(collector.collect(soy), [3, 10, 20]).omega_mean
            for _ in range(4)
        ]
        true_gap = material_feature_theory(soy) - material_feature_theory(water)
        measured_gap = abs(np.mean(soy_vals) - np.mean(water_vals))
        # The measured separation collapses to a fraction of the truth.
        assert measured_gap < true_gap / 2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="reference_omega"):
            AbsoluteFeatureExtractor(-0.1)
        with pytest.raises(ValueError, match="antenna"):
            AbsoluteFeatureExtractor(0.2, antenna=-1)

    def test_antenna_bounds_checked(self):
        scene = _quiet_scene()
        sim = CsiSimulator(scene, clean_profile(), rng=0)
        session = CaptureSession(
            baseline=sim.capture(AIR, 2),
            target=sim.capture(CATALOG.get("oil"), 2),
            material_name="oil",
            scene=scene,
        )
        extractor = AbsoluteFeatureExtractor(0.1, antenna=7)
        with pytest.raises(ValueError, match="out of range"):
            extractor.measure(session, [0])

    def test_empty_subcarriers_rejected(self):
        scene = _quiet_scene()
        sim = CsiSimulator(scene, clean_profile(), rng=0)
        session = CaptureSession(
            baseline=sim.capture(AIR, 2),
            target=sim.capture(CATALOG.get("oil"), 2),
            material_name="oil",
            scene=scene,
        )
        with pytest.raises(ValueError, match="subcarrier"):
            AbsoluteFeatureExtractor(0.1).measure(session, [])
