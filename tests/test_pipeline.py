"""Integration tests: the full WiMi system."""

import dataclasses

import numpy as np
import pytest

from repro.channel.environment import make_environment
from repro.channel.geometry import CylinderTarget, LinkGeometry
from repro.channel.materials import default_catalog
from repro.core.config import WiMiConfig
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.csi.collector import DataCollector
from repro.csi.faults import AntennaDropout, inject_session
from repro.csi.simulator import SimulationScene

# The simulated int8 CSI quantization legitimately zeroes a
# deep-faded antenna in some deployments, so the quality gate's
# DegradedTraceWarning is expected here; everything else is an error
# (see pyproject filterwarnings).
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.csi.quality.DegradedTraceWarning"
)

CATALOG = default_catalog()
NAMES = ("pure_water", "oil", "soy", "milk")
MATERIALS = [CATALOG.get(n) for n in NAMES]
REFS = theory_reference_omegas(MATERIALS)


@pytest.fixture(scope="module")
def deployment():
    scene = SimulationScene(
        geometry=LinkGeometry(),
        environment=make_environment("lab"),
        target=CylinderTarget(lateral_offset=0.02),
    )
    collector = DataCollector(scene, rng=5)
    dataset = {
        m.name: collector.collect_many(m, 8) for m in MATERIALS
    }
    return collector, dataset


class TestConfigValidation:
    def test_defaults_are_paper_choices(self):
        config = WiMiConfig()
        assert config.num_good_subcarriers == 4
        assert config.classifier == "svm"

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            WiMiConfig(num_good_subcarriers=0)
        with pytest.raises(ValueError):
            WiMiConfig(antenna_pair=(1, 1))
        with pytest.raises(ValueError):
            WiMiConfig(classifier="tree")
        with pytest.raises(ValueError):
            WiMiConfig(gamma_strategy="guess")
        with pytest.raises(ValueError):
            WiMiConfig(num_feature_pairs=0)


class TestCalibration:
    def test_calibrate_fixes_choices(self, deployment):
        _, dataset = deployment
        sessions = [s for group in dataset.values() for s in group]
        wimi = WiMi(REFS)
        wimi.calibrate(sessions)
        calibration = wimi.calibration
        assert calibration.pair == calibration.ranked_pairs[0]
        assert len(calibration.main_subcarriers) == 4
        assert calibration.coarse_pair is not None
        assert calibration.coarse_pair not in calibration.feature_pairs

    def test_configured_pair_respected(self, deployment):
        _, dataset = deployment
        sessions = [s for group in dataset.values() for s in group]
        wimi = WiMi(REFS, WiMiConfig(antenna_pair=(0, 2)))
        wimi.calibrate(sessions)
        assert wimi.calibration.pair == (0, 2)

    def test_subcarrier_override_respected(self, deployment):
        _, dataset = deployment
        sessions = [s for group in dataset.values() for s in group]
        wimi = WiMi(REFS, WiMiConfig(subcarrier_override=(1, 2, 3)))
        wimi.calibrate(sessions)
        assert wimi.calibration.main_subcarriers == (1, 2, 3)

    def test_extraction_needs_a_calibration(self, deployment):
        session = deployment[1]["oil"][0]
        wimi = WiMi(REFS)
        with pytest.raises(RuntimeError, match=r"calibrate\(\) or fit\(\)"):
            wimi.extract(session)
        with pytest.raises(RuntimeError, match=r"calibrate\(\) or fit\(\)"):
            wimi.extract_batch([session])
        with pytest.raises(RuntimeError):
            wimi.streaming_extractor()

    def test_views_share_the_frozen_record(self, deployment):
        _, dataset = deployment
        wimi = WiMi(REFS).calibrate(dataset["oil"] + dataset["milk"])
        view = wimi.clone_view()
        assert view.calibration is wimi.calibration
        with pytest.raises(dataclasses.FrozenInstanceError):
            view.calibration.coarse_pair = None
        with pytest.raises(TypeError):
            view.calibration.subcarriers[view.calibration.pair] = ()

    def test_empty_calibration_rejected(self):
        with pytest.raises(ValueError, match="calibration session"):
            WiMi(REFS).calibrate([])

    def test_fit_survives_one_dead_chain_session(self, deployment):
        # One training capture with a dead antenna 2 scores every
        # subcarrier of the pairs touching it NaN; Eq. 7 pooling leaves
        # it out instead of voiding those pairs for the deployment.
        _, dataset = deployment
        sessions = [s for group in dataset.values() for s in group[:3]]
        sessions[-1] = inject_session(
            sessions[-1], (AntennaDropout(antenna=2),), seed=0,
            baseline_faults=(),
        )
        wimi = WiMi(REFS).fit(sessions)
        chosen = wimi.calibration.subcarriers
        for pair, subcarriers in chosen.items():
            assert list(subcarriers) == wimi.subcarrier_selector.select_pooled(
                sessions[:-1], pair, 4
            )
        assert any(2 in pair for pair in chosen)


class TestEndToEnd:
    def test_fit_and_identify(self, deployment):
        collector, dataset = deployment
        train = [s for group in dataset.values() for s in group[:5]]
        test = [s for group in dataset.values() for s in group[5:]]
        wimi = WiMi(REFS)
        wimi.fit(train)
        assert wimi.is_fitted
        correct = sum(
            wimi.identify(s) == s.material_name for s in test
        )
        # Four well-separated materials: near-perfect in-deployment.
        assert correct / len(test) >= 0.8

    def test_identify_before_fit_raises(self, deployment):
        collector, dataset = deployment
        wimi = WiMi(REFS)
        with pytest.raises(RuntimeError, match="not fitted"):
            wimi.identify(dataset["oil"][0])

    def test_fit_empty_rejected(self):
        with pytest.raises(ValueError, match="training session"):
            WiMi(REFS).fit([])

    def test_feature_pairs_count(self, deployment):
        _, dataset = deployment
        sessions = [s for group in dataset.values() for s in group]
        wimi = WiMi(REFS, WiMiConfig(num_feature_pairs=2))
        wimi.calibrate(sessions)
        assert len(wimi.calibration.feature_pairs) == 2
        features = wimi.extract(sessions[0])
        assert len(features.measurements) == 2

    def test_single_pair_mode(self, deployment):
        _, dataset = deployment
        sessions = [s for group in dataset.values() for s in group]
        wimi = WiMi(REFS, WiMiConfig(num_feature_pairs=1))
        wimi.calibrate(sessions)
        features = wimi.extract(sessions[0])
        assert len(features.measurements) == 1

    def test_database_populated_by_fit(self, deployment):
        _, dataset = deployment
        train = [s for group in dataset.values() for s in group[:4]]
        wimi = WiMi(REFS)
        wimi.fit(train)
        assert set(wimi.database.labels) == set(NAMES)
        assert len(wimi.database) == len(train)

    def test_knn_classifier_config(self, deployment):
        _, dataset = deployment
        train = [s for group in dataset.values() for s in group[:5]]
        test = [s for group in dataset.values() for s in group[5:]]
        wimi = WiMi(REFS, WiMiConfig(classifier="knn"))
        wimi.fit(train)
        correct = sum(wimi.identify(s) == s.material_name for s in test)
        assert correct / len(test) >= 0.7
