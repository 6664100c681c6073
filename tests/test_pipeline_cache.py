"""Integration tests: WiMi on the stage-graph engine.

Covers the memoization contract (repeated extraction performs zero
redundant calibrator/denoiser executions), batch-API equivalence,
two-antenna deployments, configured-pair validation and cache behaviour
across configuration changes.
"""

import dataclasses

import numpy as np
import pytest

from repro.channel.environment import make_environment
from repro.channel.geometry import AntennaArray, CylinderTarget, LinkGeometry
from repro.channel.materials import default_catalog
from repro.core.config import WiMiConfig
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.csi.collector import DataCollector
from repro.csi.simulator import SimulationScene
from repro.engine import StageCache, StageCounter

CATALOG = default_catalog()
NAMES = ("pure_water", "oil", "milk")
MATERIALS = [CATALOG.get(n) for n in NAMES]
REFS = theory_reference_omegas(MATERIALS)


def _scene(num_antennas: int = 3) -> SimulationScene:
    return SimulationScene(
        geometry=LinkGeometry(array=AntennaArray(num_antennas=num_antennas)),
        environment=make_environment("lab"),
        target=CylinderTarget(lateral_offset=0.02),
    )


def _collect(num_antennas: int = 3, repetitions: int = 4, rng: int = 7):
    collector = DataCollector(_scene(num_antennas), rng=rng)
    return {m.name: collector.collect_many(m, repetitions) for m in MATERIALS}


@pytest.fixture(scope="module")
def dataset():
    return _collect()


@pytest.fixture(scope="module")
def dataset_2ant():
    return _collect(num_antennas=2)


def _flat(dataset):
    return [s for group in dataset.values() for s in group]


def _calibrated_without(wimi: WiMi, dataset, session) -> WiMi:
    """``wimi`` calibrated on every session of ``dataset`` but ``session``,
    so calibrating runs none of ``session``'s stages."""
    return wimi.calibrate([s for s in _flat(dataset) if s is not session])


def _counted(wimi: WiMi) -> StageCounter:
    counter = StageCounter()
    wimi.engine.add_hook(counter)
    return counter


class TestMemoization:
    def test_repeat_extract_runs_no_stage_twice(self, dataset):
        """Acceptance criterion: zero redundant stage executions."""
        session = dataset["oil"][0]
        wimi = _calibrated_without(WiMi(REFS), dataset, session)
        counter = _counted(wimi)
        first = wimi.extract(session)
        assert counter.executions.get("amplitude_denoise", 0) == 2
        counter.reset()
        second = wimi.extract(session)
        assert counter.executions == {}, (
            f"repeat extract re-ran stages: {counter.executions}"
        )
        for a, b in zip(first.measurements, second.measurements):
            assert np.array_equal(a.omegas, b.omegas)

    def test_fit_then_identify_training_session_reuses_stages(self, dataset):
        wimi = WiMi(REFS)
        sessions = _flat(dataset)
        wimi.fit(sessions)
        counter = _counted(wimi)
        wimi.identify(sessions[0])
        assert counter.executions.get("amplitude_denoise", 0) == 0
        assert counter.executions.get("phase_calibration", 0) == 0

    def test_identical_content_shares_artifacts_across_instances(self, dataset):
        shared = StageCache()
        session = dataset["milk"][0]
        _calibrated_without(WiMi(REFS, cache=shared), dataset, session).extract(
            session
        )
        second = _calibrated_without(WiMi(REFS, cache=shared), dataset, session)
        counter = _counted(second)
        second.extract(session)
        assert counter.executions.get("amplitude_denoise", 0) == 0

    def test_identify_with_confidence_uses_classify_cache(self, dataset):
        wimi = WiMi(REFS)
        wimi.fit(_flat(dataset))
        session = dataset["oil"][0]
        label1, conf1 = wimi.identify_with_confidence(session)
        label2, conf2 = wimi.identify_with_confidence(session)
        assert label1 == label2
        assert conf1 == conf2
        assert wimi.cache.stats["classify"].hits >= 1


class TestConfigInvalidation:
    def test_denoiser_config_change_invalidates_denoise(self, dataset):
        shared = StageCache()
        session = dataset["oil"][0]
        _calibrated_without(
            WiMi(REFS, WiMiConfig(), cache=shared), dataset, session
        ).extract(session)
        changed = _calibrated_without(
            WiMi(REFS, WiMiConfig(denoise_amplitude=False), cache=shared),
            dataset,
            session,
        )
        counter = _counted(changed)
        changed.extract(session)
        assert counter.executions.get("amplitude_denoise", 0) == 2, (
            "changed denoising must not be served stale denoised cubes"
        )

    def test_classifier_config_change_keeps_upstream_artifacts(self, dataset):
        shared = StageCache()
        session = dataset["oil"][0]
        _calibrated_without(
            WiMi(REFS, WiMiConfig(classifier="svm"), cache=shared),
            dataset,
            session,
        ).extract(session)
        knn = _calibrated_without(
            WiMi(REFS, WiMiConfig(classifier="knn"), cache=shared),
            dataset,
            session,
        )
        counter = _counted(knn)
        knn.extract(session)
        assert counter.executions.get("amplitude_denoise", 0) == 0
        assert counter.executions.get("phase_calibration", 0) == 0

    def test_refit_same_data_reuses_classifications(self, dataset):
        # The classifier token is content-derived (training-set hash +
        # classifier config): refitting on identical data yields the
        # same token, so cached classifications stay valid -- the
        # property the persistent store relies on across processes.
        wimi = WiMi(REFS)
        sessions = _flat(dataset)
        train, test = sessions[:-2], sessions[-2:]
        wimi.fit(train)
        first = [wimi.identify(s) for s in test]
        counter = _counted(wimi)
        wimi.fit(train)  # same data, same config -> same token
        second = [wimi.identify(s) for s in test]
        assert first == second
        assert counter.executions.get("amplitude_denoise", 0) == 0
        assert counter.executions.get("classify", 0) == 0
        assert counter.hits.get("classify", 0) == len(test)

    def test_refit_on_new_data_invalidates_classification_only(self, dataset):
        wimi = WiMi(REFS)
        sessions = _flat(dataset)
        train, test = sessions[:-2], sessions[-2:]
        wimi.fit(train)
        [wimi.identify(s) for s in test]
        counter = _counted(wimi)
        wimi.fit(train[:-1])  # different training set -> new token
        [wimi.identify(s) for s in test]
        assert counter.executions.get("amplitude_denoise", 0) == 0
        assert counter.executions.get("classify", 0) == len(test)


class TestBatchEquivalence:
    def test_extract_batch_matches_sequential(self):
        dataset = _collect(rng=13)
        sessions = _flat(dataset)
        solo = WiMi(REFS).calibrate(sessions)
        sequential = [solo.extract(s) for s in sessions]
        batched = WiMi(REFS).calibrate(sessions).extract_batch(sessions)
        assert len(batched) == len(sequential)
        for a, b in zip(sequential, batched):
            assert a.material_name == b.material_name
            for ma, mb in zip(a.measurements, b.measurements):
                assert np.array_equal(ma.omegas, mb.omegas)
                assert ma.gamma == mb.gamma
                assert ma.subcarriers == mb.subcarriers

    def test_identify_batch_matches_sequential(self, dataset):
        sessions = _flat(dataset)
        train = [s for g in dataset.values() for s in g[:3]]
        test = [s for g in dataset.values() for s in g[3:]]
        a = WiMi(REFS)
        a.fit(train)
        b = WiMi(REFS)
        b.fit(train)
        assert a.identify_batch(test) == [b.identify(s) for s in test]

    def test_extract_batch_validates_lengths(self, dataset):
        wimi = WiMi(REFS)
        with pytest.raises(ValueError, match="length"):
            wimi.extract_batch(_flat(dataset)[:2], true_omegas=[None])

    def test_identify_batch_requires_fit(self, dataset):
        with pytest.raises(RuntimeError, match="not fitted"):
            WiMi(REFS).identify_batch(_flat(dataset)[:1])

    def test_batch_denoises_each_trace_once(self, dataset):
        sessions = _flat(dataset)
        wimi = WiMi(REFS).calibrate(sessions)
        counter = _counted(wimi)
        wimi.extract_batch(sessions)
        # Calibration already denoised a probe subset; the batch itself
        # must add at most one pass per remaining trace.
        assert counter.executions.get(
            "amplitude_denoise", 0
        ) <= 2 * len(sessions)
        counter.reset()
        wimi.extract_batch(sessions)
        assert counter.executions.get("amplitude_denoise", 0) == 0


class TestTwoAntennaDeployment:
    def test_calibrate_without_coarse_pair(self, dataset_2ant):
        sessions = _flat(dataset_2ant)
        wimi = WiMi(REFS)
        wimi.calibrate(sessions)
        assert wimi.calibration.pair == (0, 1)
        assert wimi.calibration.coarse_pair is None
        assert len(wimi.calibration.main_subcarriers) == 4

    def test_end_to_end_falls_back_to_gamma_strategy(self, dataset_2ant):
        train = [s for g in dataset_2ant.values() for s in g[:3]]
        test = [s for g in dataset_2ant.values() for s in g[3:]]
        wimi = WiMi(REFS)
        wimi.fit(train)
        labels = wimi.identify_batch(test)
        assert all(label in NAMES for label in labels)

    def test_extract_features_have_no_coarse_block(self, dataset_2ant):
        sessions = _flat(dataset_2ant)
        wimi = WiMi(REFS)
        wimi.calibrate(sessions)
        features = wimi.extract(sessions[0])
        assert all(not m.has_coarse for m in features.measurements)


class TestConfiguredPairValidation:
    def test_calibrate_rejects_out_of_range_pair(self, dataset):
        wimi = WiMi(REFS, WiMiConfig(antenna_pair=(0, 5)))
        with pytest.raises(ValueError, match="more antennas"):
            wimi.calibrate(_flat(dataset))

    def test_valid_configured_pair_used_everywhere(self, dataset):
        sessions = _flat(dataset)
        wimi = WiMi(REFS, WiMiConfig(antenna_pair=(0, 2)))
        wimi.calibrate(sessions)
        assert wimi.calibration.pair == (0, 2)
        features = wimi.extract(sessions[0])
        assert features.measurements[0].pair == (0, 2)


class TestEmptySelectionSemantics:
    """The falsy-list regression: () must not be treated as 'unset'."""

    def test_empty_calibrated_list_is_not_none(self, dataset):
        wimi = WiMi(REFS, WiMiConfig(subcarrier_override=()))
        wimi.calibrate(_flat(dataset))
        assert wimi.calibration.main_subcarriers == ()

    def test_empty_per_pair_selection_not_recomputed(self, dataset):
        sessions = _flat(dataset)
        wimi = WiMi(REFS).calibrate(sessions)
        calibration = wimi.calibration
        wimi.calibration = dataclasses.replace(
            calibration,
            subcarriers={**calibration.subcarriers, calibration.pair: ()},
        )
        assert wimi._subcarriers_for(sessions[0], calibration.pair) == []
