"""End-to-end robustness acceptance: the chaos capture scenario.

The PR's acceptance bar: a capture with 20% packet loss, one dead
antenna and 5% NaN subcarrier columns must still yield a prediction --
through the fallback antenna pair, with the quality report attached and
the serving metrics exposing fault counters -- while a
below-threshold capture is rejected with :class:`CorruptTraceError`.
"""

import numpy as np
import pytest

from repro.channel.materials import default_catalog
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.csi.faults import (
    AntennaDropout,
    PacketLoss,
    SubcarrierErasure,
    inject_session,
)
from repro.csi.quality import CorruptTraceError, DegradedTraceWarning
from repro.experiments.datasets import collect_dataset, split_dataset
from repro.serve import IdentificationService, ServiceConfig

MATERIALS = ("pure_water", "pepsi", "vinegar")

#: The acceptance fault chain: 20% loss, antenna 0 dead, 5% NaN columns.
CHAOS_FAULTS = (
    PacketLoss(0.2),
    AntennaDropout(antenna=0, mode="nan"),
    SubcarrierErasure(0.05, mode="nan", scope="column"),
)


@pytest.fixture(scope="module")
def deployment():
    catalog = default_catalog()
    materials = [catalog.get(n) for n in MATERIALS]
    dataset = collect_dataset(
        materials, repetitions=6, num_packets=16, seed=3
    )
    train, test = split_dataset(dataset)
    wimi = WiMi(theory_reference_omegas(materials))
    wimi.fit(train)
    return wimi, train, test


@pytest.fixture(scope="module")
def chaos_session(deployment):
    _, _, test = deployment
    return inject_session(test[0], CHAOS_FAULTS, seed=99)


class TestChaosScenario:
    def test_injection_deterministic_under_fixed_seed(self, deployment):
        _, _, test = deployment
        a = inject_session(test[0], CHAOS_FAULTS, seed=99)
        b = inject_session(test[0], CHAOS_FAULTS, seed=99)
        np.testing.assert_array_equal(
            a.target.matrix(), b.target.matrix()
        )
        np.testing.assert_array_equal(
            a.baseline.matrix(), b.baseline.matrix()
        )

    def test_prediction_via_fallback_pair_with_quality_attached(
        self, deployment, chaos_session
    ):
        wimi, _, _ = deployment
        with pytest.warns(DegradedTraceWarning):
            features = wimi.extract(chaos_session)
        # The quality report rode along with the features.
        quality = features.quality
        assert quality is not None
        assert quality.is_degraded and not quality.is_corrupt
        assert 0 in quality.dead_antennas
        # Every feature block avoided the dead antenna: fallback pairs.
        for measurement in features.measurements:
            assert 0 not in measurement.pair
            assert not set(measurement.subcarriers) & set(
                quality.bad_subcarriers
            )
        # And the degraded capture still classifies into the catalog.
        assert wimi.identify_measurement(features) in MATERIALS

    def test_feature_width_preserved_under_degradation(
        self, deployment, chaos_session
    ):
        wimi, _, test = deployment
        clean = wimi.extract(test[1])
        with pytest.warns(DegradedTraceWarning):
            degraded = wimi.extract(chaos_session)
        assert len(degraded.vector()) == len(clean.vector())

    def test_served_with_fault_counters_in_snapshot(
        self, deployment, chaos_session
    ):
        wimi, _, _ = deployment
        config = ServiceConfig(num_workers=1, retry_budget=1)
        with IdentificationService(wimi, config) as service:
            with pytest.warns(DegradedTraceWarning):
                handle = service.submit(chaos_session)
                label = handle.result(timeout=60.0)
            snapshot = service.snapshot()
        assert label in MATERIALS
        counters = snapshot["counters"]
        assert counters["requests.completed"] == 1
        # Fault counters are part of the serving dashboard.
        assert "faults.total" in counters
        assert counters.get("faults.CorruptTraceError", 0) == 0

    def test_below_threshold_capture_rejected(self, deployment):
        wimi, _, test = deployment
        hopeless = inject_session(
            test[0],
            (
                AntennaDropout(antenna=0, mode="nan"),
                AntennaDropout(antenna=1, mode="zero"),
                SubcarrierErasure(0.5, mode="nan", scope="column"),
            ),
            seed=7,
        )
        with pytest.raises(CorruptTraceError, match="quality gate"):
            wimi.extract(hopeless)
