"""Tests for good-subcarrier selection (Eq. 7)."""

import numpy as np
import pytest

from repro.channel.environment import make_environment
from repro.channel.geometry import CylinderTarget, LinkGeometry
from repro.channel.materials import default_catalog
from repro.core.subcarrier import SubcarrierSelector
from repro.csi.collector import DataCollector, SessionConfig
from repro.csi.faults import AntennaDropout, inject_session
from repro.csi.quality import CorruptTraceError
from repro.csi.simulator import SimulationScene
from repro.dsp.stats import phase_difference_variance


@pytest.fixture(scope="module")
def sessions():
    scene = SimulationScene(
        geometry=LinkGeometry(),
        environment=make_environment("lab"),
        target=CylinderTarget(lateral_offset=0.02),
    )
    collector = DataCollector(scene, rng=0)
    milk = default_catalog().get("milk")
    return [
        collector.collect(milk, SessionConfig(num_packets=25))
        for _ in range(3)
    ]


class TestVariances:
    def test_shape_and_positive(self, sessions):
        selector = SubcarrierSelector()
        v = selector.variances(sessions[0].baseline, (0, 1))
        assert v.shape == (30,)
        assert np.all(v >= 0.0)

    def test_matches_scalar_eq7_loop(self, sessions):
        """One vectorised call, bit-identical to scoring each subcarrier
        with the scalar Eq. 7 function, and silent."""
        import warnings

        selector = SubcarrierSelector()
        for session in sessions:
            for trace in (session.baseline, session.target):
                for pair in ((0, 1), (0, 2), (1, 2)):
                    diffs = selector.calibrator.phase_difference(trace, pair)
                    expected = np.array(
                        [
                            phase_difference_variance(
                                diffs[:, k], ignore_nan=True
                            )
                            for k in range(diffs.shape[1])
                        ]
                    )
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        got = selector.variances(trace, pair)
                    assert np.array_equal(got, expected, equal_nan=True)

    def test_needs_two_packets(self, sessions):
        selector = SubcarrierSelector()
        short = sessions[0].baseline.subset(1)
        with pytest.raises(ValueError, match="2 packets"):
            selector.variances(short, (0, 1))

    def test_combined_is_sum(self, sessions):
        selector = SubcarrierSelector()
        s = sessions[0]
        combined = selector.combined_variances(s.baseline, s.target, (0, 1))
        parts = selector.variances(s.baseline, (0, 1)) + selector.variances(
            s.target, (0, 1)
        )
        np.testing.assert_allclose(combined, parts)


class TestSelection:
    def test_select_returns_sorted_positions(self, sessions):
        selector = SubcarrierSelector()
        s = sessions[0]
        chosen = selector.select(s.baseline, s.target, (0, 1), 4)
        assert chosen == sorted(chosen)
        assert len(chosen) == 4

    def test_select_takes_minimum_variance(self, sessions):
        selector = SubcarrierSelector()
        s = sessions[0]
        scores = selector.combined_variances(s.baseline, s.target, (0, 1))
        chosen = selector.select(s.baseline, s.target, (0, 1), 1)
        assert chosen[0] == int(np.argmin(scores))

    def test_count_clamped(self, sessions):
        selector = SubcarrierSelector()
        s = sessions[0]
        chosen = selector.select(s.baseline, s.target, (0, 1), 99)
        assert len(chosen) == 30

    def test_invalid_count(self, sessions):
        selector = SubcarrierSelector()
        s = sessions[0]
        with pytest.raises(ValueError, match="count"):
            selector.select(s.baseline, s.target, (0, 1), 0)

    def test_pooled_selection(self, sessions):
        selector = SubcarrierSelector()
        chosen = selector.select_pooled(sessions, (0, 1), 4)
        assert len(chosen) == 4

    def test_pooled_requires_sessions(self):
        with pytest.raises(ValueError, match="at least one session"):
            SubcarrierSelector().select_pooled([], (0, 1))

    def test_pool_of_dead_chains_rejected(self, sessions):
        dead = [
            inject_session(s, (AntennaDropout(antenna=1),), seed=0)
            for s in sessions
        ]
        with pytest.raises(CorruptTraceError, match="dead chain"):
            SubcarrierSelector().pooled_variances(dead, (0, 1))

    def test_rank_pooled_full_ordering(self, sessions):
        selector = SubcarrierSelector()
        ranking = selector.rank_pooled(sessions, (0, 1))
        assert sorted(ranking) == list(range(30))
        assert selector.select_pooled(sessions, (0, 1), 4) == sorted(
            ranking[:4]
        )
