"""Tests for antenna-pair selection."""

import pytest

from repro.channel.environment import make_environment
from repro.channel.geometry import CylinderTarget, LinkGeometry
from repro.channel.materials import default_catalog
from repro.core.antenna import AntennaPairSelector, PairStability
from repro.csi.collector import DataCollector, SessionConfig
from repro.csi.simulator import SimulationScene


@pytest.fixture(scope="module")
def session():
    scene = SimulationScene(
        geometry=LinkGeometry(),
        environment=make_environment("lab"),
        target=CylinderTarget(lateral_offset=0.02),
    )
    return DataCollector(scene, rng=0).collect(
        default_catalog().get("milk"), SessionConfig(num_packets=30)
    )


class TestPairStability:
    def test_score_is_sum(self):
        s = PairStability(pair=(0, 1), phase_variance=0.1, ratio_variance=0.2)
        assert s.score == pytest.approx(0.3)


class TestSelector:
    def test_all_pairs(self, session):
        selector = AntennaPairSelector()
        assert selector.all_pairs(session.baseline) == [(0, 1), (0, 2), (1, 2)]

    def test_rank_sorted_by_score(self, session):
        selector = AntennaPairSelector()
        ranked = selector.rank(session)
        scores = [r.score for r in ranked]
        assert scores == sorted(scores)
        assert len(ranked) == 3

    def test_noisy_third_antenna_penalised(self, session):
        # Antenna index 2 has the noisiest RF chain by default, so the
        # (0, 1) pair should rank above at least one pair touching it.
        selector = AntennaPairSelector()
        ranked = [r.pair for r in selector.rank(session)]
        assert ranked.index((0, 1)) == 0

    def test_single_antenna_rejected(self, session):
        selector = AntennaPairSelector()
        mono = session.baseline.subset(5)
        import numpy as np
        from repro.csi.model import CsiTrace

        single = CsiTrace.from_matrix(mono.matrix()[:, :, :1])
        with pytest.raises(ValueError, match="2 antennas"):
            selector.all_pairs(single)
