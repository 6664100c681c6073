"""System-level property and robustness tests.

These exercise claims that span multiple modules: the size independence
of the material feature at pipeline level, graceful degradation on
reduced hardware (two antennas), determinism, serialisation round trips
through the full identification path, a recorded float64 golden corpus,
and the paper's Omega-bar invariances under common gain, common phase
and per-antenna cable phase (Eq. 5-6, 19).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.channel.environment import make_environment
from repro.channel.geometry import AntennaArray, CylinderTarget, LinkGeometry
from repro.channel.materials import default_catalog
from repro.core.config import WiMiConfig
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.csi.collector import CaptureSession, DataCollector
from repro.csi.io import load_session, save_session
from repro.csi.simulator import SimulationScene
from repro.csi.subcarriers import intel5300_subcarrier_indices
from repro.experiments.datasets import collect_dataset, paper_liquids
from repro.experiments.runner import run_identification
from tests.test_streaming import assert_stream_equals_batch

# The simulated int8 CSI quantization legitimately zeroes a
# deep-faded antenna in some deployments, so the quality gate's
# DegradedTraceWarning is expected here; everything else is an error
# (see pyproject filterwarnings).
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.csi.quality.DegradedTraceWarning"
)

CATALOG = default_catalog()


def _scene(**kwargs):
    defaults = dict(
        geometry=LinkGeometry(),
        environment=make_environment("lab"),
        target=CylinderTarget(lateral_offset=0.02),
    )
    defaults.update(kwargs)
    return SimulationScene(**defaults)


class TestSizeIndependence:
    def test_trained_on_one_size_identifies_another(self):
        """The Fig. 19 premise: the feature survives a container change.

        Train on the 14.3 cm beaker, test on the 11 cm one (same
        deployment seed so the room matches); the size-independent
        feature should keep identification above chance by a wide margin.
        """
        materials = [CATALOG.get(n) for n in ("pure_water", "oil", "soy")]
        refs = theory_reference_omegas(materials)

        big = DataCollector(_scene(), rng=3)
        small = DataCollector(
            _scene(target=CylinderTarget(diameter=0.110, lateral_offset=0.02)),
            rng=3,
        )
        train = [s for m in materials for s in big.collect_many(m, 6)]
        test = [s for m in materials for s in small.collect_many(m, 3)]

        wimi = WiMi(refs)
        wimi.fit(train)
        correct = sum(wimi.identify(s) == s.material_name for s in test)
        assert correct / len(test) >= 0.6  # chance = 1/3


class TestReducedHardware:
    def test_two_antenna_receiver_still_works(self):
        """With p = 2 there is one pair and no coarse pair: the pipeline
        must fall back to single-pair dictionary mode and stay usable on
        well-separated materials."""
        materials = [CATALOG.get(n) for n in ("pure_water", "oil", "soy")]
        refs = theory_reference_omegas(materials)
        scene = _scene(
            geometry=LinkGeometry(array=AntennaArray(num_antennas=2))
        )
        collector = DataCollector(scene, rng=1)
        train = [s for m in materials for s in collector.collect_many(m, 6)]
        test = [s for m in materials for s in collector.collect_many(m, 2)]

        wimi = WiMi(refs)
        wimi.fit(train)
        assert wimi.calibrated_coarse_pair is None
        features = wimi.extract(test[0])
        assert features.num_blocks == 1
        correct = sum(wimi.identify(s) == s.material_name for s in test)
        assert correct / len(test) >= 0.5


class TestDeterminism:
    def test_run_identification_reproducible(self):
        materials = [CATALOG.get(n) for n in ("pure_water", "oil")]
        r1 = run_identification(materials, repetitions=4, num_packets=6, seed=9)
        r2 = run_identification(materials, repetitions=4, num_packets=6, seed=9)
        np.testing.assert_array_equal(r1.confusion.matrix, r2.confusion.matrix)

    def test_different_seeds_differ(self):
        scene = _scene()
        c1 = DataCollector(scene, rng=1).collect(CATALOG.get("milk"))
        c2 = DataCollector(scene, rng=2).collect(CATALOG.get("milk"))
        assert not np.allclose(c1.target.matrix(), c2.target.matrix())


class TestSerialisationRoundTrip:
    def test_identification_survives_npz_roundtrip(self, tmp_path):
        """Features computed from a reloaded session match the original."""
        materials = [CATALOG.get(n) for n in ("pure_water", "oil", "soy")]
        refs = theory_reference_omegas(materials)
        collector = DataCollector(_scene(), rng=4)
        train = [s for m in materials for s in collector.collect_many(m, 5)]
        wimi = WiMi(refs)
        wimi.fit(train)

        session = collector.collect(CATALOG.get("soy"))
        direct = wimi.identify(session)

        path = tmp_path / "session.npz"
        save_session(session, path)
        reloaded = load_session(path)
        assert wimi.identify(reloaded) == direct


class TestGammaEnvelopeFallback:
    def test_envelope_strategy_runs_end_to_end(self):
        materials = [CATALOG.get(n) for n in ("pure_water", "oil", "soy")]
        refs = theory_reference_omegas(materials)
        collector = DataCollector(_scene(), rng=6)
        train = [s for m in materials for s in collector.collect_many(m, 5)]
        test = [s for m in materials for s in collector.collect_many(m, 2)]
        config = WiMiConfig(use_coarse_pair=False, gamma_strategy="envelope")
        wimi = WiMi(refs, config)
        wimi.fit(train)
        correct = sum(wimi.identify(s) == s.material_name for s in test)
        assert correct / len(test) >= 0.5


# ----------------------------------------------------------------------
# Golden corpus: one seeded paper deployment, ten liquids
# ----------------------------------------------------------------------

#: ``omega_mean`` (as ``float.hex``) and label of each held-out session
#: of :func:`golden`, recorded from the float64 pipeline.  One session
#: is misidentified (pepsi -> coke); the record pins the numbers, not
#: the accuracy.
GOLDEN = {
    "vinegar": ("0x1.ad41edc34f111p-3", "vinegar"),
    "honey": ("0x1.ea1b59f6a5a18p-3", "honey"),
    "soy": ("0x1.8a0f567118298p-2", "soy"),
    "milk": ("0x1.97928bd65ef7cp-3", "milk"),
    "pepsi": ("0x1.6fb92759afa70p-3", "coke"),
    "liquor": ("0x1.aa60092a029a3p-2", "liquor"),
    "pure_water": ("0x1.4e7ceb8073c60p-3", "pure_water"),
    "oil": ("0x1.9416ebb896c09p-7", "oil"),
    "coke": ("0x1.7a131f7368d7dp-3", "coke"),
    "sweet_water": ("0x1.5946e1e91ea40p-3", "sweet_water"),
}

#: Relative tolerance of the golden and invariance checks: far below
#: any real change, above summation-order noise (~1e-15).
RTOL = 1e-12


@pytest.fixture(scope="module")
def golden():
    """A fitted pipeline plus one held-out 20-packet session per liquid."""
    liquids = paper_liquids()
    data = collect_dataset(liquids, repetitions=3, num_packets=20, seed=11)
    train = [s for sessions in data.values() for s in sessions[:2]]
    test = [s for sessions in data.values() for s in sessions[2:]]
    return WiMi(theory_reference_omegas(liquids)).fit(train), test


class TestFloat64Golden:
    def test_omega_and_label_match_the_record(self, golden):
        wimi, test = golden
        assert sorted(s.material_name for s in test) == sorted(GOLDEN)
        for session in test:
            omega, label = GOLDEN[session.material_name]
            assert wimi.extract(session).omega_mean == pytest.approx(
                float.fromhex(omega), rel=RTOL, abs=0.0
            )
            assert wimi.identify(session) == label

    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    def test_streamed_features_equal_batch(self, golden, chunk_size):
        wimi, test = golden
        for session in test:
            assert_stream_equals_batch(wimi, session, chunk_size)


# ----------------------------------------------------------------------
# Omega-bar invariances
# ----------------------------------------------------------------------


def _transformed(session, transform, rng):
    """``session`` with ``transform(matrix, rng)`` applied to both traces.

    Packet timestamps and sequence numbers are kept, so the quality gate
    sees the same capture bookkeeping.
    """

    def remap(trace):
        return replace(trace, csi=transform(trace.matrix(), rng))

    return CaptureSession(
        baseline=remap(session.baseline),
        target=remap(session.target),
        material_name=session.material_name,
        scene=session.scene,
    )


def _common_gain(matrix, rng):
    """One gain on every antenna of every packet (Eq. 19 ratio cancels
    it).  0.8 attenuates, so no AGC clipping can appear."""
    return 0.8 * matrix


def _common_phase(matrix, rng):
    """Per-packet ``exp(j(a_p + b_p k))`` on all antennas: CFO plus
    SFO/packet-boundary delay, which the antenna difference cancels
    (Eq. 5-6)."""
    k = intel5300_subcarrier_indices()
    a = rng.uniform(-np.pi, np.pi, size=matrix.shape[0])
    b = rng.uniform(-0.3, 0.3, size=matrix.shape[0])
    phase = a[:, None] + b[:, None] * k[None, :]
    return matrix * np.exp(1j * phase)[:, :, None]


#: One constant phase per antenna, the same in every capture.
CABLE_OFFSETS = np.array([0.0, 1.3, -2.7])


def _cable_phase(matrix, rng):
    """``exp(j c_a)`` on antenna ``a``: cable-length offsets (ESPARGOS
    ``CSICalibration`` removes these).  Fixed, not drawn from ``rng``,
    so baseline and target carry the same offsets; they cancel in the
    target-minus-baseline antenna difference (Eq. 5-6)."""
    return matrix * np.exp(1j * CABLE_OFFSETS)


def _batch_omega(wimi, session):
    return wimi.extract(session).omega_mean


def _stream_omega(wimi, session):
    stream = wimi.streaming_extractor(scene=session.scene)
    stream.push_baseline(session.baseline)
    stream.push_target(session.target)
    return stream.finalize().features.omega_mean


@pytest.mark.parametrize(
    "omega_of",
    [
        pytest.param(_batch_omega, id="extract"),
        pytest.param(_stream_omega, id="stream"),
    ],
)
@pytest.mark.parametrize(
    "transform",
    [
        pytest.param(_common_gain, id="gain"),
        pytest.param(_common_phase, id="phase"),
        pytest.param(_cable_phase, id="cable"),
    ],
)
def test_omega_invariant_to_common_impairment(golden, omega_of, transform):
    wimi, test = golden
    rng = np.random.default_rng(5)
    for session in test:
        moved = _transformed(session, transform, rng)
        assert omega_of(wimi, moved) == pytest.approx(
            omega_of(wimi, session), rel=RTOL, abs=0.0
        ), session.material_name
