"""Rounding-level equivalence of the vectorised kernels vs scalar refs.

Every hot path that was vectorised keeps its original scalar
implementation in-tree as ``_reference_*``; these tests pin the batched
implementations against them as oracles across dtypes and odd/even
lengths, so a future "optimisation" cannot silently change results.
"""

import numpy as np
import pytest

from repro.channel.materials import default_catalog
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.csi.collector import DataCollector, SessionConfig
from repro.csi.simulator import CsiSimulator
from repro.dsp.stats import (
    angular_spread_deg,
    angular_spread_deg_axis,
    circular_mean,
    circular_mean_axis,
    mad,
    mad_axis,
    robust_sigma,
    robust_sigma_axis,
)
from repro.dsp.wavelet import (
    WAVELET_NAME,
    _reference_iswt,
    _reference_swt,
    iswt,
    swt,
)
from repro.dsp.wavelet_denoise import SpatiallySelectiveDenoiser
from repro.engine.cache import StageCache
from repro.experiments.datasets import (
    collect_dataset,
    split_dataset,
    standard_scene,
)
from repro.ml.multiclass import OneVsOneSVC
from repro.ml.svm import BinarySVC
from tests.test_streaming import assert_stream_equals_batch

_CATALOG = default_catalog()


# ----------------------------------------------------------------------
# Wavelet transform (``name`` labels each case with its filter bank)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", [WAVELET_NAME])
@pytest.mark.parametrize("length", [37, 64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_swt_iswt_match_reference(name, length, dtype):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(length).astype(dtype)

    approx, details = swt(x)
    ref_approx, ref_details = _reference_swt(x)
    assert np.allclose(approx, ref_approx, rtol=0, atol=1e-9)
    assert len(details) == len(ref_details)
    for detail, ref_detail in zip(details, ref_details):
        assert np.allclose(detail, ref_detail, rtol=0, atol=1e-9)

    reconstructed = iswt(approx, details)
    ref_reconstructed = _reference_iswt(ref_approx, ref_details)
    assert np.allclose(reconstructed, ref_reconstructed, rtol=0, atol=1e-9)


#: Oracle bound of the shifted-sum kernels and the 1-D denoiser against
#: their scalar references: rounding level, relative to the signal scale.
ORACLE_RTOL = 1e-12


def _assert_oracle(new, ref):
    assert np.max(np.abs(new - ref)) <= ORACLE_RTOL * np.max(np.abs(ref))


@pytest.mark.parametrize("name", [WAVELET_NAME])
def test_swt_1d_matches_reference_oracle(name):
    """The 1-D transform and its inverse match the index-matrix oracle.

    The shifted-sum kernel sums the taps in a different order than the
    reference's matmul, so agreement is to rounding, not bit for bit.
    """
    rng = np.random.default_rng(8)
    x = rng.standard_normal(100)
    approx, details = swt(x)
    ref_approx, ref_details = _reference_swt(x)
    _assert_oracle(approx, ref_approx)
    for detail, ref_detail in zip(details, ref_details):
        _assert_oracle(detail, ref_detail)
    _assert_oracle(
        iswt(approx, details),
        _reference_iswt(ref_approx, ref_details),
    )


def test_denoiser_1d_matches_reference_oracle():
    """1-D denoise matches _reference_denoise, spikes and all.

    Eq. 13's tie rule keeps rounding from flipping a keep decision, so
    the two loops extract the same coefficients and differ only by
    rounding.
    """
    rng = np.random.default_rng(9)
    denoiser = SpatiallySelectiveDenoiser()
    for _ in range(200):
        x = 1.0 + 0.05 * np.sin(np.arange(128) / 7.0)
        x += 0.01 * rng.standard_normal(128)
        spikes = rng.random(128) < 0.05
        x[spikes] += rng.standard_normal(int(spikes.sum())) * 2.0
        _assert_oracle(denoiser.denoise(x), denoiser._reference_denoise(x))


def test_swt_fft_path_matches_reference():
    """A long odd-length signal matches the oracle.

    4101 samples sat on the spectral branch the kernel used to take for
    long signals; the one shifted-sum kernel now covers every length.
    """
    length = 4101
    rng = np.random.default_rng(2)
    x = rng.standard_normal(length)
    approx, details = swt(x)
    ref_approx, ref_details = _reference_swt(x)
    assert np.allclose(approx, ref_approx, rtol=0, atol=1e-9)
    for detail, ref_detail in zip(details, ref_details):
        assert np.allclose(detail, ref_detail, rtol=0, atol=1e-9)
    reconstructed = iswt(approx, details)
    assert np.allclose(reconstructed, x, rtol=0, atol=1e-8)


@pytest.mark.parametrize("name", [WAVELET_NAME])
def test_swt_2d_matches_per_column(name):
    """Batched columns equal 1-D calls exactly.

    The shifted-sum kernel is element-wise, so a column's result cannot
    depend on how many columns ride along.
    """
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 4))
    approx, details = swt(x)
    for k in range(x.shape[1]):
        col_approx, col_details = swt(x[:, k])
        assert np.array_equal(approx[:, k], col_approx)
        for detail, col_detail in zip(details, col_details):
            assert np.array_equal(detail[:, k], col_detail)


# ----------------------------------------------------------------------
# Spatially-selective denoiser
# ----------------------------------------------------------------------


@pytest.mark.parametrize("length", [41, 96])
def test_denoiser_matches_scalar_reference(length):
    rng = np.random.default_rng(4)
    x = 1.0 + 0.05 * np.sin(
        2 * np.pi * np.arange(length)[:, None] / 32.0 + np.arange(6)
    )
    x += 0.01 * rng.standard_normal(x.shape)
    x[5, 0] += 30.0
    x[length // 2, 3] -= 30.0

    denoiser = SpatiallySelectiveDenoiser()
    batched = denoiser.denoise(x)
    for k in range(x.shape[1]):
        reference = denoiser._reference_denoise(x[:, k])
        assert np.allclose(batched[:, k], reference, rtol=0, atol=1e-9)


# ----------------------------------------------------------------------
# Axis-aware circular / robust statistics
# ----------------------------------------------------------------------


def test_axis_stats_match_scalar_loops():
    rng = np.random.default_rng(5)
    angles = rng.uniform(-np.pi, np.pi, size=(40, 7))
    values = rng.standard_normal((40, 7))

    for k in range(angles.shape[1]):
        assert circular_mean_axis(angles, axis=0)[k] == pytest.approx(
            circular_mean(angles[:, k]), abs=1e-12
        )
        assert angular_spread_deg_axis(angles, axis=0)[k] == pytest.approx(
            angular_spread_deg(angles[:, k]), abs=1e-9
        )
        assert mad_axis(values, axis=0)[k] == mad(values[:, k])
        assert robust_sigma_axis(values, axis=0)[k] == robust_sigma(
            values[:, k]
        )


@pytest.mark.parametrize("length", [1, 2, 7, 20, 199, 200])
@pytest.mark.parametrize("axis", [0, 1])
def test_mad_axis_exact_vs_median_formula(length, axis):
    """Row-sort MAD equals the scalar two-``np.median`` :func:`mad` bit for
    bit: odd and even lengths, 1- and 2-row inputs, both axes, ties
    included."""
    rng = np.random.default_rng(length)
    values = rng.standard_normal((length, 9)) * 3.0
    values[:, 4] = np.round(values[:, 4])
    x = values if axis == 0 else values.T
    expected = np.array(
        [mad(values[:, k]) for k in range(values.shape[1])]
    )
    assert np.array_equal(mad_axis(x, axis=axis), expected)
    assert np.array_equal(robust_sigma_axis(x, axis=axis), expected / 0.6745)


@pytest.mark.parametrize("axis", [0, 1])
def test_mad_axis_nan_slice_stays_nan(axis):
    rng = np.random.default_rng(9)
    values = rng.standard_normal((30, 5))
    values[3, 1] = np.nan
    values[:, 2] = np.nan
    values[0, 3] = np.inf
    x = values if axis == 0 else values.T
    got = mad_axis(x, axis=axis)
    expected = [mad(values[:, k]) for k in range(5)]
    assert np.isnan(got[1]) and np.isnan(got[2])
    assert np.array_equal(got, expected, equal_nan=True)


# ----------------------------------------------------------------------
# CSI simulator
# ----------------------------------------------------------------------


@pytest.mark.parametrize("environment", ["lab", "hall"])
@pytest.mark.parametrize("material_name", [None, "pure_water"])
def test_capture_matches_reference(environment, material_name):
    """Vectorised capture preserves the seed -> trace mapping.

    Both implementations consume the generator stream in the same order,
    so with equal seeds they must agree to reassociation-level rounding.
    """
    material = _CATALOG.get(material_name) if material_name else None
    scene = standard_scene(environment)
    new = CsiSimulator(scene, rng=7).capture(material, 12).matrix()
    ref = (
        CsiSimulator(scene, rng=7)._capture_per_packet(material, 12).matrix()
    )
    scale = float(np.max(np.abs(ref)))
    assert np.allclose(new, ref, rtol=0, atol=1e-9 * scale)


def test_capture_is_seed_reproducible():
    """Same seed, same calls -> bit-identical traces."""
    scene = standard_scene("lab")
    water = _CATALOG.get("pure_water")
    first = CsiSimulator(scene, rng=11).capture(water, 8).matrix()
    second = CsiSimulator(scene, rng=11).capture(water, 8).matrix()
    assert np.array_equal(first, second)


def test_target_multiplier_matches_reference():
    scene = standard_scene("lab")
    simulator = CsiSimulator(scene, rng=0)
    water = _CATALOG.get("pure_water")
    new = simulator.target_multiplier(water)
    ref = simulator._reference_target_multiplier(water)
    scale = float(np.max(np.abs(ref)))
    assert np.allclose(new, ref, rtol=0, atol=1e-9 * scale)


# ----------------------------------------------------------------------
# SMO training
# ----------------------------------------------------------------------


def _blobs(seed, n=40, gap=3.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack(
        [
            rng.normal(0.0, 1.0, size=(half, 3)),
            rng.normal(gap, 1.0, size=(n - half, 3)),
        ]
    )
    y = np.concatenate([-np.ones(half), np.ones(n - half)])
    return x, y


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_smo_error_cache_matches_reference(seed):
    """Cached-margin SMO agrees with the per-element reference.

    Pinned in the repo's operating regime (RBF, C=10, separable
    classes): the vectorised error cache reassociates floating-point
    sums, so individual multipliers can differ at rounding level, but
    the trained machines must make identical predictions.
    """
    x, y = _blobs(seed)
    x_test, _ = _blobs(seed + 100)

    new_svc = BinarySVC(seed=seed).fit(x, y)
    ref_svc = BinarySVC(seed=seed)._reference_fit(x, y)

    assert np.array_equal(new_svc.predict(x), ref_svc.predict(x))
    assert np.array_equal(new_svc.predict(x_test), ref_svc.predict(x_test))
    assert np.max(
        np.abs(
            new_svc.decision_function(x_test)
            - ref_svc.decision_function(x_test)
        )
    ) < 0.5


def test_one_vs_one_shared_gram_matches_per_machine():
    """Sliced shared-Gram training equals per-machine kernel evaluation."""
    rng = np.random.default_rng(6)
    x = np.vstack(
        [rng.normal(c * 3.0, 1.0, size=(12, 3)) for c in range(3)]
    )
    y = np.repeat(np.arange(3), 12)
    x_test = rng.normal(1.5, 2.0, size=(20, 3))

    shared = OneVsOneSVC(seed=0).fit(x, y)
    for (a, b), machine in shared._machines.items():
        mask = (y == shared.classes_[a]) | (y == shared.classes_[b])
        labels = np.where(y[mask] == shared.classes_[a], 1.0, -1.0)
        independent = BinarySVC(seed=0).fit(x[mask], labels)
        assert np.array_equal(
            machine.predict(x_test), independent.predict(x_test)
        )
    assert np.array_equal(
        shared.predict(x), y.astype(shared.classes_.dtype)
    )


# ----------------------------------------------------------------------
# Streaming extraction vs the batch pipeline
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def deployment():
    """A WiMi fitted on three liquids, and its held-out test sessions."""
    materials = [_CATALOG.get(n) for n in ("pure_water", "pepsi", "oil")]
    dataset = collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=4,
        num_packets=8, seed=0,
    )
    train, test = split_dataset(dataset)
    wimi = WiMi(theory_reference_omegas(materials))
    wimi.fit(train)
    return wimi, test


def _column_reference_denoise(self, x):
    """The scalar 1-D reference denoiser, applied column by column."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return self._reference_denoise(x)
    return np.column_stack(
        [self._reference_denoise(x[:, k]) for k in range(x.shape[1])]
    )


def test_extract_batch_matches_scalar_reference(deployment, monkeypatch):
    """Batched extraction on the vectorised kernels gives the Omega-bar
    of per-session extraction on the scalar reference denoiser."""
    wimi, test = deployment
    batched = wimi.clone_view(cache=StageCache()).extract_batch(test)
    monkeypatch.setattr(
        SpatiallySelectiveDenoiser, "denoise", _column_reference_denoise
    )
    view = wimi.clone_view(cache=StageCache())
    reference = [view.extract(session) for session in test]
    assert max(
        abs(a.omega_mean - b.omega_mean) for a, b in zip(batched, reference)
    ) <= 1e-12


@pytest.mark.parametrize("material_name", ["pure_water", "pepsi", "oil"])
def test_streaming_features_equal_batch(deployment, material_name):
    """The finalized stream is the batch answer, field for field.

    ``finalize()`` runs ``WiMi.extract`` on the buffered packets, so
    every feature field, the quality report and the label are ``==``
    the batch path's at chunk sizes 1, 7 and the whole trace.
    """
    wimi, _ = deployment
    collector = DataCollector(standard_scene("lab"), rng=13)
    session = collector.collect(
        _CATALOG.get(material_name), SessionConfig(num_packets=48)
    )
    for chunk_size in (1, 7, None):
        assert_stream_equals_batch(wimi, session, chunk_size)
