"""Tests for circular and robust statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.environment import make_environment
from repro.channel.geometry import CylinderTarget, LinkGeometry
from repro.channel.materials import default_catalog
from repro.core.phase import PhaseCalibrator
from repro.csi.collector import DataCollector, SessionConfig
from repro.csi.simulator import SimulationScene
from repro.dsp.stats import (
    angular_spread_deg,
    circular_difference,
    circular_mean,
    circular_std,
    finite_median,
    mad,
    phase_difference_variance,
    phase_difference_variance_axis,
    resultant_length,
    robust_sigma,
    wrap_phase,
)


class TestCircularMean:
    def test_simple_cluster(self):
        angles = np.array([0.1, -0.1, 0.05, -0.05])
        assert circular_mean(angles) == pytest.approx(0.0, abs=1e-12)

    def test_cluster_at_pi_boundary(self):
        # A cluster straddling +/- pi must not average to ~0.
        angles = np.array([math.pi - 0.1, -math.pi + 0.1])
        mean = circular_mean(angles)
        assert abs(abs(mean) - math.pi) < 0.01

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            circular_mean(np.array([]))

    def test_single_angle(self):
        assert circular_mean(np.array([1.3])) == pytest.approx(1.3)


class TestSpreadMeasures:
    def test_resultant_length_concentrated(self):
        assert resultant_length(np.full(10, 0.7)) == pytest.approx(1.0)

    def test_resultant_length_uniform(self):
        angles = np.linspace(-math.pi, math.pi, 100, endpoint=False)
        assert resultant_length(angles) == pytest.approx(0.0, abs=1e-10)

    def test_circular_std_small_cluster_matches_linear(self):
        rng = np.random.default_rng(1)
        angles = rng.normal(0.5, 0.05, 2000)
        assert circular_std(angles) == pytest.approx(0.05, rel=0.1)

    def test_circular_std_uniform_is_inf_capped_in_degrees(self):
        angles = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        assert angular_spread_deg(angles) == 180.0

    def test_angular_spread_18_degrees(self):
        # The paper's "~18 degrees" spread corresponds to sigma ~0.31 rad.
        rng = np.random.default_rng(2)
        angles = rng.normal(1.0, math.radians(18.0), 5000)
        assert angular_spread_deg(angles) == pytest.approx(18.0, rel=0.1)


class TestWrapping:
    def test_wrap_scalar(self):
        assert wrap_phase(3 * math.pi) == pytest.approx(math.pi, abs=1e-9)

    def test_wrap_array(self):
        out = wrap_phase(np.array([0.0, 2 * math.pi, -2 * math.pi]))
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_wrap_range(self):
        rng = np.random.default_rng(3)
        out = wrap_phase(rng.uniform(-20, 20, 100))
        assert np.all(out <= math.pi + 1e-12)
        assert np.all(out > -math.pi - 1e-12)

    def test_circular_difference_shortest_path(self):
        a = np.array([math.pi - 0.05])
        b = np.array([-math.pi + 0.05])
        np.testing.assert_allclose(
            circular_difference(a, b), [-0.1], atol=1e-9
        )


class TestRobustStats:
    def test_mad_of_constant_is_zero(self):
        assert mad(np.full(10, 4.2)) == 0.0

    def test_mad_ignores_single_outlier(self):
        x = np.array([1.0, 1.1, 0.9, 1.05, 0.95, 100.0])
        assert mad(x) < 0.2

    def test_robust_sigma_gaussian_consistent(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 2.0, 20000)
        assert robust_sigma(x) == pytest.approx(2.0, rel=0.05)

    def test_mad_empty_rejected(self):
        with pytest.raises(ValueError):
            mad(np.array([]))


class TestPhaseDifferenceVariance:
    def test_matches_linear_for_small_cluster(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0.3, 0.1, 500)
        assert phase_difference_variance(x) == pytest.approx(
            np.var(x), rel=0.05
        )

    def test_boundary_cluster_not_torn(self):
        # Values straddling +/-pi: linear variance would be ~pi^2; the
        # circular-safe version must report the true small spread.
        rng = np.random.default_rng(6)
        x = wrap_phase(math.pi + rng.normal(0, 0.05, 500))
        assert phase_difference_variance(np.asarray(x)) < 0.01

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            phase_difference_variance(np.array([]))


def _eq7_column_loop(diffs):
    """The scalar Eq. 7 scorer applied column by column (the oracle)."""
    return np.array(
        [
            phase_difference_variance(diffs[:, k], ignore_nan=True)
            for k in range(diffs.shape[1])
        ]
    )


def _simulated_diffs(num_packets, seed):
    """Eq. 6 phase differences ``(M, K)`` of a simulated target trace."""
    scene = SimulationScene(
        geometry=LinkGeometry(),
        environment=make_environment("lab"),
        target=CylinderTarget(lateral_offset=0.02),
    )
    session = DataCollector(scene, rng=seed).collect(
        default_catalog().get("milk"), SessionConfig(num_packets=num_packets)
    )
    return PhaseCalibrator().phase_difference(session.target, (0, 1))


class TestPhaseDifferenceVarianceAxis:
    """The one-call Eq. 7 scorer equals the per-column scalar loop bit
    for bit, NaN rules included, and stays silent on dead columns."""

    def _assert_matches_loop(self, diffs):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batched = phase_difference_variance_axis(diffs, axis=0)
            expected = _eq7_column_loop(diffs)
        assert batched.shape == (diffs.shape[1],)
        assert np.array_equal(batched, expected, equal_nan=True)

    @pytest.mark.parametrize("num_packets", [20, 200])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_simulator_diffs(self, num_packets, seed):
        self._assert_matches_loop(_simulated_diffs(num_packets, seed))

    @pytest.mark.parametrize("num_packets", [20, 200])
    def test_nan_packets(self, num_packets):
        diffs = _simulated_diffs(num_packets, 3)
        rng = np.random.default_rng(num_packets)
        diffs[rng.choice(num_packets, num_packets // 4, replace=False)] = np.nan
        diffs[rng.random(diffs.shape) < 0.1] = np.inf
        self._assert_matches_loop(diffs)

    def test_all_nan_column_scores_nan(self):
        diffs = _simulated_diffs(20, 4)
        diffs[:, 7] = np.nan
        self._assert_matches_loop(diffs)
        assert math.isnan(phase_difference_variance_axis(diffs)[7])

    def test_cluster_straddling_pi(self):
        rng = np.random.default_rng(8)
        diffs = np.asarray(
            wrap_phase(math.pi + rng.normal(0, 0.05, (200, 30)))
        )
        self._assert_matches_loop(diffs)
        assert np.all(phase_difference_variance_axis(diffs) < 0.01)

    def test_axis_one_reduces_rows(self):
        diffs = _simulated_diffs(20, 5)
        assert np.array_equal(
            phase_difference_variance_axis(diffs.T, axis=1),
            phase_difference_variance_axis(diffs, axis=0),
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            phase_difference_variance_axis(np.empty((0, 3)))


class TestProperties:
    @given(
        st.lists(
            st.floats(min_value=-3.1, max_value=3.1), min_size=1, max_size=50
        ),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_circular_mean_rotation_equivariant(self, data, shift):
        angles = np.array(data)
        m1 = circular_mean(angles)
        m2 = circular_mean(np.asarray(wrap_phase(angles + shift)))
        diff = circular_difference(np.array([m2]), np.array([m1 + shift]))
        assert abs(diff[0]) < 1e-6

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=50
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_mad_translation_invariant(self, data):
        x = np.array(data)
        assert mad(x + 7.5) == pytest.approx(mad(x), abs=1e-9)


class TestNanAwareStatistics:
    """The ``ignore_nan`` variants: bit-identical on clean data, NaN-blind
    on degraded data, and silent under ``-W error::RuntimeWarning``."""

    CLEAN = np.array([0.2, -0.1, 0.4, 0.05, -0.3])
    HOLED = np.array([0.2, np.nan, 0.4, np.nan, -0.3])

    def test_clean_input_bit_identical(self):
        from repro.dsp.stats import finite_mean, finite_median

        for fn in (
            circular_mean, resultant_length, circular_std, mad,
            robust_sigma, phase_difference_variance,
        ):
            assert fn(self.CLEAN, ignore_nan=True) == fn(self.CLEAN)
        assert finite_mean(self.CLEAN) == np.mean(self.CLEAN)
        assert finite_median(self.CLEAN) == np.median(self.CLEAN)

    def test_nan_excluded_not_propagated(self):
        finite_only = self.HOLED[np.isfinite(self.HOLED)]
        assert circular_mean(self.HOLED, ignore_nan=True) == pytest.approx(
            circular_mean(finite_only)
        )
        assert mad(self.HOLED, ignore_nan=True) == pytest.approx(
            mad(finite_only)
        )

    def test_without_flag_nan_propagates(self):
        assert math.isnan(circular_mean(self.HOLED))
        assert math.isnan(mad(self.HOLED))

    def test_all_nan_yields_nan_not_warning(self):
        import warnings

        all_nan = np.full(4, np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert math.isnan(circular_mean(all_nan, ignore_nan=True))
            assert math.isnan(mad(all_nan, ignore_nan=True))

    def test_finite_fraction(self):
        from repro.dsp.stats import finite_fraction

        assert finite_fraction(self.CLEAN) == 1.0
        assert finite_fraction(self.HOLED) == pytest.approx(0.6)
        matrix = np.stack([self.CLEAN, self.HOLED])
        np.testing.assert_allclose(
            finite_fraction(matrix, axis=1), [1.0, 0.6]
        )

    def test_axis_variants_match_per_slice(self):
        from repro.dsp.stats import circular_mean_axis, circular_std_axis

        matrix = np.stack([self.CLEAN, self.HOLED])
        means = circular_mean_axis(matrix, axis=1, ignore_nan=True)
        stds = circular_std_axis(matrix, axis=1, ignore_nan=True)
        assert means[0] == pytest.approx(circular_mean(self.CLEAN))
        assert means[1] == pytest.approx(
            circular_mean(self.HOLED, ignore_nan=True)
        )
        assert stds[1] == pytest.approx(
            circular_std(self.HOLED, ignore_nan=True)
        )

    def test_no_runtime_warnings_on_degraded_input(self):
        import warnings

        from repro.dsp.stats import finite_mean, finite_median

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            circular_std(self.HOLED, ignore_nan=True)
            phase_difference_variance(self.HOLED, ignore_nan=True)
            finite_mean(self.HOLED)
            finite_median(self.HOLED)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_finite_median_axis_matches_per_slice_median(self, axis):
        import warnings

        rng = np.random.default_rng(11)
        for trial in range(40):
            x = rng.standard_normal((int(rng.integers(1, 60)), 9))
            x[rng.random(x.shape) < 0.2] = np.nan
            x[rng.random(x.shape) < 0.05] = np.inf
            x[rng.random(x.shape) < 0.05] = -np.inf
            x[:, trial % 9] = np.nan
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = finite_median(x, axis=axis)
            slices = x.T if axis == 0 else x
            expected = [
                np.median(v[np.isfinite(v)]) if np.isfinite(v).any()
                else math.nan
                for v in slices
            ]
            assert np.array_equal(got, expected, equal_nan=True)

    @pytest.mark.parametrize("size", [1, 2, 3, 8, 9, 30, 31, 200])
    def test_finite_median_scalar_is_median_of_finite_entries(self, size):
        """``axis=None``: bit for bit ``np.median`` of the finite entries,
        on odd, even and single-element inputs, ties included."""
        import warnings

        rng = np.random.default_rng(size)
        for trial in range(20):
            values = rng.standard_normal(size)
            if trial % 2:
                values = np.round(values, 1)  # ties at the middle
                # Neither a sort nor np.median's partition orders -0.0
                # against 0.0, so only the sign of a zero median could
                # differ; keep the zeros positive.
                values[values == 0.0] = 0.0
            holed = np.concatenate(
                [values, [np.nan, np.inf, -np.inf][: trial % 4]]
            )
            rng.shuffle(holed)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = finite_median(holed)
            want = np.median(holed[np.isfinite(holed)])
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_finite_median_scalar_nan_when_nothing_is_finite(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for x in ([], [np.nan], [np.inf, -np.inf, np.nan]):
                assert math.isnan(finite_median(np.asarray(x, dtype=float)))
