"""Tests for the testbed geometry."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.geometry import (
    AntennaArray,
    CylinderTarget,
    LinkGeometry,
    WAVELENGTH_5GHZ_M,
    chord_length,
)


class TestChordLength:
    def test_diameter_through_center(self):
        assert chord_length((-2, 0), (2, 0), (0, 0), 1.0) == pytest.approx(2.0)

    def test_miss(self):
        assert chord_length((-2, 5), (2, 5), (0, 0), 1.0) == 0.0

    def test_tangent_is_zero(self):
        assert chord_length((-2, 1.0), (2, 1.0), (0, 0), 1.0) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_offset_chord(self):
        # Chord at height h: 2 sqrt(r^2 - h^2).
        got = chord_length((-2, 0.5), (2, 0.5), (0, 0), 1.0)
        assert got == pytest.approx(2.0 * math.sqrt(1.0 - 0.25))

    def test_segment_clipping(self):
        # Segment ending inside the circle counts only the inside part.
        got = chord_length((-2, 0), (0, 0), (0, 0), 1.0)
        assert got == pytest.approx(1.0)

    def test_zero_radius(self):
        assert chord_length((-1, 0), (1, 0), (0, 0), 0.0) == 0.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            chord_length((-1, 0), (1, 0), (0, 0), -1.0)

    def test_degenerate_segment(self):
        assert chord_length((0, 0), (0, 0), (0, 0), 1.0) == 0.0

    @given(
        st.floats(min_value=-0.9, max_value=0.9),
        st.floats(min_value=0.1, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_chord_bounded_by_diameter(self, height, radius):
        got = chord_length((-5, height), (5, height), (0, 0), radius)
        assert 0.0 <= got <= 2.0 * radius + 1e-12


class TestCylinderTarget:
    def test_paper_default_dimensions(self):
        t = CylinderTarget()
        assert t.diameter == pytest.approx(0.143)
        assert t.height == pytest.approx(0.23)

    def test_inner_radius(self):
        t = CylinderTarget(diameter=0.10, wall_thickness=0.005)
        assert t.inner_radius == pytest.approx(0.045)

    def test_wall_material_lookup(self):
        assert CylinderTarget(wall_material_name="glass").wall_material.name == "glass"

    def test_unknown_wall_material_rejected(self):
        with pytest.raises(ValueError, match="wall material"):
            CylinderTarget(wall_material_name="adamantium")

    def test_wall_thicker_than_radius_rejected(self):
        with pytest.raises(ValueError, match="wall thickness"):
            CylinderTarget(diameter=0.01, wall_thickness=0.006)

    def test_diffraction_factor_large_beaker(self):
        assert CylinderTarget(diameter=0.143).diffraction_factor() > 0.99

    def test_diffraction_factor_small_beaker(self):
        assert CylinderTarget(diameter=0.032).diffraction_factor() < 0.5

    def test_diffraction_monotone_in_diameter(self):
        factors = [
            CylinderTarget(diameter=d).diffraction_factor()
            for d in (0.032, 0.061, 0.089, 0.110, 0.143)
        ]
        assert factors == sorted(factors)

    def test_invalid_wavelength_rejected(self):
        with pytest.raises(ValueError, match="wavelength"):
            CylinderTarget().diffraction_factor(0.0)


class TestAntennaArray:
    def test_default_three_antennas(self):
        assert AntennaArray().num_antennas == 3

    def test_offsets_centered(self):
        offsets = AntennaArray(num_antennas=3, spacing=0.02).offsets()
        assert offsets == pytest.approx([-0.02, 0.0, 0.02])

    def test_pairs_count(self):
        assert len(AntennaArray(num_antennas=3).pairs()) == 3
        assert len(AntennaArray(num_antennas=4).pairs()) == 6

    def test_half_wavelength_default_spacing(self):
        assert AntennaArray().spacing == pytest.approx(WAVELENGTH_5GHZ_M / 2)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            AntennaArray(num_antennas=0)
        with pytest.raises(ValueError):
            AntennaArray(spacing=0.0)


class TestLinkGeometry:
    def test_rx_positions(self):
        geo = LinkGeometry(distance=2.0)
        positions = geo.rx_positions()
        assert len(positions) == 3
        assert all(p[0] == 2.0 for p in positions)

    def test_los_lengths_increase_with_offset(self):
        geo = LinkGeometry(distance=2.0)
        lengths = geo.los_lengths()
        assert lengths[0] == pytest.approx(lengths[2])  # symmetric array
        assert lengths[1] < lengths[0]

    def test_target_center_midlink(self):
        geo = LinkGeometry(distance=2.0)
        t = CylinderTarget(lateral_offset=0.01)
        assert geo.target_center(t) == pytest.approx((1.0, 0.01))

    def test_liquid_paths_differ_per_antenna_with_offset(self):
        geo = LinkGeometry()
        t = CylinderTarget(lateral_offset=0.02)
        chords = geo.liquid_path_lengths(t)
        assert len(set(round(c, 6) for c in chords)) == 3

    def test_centred_beaker_symmetric_chords(self):
        geo = LinkGeometry()
        t = CylinderTarget(lateral_offset=0.0)
        chords = geo.liquid_path_lengths(t)
        assert chords[0] == pytest.approx(chords[2])

    def test_wall_paths_positive_when_hit(self):
        geo = LinkGeometry()
        t = CylinderTarget(lateral_offset=0.01)
        for wall in geo.wall_path_lengths(t):
            assert wall > 0.0

    def test_chord_bounded_by_inner_diameter(self):
        geo = LinkGeometry()
        t = CylinderTarget(lateral_offset=0.01)
        for chord in geo.liquid_path_lengths(t):
            assert chord <= 2.0 * t.inner_radius + 1e-12

    def test_invalid_distance_rejected(self):
        with pytest.raises(ValueError, match="distance"):
            LinkGeometry(distance=0.0)

    def test_invalid_target_position_rejected(self):
        with pytest.raises(ValueError, match="target_position"):
            LinkGeometry(target_position=1.0)

    def test_small_beaker_may_miss_side_rays(self):
        geo = LinkGeometry()
        t = CylinderTarget(diameter=0.032, lateral_offset=0.03)
        chords = geo.liquid_path_lengths(t)
        assert min(chords) == 0.0
