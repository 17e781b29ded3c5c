"""Tests for repro.geo.distance."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geo import Point, euclidean, haversine_km, pairwise_euclidean, travel_time_hours
from repro.geo.distance import DEFAULT_SPEED_KMH


class TestEuclidean:
    def test_matches_point_method(self):
        a, b = Point(1, 1), Point(4, 5)
        assert euclidean(a, b) == a.distance_to(b) == pytest.approx(5.0)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(48.85, 2.35, 48.85, 2.35) == pytest.approx(0.0)

    def test_one_degree_latitude_is_about_111km(self):
        assert haversine_km(0.0, 0.0, 1.0, 0.0) == pytest.approx(111.2, abs=0.5)

    def test_paris_london(self):
        # Paris (48.8566, 2.3522) to London (51.5074, -0.1278) ~ 344 km.
        assert haversine_km(48.8566, 2.3522, 51.5074, -0.1278) == pytest.approx(344, abs=5)

    def test_symmetry(self):
        d1 = haversine_km(10, 20, -30, 40)
        d2 = haversine_km(-30, 40, 10, 20)
        assert d1 == pytest.approx(d2)

    def test_antipodal_is_half_circumference(self):
        assert haversine_km(0, 0, 0, 180) == pytest.approx(20015, abs=10)


class TestTravelTime:
    def test_default_speed_is_paper_value(self):
        assert DEFAULT_SPEED_KMH == 5.0

    def test_time_is_distance_over_speed(self):
        assert travel_time_hours(Point(0, 0), Point(10, 0)) == pytest.approx(2.0)

    def test_custom_speed(self):
        assert travel_time_hours(Point(0, 0), Point(10, 0), speed_kmh=20) == pytest.approx(0.5)

    def test_rejects_non_positive_speed(self):
        with pytest.raises(ValueError):
            travel_time_hours(Point(0, 0), Point(1, 0), speed_kmh=0)


class TestPairwise:
    def test_shape_and_values(self):
        a = [Point(0, 0), Point(1, 0)]
        b = [Point(0, 0), Point(0, 2), Point(3, 4)]
        matrix = pairwise_euclidean(a, b)
        assert matrix.shape == (2, 3)
        assert matrix[0, 0] == pytest.approx(0.0)
        assert matrix[0, 1] == pytest.approx(2.0)
        assert matrix[0, 2] == pytest.approx(5.0)
        assert matrix[1, 0] == pytest.approx(1.0)

    def test_empty_inputs(self):
        assert pairwise_euclidean([], [Point(0, 0)]).shape == (0, 1)
        assert pairwise_euclidean([Point(0, 0)], []).shape == (1, 0)

    @given(
        st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=1, max_size=6),
        st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=1, max_size=6),
    )
    def test_matches_scalar_euclidean(self, coords_a, coords_b):
        points_a = [Point(x, y) for x, y in coords_a]
        points_b = [Point(x, y) for x, y in coords_b]
        matrix = pairwise_euclidean(points_a, points_b)
        for i, pa in enumerate(points_a):
            for j, pb in enumerate(points_b):
                assert matrix[i, j] == pytest.approx(euclidean(pa, pb), abs=1e-9)

    @staticmethod
    def _stacked_formula(points_a, points_b):
        """The W x T x 2 formulation, kept as the byte-equality oracle."""
        if not points_a or not points_b:
            return np.zeros((len(points_a), len(points_b)))
        arr_a = np.array([(p.x, p.y) for p in points_a], dtype=float)
        arr_b = np.array([(p.x, p.y) for p in points_b], dtype=float)
        diff = arr_a[:, None, :] - arr_b[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (4, 0), (1, 1), (37, 53)])
    def test_byte_identical_to_stacked_formula(self, shape):
        rng = np.random.default_rng(sum(shape))
        coords = rng.normal(scale=30.0, size=(shape[0] + shape[1], 2))
        points = [Point(float(x), float(y)) for x, y in coords]
        points_a, points_b = points[: shape[0]], points[shape[0]:]
        matrix = pairwise_euclidean(points_a, points_b)
        expected = self._stacked_formula(points_a, points_b)
        assert matrix.shape == expected.shape
        assert matrix.tobytes() == expected.tobytes()

    def test_byte_identical_on_signed_zeros(self):
        values = (0.0, -0.0, 1e-300, -1e-300, 2.5)
        points = [Point(x, y) for x in values for y in values]
        matrix = pairwise_euclidean(points, points)
        assert matrix.tobytes() == self._stacked_formula(points, points).tobytes()
        assert not np.signbit(matrix).any()

    @given(
        st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), max_size=6),
        st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), max_size=6),
    )
    def test_byte_identical_property(self, coords_a, coords_b):
        points_a = [Point(x, y) for x, y in coords_a]
        points_b = [Point(x, y) for x, y in coords_b]
        assert (
            pairwise_euclidean(points_a, points_b).tobytes()
            == self._stacked_formula(points_a, points_b).tobytes()
        )
