import math

import numpy as np
import pytest

from rmodesim import (
    FieldGrid,
    GeoPoint,
    GridPropagation,
    GridSpec,
    ModelParams,
    NoiseSpec,
    ParametricPropagation,
    TransmitterStation,
    accuracy95,
    accuracy_at,
    compute_coverage,
    covariance,
)
from rmodesim.accuracy import MASK_SINGULAR_GEOMETRY, MASK_TOO_FEW_STATIONS
from rmodesim.errors import CoincidentPointsError, SingularGeometryError, TooFewStationsError, UnknownStationError

from helpers import destination_point, mc_wls_horizontal_cov

EQUIANGULAR = np.radians([0.0, 120.0, 240.0])


def random_geometry(rng, n):
    """Azimuths rejected until comfortably away from collinearity."""
    while True:
        az = rng.uniform(0.0, 2.0 * math.pi, size=n)
        g = np.column_stack([np.cos(az), np.sin(az), np.ones(n)])
        if np.linalg.cond(g.T @ g) < 1e4:
            return az


class TestCovariance:
    def test_equiangular_closed_form(self):
        for s in (0.25, 9.0, 100.0):
            k = covariance(EQUIANGULAR, [s, s, s])
            expected = np.diag([2.0 * s / 3.0, 2.0 * s / 3.0, s / 3.0])
            assert np.allclose(k, expected, rtol=1e-9, atol=1e-9 * s)

    def test_matches_dense_linear_algebra_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(3, 8))
            az = random_geometry(rng, n)
            s2 = rng.uniform(0.1, 100.0, size=n)
            g = np.column_stack([np.cos(az), np.sin(az), np.ones(n)])
            expected = np.linalg.inv(g.T @ np.linalg.inv(np.diag(s2)) @ g)
            k = covariance(az, s2)
            assert np.allclose(k, expected, rtol=1e-8, atol=1e-12)

    def test_symmetric_positive_semidefinite(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            az = random_geometry(rng, int(rng.integers(3, 6)))
            s2 = rng.uniform(0.1, 100.0, size=az.size)
            k = covariance(az, s2)
            assert np.allclose(k, k.T, rtol=1e-9)
            assert np.all(np.linalg.eigvalsh(k) > -1e-9 * np.abs(k).max())
            assert k[0, 0] >= 0.0 and k[1, 1] >= 0.0

    def test_identical_azimuths_are_singular(self):
        with pytest.raises(SingularGeometryError):
            covariance([0.3, 0.3, 0.3], [1.0, 1.0, 1.0])

    def test_collinear_azimuths_are_singular(self):
        with pytest.raises(SingularGeometryError):
            covariance([0.5, 0.5, 0.5 + math.pi], [1.0, 2.0, 3.0])

    def test_power_of_two_scaling_is_bitwise_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            az = random_geometry(rng, 4)
            s2 = rng.uniform(0.1, 50.0, size=4)
            k1 = covariance(az, s2)
            k4 = covariance(az, 4.0 * s2)
            assert np.array_equal(k4, 4.0 * k1)

    def test_validation(self):
        with pytest.raises(TooFewStationsError):
            covariance([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            covariance(EQUIANGULAR, [1.0, 1.0])
        with pytest.raises(ValueError):
            covariance(EQUIANGULAR, [1.0, 0.0, 1.0])


class TestAccuracy95:
    def test_unit_diagonal(self):
        assert accuracy95(np.eye(3)) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    def test_zero_matrix(self):
        assert accuracy95(np.zeros((3, 3))) == 0.0

    def test_equiangular_with_sigma_three(self):
        k = covariance(EQUIANGULAR, [9.0, 9.0, 9.0])
        assert accuracy95(k) == pytest.approx(4.0 * 3.0 / math.sqrt(3.0), abs=1e-6)  # 6.9282

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            az = random_geometry(rng, int(rng.integers(3, 6)))
            s2 = rng.uniform(0.1, 100.0, size=az.size)
            base = accuracy95(covariance(az, s2))
            rotated = accuracy95(covariance(az + rng.uniform(0, 2 * math.pi), s2))
            assert rotated == pytest.approx(base, rel=1e-9)

    def test_monotone_in_single_variance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            az = random_geometry(rng, 4)
            s2 = rng.uniform(0.5, 50.0, size=4)
            base = accuracy95(covariance(az, s2))
            improved = s2.copy()
            improved[int(rng.integers(0, 4))] *= rng.uniform(0.05, 0.95)
            better = accuracy95(covariance(az, improved))
            assert better <= base * (1.0 + 1e-12)

    def test_extra_station_never_hurts(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            az = random_geometry(rng, 3)
            s2 = rng.uniform(0.5, 50.0, size=3)
            base = accuracy95(covariance(az, s2))
            az4 = np.append(az, rng.uniform(0, 2 * math.pi))
            s24 = np.append(s2, rng.uniform(0.5, 50.0))
            extended = accuracy95(covariance(az4, s24))
            assert extended <= base * (1.0 + 1e-12)


def test_monte_carlo_covariance_agreement_small():
    # the heavier 20-geometry / 1e6-trial version runs in the acceptance suite
    rng = np.random.default_rng(7)
    for _ in range(3):
        n = int(rng.integers(3, 6))
        az = random_geometry(rng, n)
        s2 = rng.uniform(0.1, 100.0, size=n)
        k = covariance(az, s2)
        sample = mc_wls_horizontal_cov(az, s2, trials=200_000, rng=rng)
        frob = np.linalg.norm(sample - k[:2, :2]) / np.linalg.norm(k[:2, :2])
        assert frob < 0.05


class TestAccuracyAt:
    def setup_method(self):
        self.center = GeoPoint(0.0, 0.0)
        self.params_c = 22.15
        self.prop = ParametricPropagation(ref_field_dbuv_m=100.0, atten_db_per_km=0.0)

    def place_stations(self, bearings_deg, distance_m, power_w=300.0):
        stations = []
        for i, b in enumerate(bearings_deg):
            lat, lon = destination_point(0.0, 0.0, math.radians(b), distance_m)
            stations.append(
                TransmitterStation(f"s{i}", GeoPoint(lat, lon), power_w, 300e3)
            )
        return stations

    def test_equiangular_composition_matches_closed_form(self):
        stations = self.place_stations([0.0, 120.0, 240.0], 150_000.0)
        params = ModelParams({tx.station_id: 0.0 for tx in stations}, self.params_c)
        noise = NoiseSpec(level_dbuv_m=40.0)
        res = accuracy_at(self.center, stations, params, self.prop, noise, -15.0)
        assert not res.masked
        assert res.usable_count == 3
        snr_lin = res.stations[0].snr_linear
        sigma = math.sqrt(self.params_c ** 2 / snr_lin)
        assert res.accuracy_m == pytest.approx(4.0 * sigma / math.sqrt(3.0), rel=1e-9)

    def test_too_few_usable_masks(self):
        stations = self.place_stations([0.0, 120.0, 240.0], 150_000.0)
        params = ModelParams({tx.station_id: 0.0 for tx in stations}, self.params_c)
        noise = NoiseSpec(level_dbuv_m=150.0)  # drowns out everything
        res = accuracy_at(self.center, stations, params, self.prop, noise, -15.0)
        assert res.masked and res.mask_reason == MASK_TOO_FEW_STATIONS
        assert res.usable_count == 0
        assert res.accuracy_m is None

    def test_two_usable_stations_reports_count(self):
        stations = self.place_stations([0.0, 120.0, 240.0], 150_000.0)
        # push one station below threshold with a long lever arm
        far_lat, far_lon = destination_point(0.0, 0.0, math.radians(240.0), 4_000_000.0)
        stations[2] = TransmitterStation("s2", GeoPoint(far_lat, far_lon), 300.0, 300e3)
        params = ModelParams({tx.station_id: 0.0 for tx in stations}, self.params_c)
        noise = NoiseSpec(level_dbuv_m=40.0)
        res = accuracy_at(self.center, stations, params, self.prop, noise, -15.0)
        assert res.masked and res.mask_reason == MASK_TOO_FEW_STATIONS
        assert res.usable_count == 2

    def test_collinear_stations_mask_singular(self):
        stations = []
        for i, d in enumerate([100_000.0, 200_000.0, 300_000.0]):
            lat, lon = destination_point(0.0, 0.0, 0.0, d)  # all due north
            stations.append(TransmitterStation(f"s{i}", GeoPoint(lat, lon), 300.0, 300e3))
        params = ModelParams({tx.station_id: 0.0 for tx in stations}, self.params_c)
        res = accuracy_at(
            self.center, stations, params, self.prop, NoiseSpec(level_dbuv_m=40.0), -15.0
        )
        assert res.masked and res.mask_reason == MASK_SINGULAR_GEOMETRY

    def test_threshold_monotonicity(self):
        stations = self.place_stations([10.0, 130.0, 250.0], 300_000.0)
        params = ModelParams({tx.station_id: 0.0 for tx in stations}, self.params_c)
        noise = NoiseSpec(level_dbuv_m=55.0)
        counts = []
        for thr in (-20.0, -10.0, 0.0, 10.0, 20.0):
            res = accuracy_at(self.center, stations, params, self.prop, noise, thr)
            counts.append(res.usable_count)
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_station_without_jitter_rejected(self):
        stations = self.place_stations([0.0, 120.0, 240.0], 150_000.0)
        params = ModelParams({"s0": 0.0, "s1": 0.0}, self.params_c)
        with pytest.raises(UnknownStationError, match="no jitter parameter for station 's2'"):
            accuracy_at(self.center, stations, params, self.prop, NoiseSpec(level_dbuv_m=40.0), -15.0)

    def test_empty_stations_rejected(self):
        params = ModelParams({}, 1.0)
        with pytest.raises(ValueError):
            accuracy_at(self.center, [], params, self.prop, NoiseSpec(level_dbuv_m=40.0), -15.0)


class TestTransmitterSite:
    """A query on a transmitter site has no azimuth to that station."""

    stations = [
        TransmitterStation("a", GeoPoint(0.0, 0.0), 300.0, 300e3),
        TransmitterStation("b", GeoPoint(1.0, 1.5), 300.0, 300e3),
        TransmitterStation("c", GeoPoint(-1.0, 1.0), 300.0, 300e3),
    ]
    params = ModelParams({"a": 0.0, "b": 0.0, "c": 0.0}, 22.15)
    noise = NoiseSpec(level_dbuv_m=40.0)
    flat = FieldGrid([-2.0, 3.0], [-2.0, 3.0], np.full((2, 2), 80.0))
    props = {
        "parametric": ParametricPropagation(),
        "lattice": GridPropagation({"a": flat, "b": flat, "c": flat}),
    }

    @pytest.mark.parametrize("prop", sorted(props))
    @pytest.mark.parametrize("site", [0, 1, 2])
    def test_point_query_raises(self, prop, site):
        p = self.stations[site].position
        with pytest.raises(CoincidentPointsError, match=f"site of station '{self.stations[site].station_id}'"):
            accuracy_at(p, self.stations, self.params, self.props[prop], self.noise, -15.0)

    @pytest.mark.parametrize("prop", sorted(props))
    def test_sweep_with_a_node_on_a_site_raises(self, prop):
        spec = GridSpec(-1.0, 1.0, -0.5, 1.5, 0.5)  # nodes on all three sites
        with pytest.raises(CoincidentPointsError, match="site of station"):
            compute_coverage(spec, self.stations, self.params, self.props[prop], self.noise, -15.0)
