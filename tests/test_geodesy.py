import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmodesim import EARTH_RADIUS_M, GeoPoint, azimuth
from rmodesim.errors import CoincidentPointsError
from rmodesim.geodesy import bearing_rad, haversine_m

from helpers import destination_point, tangent_plane_bearing_rad, vincenty_distance_m

lat_st = st.floats(min_value=-89.0, max_value=89.0)
lon_st = st.floats(min_value=-180.0, max_value=180.0)


def test_identity_distance_is_zero():
    assert haversine_m(12.5, -47.25, 12.5, -47.25) == 0.0


def test_one_degree_longitude_on_equator():
    # closed form: R * pi / 180
    expected = EARTH_RADIUS_M * math.pi / 180.0
    d = haversine_m(0.0, 0.0, 0.0, 1.0)
    assert d == pytest.approx(expected, abs=1e-6)
    assert d == pytest.approx(111_195.0, abs=1.0)


@given(lat_st, lon_st, lat_st, lon_st)
@settings(max_examples=200)
def test_distance_symmetry(lat1, lon1, lat2, lon2):
    assert haversine_m(lat1, lon1, lat2, lon2) >= 0.0
    assert haversine_m(lat1, lon1, lat2, lon2) == pytest.approx(haversine_m(lat2, lon2, lat1, lon1), abs=1e-9)


def test_cardinal_azimuths():
    origin = GeoPoint(0.0, 0.0)
    assert azimuth(origin, GeoPoint(1.0, 0.0)) == 0.0  # due north
    assert azimuth(origin, GeoPoint(0.0, 1.0)) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert azimuth(origin, GeoPoint(-1.0, 0.0)) == pytest.approx(math.pi, abs=1e-15)
    assert azimuth(origin, GeoPoint(0.0, -1.0)) == pytest.approx(3.0 * math.pi / 2.0, abs=1e-15)


def test_diagonal_azimuth_against_tangent_plane_oracle():
    # value frozen from the oracle below: 0.7853220051761581 rad
    az = azimuth(GeoPoint(0.0, 0.0), GeoPoint(1.0, 1.0))
    assert az == pytest.approx(0.7853220051761581, abs=1e-4)
    oracle = tangent_plane_bearing_rad(0.0, 0.0, 1.0, 1.0)
    assert az == pytest.approx(oracle, abs=1e-12)


@given(lat_st, lon_st, lat_st, lon_st)
@settings(max_examples=200)
def test_azimuth_matches_tangent_plane_oracle(lat1, lon1, lat2, lon2):
    # direction is numerically ill-defined at coincident or antipodal pairs
    d = float(haversine_m(lat1, lon1, lat2, lon2))
    if d < 0.1 or d > math.pi * EARTH_RADIUS_M - 0.1:
        return
    az = bearing_rad(lat1, lon1, lat2, lon2)
    oracle = tangent_plane_bearing_rad(lat1, lon1, lat2, lon2)
    diff = abs(float(az) - oracle) % (2.0 * math.pi)
    assert min(diff, 2.0 * math.pi - diff) < 1e-6


def test_azimuth_range():
    rng = np.random.default_rng(7)
    for _ in range(500):
        lat1, lat2 = rng.uniform(-89, 89, 2)
        lon1, lon2 = rng.uniform(-180, 180, 2)
        az = float(bearing_rad(lat1, lon1, lat2, lon2))
        assert 0.0 <= az < 2.0 * math.pi


def test_haversine_within_half_percent_of_ellipsoid_at_mid_latitudes():
    # The spherical approximation is latitude dependent; over the
    # mid-latitude band this toolkit targets it stays inside 0.5%.
    # (Near-equator meridional paths reach ~0.56%.)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(300):
        lat1 = rng.uniform(20.0, 60.0)
        lon1 = rng.uniform(-180.0, 179.0)
        # offsets keeping the pair under 1000 km
        lat2 = lat1 + rng.uniform(-4.0, 4.0)
        lon2 = lon1 + rng.uniform(-4.0, 4.0)
        ell = vincenty_distance_m(lat1, lon1, lat2, lon2)
        if ell < 1000.0:  # skip near-coincident pairs
            continue
        sph = float(haversine_m(lat1, lon1, lat2, lon2))
        worst = max(worst, abs(sph - ell) / ell)
    assert worst < 0.005


def test_haversine_global_error_bound():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(300):
        lat1 = rng.uniform(-85.0, 85.0)
        lon1 = rng.uniform(-180.0, 179.0)
        lat2 = lat1 + rng.uniform(-4.0, 4.0)
        lon2 = lon1 + rng.uniform(-4.0, 4.0)
        ell = vincenty_distance_m(lat1, lon1, lat2, lon2)
        if ell < 1000.0 or ell > 1_000_000.0:
            continue
        sph = float(haversine_m(lat1, lon1, lat2, lon2))
        worst = max(worst, abs(sph - ell) / ell)
    assert worst < 0.006


def test_reciprocal_azimuth_small_separation():
    # forward and reverse azimuths differ from pi by at most the
    # great-circle convergence, about (d/R) * tan(lat); under 10 km
    # that stays below 1e-3 rad up to ~30 degrees latitude
    rng = np.random.default_rng(11)
    for _ in range(300):
        lat = rng.uniform(-60.0, 60.0)
        lon = rng.uniform(-179.0, 179.0)
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        dist = rng.uniform(100.0, 10_000.0)
        lat2, lon2 = destination_point(lat, lon, bearing, dist)
        u, t = GeoPoint(lat, lon), GeoPoint(lat2, lon2)
        fwd = azimuth(u, t)
        back = azimuth(t, u)
        diff = abs((fwd - (back - math.pi)) % (2.0 * math.pi))
        diff = min(diff, 2.0 * math.pi - diff)
        convergence = (dist / EARTH_RADIUS_M) * math.tan(
            math.radians(max(abs(lat), abs(lat2)))
        )
        assert diff <= 1.1 * convergence + 1e-6
        if abs(lat) <= 30.0:
            assert diff < 1e-3


def test_coincident_points_raise():
    p = GeoPoint(10.0, 20.0)
    with pytest.raises(CoincidentPointsError):
        azimuth(p, GeoPoint(10.0, 20.0))


def test_geopoint_validation():
    with pytest.raises(ValueError):
        GeoPoint(90.5, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, -180.5)
    GeoPoint(90.0, 180.0)  # bounds are inclusive


def test_array_paths_match_scalar():
    lats = np.array([10.0, 20.0, 30.0])
    lons = np.array([5.0, 6.0, 7.0])
    d = haversine_m(lats, lons, 15.0, 10.0)
    b = bearing_rad(lats, lons, 15.0, 10.0)
    for i in range(3):
        assert d[i] == haversine_m(lats[i], lons[i], 15.0, 10.0)
        assert b[i] == azimuth(GeoPoint(lats[i], lons[i]), GeoPoint(15.0, 10.0))
