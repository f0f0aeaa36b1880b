import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
import rmodesim.accuracy as accuracy_module
from rmodesim.accuracy import CONDITION_LIMIT, MASK_SINGULAR_GEOMETRY, MASK_TOO_FEW_STATIONS, accuracy_arrays
from rmodesim.config import load_config
from rmodesim.errors import CoincidentPointsError, SingularGeometryError, TooFewStationsError, UnknownStationError
from rmodesim.geodesy import bearing_rad

from helpers import destination_point, eigvalsh_inverse_normal, mc_wls_horizontal_cov

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
        # at 2^-800 and 2^800 the cofactors of the unscaled normal matrix would overflow or underflow
        rng = np.random.default_rng(3)
        for _ in range(50):
            az = random_geometry(rng, 4)
            s2 = rng.uniform(0.1, 50.0, size=4)
            k1 = covariance(az, s2)
            for exponent in (2, -800, 800):
                assert np.array_equal(covariance(az, np.ldexp(s2, exponent)), np.ldexp(k1, exponent))

    def test_validation(self):
        with pytest.raises(TooFewStationsError):
            covariance([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            covariance(EQUIANGULAR, [1.0, 1.0])
        with pytest.raises(ValueError):
            covariance(EQUIANGULAR, [1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="finite reciprocal"):
            covariance(EQUIANGULAR, [1.0, 1e-310, 1.0])  # 1 / 1e-310 overflows


def accuracy_and_cosines(p, stations, *args):
    """``accuracy_at(p, stations, *args)`` and the direction cosines its kernel summed, as given to ``_inverse_normal``."""
    seen = []
    inverse_normal = accuracy_module._inverse_normal

    def spy(c, s, *rest, **kwargs):
        seen.append((c, s))
        return inverse_normal(c, s, *rest, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(accuracy_module, "_inverse_normal", spy)
        res = accuracy_at(p, stations, *args)
    ((c, s),) = seen
    return res, c, s


def eigvalsh_condition(az, w):
    """The normal matrix's condition number as the eigvalsh test computes it, for one geometry."""
    c, s = np.cos(az), np.sin(az)
    wc, ws = w * c, w * s
    b, cc, e = (wc * s).sum(), wc.sum(), ws.sum()
    m = np.array([[(wc * c).sum(), b, cc], [b, (ws * s).sum(), e], [cc, e, w.sum()]])
    lam = np.abs(np.linalg.eigvalsh(m))
    with np.errstate(divide="ignore", invalid="ignore"):
        return lam[-1] / lam[0]


def degenerating_geometry(rng, family, n):
    """Azimuths and weights of ``n`` stations as functions of t, singular at t = 0.

    ``identical``: azimuths spread over t radians (rank 1 at t = 0).
    ``opposite``: stations at theta and theta + pi, one of them moved by up
    to t (rank 2 at t = 0). ``weak``: stations at theta and theta + pi plus
    one elsewhere whose weight scales with t (rank 2 at t = 0).
    """
    theta = rng.uniform(0.0, 2.0 * math.pi)
    w = 10.0 ** rng.uniform(-3.0, 3.0, n)
    if family == "identical":
        u = rng.uniform(0.0, 1.0, n)
        return lambda t: (theta + t * u, w)
    base = theta + math.pi * (np.arange(n) % 2)
    if family == "opposite":
        shift = np.where(np.arange(n) == n - 1, rng.uniform(-1.0, 1.0), 0.0)
        return lambda t: (base + t * shift, w)
    base[-1] = theta + rng.uniform(0.3, math.pi - 0.3)
    return lambda t: (base, np.where(np.arange(n) == n - 1, t * w, w))


def geometry_at_condition(geometry, target):
    """The geometry whose eigvalsh condition number crosses ``target``, by bisection on log10 t."""
    lo, hi = -18.0, 0.0  # log10 t: condition above the target at lo, below at hi
    if not eigvalsh_condition(*geometry(1.0)) < target:
        return geometry(1.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if eigvalsh_condition(*geometry(10.0 ** mid)) < target:
            hi = mid
        else:
            lo = mid
    return geometry(10.0 ** hi)


class TestConditionCheck:
    """The closed-form condition check against the eigvalsh test it replaced (kept in helpers)."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 6),
        zero_weight=st.integers(0, 2),
        shape=st.sampled_from([(), (1,), (5,), (2, 3)]),
    )
    def test_flags_match_eigvalsh(self, seed, n, zero_weight, shape):
        rng = np.random.default_rng(seed)
        cells = []
        for _ in range(math.prod(shape)):
            geometry = degenerating_geometry(rng, rng.choice(["identical", "opposite", "weak"]), n)
            kind = rng.choice(["near_limit", "exact", "any"])
            if kind == "near_limit":
                az, w = geometry_at_condition(geometry, CONDITION_LIMIT * rng.uniform(0.9, 1.1))
            else:
                az, w = geometry(0.0 if kind == "exact" else 10.0 ** rng.uniform(-8.0, 0.0))
            # stations that dropped out (below the SNR threshold) carry zero weight
            cells.append((np.append(az, rng.uniform(0.0, 2.0 * math.pi, zero_weight)),
                          np.append(w, np.zeros(zero_weight))))
        az = np.stack([c[0] for c in cells], axis=-1).reshape((n + zero_weight,) + shape)
        w = np.stack([c[1] for c in cells], axis=-1).reshape(az.shape)

        *_, singular, _ = accuracy_module._inverse_normal(np.cos(az), np.sin(az), w)
        singular_ref = eigvalsh_inverse_normal(np.cos(az), np.sin(az), w)
        assert singular.shape == singular_ref.shape == shape
        assert np.array_equal(singular, singular_ref)

    def test_eigvalsh_sees_only_doubtful_cells(self, monkeypatch):
        seen = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m.shape[:-2]) or eigvalsh(m))
        rng = np.random.default_rng(5)
        az = np.stack([random_geometry(rng, 4) for _ in range(200)], axis=-1)
        *_, singular, _ = accuracy_module._inverse_normal(np.cos(az), np.sin(az), rng.uniform(0.1, 10.0, az.shape))
        assert not singular.any() and seen == []
        *_, singular, _ = accuracy_module._inverse_normal(np.full((3, 7), 0.6), np.full((3, 7), 0.8), np.ones((3, 7)))
        assert singular.all() and seen == [(7,)]

    def test_eigvalsh_skips_points_with_too_few_stations(self, monkeypatch):
        # a point with two usable stations is masked TooFewStations whatever
        # its condition number, so its normal matrix never reaches eigvalsh
        stations = [
            TransmitterStation(f"s{i}", GeoPoint(*destination_point(0.0, 0.0, math.radians(b), d)), 300.0, 300e3)
            for i, (b, d) in enumerate([(0.0, 150_000.0), (90.0, 150_000.0), (240.0, 4_000_000.0)])
        ]
        params = ModelParams({tx.station_id: 0.0 for tx in stations}, 22.15)
        args = (stations, params, ParametricPropagation(100.0, 0.0), NoiseSpec(level_dbuv_m=40.0), -15.0)
        before = accuracy_at(GeoPoint(0.0, 0.0), *args)
        assert before.mask_reason == MASK_TOO_FEW_STATIONS and before.usable_count == 2
        assert before.accuracy_m is None
        seen = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m.shape[:-2]) or eigvalsh(m))
        assert accuracy_at(GeoPoint(0.0, 0.0), *args) == before
        assert seen == []
        # the closed form alone doubts this geometry
        az = np.array([st.azimuth_rad for st in before.stations])
        w = np.array([1.0 / st.sigma2_m2 if st.usable else 0.0 for st in before.stations])
        accuracy_module._inverse_normal(np.cos(az), np.sin(az), w)
        assert seen == [(1,)]


class TestTraceBound:
    """8 W^2 / det H (= tr^3 / det) bounds the condition number, so ``_singular`` clears only cells eigvalsh would."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 6))
    def test_bound_holds_and_cleared_cells_are_below_the_limit(self, seed, n):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(seed)
        geometries = [(random_geometry(rng, n), rng.uniform(0.1, 10.0, n))]
        for family in ("identical", "opposite", "weak"):
            geometry = degenerating_geometry(rng, family, n)
            geometries.append(geometry(10.0 ** rng.uniform(-8.0, 0.0)))
            geometries.append(geometry_at_condition(geometry, CONDITION_LIMIT * 10.0 ** rng.uniform(-2.5, 0.5)))
        az = np.stack([g[0] for g in geometries], axis=-1)
        w = np.stack([g[1] for g in geometries], axis=-1)
        with pytest.MonkeyPatch.context() as mp:
            # every cell that reaches eigvalsh comes back singular, so the flags are the screen's
            mp.setattr(np.linalg, "eigvalsh", lambda m: np.zeros(m.shape[:-1]))
            *_, doubted, _ = accuracy_module._inverse_normal(np.cos(az), np.sin(az), w)
        for (g_az, g_w), cleared in zip(geometries, ~doubted):
            with mpmath.workdps(50):
                g = mpmath.matrix(np.column_stack([np.cos(g_az), np.sin(g_az), np.ones(n)]).tolist())
                m = g.T * mpmath.diag(g_w.tolist()) * g
                lam = mpmath.eigsy(m, eigvals_only=True)
                total = m[2, 2]  # H is the clock's Schur complement m[:2, :2] - m[:2, 2] m[2, :2] / W
                h = [[m[i, j] - m[i, 2] * m[j, 2] / total for j in range(2)] for i in range(2)]
                # 8 W^2 / det H >= lambda_max / lambda_min, in 50-digit arithmetic on the normal matrix
                assert 8 * total**2 * min(lam) >= max(lam) * (h[0][0] * h[1][1] - h[0][1] * h[1][0])
            if cleared:
                assert eigvalsh_condition(g_az, g_w) < CONDITION_LIMIT


def condition_decade_cells(rng, per_decade, decades=12):
    """``per_decade`` (azimuths, weights) geometries in each eigvalsh condition decade from 1 to 10^``decades``."""
    cells = [[] for _ in range(decades)]
    while min(map(len, cells)) < per_decade:
        n = int(rng.integers(3, 7))
        if rng.uniform() < 0.25:  # well spread, for the lowest decades
            az, w = random_geometry(rng, n), 10.0 ** rng.uniform(-0.5, 0.5, n)
        else:
            geometry = degenerating_geometry(rng, rng.choice(["identical", "opposite", "weak"]), n)
            az, w = geometry(10.0 ** rng.uniform(-7.0, 0.0))
        condition = eigvalsh_condition(az, w)
        if not np.isfinite(condition):  # an exactly singular draw has no decade
            continue
        decade = math.floor(math.log10(condition))
        if 0 <= decade < decades and len(cells[decade]) < per_decade:
            cells[decade].append((az, w))
    return cells


def printed_accuracy_errors(mpmath, cells):
    """Each cell's ``accuracy_at`` error relative to a 50-digit inverse, in units of eps times its condition number.

    The stations sit 100 km from the point at the cell's azimuths with
    jitter 1/sqrt(w) and C = 0; the reference inverts the normal matrix of
    the direction cosines the kernel summed and the variances ``accuracy_at``
    reports, rounded as the kernel sees them. A masked cell gives None.
    """
    args = (ParametricPropagation(100.0, 0.0), NoiseSpec(level_dbuv_m=40.0), -1000.0)
    errors = []
    for az, w in cells:
        stations = [
            TransmitterStation(f"s{i}", GeoPoint(*destination_point(0.0, 0.0, a, 100_000.0)), 300.0, 300e3)
            for i, a in enumerate(az.tolist())
        ]
        params = ModelParams({f"s{i}": 1.0 / math.sqrt(x) for i, x in enumerate(w.tolist())}, 0.0)
        res, c, s = accuracy_and_cosines(GeoPoint(0.0, 0.0), stations, params, *args)
        if res.masked:
            errors.append(None)
            continue
        g_w = 1.0 / np.array([st.sigma2_m2 for st in res.stations])
        with mpmath.workdps(50):
            g = mpmath.matrix(np.column_stack([c, s, np.ones(c.size)]).tolist())
            m = g.T * mpmath.diag(g_w.tolist()) * g
            lam = mpmath.eigsy(m, eigvals_only=True)
            k = mpmath.inverse(m)
            truth = 2 * mpmath.sqrt(k[0, 0] + k[1, 1])
            errors.append(float(abs(res.accuracy_m - truth) / truth * min(lam) / max(lam)) / np.finfo(float).eps)
    return errors


class TestPrintedAccuracy:
    """The 95% accuracy the coverage CSV prints, against a 50-digit inverse of the same normal matrix."""

    # Relative error at most eps times the condition number. Over 3,000 cells per
    # decade (36,000 cells) the clock-eliminated kernel's worst was 0.49; over 1,000
    # per decade the adjugate it replaced reached 4.4 in 1e2-1e3 and 6.6e4 in 1e10-1e11.
    # With rows from the bearing's components, 1,000 per decade (seed 24) gave 0.35,
    # against 0.33 from cos and sin of the azimuth on the same cells.
    BOUND = 1.0

    def test_relative_error_is_bounded_in_every_condition_decade(self):
        mpmath = pytest.importorskip("mpmath")
        cells = condition_decade_cells(np.random.default_rng(24), 40)
        for decade, decade_cells in enumerate(cells):
            errors = printed_accuracy_errors(mpmath, decade_cells)
            assert None not in errors  # none of these reaches the limit
            assert max(errors) <= self.BOUND, f"condition 1e{decade}-1e{decade + 1}"


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

    def test_scaling_jitter_and_constant_by_a_power_of_two_is_exact(self):
        # 2^j for j in [-400, 400] puts the weights at up to 2^+-811; at J = 0 and C = 2^-200 the
        # cofactors used to overflow to a NaN accuracy in an unmasked cell
        collinear = [
            TransmitterStation(f"s{i}", GeoPoint(*destination_point(0.0, 0.0, 0.0, d)), 300.0, 300e3)
            for i, d in enumerate([100_000.0, 200_000.0, 300_000.0])
        ]
        cases = [
            (self.place_stations([0.0, 120.0, 240.0], 150_000.0), [0.0, 0.0, 0.0]),
            (self.place_stations([10.0, 95.0, 200.0, 300.0], 250_000.0), [0.0, 0.5, 1.41, 3.0]),
            (collinear, [0.0, 0.0, 0.0]),
        ]
        args = (self.prop, NoiseSpec(level_dbuv_m=40.0), -15.0)
        for stations, jitter in cases:
            scaled = lambda j: ModelParams({f"s{i}": math.ldexp(x, j) for i, x in enumerate(jitter)}, math.ldexp(22.15, j))
            base = accuracy_at(self.center, stations, scaled(0), *args)
            for j in range(-400, 401):
                res, c, s = accuracy_and_cosines(self.center, stations, scaled(j), *args)
                w = np.array([1.0 / d.sigma2_m2 if d.usable else 0.0 for d in res.stations])
                with np.errstate(all="ignore"):  # the reference sums the unscaled matrix
                    singular_ref = eigvalsh_inverse_normal(c, s, w)
                assert res.mask_reason == (MASK_SINGULAR_GEOMETRY if singular_ref else None)
                assert res.mask_reason == base.mask_reason
                if base.accuracy_m is not None:
                    assert res.accuracy_m == math.ldexp(base.accuracy_m, j)

    @pytest.mark.parametrize("c_m", [0.0, 1e-155], ids=["zero", "no_finite_reciprocal"])  # C^2 / SNR ~ 1e-316
    def test_usable_station_with_zero_variance_rejected(self, c_m):
        stations = self.place_stations([0.0, 120.0, 240.0], 150_000.0)
        params = ModelParams({tx.station_id: 0.0 for tx in stations}, c_m)
        with pytest.raises(ValueError, match="zero TOA variance for a usable station"):
            accuracy_at(self.center, stations, params, self.prop, NoiseSpec(level_dbuv_m=40.0), -15.0)

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

    def test_a_point_within_rounding_of_a_site_raises_on_both_paths(self):
        # one ulp north of this site both bearing components round to zero, so the
        # station has no direction (the unit vector would be 0/0)
        site = GeoPoint(7.765248480845273, 10.0)
        p = GeoPoint(float(np.nextafter(site.lat_deg, 90.0)), site.lon_deg)
        stations = [
            TransmitterStation("a", site, 300.0, 300e3),
            TransmitterStation("b", GeoPoint(8.5, 11.0), 300.0, 300e3),
            TransmitterStation("c", GeoPoint(7.0, 11.0), 300.0, 300e3),
        ]
        args = (ModelParams({"a": 0.0, "b": 0.0, "c": 0.0}, 22.15), ParametricPropagation(), self.noise, -15.0)
        with pytest.raises(CoincidentPointsError, match="site of station 'a'"):
            accuracy_at(p, stations, *args)
        spec = GridSpec(p.lat_deg, p.lat_deg + 0.5, 9.5, 10.5, 0.5)  # a node on p
        with pytest.raises(CoincidentPointsError, match="site of station 'a'"):
            compute_coverage(spec, stations, *args)


class TestDirectionCosines:
    """The kernel's rows are x/h and y/h of the bearing's components; the point query reports geodesy's bearing."""

    # |x/h - cos b| and |y/h - sin b| in units of eps, b the folded bearing. Over 2e6 random pairs
    # of points the worst was 3.75: b's own rounding (the mod by 2*pi) dominates, since x/h is
    # within 0.75 eps of the exact direction of (x, y) where cos b is within 3.7.
    ULPS = 6.0
    EPS = np.finfo(float).eps

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["any", "north", "south", "east", "west", "shared_meridian"]),
        site=st.tuples(st.floats(-60.0, 60.0), st.floats(-170.0, 170.0)),
        offset=st.floats(1e-3, 5.0),
        other=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    )
    def test_azimuth_is_the_bearing_and_cosines_its_direction(self, kind, site, offset, other):
        lat, lon = site
        # the point due north, south, east or west of the first site, or anywhere near it; with
        # "shared_meridian" the second site is on the first one's meridian too, as in the
        # point-lattice golden case, so the point sees two stations straight along it
        point = {
            "north": (lat + offset, lon), "south": (lat - offset, lon), "east": (lat, lon + offset),
            "west": (lat, lon - offset), "shared_meridian": (lat + other[0], lon),
            "any": (lat + other[0], lon + other[1]),
        }[kind]
        second = (lat + offset, lon) if kind == "shared_meridian" else (lat + other[1], lon - other[0])
        sites = [site, second, (lat - 1.0, lon + 2.0)]
        apart = lambda a, b: max(abs(a[0] - b[0]), abs(a[1] - b[1])) >= 1e-3  # far from rounding to one point
        assume(all(apart(point, s) for s in sites) and apart(second, site))
        stations = [TransmitterStation(f"s{i}", GeoPoint(*s), 300.0, 300e3) for i, s in enumerate(sites)]
        params = ModelParams({tx.station_id: 1.0 for tx in stations}, 22.15)
        args = (params, ParametricPropagation(100.0, 0.0), NoiseSpec(level_dbuv_m=40.0), -1000.0)
        res, c, s = accuracy_and_cosines(GeoPoint(*point), stations, *args)
        az = np.array([st.azimuth_rad for st in res.stations])
        for a, (site_lat, site_lon) in zip(az.tolist(), sites):
            assert a == float(bearing_rad(point[0], point[1], site_lat, site_lon))
        assert np.abs(c - np.cos(az)).max() <= self.ULPS * self.EPS
        assert np.abs(s - np.sin(az)).max() <= self.ULPS * self.EPS
        assert np.abs(np.hypot(c, s) - 1.0).max() <= 2.0 * self.EPS
        on_meridian = [i for i, (_, site_lon) in enumerate(sites) if site_lon == point[1]]
        # straight along a meridian the east component is zero, so the row is exactly (+-1, 0)
        assert all(s[i] == 0.0 and abs(c[i]) == 1.0 for i in on_meridian)


class TestMixedShapes:
    """``accuracy_arrays`` broadcasts latitude against longitude."""

    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "korea_mf.yaml")

    def run(self, lat, lon):
        cfg = self.cfg
        return accuracy_arrays(lat, lon, cfg.stations, cfg.params, cfg.propagation, cfg.noise, cfg.snr_threshold_db)

    def test_scalar_latitude_with_a_row_of_longitudes(self):
        lons = np.array([126.0, 126.5, 127.0])
        mixed = self.run(36.0, lons)
        equal = self.run(np.full(3, 36.0), lons)
        # the bearing is a pair of component arrays, the rest one array each
        for a, b in zip((*mixed[:1], *mixed[1], *mixed[2:]), (*equal[:1], *equal[1], *equal[2:])):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        cfg = self.cfg
        points = [
            accuracy_at(GeoPoint(36.0, lon), cfg.stations, cfg.params, cfg.propagation, cfg.noise, cfg.snr_threshold_db)
            for lon in lons.tolist()
        ]
        assert mixed[4].tolist() == [p.accuracy_m for p in points]
        assert np.isfinite(mixed[4]).all()
        # a latitude column against a longitude row is the grid
        grid = self.run(np.array([[35.5], [36.0]]), lons)
        assert grid[4].shape == (2, 3) and grid[4][1].tobytes() == mixed[4].tobytes()

    def test_shapes_that_do_not_broadcast_are_named(self):
        with pytest.raises(ValueError, match=r"latitude shape \(3,\) and longitude shape \(4,\) do not broadcast"):
            self.run(np.full(3, 36.0), np.linspace(126.0, 127.0, 4))
