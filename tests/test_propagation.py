import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmodesim import (
    FieldGrid,
    GeoPoint,
    GridPropagation,
    NoiseSpec,
    ParametricPropagation,
    TransmitterStation,
    load_field_grid,
    snr_at,
    wavelength_m,
    write_field_grid,
)
from rmodesim.errors import (
    ParseError,
    NonMonotonicAxesError,
    OutOfGridBoundsError,
    ZeroDistanceError,
)
from rmodesim.propagation import SPEED_OF_LIGHT_M_S, field_strength_dbuv_m


def make_tx(power_w=300.0, lat=0.0, lon=0.0, sid="tx"):
    return TransmitterStation(sid, GeoPoint(lat, lon), power_w, 300_000.0)


class TestParametric:
    def test_doubling_distance_costs_six_db(self):
        # on the equator the haversine arc is linear in longitude, so
        # these two points sit at an exact 1:2 distance ratio
        tx = make_tx()
        spec = ParametricPropagation(ref_field_dbuv_m=100.0, atten_db_per_km=0.0)
        f1 = field_strength_dbuv_m(tx, 0.0, 1.0, spec)
        f2 = field_strength_dbuv_m(tx, 0.0, 2.0, spec)
        assert f1 - f2 == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)  # 6.0206

    def test_power_ratio_500_vs_300(self):
        spec = ParametricPropagation()
        delta = field_strength_dbuv_m(make_tx(500.0), 1.0, 1.0, spec) - field_strength_dbuv_m(
            make_tx(300.0), 1.0, 1.0, spec
        )
        assert delta == pytest.approx(2.2185, abs=1e-4)

    def test_linear_attenuation_term(self):
        tx = make_tx()
        d_km = 111.19492664455873  # one equatorial degree
        f0 = field_strength_dbuv_m(tx, 0.0, 1.0, ParametricPropagation(100.0, 0.0))
        f1 = field_strength_dbuv_m(tx, 0.0, 1.0, ParametricPropagation(100.0, 0.05))
        assert f0 - f1 == pytest.approx(0.05 * d_km, rel=1e-9)

    def test_zero_distance_raises(self):
        tx = make_tx()
        with pytest.raises(ZeroDistanceError):
            field_strength_dbuv_m(tx, 0.0, 0.0, ParametricPropagation())

    def test_strictly_increasing_in_power(self):
        spec = ParametricPropagation()
        fields = [field_strength_dbuv_m(make_tx(pw), 2.0, 2.0, spec) for pw in (100.0, 200.0, 400.0, 800.0)]
        assert np.all(np.diff(fields) > 0.0)

    def test_snr_strictly_decreasing_with_distance(self):
        tx = make_tx()
        spec = ParametricPropagation()
        noise = NoiseSpec(level_dbuv_m=40.0)
        snrs = [snr_at(tx, GeoPoint(0.0, lon), spec, noise) for lon in np.linspace(0.5, 10.0, 40)]
        db = [s[0] for s in snrs]
        lin = [s[1] for s in snrs]
        assert np.all(np.diff(db) < 0.0)
        assert np.all(np.array(lin) > 0.0)

    def test_negative_attenuation_rejected(self):
        with pytest.raises(ValueError):
            ParametricPropagation(100.0, -0.1)


class TestSnr:
    def test_equal_levels_give_zero_db(self):
        tx = make_tx()
        p = GeoPoint(0.0, 1.0)
        spec = ParametricPropagation(ref_field_dbuv_m=100.0, atten_db_per_km=0.0)
        f = field_strength_dbuv_m(tx, p.lat_deg, p.lon_deg, spec)
        db, lin = snr_at(tx, p, spec, NoiseSpec(level_dbuv_m=f))
        assert db == 0.0
        assert lin == 1.0

    def test_fifteen_db_is_31_6_linear(self):
        tx = make_tx()
        p = GeoPoint(0.0, 1.0)
        spec = ParametricPropagation(ref_field_dbuv_m=100.0, atten_db_per_km=0.0)
        f = field_strength_dbuv_m(tx, p.lat_deg, p.lon_deg, spec)
        db, lin = snr_at(tx, p, spec, NoiseSpec(level_dbuv_m=f - 15.0))
        assert db == pytest.approx(15.0, abs=1e-12)
        assert lin == pytest.approx(31.623, abs=1e-3)

    def test_noise_additivity(self):
        tx = make_tx()
        spec = ParametricPropagation()
        for lon in (0.5, 2.0, 7.0):
            p = GeoPoint(0.0, lon)
            base, _ = snr_at(tx, p, spec, NoiseSpec(level_dbuv_m=40.0))
            raised, _ = snr_at(tx, p, spec, NoiseSpec(level_dbuv_m=47.5))
            assert base - raised == pytest.approx(7.5, abs=1e-12)

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(percentile=1.0, level_dbuv_m=40.0)
        with pytest.raises(ValueError):
            NoiseSpec(level_dbuv_m=None, grid=None)
        with pytest.raises(ValueError):
            NoiseSpec(level_dbuv_m=40.0, grid=FieldGrid([0, 1], [0, 1], np.zeros((2, 2))))

    def test_scalar_level_has_the_broadcast_shape(self):
        # the same shapes as a lattice noise spec gives
        scalar = NoiseSpec(level_dbuv_m=40.0)
        lattice = NoiseSpec(grid=FieldGrid([-1.0, 1.0], [-1.0, 1.0], np.full((2, 2), 40.0)))
        for lat, lon in ((np.zeros((3, 1)), np.zeros((1, 4))), (0.0, np.zeros(4)), (np.zeros(2), 0.0)):
            got, want = scalar.level_at(lat, lon), lattice.level_at(lat, lon)
            assert got.shape == want.shape == np.broadcast(lat, lon).shape
            assert (got == 40.0).all()
        assert type(scalar.level_at(0.0, 0.0)) is type(lattice.level_at(0.0, 0.0)) is float


class TestFieldGrid:
    def test_axes_are_read_only_copies(self):
        lat, lon = np.array([0.0, 1.0, 2.0]), np.array([10.0, 11.0])
        grid = FieldGrid(lat, lon, np.arange(6.0).reshape(3, 2))
        lat[2], lon[1] = 5.0, 20.0  # the caller's arrays stay the caller's
        assert grid.lat_deg.tolist() == [0.0, 1.0, 2.0] and grid.lon_deg.tolist() == [10.0, 11.0]
        for axis in (grid.lat_deg, grid.lon_deg):
            with pytest.raises(ValueError, match="read-only"):
                axis[0] = -1.0
        assert grid.value_at(2.0, 11.0) == 5.0
        with pytest.raises(OutOfGridBoundsError, match=r"lat \[0\.0, 2\.0\], lon \[10\.0, 11\.0\]"):
            grid.value_at(3.0, 10.5)

    def test_node_values_exact(self):
        grid = FieldGrid([0.0, 1.0], [10.0, 11.0], np.array([[1.5, 2.5], [3.5, 4.5]]))
        assert grid.value_at(0.0, 10.0) == 1.5
        assert grid.value_at(0.0, 11.0) == 2.5
        assert grid.value_at(1.0, 10.0) == 3.5
        assert grid.value_at(1.0, 11.0) == 4.5

    def test_midpoint_bilinear(self):
        grid = FieldGrid([0.0, 1.0], [0.0, 1.0], np.array([[0.0, 0.0], [0.0, 4.0]]))
        assert grid.value_at(0.5, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_bounds(self):
        grid = FieldGrid([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2)))
        with pytest.raises(OutOfGridBoundsError):
            grid.value_at(1.0001, 0.5)
        with pytest.raises(OutOfGridBoundsError):
            grid.value_at(0.5, -0.0001)

    def test_continuity_across_cell_edges(self):
        rng = np.random.default_rng(21)
        lat_axis = np.array([0.0, 0.7, 1.3, 2.0])
        lon_axis = np.array([5.0, 5.4, 6.1, 7.0])
        grid = FieldGrid(lat_axis, lon_axis, rng.normal(50.0, 10.0, size=(4, 4)))
        eps = 1e-11
        for lat_edge in lat_axis[1:-1]:
            for lon in np.linspace(5.0, 7.0, 7):
                below = grid.value_at(lat_edge - eps, lon)
                above = grid.value_at(lat_edge + eps, lon)
                assert abs(below - above) < 1e-9

    def test_axis_validation(self):
        with pytest.raises(NonMonotonicAxesError):
            FieldGrid([1.0, 0.0], [0.0, 1.0], np.zeros((2, 2)))
        with pytest.raises(NonMonotonicAxesError):
            FieldGrid([0.0, 1.0], [0.0, 0.0], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            FieldGrid([0.0, 1.0], [0.0, 1.0], np.zeros((3, 2)))

    def test_vectorized_queries_match_scalar(self):
        rng = np.random.default_rng(22)
        grid = FieldGrid([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], rng.normal(size=(3, 3)))
        lats = rng.uniform(0.0, 2.0, size=20)
        lons = rng.uniform(0.0, 2.0, size=20)
        vec = grid.value_at(lats, lons)
        for i in range(20):
            assert vec[i] == grid.value_at(lats[i], lons[i])


def clipped_search_value_at(grid, lat_deg, lon_deg):
    """Bilinear interpolation with the cell found by a clipped search of the full axis."""
    lat = np.asarray(lat_deg, dtype=float)
    lon = np.asarray(lon_deg, dtype=float)
    i = np.clip(np.searchsorted(grid.lat_deg, lat, side="right") - 1, 0, grid.lat_deg.size - 2)
    j = np.clip(np.searchsorted(grid.lon_deg, lon, side="right") - 1, 0, grid.lon_deg.size - 2)
    t = (lat - grid.lat_deg[i]) / (grid.lat_deg[i + 1] - grid.lat_deg[i])
    u = (lon - grid.lon_deg[j]) / (grid.lon_deg[j + 1] - grid.lon_deg[j])
    v = grid.values_dbuv_m
    lo = (1.0 - u) * v[i, j] + u * v[i, j + 1]
    hi = (1.0 - u) * v[i + 1, j] + u * v[i + 1, j + 1]
    out = (1.0 - t) * lo + t * hi
    return out if out.ndim else float(out)


def _axis(start, gaps):
    return start + np.cumsum([0.0] + gaps)


@st.composite
def lattices(draw):
    """A lattice with non-uniform axes of 2 to 6 nodes and seeded values."""
    gaps = st.lists(st.floats(0.01, 5.0), min_size=1, max_size=5)
    lat = _axis(draw(st.floats(-80.0, 70.0)), draw(gaps))
    lon = _axis(draw(st.floats(-170.0, 150.0)), draw(gaps))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return FieldGrid(lat, lon, rng.normal(50.0, 20.0, (lat.size, lon.size)))


def _coordinate(axis):
    """Any in-envelope value, weighted toward nodes, the last node and the ends."""
    return st.one_of(st.sampled_from(axis.tolist()), st.just(float(axis[-1])), st.floats(axis[0], axis[-1]))


@st.composite
def lattice_queries(draw):
    grid = draw(lattices())
    kind = draw(st.sampled_from(["scalar", "0-d", "2-D"]))
    if kind == "2-D":
        shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        n = shape[0] * shape[1]
        lat = np.reshape(draw(st.lists(_coordinate(grid.lat_deg), min_size=n, max_size=n)), shape)
        lon = np.reshape(draw(st.lists(_coordinate(grid.lon_deg), min_size=n, max_size=n)), shape)
    else:
        lat, lon = draw(_coordinate(grid.lat_deg)), draw(_coordinate(grid.lon_deg))
        if kind == "0-d":
            lat, lon = np.asarray(lat), np.asarray(lon)
    return grid, lat, lon


def assert_bitwise_equal(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestFieldGridCellSearch:
    """``value_at`` finds each query's cell by counting interior nodes."""

    @settings(max_examples=300, deadline=None)
    @given(lattice_queries())
    def test_matches_clipped_full_axis_search(self, case):
        grid, lat, lon = case
        assert_bitwise_equal(grid.value_at(lat, lon), clipped_search_value_at(grid, lat, lon))

    @settings(max_examples=100, deadline=None)
    @given(lattices())
    def test_nodes_and_envelope_corners(self, grid):
        lat2, lon2 = np.meshgrid(grid.lat_deg, grid.lon_deg, indexing="ij")
        assert_bitwise_equal(grid.value_at(lat2, lon2), clipped_search_value_at(grid, lat2, lon2))
        assert np.array_equal(grid.value_at(lat2, lon2), grid.values_dbuv_m)
        for lat in grid.lat_deg[[0, -1]].tolist():
            for lon in grid.lon_deg[[0, -1]].tolist():
                assert_bitwise_equal(grid.value_at(lat, lon), clipped_search_value_at(grid, lat, lon))

    @settings(max_examples=100, deadline=None)
    @given(lattices(), st.floats(0.0, 1.0))
    def test_nan_query_gives_nan(self, grid, frac):
        lat = grid.lat_deg[0] + frac * (grid.lat_deg[-1] - grid.lat_deg[0])
        assert math.isnan(grid.value_at(math.nan, grid.lon_deg[0]))
        assert math.isnan(grid.value_at(lat, math.nan))
        got = grid.value_at(np.array([lat, math.nan]), np.array([math.nan, grid.lon_deg[-1]]))
        assert np.isnan(got).all()

    @settings(max_examples=100, deadline=None)
    @given(lattices(), st.floats(1e-9, 10.0), st.sampled_from(["lat<", "lat>", "lon<", "lon>"]))
    def test_outside_the_envelope_raises(self, grid, by, side):
        lat, lon = grid.lat_deg.copy(), grid.lon_deg.copy()
        if side == "lat<":
            lat[0] -= by
        elif side == "lat>":
            lat[-1] += by
        elif side == "lon<":
            lon[0] -= by
        else:
            lon[-1] += by
        lat2, lon2 = np.meshgrid(lat, lon, indexing="ij")
        with pytest.raises(OutOfGridBoundsError):
            grid.value_at(lat2, lon2)
        corner = (lat[0], lon[0]) if side.endswith("<") else (lat[-1], lon[-1])
        with pytest.raises(OutOfGridBoundsError):
            grid.value_at(*corner)


class TestGridIo:
    def test_round_trip_bit_exact(self, tmp_path):
        values = np.array([[0.1, 1.0 / 3.0], [math.pi, -47.25]])
        grid = FieldGrid([0.0, 0.5], [100.0, 100.25], values)
        path = tmp_path / "grid.csv"
        write_field_grid(grid, path)
        back = load_field_grid(path)
        assert np.array_equal(back.lat_deg, grid.lat_deg)
        assert np.array_equal(back.lon_deg, grid.lon_deg)
        assert np.array_equal(back.values_dbuv_m, grid.values_dbuv_m)

    def test_grid_propagation_uses_station_lattice(self, tmp_path):
        grid = FieldGrid([-1.0, 1.0], [-1.0, 1.0], np.full((2, 2), 60.0))
        prop = GridPropagation(grids={"tx": grid})
        tx = make_tx()
        assert field_strength_dbuv_m(tx, 0.0, 0.0, prop) == 60.0
        with pytest.raises(KeyError):
            field_strength_dbuv_m(make_tx(sid="other"), 0.0, 0.0, prop)
        with pytest.raises(OutOfGridBoundsError):
            field_strength_dbuv_m(tx, 2.0, 0.0, prop)

    def test_incomplete_lattice_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "lat_deg,lon_deg,value_dbuv_m\n0.0,0.0,1.0\n0.0,1.0,2.0\n1.0,0.0,3.0\n"
        )
        with pytest.raises(ValueError):
            load_field_grid(path)

    def test_out_of_order_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "lat_deg,lon_deg,value_dbuv_m\n"
            "1.0,0.0,3.0\n1.0,1.0,4.0\n0.0,0.0,1.0\n0.0,1.0,2.0\n"
        )
        with pytest.raises(NonMonotonicAxesError):
            load_field_grid(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lat_deg,lon_deg,value_dbuv_m\n0.0,0.0,abc\n")
        with pytest.raises(ParseError) as exc:
            load_field_grid(path)
        assert exc.value.row == 2

    def test_bad_row_after_comments_reports_its_file_line(self, tmp_path):
        # the row is the file line, not the count of data rows before it
        path = tmp_path / "bad.csv"
        path.write_text("# lattice\nlat_deg,lon_deg,value_dbuv_m\n# note\n0.0,0.0,1.0\n\n0.0,1.0,abc\n")
        with pytest.raises(ParseError, match="row 6: non-numeric") as exc:
            load_field_grid(path)
        assert exc.value.row == 6

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, 2])
    def test_non_finite_field_rejected_with_row(self, tmp_path, field, column):
        row = ["0.0", "1.0", "2.0"]
        row[column] = field
        path = tmp_path / "bad.csv"
        path.write_text("lat_deg,lon_deg,value_dbuv_m\n0.0,0.0,1.0\n" + ",".join(row) + "\n")
        with pytest.raises(ParseError, match="row 3: non-finite") as exc:
            load_field_grid(path)
        assert exc.value.row == 3


def test_wavelength():
    assert wavelength_m(300_000.0) == SPEED_OF_LIGHT_M_S / 300_000.0
    assert wavelength_m(300_000.0) == pytest.approx(999.308, abs=1e-3)
    with pytest.raises(ValueError):
        wavelength_m(0.0)


def test_station_validation():
    with pytest.raises(ValueError):
        TransmitterStation("s", GeoPoint(0, 0), 0.0, 300e3)
    with pytest.raises(ValueError):
        TransmitterStation("s", GeoPoint(0, 0), 100.0, 0.0)
    tx = TransmitterStation("s", GeoPoint(0, 0), 100.0, 300e3)
    assert tx.wavelength_m == pytest.approx(999.308, abs=1e-3)
