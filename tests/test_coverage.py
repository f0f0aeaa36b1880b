import csv
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmodesim.coverage as coverage_module

from rmodesim import (
    CoverageGrid,
    FieldGrid,
    GeoPoint,
    GridPropagation,
    GridSpec,
    ModelParams,
    NoiseSpec,
    ParametricPropagation,
    TransmitterStation,
    accuracy_at,
    compute_coverage,
    coverage_summary,
    write_contour_csv,
    write_coverage_csv,
    write_coverage_pgm,
)
from rmodesim.accuracy import MASK_REASONS, MASK_SINGULAR_GEOMETRY, MASK_TOO_FEW_STATIONS, accuracy_arrays
from rmodesim.config import load_config
from rmodesim.errors import GridTooLargeError, NonpositiveSnrError
from rmodesim.propagation import field_strength_dbuv_m, snr_db_at

from helpers import destination_point, read_coverage_csv


def three_stations(center_lat=36.0, center_lon=127.0, distance_m=200_000.0):
    stations = []
    for i, b in enumerate([15.0, 135.0, 255.0]):
        lat, lon = destination_point(center_lat, center_lon, math.radians(b), distance_m)
        stations.append(TransmitterStation(f"s{i}", GeoPoint(lat, lon), 300.0, 300e3))
    return stations


def scenario():
    stations = three_stations()
    params = ModelParams({tx.station_id: 0.0 for tx in stations}, 22.15)
    prop = ParametricPropagation(ref_field_dbuv_m=109.5, atten_db_per_km=0.03)
    noise = NoiseSpec(level_dbuv_m=40.0)
    return stations, params, prop, noise


class TestGridSpec:
    def test_node_count_formula(self):
        spec = GridSpec(33.0, 39.0, 123.0, 129.0, 0.05)
        assert spec.n_lat == math.floor(6.0 / 0.05) + 1
        assert spec.n_lon == math.floor(6.0 / 0.05) + 1
        assert spec.cell_count == spec.n_lat * spec.n_lon

    def test_halving_step_roughly_quadruples_cells(self):
        coarse = GridSpec(33.0, 39.0, 123.0, 129.0, 0.1)
        fine = GridSpec(33.0, 39.0, 123.0, 129.0, 0.05)
        assert fine.n_lat == math.floor(6.0 / 0.05) + 1
        assert fine.cell_count == fine.n_lat * fine.n_lon
        assert coarse.cell_count < fine.cell_count <= 4 * coarse.cell_count

    def test_coordinates_from_index_arithmetic(self):
        spec = GridSpec(-1.0, 1.0, 10.0, 11.0, 0.25)
        lats = spec.lat_values()
        assert lats[0] == -1.0
        assert np.array_equal(lats, -1.0 + np.arange(spec.n_lat) * 0.25)

    def test_extent_that_divides_just_under_keeps_max_node(self):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        spec = GridSpec(0.0, 0.3, 0.0, 0.3, 0.1)
        assert (spec.n_lat, spec.n_lon) == (4, 4)
        assert spec.lat_values()[-1] == pytest.approx(0.3, abs=1e-9 * 0.1)

    def test_node_rounding_past_max_is_clamped(self):
        # 9.957 + 97 * 0.1 rounds to 19.657000000000004
        spec = GridSpec(9.957, 19.657, 120.0, 121.0, 0.1)
        lats = spec.lat_values()
        assert 9.957 + 97 * 0.1 > 19.657
        assert lats[-1] == 19.657
        assert np.array_equal(lats[:-1], 9.957 + np.arange(97) * 0.1)

    def test_shipped_and_benchmark_node_counts(self):
        shipped = load_config(Path(__file__).resolve().parent.parent / "configs" / "korea_mf.yaml")
        assert (shipped.grid.n_lat, shipped.grid.n_lon) == (121, 121)
        fine = GridSpec(33.0, 39.0, 123.0, 129.0, 0.01)
        assert (fine.n_lat, fine.n_lon) == (601, 601)

    # bounds and step are decimals with four places, as a config gives them,
    # and max is its own decimal rather than min + k * step in floating point
    @given(
        st.integers(-900_000, 900_000),
        st.integers(1, 100_000),
        st.integers(1, 2_000),
    )
    @settings(max_examples=300)
    def test_whole_number_of_steps_ends_on_max(self, lo_units, step_units, k):
        # GridSpec takes latitudes in [-90, 90]: shrink the step, then move
        # min down, until the k steps end there
        step_units = min(step_units, 1_800_000 // k)
        lo_units = min(lo_units, 900_000 - k * step_units)
        lo, step = lo_units / 1e4, step_units / 1e4
        hi = (lo_units + k * step_units) / 1e4
        spec = GridSpec(lo, hi, lo, hi, step)
        assert spec.n_lat == spec.n_lon == k + 1
        assert hi - 1e-9 * step <= spec.lat_values()[-1] <= hi
        assert hi - 1e-9 * step <= spec.lon_values()[-1] <= hi

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 1.0, 0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 2.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0.0, 1.0, 0.0)

    def test_bounds_outside_geopoint_ranges_rejected(self):
        for bounds in [(85.0, 95.0, 120.0, 121.0), (-91.0, 0.0, 0.0, 1.0), (0.0, 1.0, -181.0, 0.0),
                       (0.0, 1.0, 179.0, 181.0)]:
            with pytest.raises(ValueError, match="outside"):
                GridSpec(*bounds, 1.0)
        spec = GridSpec(-90.0, 90.0, -180.0, 180.0, 90.0)
        assert (spec.n_lat, spec.n_lon) == (3, 5)


class TestComputeCoverage:
    def test_grid_outside_threshold_is_fully_masked(self):
        stations, params, prop, _ = scenario()
        noise = NoiseSpec(level_dbuv_m=150.0)
        spec = GridSpec(35.0, 37.0, 126.0, 128.0, 0.5)
        grid = compute_coverage(spec, stations, params, prop, noise, -15.0)
        assert np.all(grid.mask_code == MASK_REASONS.index(MASK_TOO_FEW_STATIONS))
        assert np.all(np.isnan(grid.accuracy_m))
        assert np.all(grid.usable_count < 3)

    def test_center_cell_matches_point_evaluation(self):
        stations, params, prop, noise = scenario()
        spec = GridSpec(35.5, 36.5, 126.5, 127.5, 0.25)
        grid = compute_coverage(spec, stations, params, prop, noise, -15.0)
        i = list(grid.lat_deg).index(36.0)
        j = list(grid.lon_deg).index(127.0)
        point = accuracy_at(GeoPoint(36.0, 127.0), stations, params, prop, noise, -15.0)
        assert grid.accuracy_m[i, j] == pytest.approx(point.accuracy_m, rel=1e-12)
        assert grid.usable_count[i, j] == point.usable_count

    def test_center_cell_matches_equiangular_closed_form(self):
        # the scenario's stations sit at equal distance on bearings
        # 120 degrees apart, so the closed form 4*sigma/sqrt(3) applies
        # at the grid center (rotation invariance handles the offset)
        stations, params, prop, noise = scenario()
        spec = GridSpec(35.5, 36.5, 126.5, 127.5, 0.25)
        grid = compute_coverage(spec, stations, params, prop, noise, -15.0)
        i = list(grid.lat_deg).index(36.0)
        j = list(grid.lon_deg).index(127.0)
        snr_linear = 10.0 ** (snr_db_at(stations[0], 36.0, 127.0, prop, noise) / 10.0)
        sigma = math.sqrt(22.15 ** 2 / snr_linear)
        expected = 4.0 * sigma / math.sqrt(3.0)
        assert grid.accuracy_m[i, j] == pytest.approx(expected, rel=1e-6)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        stations, params, prop, _ = scenario()
        noise = NoiseSpec(level_dbuv_m=62.0)  # masks the outer cells
        spec = GridSpec(35.0, 37.0, 126.0, 128.0, 0.1)
        base = compute_coverage(spec, stations, params, prop, noise, -15.0, threads=1)
        assert (base.mask_code == MASK_REASONS.index(MASK_TOO_FEW_STATIONS)).any() and (base.mask_code == 0).any()
        # slices of one row (1 and 7 cells), then whole rows
        for cells in (1, 7, spec.n_lon, 3 * spec.n_lon, spec.cell_count, (spec.n_lat + 5) * spec.n_lon):
            monkeypatch.setattr(coverage_module, "_BLOCK_CELLS", cells)
            for t in (1, 2, 0, 8):
                other = compute_coverage(spec, stations, params, prop, noise, -15.0, threads=t)
                for name in ("lat_deg", "lon_deg", "accuracy_m", "usable_count", "mask_code"):
                    a, b = getattr(base, name), getattr(other, name)
                    assert a.dtype == b.dtype and a.shape == b.shape, (name, cells, t)
                    assert a.tobytes() == b.tobytes(), (name, cells, t)

    def test_nan_snr_raises_on_both_paths(self):
        # a NaN noise level once masked every cell silently in the sweep
        # while the point query raised
        stations, params, prop, _ = scenario()
        noise = NoiseSpec(level_dbuv_m=float("nan"))
        with pytest.raises(NonpositiveSnrError, match="NaN"):
            compute_coverage(GridSpec(35.0, 37.0, 126.0, 128.0, 0.5), stations, params, prop, noise, -15.0)
        with pytest.raises(NonpositiveSnrError, match="NaN"):
            accuracy_at(GeoPoint(36.0, 127.0), stations, params, prop, noise, -15.0)

    def test_threshold_monotonicity(self):
        stations, params, prop, _ = scenario()
        noise = NoiseSpec(level_dbuv_m=55.0)
        spec = GridSpec(34.0, 38.0, 125.0, 129.0, 0.2)
        tight = compute_coverage(spec, stations, params, prop, noise, -5.0)
        loose = compute_coverage(spec, stations, params, prop, noise, -15.0)
        # lowering the threshold never masks a previously unmasked cell
        newly_masked = (tight.mask_code == 0) & (loose.mask_code != 0)
        assert not newly_masked.any()
        assert np.all(loose.usable_count >= tight.usable_count)

    def test_grid_too_large(self):
        # rejected from cell_count, before any grid array is allocated
        stations, params, prop, noise = scenario()
        spec = GridSpec(35.0, 37.0, 126.0, 128.0, 0.0005)
        with pytest.raises(GridTooLargeError, match="16008001 cells exceeds the limit of 10000000"):
            compute_coverage(spec, stations, params, prop, noise, -15.0)

    @pytest.mark.parametrize("step", [1e-300, 5e-324])
    def test_grid_counts_for_a_tiny_step_are_too_large(self, step):
        # a named error, not OverflowError or a count of hundreds of digits
        spec = GridSpec(33.0, 39.0, 123.0, 129.0, step)
        for count in (lambda: spec.n_lat, lambda: spec.n_lon, lambda: spec.cell_count, spec.lat_values, spec.lon_values):
            with pytest.raises(GridTooLargeError, match=rf"^step_deg {step!r}: about 1e\d+ cells exceeds the limit of 10000000$"):
                count()

    def test_needs_three_stations(self):
        stations, params, prop, noise = scenario()
        spec = GridSpec(35.0, 37.0, 126.0, 128.0, 1.0)
        with pytest.raises(ValueError):
            compute_coverage(spec, stations[:2], params, prop, noise, -15.0)

    def test_zero_variance_guard(self):
        stations, _, prop, noise = scenario()
        params = ModelParams({tx.station_id: 0.0 for tx in stations}, 0.0)
        spec = GridSpec(35.0, 37.0, 126.0, 128.0, 1.0)
        with pytest.raises(ValueError):
            compute_coverage(spec, stations, params, prop, noise, -15.0)

    def test_power_monotonicity_small(self):
        stations, params, prop, noise = scenario()
        spec = GridSpec(34.5, 37.5, 125.5, 128.5, 0.25)
        base = compute_coverage(spec, stations, params, prop, noise, -15.0)
        for idx in range(3):
            boosted = list(stations)
            tx = stations[idx]
            boosted[idx] = TransmitterStation(
                tx.station_id, tx.position, 2.0 * tx.power_w, tx.carrier_hz
            )
            new = compute_coverage(spec, boosted, params, prop, noise, -15.0)
            assert (new.mask_code == 0).sum() >= (base.mask_code == 0).sum()
            both = (base.mask_code == 0) & (new.mask_code == 0)
            assert np.all(new.accuracy_m[both] <= base.accuracy_m[both])


# Three stations on the equator: the equator node at longitude 0 hears all
# three in two opposite directions (SingularGeometry), and at these noise
# levels the nodes 3 or more degrees north hear fewer than three
# (TooFewStations).
EQUATOR_SITES = ((0.0, -0.6137), (0.0, 0.2071), (0.0, 1.0213))


def equator_scenario(kind, noise_dbuv_m, jitters, c_m, seed):
    stations = [
        TransmitterStation(f"e{i}", GeoPoint(lat, lon), 300.0 + 100.0 * i, 300e3)
        for i, (lat, lon) in enumerate(EQUATOR_SITES)
    ]
    params = ModelParams({tx.station_id: j for tx, j in zip(stations, jitters)}, c_m)
    prop = ParametricPropagation(ref_field_dbuv_m=109.5, atten_db_per_km=0.03)
    if kind == "parametric":
        return stations, params, prop, NoiseSpec(level_dbuv_m=noise_dbuv_m)
    # lattices whose nodes fall between the grid nodes and off the sites,
    # with a seeded ripple
    rng = np.random.default_rng(seed)
    axis = np.arange(-10.35, 10.4, 0.7)
    lat2, lon2 = np.meshgrid(axis, axis, indexing="ij")
    grids = {}
    for tx in stations:
        field = field_strength_dbuv_m(tx, lat2, lon2, prop)
        grids[tx.station_id] = FieldGrid(axis, axis, field + rng.normal(0.0, 1.0, field.shape))
    noise = FieldGrid(axis, axis, noise_dbuv_m + rng.normal(0.0, 1.0, lat2.shape))
    return stations, params, GridPropagation(grids), NoiseSpec(grid=noise)


@pytest.mark.parametrize("kind", ["parametric", "lattice"])
@given(
    step=st.sampled_from([0.5, 0.75]),
    south=st.integers(1, 4),
    north=st.integers(6, 9),
    west=st.integers(1, 8),
    east=st.integers(2, 10),
    noise_dbuv_m=st.floats(63.0, 68.0),
    threshold_db=st.floats(-16.0, -12.0),
    jitters=st.tuples(*[st.floats(0.0, 3.0)] * 3),
    c_m=st.floats(1.0, 40.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_point_query_matches_coverage_at_every_node(
    kind, step, south, north, west, east, noise_dbuv_m, threshold_db, jitters, c_m, seed
):
    stations, params, prop, noise = equator_scenario(kind, noise_dbuv_m, jitters, c_m, seed)
    spec = GridSpec(-south * step, north * step, -west * step, east * step, step)
    grid = compute_coverage(spec, stations, params, prop, noise, threshold_db, threads=1)
    assert {MASK_TOO_FEW_STATIONS, MASK_SINGULAR_GEOMETRY} <= {MASK_REASONS[c] for c in np.unique(grid.mask_code)}
    lat2, lon2 = np.meshgrid(grid.lat_deg, grid.lon_deg, indexing="ij")
    snr_db = np.array([snr_db_at(tx, lat2, lon2, prop, noise) for tx in stations])
    for i, lat in enumerate(grid.lat_deg.tolist()):
        for j, lon in enumerate(grid.lon_deg.tolist()):
            # a station this close to the threshold may count on one path only
            if np.any(np.abs(snr_db[:, i, j] - threshold_db) < 1e-9):
                continue
            point = accuracy_at(GeoPoint(lat, lon), stations, params, prop, noise, threshold_db)
            assert (point.mask_reason or "") == MASK_REASONS[grid.mask_code[i, j]], (lat, lon)
            assert point.usable_count == grid.usable_count[i, j], (lat, lon)
            if not point.masked:
                assert point.accuracy_m == pytest.approx(grid.accuracy_m[i, j], rel=1e-9), (lat, lon)


@given(
    prop_kind=st.sampled_from(["parametric", "lattice"]),
    noise_kind=st.sampled_from(["scalar", "grid"]),
    step=st.sampled_from([0.25, 0.5, 0.75]),
    south=st.integers(-3, 4),
    n_lat=st.integers(1, 9),
    west=st.integers(-3, 4),
    n_lon=st.integers(1, 9),
    block_rows=st.integers(1, 11),
    threads=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_sweep_matches_kernel_on_full_grids(
    prop_kind, noise_kind, step, south, n_lat, west, n_lon, block_rows, threads, seed
):
    # the sweep hands the kernel a latitude column and a longitude row per
    # block; the kernel on whole broadcast grids must give the same bits.
    # Every grid lies inside the lattices (-10.35..9.95) and off the sites.
    stations, params, prop, noise = equator_scenario("lattice", 65.0, (0.5, 1.0, 1.5), 22.15, seed)
    if prop_kind == "parametric":
        prop = ParametricPropagation(ref_field_dbuv_m=109.5, atten_db_per_km=0.03)
    if noise_kind == "scalar":
        noise = NoiseSpec(level_dbuv_m=65.0)
    # an extent under one step gives a single node along that axis
    spec = GridSpec(
        -south * step, (max(n_lat - 1, 0.5) - south) * step, -west * step, (max(n_lon - 1, 0.5) - west) * step, step
    )
    assert (spec.n_lat, spec.n_lon) == (n_lat, n_lon)
    with mock.patch.object(coverage_module, "_BLOCK_CELLS", block_rows * n_lon):
        grid = compute_coverage(spec, stations, params, prop, noise, -14.0, threads=threads)
    shape = (n_lat, n_lon)
    lat2 = np.broadcast_to(grid.lat_deg[:, None], shape)
    lon2 = np.broadcast_to(grid.lon_deg[None, :], shape)
    _, _, _, _, accuracy, count, mask_code = accuracy_arrays(lat2, lon2, stations, params, prop, noise, -14.0)
    assert grid.accuracy_m.tobytes() == accuracy.tobytes()
    assert grid.mask_code.tobytes() == mask_code.tobytes()
    assert np.array_equal(grid.usable_count, count)


class TestCsvOutput:
    def test_row_count_and_schema(self, tmp_path):
        stations, params, prop, noise = scenario()
        # binary-exact bounds: the node-count formula is evaluated literally
        spec = GridSpec(35.875, 36.125, 126.875, 127.125, 0.25)
        grid = compute_coverage(spec, stations, params, prop, noise, -15.0)
        assert (grid.lat_deg.size, grid.lon_deg.size) == (2, 2)
        path = tmp_path / "cov.csv"
        write_coverage_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lat_deg,lon_deg,accuracy_m,usable_count,mask"
        assert len(lines) == 5

    def test_row_order_lat_then_lon_ascending(self, tmp_path):
        stations, params, prop, noise = scenario()
        spec = GridSpec(35.0, 36.0, 126.0, 127.0, 0.5)
        grid = compute_coverage(spec, stations, params, prop, noise, -15.0)
        path = tmp_path / "cov.csv"
        write_coverage_csv(grid, path)
        rows = read_coverage_csv(path)
        coords = [(r[0], r[1]) for r in rows]
        assert coords == sorted(coords)

    def test_masked_row_shape(self, tmp_path):
        stations, params, prop, _ = scenario()
        noise = NoiseSpec(level_dbuv_m=150.0)
        spec = GridSpec(35.875, 36.125, 126.875, 127.125, 0.25)
        grid = compute_coverage(spec, stations, params, prop, noise, -15.0)
        path = tmp_path / "cov.csv"
        write_coverage_csv(grid, path)
        line = path.read_text().splitlines()[1]
        lat, lon, acc, count, mask = line.split(",")
        assert acc == ""
        assert mask == "TooFewStations"
        assert count == "0"

    def test_round_trip_reproduces_quantized_values(self, tmp_path):
        stations, params, prop, noise = scenario()
        spec = GridSpec(35.5, 36.5, 126.5, 127.5, 0.25)
        grid = compute_coverage(spec, stations, params, prop, noise, -15.0)
        p1 = tmp_path / "a.csv"
        write_coverage_csv(grid, p1)
        rows = read_coverage_csv(p1)
        k = 0
        for i in range(grid.lat_deg.size):
            for j in range(grid.lon_deg.size):
                lat, lon, acc, count, mask = rows[k]
                assert lat == float(f"{grid.lat_deg[i]:.6f}")
                assert lon == float(f"{grid.lon_deg[j]:.6f}")
                if grid.mask_code[i, j]:
                    assert acc is None and mask == MASK_REASONS[grid.mask_code[i, j]]
                else:
                    assert acc == float(f"{grid.accuracy_m[i, j]:.6f}")
                assert count == int(grid.usable_count[i, j])
                k += 1

    def test_count_of_300_stations_does_not_wrap(self, tmp_path):
        # more stations than an 8-bit count holds, all of them heard everywhere
        stations = []
        for i in range(300):
            lat, lon = destination_point(36.0, 127.0, math.radians(1.2 * i), 200_000.0)
            stations.append(TransmitterStation(f"s{i}", GeoPoint(lat, lon), 300.0, 300e3))
        params = ModelParams({tx.station_id: 1.0 for tx in stations}, 22.15)
        _, _, prop, noise = scenario()
        spec = GridSpec(35.875, 36.125, 126.875, 127.125, 0.25)
        grid = compute_coverage(spec, stations, params, prop, noise, -15.0)
        path = tmp_path / "cov.csv"
        write_coverage_csv(grid, path)
        rows = read_coverage_csv(path)
        assert [(r[3], r[4]) for r in rows] == [(300, "")] * 4

    def test_write_is_deterministic(self, tmp_path):
        stations, params, prop, noise = scenario()
        spec = GridSpec(35.5, 36.5, 126.5, 127.5, 0.25)
        grid = compute_coverage(spec, stations, params, prop, noise, -15.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_coverage_csv(grid, p1)
        write_coverage_csv(grid, p2)
        assert p1.read_bytes() == p2.read_bytes()


def reference_write_coverage_csv(grid, path):
    """The csv.writer cell loop the coverage CSV writer must match byte for byte."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["lat_deg", "lon_deg", "accuracy_m", "usable_count", "mask"])
        for i, lat in enumerate(grid.lat_deg):
            for j, lon in enumerate(grid.lon_deg):
                masked = grid.mask_code[i, j] != 0
                w.writerow(
                    [
                        f"{lat:.6f}",
                        f"{lon:.6f}",
                        "" if masked else f"{grid.accuracy_m[i, j]:.6f}",
                        int(grid.usable_count[i, j]),
                        MASK_REASONS[grid.mask_code[i, j]],
                    ]
                )


def reference_write_coverage_pgm(grid, path, accuracy_clip_m):
    """The per-pixel PGM loop the PGM writer must match byte for byte."""
    unmasked = grid.mask_code == 0
    clipped = np.minimum(np.where(unmasked, grid.accuracy_m, accuracy_clip_m), accuracy_clip_m)
    pix = np.floor(255.0 * (1.0 - clipped / accuracy_clip_m) + 0.5)
    pix = np.where(unmasked, pix, 0.0).astype(np.int64)
    with open(path, "w", encoding="ascii") as f:
        f.write("P2\n")
        f.write(f"{grid.lon_deg.size} {grid.lat_deg.size}\n")
        f.write("255\n")
        for i in range(grid.lat_deg.size - 1, -1, -1):
            f.write(" ".join(str(v) for v in pix[i]) + "\n")


def shipped_grid_with_both_masks():
    # the shipped sites give SingularGeometry cells; the raised noise level
    # adds TooFewStations cells
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "korea_mf.yaml")
    noise = NoiseSpec(level_dbuv_m=55.0)
    grid = compute_coverage(
        cfg.grid, cfg.stations, cfg.params, cfg.propagation, noise, cfg.snr_threshold_db
    )
    assert {MASK_TOO_FEW_STATIONS, MASK_SINGULAR_GEOMETRY, ""} <= {MASK_REASONS[c] for c in np.unique(grid.mask_code)}
    return grid


def negative_coordinate_grid():
    # both masks, latitudes either side of 0, accuracies that round at the sixth digit
    rng = np.random.default_rng(7)
    spec = GridSpec(-0.5, 0.2, -73.25, -72.0, 0.05)
    shape = (spec.n_lat, spec.n_lon)
    mask_code = rng.choice(np.array([0, 0, 0, 1, 2], dtype=np.int8), size=shape)
    accuracy = np.where(mask_code == 0, 10.0 ** rng.uniform(-7, 5, size=shape), np.nan)
    accuracy[0, :3] = [2.5e-7, 1234.0000005, 0.0]
    return CoverageGrid(
        lat_deg=spec.lat_values(),
        lon_deg=spec.lon_values(),
        accuracy_m=accuracy,
        usable_count=rng.integers(0, 4, size=shape).astype(np.uint8),
        mask_code=mask_code,
    )


def interleaved_mask_grid():
    # every row cycles through the three mask codes cell by cell, from a
    # different start; counts span a uint8 and accuracies round at the sixth
    # digit or print 21 integer digits
    spec = GridSpec(10.0, 10.4, -0.3, 0.3, 0.1)
    shape = (spec.n_lat, spec.n_lon)
    mask_code = ((np.arange(shape[0])[:, None] + np.arange(shape[1])[None, :]) % 3).astype(np.int8)
    special = [2.5e-7, 5e-7, 1234.0000005, 1e20, 0.0, 999999.9999995, 0.1234565, 7.0]
    accuracy = np.full(shape, np.nan)
    accuracy[mask_code == 0] = np.resize(np.array(special), (mask_code == 0).sum())
    count = np.resize(np.array([0, 255, 3, 17], dtype=np.uint8), shape)
    return CoverageGrid(
        lat_deg=spec.lat_values(),
        lon_deg=spec.lon_values(),
        accuracy_m=accuracy,
        usable_count=count,
        mask_code=mask_code,
    )


def many_counts_grid():
    # 300 stations' worth of usable counts, every one paired with each mask code
    rng = np.random.default_rng(11)
    spec = GridSpec(-1.0, 1.0, 20.0, 21.5, 0.05)
    shape = (spec.n_lat, spec.n_lon)
    mask_code = rng.choice(np.array([0, 1, 2], dtype=np.int8), size=shape)
    accuracy = np.where(mask_code == 0, 10.0 ** rng.uniform(-3, 4, size=shape), np.nan)
    return CoverageGrid(
        lat_deg=spec.lat_values(),
        lon_deg=spec.lon_values(),
        accuracy_m=accuracy,
        usable_count=rng.integers(0, 301, size=shape).astype(np.uint16),
        mask_code=mask_code,
    )


def strip_grid(n_lat, n_lon):
    stations, params, prop, noise = scenario()
    step = 0.1  # a single node along an axis needs an extent under one step
    spec = GridSpec(
        35.5, 35.5 + max(n_lat - 1, 0.5) * step, 126.5, 126.5 + max(n_lon - 1, 0.5) * step, step
    )
    assert (spec.n_lat, spec.n_lon) == (n_lat, n_lon)
    return compute_coverage(spec, stations, params, prop, noise, -15.0)


def cycled_grid(spec):
    # mask codes cycle with period 3 and counts (0, 3, 255) with period 9
    # along each row, from a different start on each row; accuracies span
    # eleven decades and sit half a unit past the sixth digit
    j = np.arange(spec.n_lat)[:, None] + np.arange(spec.n_lon)[None, :]
    mask_code = (j % 3).astype(np.int8)
    accuracy = np.where(mask_code == 0, 10.0 ** ((j % 11) - 6.0) + 0.5e-6, np.nan)
    return CoverageGrid(
        lat_deg=spec.lat_values(),
        lon_deg=spec.lon_values(),
        accuracy_m=accuracy,
        usable_count=np.array([0, 3, 255], dtype=np.uint8)[j // 3 % 3],
        mask_code=mask_code,
    )


def block_seam_grid():
    # two rows seven cells wider than one writer block; neither cycle
    # divides the block width, so the seam cuts both mid-way
    n_lon = coverage_module._CSV_BLOCK_CELLS + 7
    spec = GridSpec(-0.5, -0.499, 179.0 - (n_lon - 1) * 0.001, 179.0, 0.001)
    assert (spec.n_lat, spec.n_lon) == (2, n_lon)
    return cycled_grid(spec)


WRITER_GRIDS = {
    "block_seam": block_seam_grid,
    "both_masks": shipped_grid_with_both_masks,
    "negative_coordinates": negative_coordinate_grid,
    "interleaved_masks": interleaved_mask_grid,
    "many_counts": many_counts_grid,
    "one_row": lambda: strip_grid(1, 17),
    "one_column": lambda: strip_grid(17, 1),
}


@pytest.mark.parametrize("name", sorted(WRITER_GRIDS))
def test_writers_match_reference_bytes(name, tmp_path):
    grid = WRITER_GRIDS[name]()
    write_coverage_csv(grid, tmp_path / "new.csv")
    reference_write_coverage_csv(grid, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    write_coverage_pgm(grid, tmp_path / "new.pgm", 10.0)
    reference_write_coverage_pgm(grid, tmp_path / "ref.pgm", 10.0)
    assert (tmp_path / "new.pgm").read_bytes() == (tmp_path / "ref.pgm").read_bytes()


def handcrafted_grid():
    spec = GridSpec(0.0, 0.1, 0.0, 0.1, 0.1)
    return CoverageGrid(
        lat_deg=spec.lat_values(),
        lon_deg=spec.lon_values(),
        accuracy_m=np.array([[0.0, 5.0], [np.nan, 20.0]]),
        usable_count=np.array([[3, 3], [1, 3]], dtype=np.uint8),
        mask_code=np.array([[0, 0], [MASK_REASONS.index(MASK_TOO_FEW_STATIONS), 0]], dtype=np.int8),
    )


class TestPgmOutput:
    def test_pixel_values(self, tmp_path):
        grid = handcrafted_grid()
        path = tmp_path / "map.pgm"
        write_coverage_pgm(grid, path, accuracy_clip_m=10.0)
        lines = path.read_text().splitlines()
        assert lines[:3] == ["P2", "2 2", "255"]
        # row 0 is the northernmost latitude (grid row 1)
        assert lines[3].split() == ["0", "0"]  # masked, clipped at 20 >= clip
        # accuracy 0 -> 255; clip/2 -> 127.5 rounded half-up -> 128
        assert lines[4].split() == ["255", "128"]

    def test_all_masked_is_all_zero(self, tmp_path):
        grid = handcrafted_grid()
        grid.mask_code = np.full((2, 2), MASK_REASONS.index(MASK_TOO_FEW_STATIONS), dtype=np.int8)
        grid.accuracy_m = np.full((2, 2), np.nan)
        path = tmp_path / "map.pgm"
        write_coverage_pgm(grid, path, accuracy_clip_m=10.0)
        lines = path.read_text().splitlines()
        assert lines[3].split() == ["0", "0"] and lines[4].split() == ["0", "0"]

    def test_clip_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_coverage_pgm(handcrafted_grid(), tmp_path / "x.pgm", 0.0)


class TestMemory:
    """A coverage map costs about 10 B/cell: no per-station SNR, no string
    masks and no grid-sized temporaries in the PGM and CSV writers."""

    def grid(self):
        stations, params, prop, _ = scenario()
        spec = GridSpec(34.5, 37.5, 125.5, 128.5, 0.01)
        assert (spec.n_lat, spec.n_lon) == (301, 301)
        grid = compute_coverage(spec, stations, params, prop, NoiseSpec(level_dbuv_m=62.0), -15.0)
        assert (grid.mask_code == 0).any() and (grid.mask_code != 0).any()
        return grid

    def test_grid_arrays_at_most_12_bytes_per_cell(self):
        grid = self.grid()
        cells = grid.accuracy_m.size
        held = sum(v.nbytes for v in vars(grid).values() if isinstance(v, np.ndarray))
        assert held <= 12 * cells

    def test_sweep_holds_one_block_of_temporaries_per_worker_on_a_wide_grid(self):
        # two rows of 200,001 cells: a block of whole rows would give the kernel every cell at once
        stations, params, prop, _ = scenario()
        spec = GridSpec(36.0, 36.00001, 126.0, 128.0, 1e-5)
        assert (spec.n_lat, spec.n_lon) == (2, 200_001)
        tracemalloc.start()
        try:
            grid = compute_coverage(spec, stations, params, prop, NoiseSpec(level_dbuv_m=62.0), -15.0, threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the grid and its coordinates, and under 1,000 B per cell of two workers' blocks
        cells = grid.accuracy_m.size
        assert peak < 12 * cells + 8 * spec.n_lon + 2 * 1000 * coverage_module._BLOCK_CELLS

    def test_pgm_writer_holds_one_row(self, tmp_path):
        grid = self.grid()
        tracemalloc.start()
        try:
            write_coverage_pgm(grid, tmp_path / "map.pgm", 10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a row's float temporaries and its pixel strings, at most ~100 B each
        cells, one_row = grid.accuracy_m.size, 100 * grid.lon_deg.size
        assert peak < cells + one_row

    def test_csv_writer_holds_one_row(self, tmp_path):
        grid = self.grid()
        tracemalloc.start()
        try:
            write_coverage_csv(grid, tmp_path / "map.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the longitude texts and a row's strings, at most ~100 B each
        cells, n_lon = grid.accuracy_m.size, grid.lon_deg.size
        assert peak < cells + 100 * 2 * n_lon

    def test_csv_writer_holds_one_block_of_a_wide_row(self, tmp_path):
        # two rows of 40,001 cells, eight writer blocks each
        spec = GridSpec(36.0, 36.00001, 126.0, 126.4, 1e-5)
        assert (spec.n_lat, spec.n_lon) == (2, 40_001)
        grid = cycled_grid(spec)
        tracemalloc.start()
        try:
            write_coverage_csv(grid, tmp_path / "map.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the longitude texts, and under 1,000 B per cell of one block's strings
        assert peak < 100 * spec.n_lon + 1000 * coverage_module._CSV_BLOCK_CELLS


class TestContour:
    def test_boundary_cells(self, tmp_path):
        spec = GridSpec(0.0, 0.4, 0.0, 0.4, 0.1)
        acc = np.full((5, 5), 50.0)
        acc[1:4, 1:4] = 5.0  # 3x3 island under the limit
        grid = CoverageGrid(
            lat_deg=spec.lat_values(),
            lon_deg=spec.lon_values(),
            accuracy_m=acc,
            usable_count=np.full((5, 5), 3, dtype=np.uint8),
            mask_code=np.zeros((5, 5), dtype=np.int8),
        )
        path = tmp_path / "contour.csv"
        write_contour_csv(grid, path, accuracy_limit_m=10.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "lat_deg,lon_deg"
        # the 3x3 island has 8 boundary cells (all but the center)
        assert len(lines) == 1 + 8
        assert "0.200000,0.200000" not in lines[1:]


    def test_limit_must_be_positive(self, tmp_path):
        path = tmp_path / "contour.csv"
        with pytest.raises(ValueError, match=r"^accuracy_limit_m must be > 0, got 0\.0$"):
            write_contour_csv(handcrafted_grid(), path, accuracy_limit_m=0.0)
        assert not path.exists()


def test_summary_counts():
    grid = handcrafted_grid()
    s = coverage_summary(grid)
    assert s["cells"] == 4
    assert s["unmasked"] == 3
    assert s["min_accuracy_m"] == 0.0
    assert s["median_accuracy_m"] == 5.0
