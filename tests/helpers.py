"""Independent oracles, synthetic logs and subprocess plumbing shared by the test modules.

The oracles are deliberately implemented from standard formulas, not by
calling the code under test.
"""

from __future__ import annotations

import csv
import math
import os
from collections import namedtuple
from pathlib import Path

import numpy as np

import rmodesim

# WGS84
_A = 6378137.0
_F = 1.0 / 298.257223563
_B = _A * (1.0 - _F)


def vincenty_distance_m(lat1_deg, lon1_deg, lat2_deg, lon2_deg, tol=1e-12, max_iter=200):
    """Ellipsoidal (WGS84) inverse distance via Vincenty's iteration."""
    phi1, phi2 = math.radians(lat1_deg), math.radians(lat2_deg)
    if lat1_deg == lat2_deg and lon1_deg == lon2_deg:
        return 0.0
    u1 = math.atan((1.0 - _F) * math.tan(phi1))
    u2 = math.atan((1.0 - _F) * math.tan(phi2))
    big_l = math.radians(lon2_deg - lon1_deg)
    sin_u1, cos_u1 = math.sin(u1), math.cos(u1)
    sin_u2, cos_u2 = math.sin(u2), math.cos(u2)

    lam = big_l
    for _ in range(max_iter):
        sin_lam, cos_lam = math.sin(lam), math.cos(lam)
        sin_sigma = math.hypot(
            cos_u2 * sin_lam, cos_u1 * sin_u2 - sin_u1 * cos_u2 * cos_lam
        )
        if sin_sigma == 0.0:
            return 0.0
        cos_sigma = sin_u1 * sin_u2 + cos_u1 * cos_u2 * cos_lam
        sigma = math.atan2(sin_sigma, cos_sigma)
        sin_alpha = cos_u1 * cos_u2 * sin_lam / sin_sigma
        cos2_alpha = 1.0 - sin_alpha * sin_alpha
        if cos2_alpha == 0.0:
            cos_2sm = 0.0  # equatorial line
        else:
            cos_2sm = cos_sigma - 2.0 * sin_u1 * sin_u2 / cos2_alpha
        c = _F / 16.0 * cos2_alpha * (4.0 + _F * (4.0 - 3.0 * cos2_alpha))
        lam_prev = lam
        lam = big_l + (1.0 - c) * _F * sin_alpha * (
            sigma
            + c * sin_sigma * (cos_2sm + c * cos_sigma * (-1.0 + 2.0 * cos_2sm * cos_2sm))
        )
        if abs(lam - lam_prev) < tol:
            break
    u_sq = cos2_alpha * (_A * _A - _B * _B) / (_B * _B)
    big_a = 1.0 + u_sq / 16384.0 * (4096.0 + u_sq * (-768.0 + u_sq * (320.0 - 175.0 * u_sq)))
    big_b = u_sq / 1024.0 * (256.0 + u_sq * (-128.0 + u_sq * (74.0 - 47.0 * u_sq)))
    delta_sigma = (
        big_b
        * sin_sigma
        * (
            cos_2sm
            + big_b
            / 4.0
            * (
                cos_sigma * (-1.0 + 2.0 * cos_2sm * cos_2sm)
                - big_b
                / 6.0
                * cos_2sm
                * (-3.0 + 4.0 * sin_sigma * sin_sigma)
                * (-3.0 + 4.0 * cos_2sm * cos_2sm)
            )
        )
    )
    return _B * big_a * (sigma - delta_sigma)


def tangent_plane_bearing_rad(lat1_deg, lon1_deg, lat2_deg, lon2_deg):
    """Initial bearing via 3-D unit vectors projected on the local tangent plane."""
    p1 = math.radians(lat1_deg), math.radians(lon1_deg)
    p2 = math.radians(lat2_deg), math.radians(lon2_deg)

    def xyz(lat, lon):
        return np.array(
            [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
        )

    p = xyz(*p1)
    q = xyz(*p2)
    north = np.array(
        [
            -math.sin(p1[0]) * math.cos(p1[1]),
            -math.sin(p1[0]) * math.sin(p1[1]),
            math.cos(p1[0]),
        ]
    )
    east = np.array([-math.sin(p1[1]), math.cos(p1[1]), 0.0])
    tangent = q - p * float(p @ q)
    return math.atan2(float(tangent @ east), float(tangent @ north)) % (2.0 * math.pi)


def destination_point(lat_deg, lon_deg, bearing_rad, distance_m, radius_m=6_371_000.0):
    """Spherical direct problem: end point after ``distance_m`` along a bearing."""
    delta = distance_m / radius_m
    phi1 = math.radians(lat_deg)
    lam1 = math.radians(lon_deg)
    phi2 = math.asin(
        math.sin(phi1) * math.cos(delta)
        + math.cos(phi1) * math.sin(delta) * math.cos(bearing_rad)
    )
    lam2 = lam1 + math.atan2(
        math.sin(bearing_rad) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * math.sin(phi2),
    )
    lon_out = math.degrees(lam2)
    if lon_out > 180.0:
        lon_out -= 360.0
    elif lon_out < -180.0:
        lon_out += 360.0
    return math.degrees(phi2), lon_out


def mc_wls_horizontal_cov(azimuths_rad, sigma2_m2, trials, rng):
    """Monte Carlo sample covariance of the horizontal WLS position estimate.

    Draws TOA errors e ~ N(0, diag(sigma2)), solves the linearized WLS
    state estimate x = (G' W G)^-1 G' W e per trial, and returns the
    2x2 sample covariance of the horizontal components.
    """
    az = np.asarray(azimuths_rad, dtype=float)
    s2 = np.asarray(sigma2_m2, dtype=float)
    g = np.column_stack([np.cos(az), np.sin(az), np.ones(az.size)])
    w = 1.0 / s2
    solve_mat = np.linalg.solve(g.T @ (g * w[:, None]), g.T * w[None, :])  # 3 x N
    e = rng.normal(0.0, np.sqrt(s2), size=(trials, az.size))
    x = e @ solve_mat.T
    return np.cov(x[:, 0], x[:, 1])


def grid_search_single_station(snr_linear, toa_var, a_max, b_max, n=241, refine=3):
    """Coarse-to-fine grid search of the single-station RSS in (J^2, C^2) space."""
    x = 1.0 / np.asarray(snr_linear, dtype=float)
    y = np.asarray(toa_var, dtype=float)

    def rss(a, b):
        r = y[None, None, :] - (a[:, :, None] + b[:, :, None] * x[None, None, :])
        return np.sum(r * r, axis=-1)

    a_lo, a_hi = 0.0, a_max
    b_lo, b_hi = 0.0, b_max
    best = None
    for _ in range(refine):
        a_grid = np.linspace(a_lo, a_hi, n)
        b_grid = np.linspace(b_lo, b_hi, n)
        aa, bb = np.meshgrid(a_grid, b_grid, indexing="ij")
        val = rss(aa, bb)
        i, j = np.unravel_index(np.argmin(val), val.shape)
        best = (float(a_grid[i]), float(b_grid[j]), float(val[i, j]))
        da = a_grid[1] - a_grid[0]
        db = b_grid[1] - b_grid[0]
        a_lo, a_hi = max(0.0, a_grid[i] - 2 * da), a_grid[i] + 2 * da
        b_lo, b_hi = max(0.0, b_grid[j] - 2 * db), b_grid[j] + 2 * db
    return best


def synth_logs(config, out_dir, *, seed=0, windows=200, spacing="log", noise="gauss"):
    """Write one seeded synthetic log per configured station into ``out_dir``; return the sorted paths.

    Each station's ``windows`` windows step through SNRs from 1 to 1000
    (0 to 30 dB) on a ``log`` or ``linear`` spacing, at the configured
    jitter, C, wavelength and window length. Station ``idx`` draws from
    ``default_rng([seed, idx])``, so a seed gives the same bytes every run.
    """
    from rmodesim.config import load_config
    from rmodesim.synth import synth_station_log, write_measurement_csv

    cfg = load_config(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    snrs = np.logspace(0.0, 3.0, windows) if spacing == "log" else np.linspace(1.0, 1000.0, windows)
    paths = []
    for idx, tx in enumerate(cfg.stations):
        log = synth_station_log(
            tx.station_id, cfg.params.jitter_m[tx.station_id], cfg.params.c_m, tx.wavelength_m, snrs,
            cfg.fit.window_len, noise=noise, rng=np.random.default_rng([seed, idx]),
        )
        paths.append(out_dir / f"{tx.station_id}.csv")
        write_measurement_csv(log, paths[-1])
    return sorted(paths)


def subprocess_env():
    """Environment for a child ``python`` that must import this ``rmodesim``.

    A copy of ``os.environ`` with the directory holding the imported
    package first on ``PYTHONPATH``, existing entries kept after it. The
    child then finds the package whatever its working directory, even when
    the parent found it through a relative ``PYTHONPATH`` entry or its own
    working directory.
    """
    env = os.environ.copy()
    entries = [str(Path(rmodesim.__file__).resolve().parents[1])]
    if env.get("PYTHONPATH"):
        entries.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(entries)
    return env


def polyfit_detrended_variance(log, window_len, wavelength_m):
    """``window_variance(..., detrend="linear")``'s TOA variances as one ``polyfit`` per window, kept as a reference."""
    from rmodesim.ingest import unwrap_phase

    n_windows = log.phase_rad.size // window_len
    phase = unwrap_phase(log.phase_rad)[: n_windows * window_len].reshape(n_windows, window_len)
    t = np.arange(window_len, dtype=float)
    var = []
    for row in phase - phase[:, :1]:
        coef = np.polynomial.polynomial.polyfit(t, row, 1)
        resid = row - np.polynomial.polynomial.polyval(t, coef)
        var.append(float(resid @ resid) / (window_len - 2))
    return (wavelength_m / (2.0 * math.pi)) ** 2 * np.array(var)


# one variance window as the reference loops read it
_Window = namedtuple("_Window", "station_id snr_linear toa_var_m2")


def _window_rows(windows):
    """Each ``window_variance`` record or ``(station_id, snr_linear, toa_var_m2)`` tuple as a row of Python values."""
    return [_Window(sid, float(snr), float(var)) for sid, snr, var in windows]


def loop_fit_params(windows, trim_fraction=0.0):
    """``fit_params`` as one Python loop per window, kept as a reference.

    Trims each station by a stable sort on variance alone, then fits in the
    canonical (station, SNR, variance) row order. On inputs whose variances
    are distinct within each station it must agree with ``fit_params`` bit
    for bit, errors included.
    """
    from rmodesim import FitReport, ModelParams
    from rmodesim.errors import DegenerateDesignError, InsufficientSamplesError
    from rmodesim.nnls import nnls
    from rmodesim.variance_model import toa_variance_m2

    if not 0.0 <= trim_fraction < 1.0:
        raise ValueError(f"trim_fraction must be in [0, 1), got {trim_fraction}")
    rows = _window_rows(windows)
    if not rows:
        raise InsufficientSamplesError("no variance samples")
    if trim_fraction > 0.0:
        by_station = {}
        for s in rows:
            by_station.setdefault(s.station_id, []).append(s)
        rows = []
        for sid in sorted(by_station):
            group = sorted(by_station[sid], key=lambda s: s.toa_var_m2)
            k = int(len(group) * trim_fraction / 2.0)
            rows.extend(group[k : len(group) - k] if k else group)

    station_ids = sorted({s.station_id for s in rows})
    col = {sid: i for i, sid in enumerate(station_ids)}
    for sid in station_ids:
        group = [s for s in rows if s.station_id == sid]
        if len(group) < 2:
            raise InsufficientSamplesError(
                f"station {sid!r} has {len(group)} samples after trimming, need >= 2"
            )
        if len({s.snr_linear for s in group}) < 2:
            raise DegenerateDesignError(
                f"station {sid!r} samples share one SNR value; jitter and the "
                "shared constant are not separately identifiable"
            )

    rows.sort(key=lambda s: (col[s.station_id], s.snr_linear, s.toa_var_m2))
    n_s = len(station_ids)
    a = np.zeros((len(rows), n_s + 1))
    y = np.empty(len(rows))
    for i, s in enumerate(rows):
        a[i, col[s.station_id]] = 1.0
        a[i, n_s] = 1.0 / s.snr_linear
        y[i] = s.toa_var_m2
    coeffs, _ = nnls(a, y)
    params = ModelParams(
        jitter_m={sid: float(np.sqrt(coeffs[col[sid]])) for sid in station_ids},
        c_m=float(np.sqrt(coeffs[n_s])),
    )

    n_samples = {sid: 0 for sid in station_ids}
    rss_by_station = {sid: 0.0 for sid in station_ids}
    for s in rows:
        n_samples[s.station_id] += 1
        r = s.toa_var_m2 - toa_variance_m2(params.jitter_m[s.station_id], params.c_m, s.snr_linear)
        rss_by_station[s.station_id] += r * r
    report = FitReport(
        rss_m4=float(sum(rss_by_station.values())),
        n_samples=n_samples,
        rss_by_station=rss_by_station,
    )
    return params, report


def loop_rss_m4(params, windows):
    """The model's residual sum of squares in m^4 against windows, one window at a time."""
    from rmodesim.variance_model import toa_variance_m2

    return float(
        sum((s.toa_var_m2 - toa_variance_m2(params.jitter_m[s.station_id], params.c_m, s.snr_linear)) ** 2
            for s in _window_rows(windows))
    )


def loop_parse_measurement_file(path):
    """``parse_measurement_file`` as one csv.reader loop per row, kept as a reference.

    Must agree with ``parse_measurement_file`` bit for bit on every file,
    errors included (same type, message and row).
    """
    from rmodesim.errors import ParseError
    from rmodesim.ingest import MEASUREMENT_COLUMNS, StationLog

    columns = {}
    with open(path, newline="", encoding="utf-8") as f:
        header = None
        reader = csv.reader(f)
        for row in reader:
            lineno = reader.line_num  # the line a record ends on, when a quoted field spans lines
            if not row or (row[0].lstrip().startswith("#")):
                continue
            if header is None:
                header = tuple(c.strip() for c in row)
                if header != MEASUREMENT_COLUMNS:
                    raise ParseError(
                        lineno, f"expected header {','.join(MEASUREMENT_COLUMNS)}"
                    )
                continue
            if len(row) != len(MEASUREMENT_COLUMNS):
                raise ParseError(
                    lineno, f"expected {len(MEASUREMENT_COLUMNS)} fields, got {len(row)}"
                )
            t_str, station_id, phase_str, snr_str = (c.strip() for c in row)
            if not station_id:
                raise ParseError(lineno, "empty station_id")
            try:
                t = float(t_str)
                phase = float(phase_str)
                snr = float(snr_str)
            except ValueError as exc:
                raise ParseError(lineno, f"non-numeric field: {exc}") from None
            if not (math.isfinite(t) and math.isfinite(phase) and math.isfinite(snr)):
                raise ParseError(lineno, "non-finite field")
            cols = columns.get(station_id)
            if cols is None:
                cols = columns[station_id] = ([], [], [])
            elif t <= cols[0][-1]:
                raise ParseError(
                    lineno, f"timestamp {t} not increasing for station {station_id}"
                )
            cols[0].append(t)
            cols[1].append(phase)
            cols[2].append(snr)
        if header is None:
            raise ParseError(1, "empty file, missing header")
    return [StationLog(sid, *cols) for sid, cols in columns.items()]


def read_coverage_csv(path) -> list[tuple[float, float, float | None, int, str]]:
    """Read rows written by ``rmodesim.write_coverage_csv``."""
    rows = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != ["lat_deg", "lon_deg", "accuracy_m", "usable_count", "mask"]:
            raise ValueError(f"unexpected header {header}")
        for row in reader:
            lat, lon, acc, count, mask = row
            rows.append((float(lat), float(lon), float(acc) if acc else None, int(count), mask))
    return rows


def csv_writer_field_grid(grid, path):
    """The lattice writer before ``write_table``, kept verbatim as a byte reference."""
    from rmodesim.propagation import GRID_COLUMNS

    # csv.writer's framing, one joined string per latitude row (no repr of
    # a float holds a comma, quote or newline)
    lon_strs = [repr(lon) for lon in grid.lon_deg.tolist()]
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(GRID_COLUMNS) + "\r\n")
        for lat, row in zip(grid.lat_deg.tolist(), grid.values_dbuv_m.tolist()):
            pre = f"{lat!r},"
            f.write("".join(f"{pre}{lon},{v!r}\r\n" for lon, v in zip(lon_strs, row)))


def csv_writer_measurement_csv(log, path):
    """The log writer before ``write_table``, kept verbatim as a byte reference."""
    from rmodesim.ingest import MEASUREMENT_COLUMNS

    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(MEASUREMENT_COLUMNS)
        w.writerows(
            (repr(t), log.station_id, repr(p), repr(s))
            for t, p, s in zip(log.timestamp.tolist(), log.phase_rad.tolist(), log.snr_db.tolist())
        )


def long_field_file(path, kind, comment):
    """A lattice or log of 4 records whose last field, ``0.`` and 200,001 digits, is over csv's field limit.

    ``comment`` is the number of ``#`` lines before the header.
    """
    from rmodesim.ingest import MEASUREMENT_COLUMNS
    from rmodesim.propagation import GRID_COLUMNS

    long_value = "0." + "1" * 200_001
    if kind == "lattice":
        header, rows = GRID_COLUMNS, ["0.0,0.0,1.0", "0.0,1.0,2.0", "1.0,0.0,3.0", f"1.0,1.0,{long_value}"]
    else:
        header, rows = MEASUREMENT_COLUMNS, ["1.0,s,0.1,10.0", "2.0,s,0.2,10.0", "3.0,s,0.3,10.0", f"4.0,s,0.4,{long_value}"]
    path.write_text("\n".join(["# a comment"] * comment + [",".join(header), *rows]) + "\n")
    return path


def loop_load_field_grid(path):
    """``load_field_grid`` as one csv.reader loop per row, kept as a reference.

    Must agree with ``load_field_grid`` bit for bit on every file, errors
    included (same type, message and row).
    """
    from rmodesim.errors import NonMonotonicAxesError, ParseError
    from rmodesim.propagation import GRID_COLUMNS, FieldGrid

    lats, lons, values = [], [], []
    with open(path, newline="", encoding="utf-8") as f:
        header = None
        reader = csv.reader(f)
        for row in reader:
            lineno = reader.line_num  # the line a record ends on, when a quoted field spans lines
            if not row or row[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = tuple(c.strip() for c in row)
                if header != GRID_COLUMNS:
                    raise ParseError(
                        lineno, f"expected header {','.join(GRID_COLUMNS)}"
                    )
                continue
            if len(row) != 3:
                raise ParseError(lineno, f"expected 3 fields, got {len(row)}")
            try:
                lat, lon, val = float(row[0]), float(row[1]), float(row[2])
            except ValueError as exc:
                raise ParseError(lineno, f"non-numeric field: {exc}") from None
            if not (math.isfinite(lat) and math.isfinite(lon) and math.isfinite(val)):
                raise ParseError(lineno, "non-finite field")
            lats.append(lat)
            lons.append(lon)
            values.append(val)
    if header is None:
        raise ParseError(1, "empty file, missing header")
    if not lats:
        raise ValueError("grid file has no data rows")

    lat_axis = np.unique(lats)
    lon_axis = np.unique(lons)
    n_lat, n_lon = lat_axis.size, lon_axis.size
    if len(lats) != n_lat * n_lon:
        raise ValueError(f"incomplete lattice: {len(lats)} rows for a {n_lat}x{n_lon} grid")
    if not (np.array_equal(lats, np.repeat(lat_axis, n_lon)) and np.array_equal(lons, np.tile(lon_axis, n_lat))):
        raise NonMonotonicAxesError(
            "rows must be lat-major with both axes strictly increasing"
        )
    return FieldGrid(lat_axis, lon_axis, np.array(values).reshape(n_lat, n_lon))


def eigvalsh_inverse_normal(c, s, weights):
    """The singular flags of ``accuracy._inverse_normal`` as an all-``eigvalsh`` test gives them.

    The reference for the kernel's flags: the raw-sum normal matrix of the
    direction cosines ``c``, ``s`` and the unscaled weights, singular where
    ``eigvalsh``'s condition number is above ``CONDITION_LIMIT`` or undefined.
    The kernel's trace screen and power-of-two scaling must give the same
    flags on every cell.
    """
    from rmodesim.accuracy import CONDITION_LIMIT

    wc, ws = weights * c, weights * s
    m = np.empty(weights.shape[1:] + (3, 3))
    m[..., 0, 0] = (wc * c).sum(axis=0)
    m[..., 0, 1] = m[..., 1, 0] = (wc * s).sum(axis=0)
    m[..., 0, 2] = m[..., 2, 0] = wc.sum(axis=0)
    m[..., 1, 1] = (ws * s).sum(axis=0)
    m[..., 1, 2] = m[..., 2, 1] = ws.sum(axis=0)
    m[..., 2, 2] = weights.sum(axis=0)
    lam = np.abs(np.linalg.eigvalsh(m))
    with np.errstate(divide="ignore", invalid="ignore"):
        return ~(lam[..., -1] / lam[..., 0] <= CONDITION_LIMIT)
