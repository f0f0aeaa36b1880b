"""The model as the benchmark recomputes it, with numpy and scipy only.

Nothing here imports ``rmodesim``: these functions are the independent
reference the output checks compare the program against. Formulas:

* great-circle distance (haversine) and initial bearing on a sphere of
  radius 6,371,000 m, bearing clockwise from north in [0, 2*pi);
* parametric field strength
  ``E = ref + 10*log10(P/1 kW) - 20*log10(d_km) - atten * d_km`` in
  dB(uV/m), SNR in dB = E - noise;
* TOA variance ``sigma^2 = J^2 + C^2 / 10^(snr_db/10)``;
* WLS: rows ``[cos(theta), sin(theta), 1]`` weighted by ``1/sigma^2``,
  ``K = inv(G' R^-1 G)`` by ``numpy.linalg.inv``, accuracy
  ``2*sqrt(K11 + K22)``; fewer than three usable stations masks a cell
  as ``TooFewStations`` and a 2-norm condition number
  (``numpy.linalg.cond``) above ``CONDITION_LIMIT`` as
  ``SingularGeometry``;
* window variance: ``numpy.unwrap`` over a station's whole series,
  non-overlapping windows, ``var(ddof=1) * (lambda / 2*pi)^2``, window
  SNR ``10^(mean(snr_db)/10)``; the fit is ``scipy.optimize.nnls`` on
  the design ``[station indicator | 1/snr]``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import nnls

EARTH_RADIUS_M = 6_371_000.0
SPEED_OF_LIGHT_M_S = 299_792_458.0
CONDITION_LIMIT = 1e12
TOO_FEW = "TooFewStations"
SINGULAR = "SingularGeometry"


def great_circle_m(lat1, lon1, lat2, lon2):
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = p2 - p1
    dl = np.radians(np.subtract(lon2, lon1))
    a = np.sin(dp / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.minimum(a, 1.0)))


def initial_bearing_rad(lat1, lon1, lat2, lon2):
    """Bearing from point 1 toward point 2, clockwise from north."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dl = np.radians(np.subtract(lon2, lon1))
    y = np.sin(dl) * np.cos(p2)
    x = np.cos(p1) * np.sin(p2) - np.sin(p1) * np.cos(p2) * np.cos(dl)
    return np.arctan2(y, x) % (2 * np.pi)


def parametric_field_dbuv_m(d_m, power_w, ref_dbuv_m, atten_db_per_km):
    d_km = np.asarray(d_m) / 1000.0
    return ref_dbuv_m + 10 * np.log10(power_w / 1000.0) - 20 * np.log10(d_km) - atten_db_per_km * d_km


def bilinear(lat_axis, lon_axis, values, lat, lon):
    """Bilinear interpolation on a rectangular lattice; points inside it."""
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    i = np.minimum(np.searchsorted(lat_axis, lat, side="right") - 1, lat_axis.size - 2)
    j = np.minimum(np.searchsorted(lon_axis, lon, side="right") - 1, lon_axis.size - 2)
    t = (lat - lat_axis[i]) / (lat_axis[i + 1] - lat_axis[i])
    u = (lon - lon_axis[j]) / (lon_axis[j + 1] - lon_axis[j])
    south = values[i, j] * (1 - u) + values[i, j + 1] * u
    north = values[i + 1, j] * (1 - u) + values[i + 1, j + 1] * u
    return south * (1 - t) + north * t


def sigma2_m2(snr_db, jitter_m, c_m):
    return jitter_m**2 + c_m**2 / 10 ** (np.asarray(snr_db) / 10)


def wls(azimuth_rad, sigma2, usable):
    """WLS accuracy over the last (station) axis.

    Returns ``(accuracy, usable_count, cond, mask)``: accuracy is NaN and
    mask the reason where a cell is masked; cond is NaN where fewer than
    three stations are usable.
    """
    az = np.asarray(azimuth_rad, dtype=float)
    usable = np.asarray(usable, dtype=bool)
    w = np.where(usable, 1.0 / np.asarray(sigma2, dtype=float), 0.0)
    g = np.stack([np.cos(az), np.sin(az), np.ones_like(az)], axis=-1)  # (..., N, 3)
    normal = np.einsum("...n,...ni,...nj->...ij", w, g, g)
    count = usable.sum(axis=-1)
    enough = count >= 3
    cond = np.full(count.shape, np.nan)
    cond[enough] = np.linalg.cond(normal[enough])
    ok = enough & (cond <= CONDITION_LIMIT)
    accuracy = np.full(count.shape, np.nan)
    k = np.linalg.inv(normal[ok])
    accuracy[ok] = 2 * np.sqrt(k[:, 0, 0] + k[:, 1, 1])
    mask = np.where(enough, np.where(ok, "", SINGULAR), TOO_FEW)
    return accuracy, count, cond, mask


def window_variance(phase_rad, snr_db, window_len, wavelength_m):
    """Per-window ``(snr_linear, toa_var_m2)`` of one station's series."""
    n = len(phase_rad) // window_len * window_len
    phase = np.unwrap(np.asarray(phase_rad, dtype=float))[:n].reshape(-1, window_len)
    snr = np.asarray(snr_db, dtype=float)[:n].reshape(-1, window_len)
    var = phase.var(axis=1, ddof=1) * (wavelength_m / (2 * np.pi)) ** 2
    return 10 ** (snr.mean(axis=1) / 10), var


def fit_design(windows):
    """NNLS design ``[indicator | 1/snr]`` and target from per-station windows.

    ``windows`` maps station id to ``(snr_linear, toa_var_m2)``; columns
    follow the sorted station ids, then C^2.
    """
    ids = sorted(windows)
    n = sum(len(windows[s][0]) for s in ids)
    a = np.zeros((n, len(ids) + 1))
    y = np.empty(n)
    row = 0
    for col, sid in enumerate(ids):
        snr, var = windows[sid]
        a[row : row + len(snr), col] = 1.0
        a[row : row + len(snr), -1] = 1.0 / snr
        y[row : row + len(snr)] = var
        row += len(snr)
    return a, y


def fit_params(windows):
    """``({station: J_m}, C_m)`` fitted by ``scipy.optimize.nnls``."""
    a, y = fit_design(windows)
    x, _ = nnls(a, y)
    return {sid: float(np.sqrt(x[i])) for i, sid in enumerate(sorted(windows))}, float(np.sqrt(x[-1]))
