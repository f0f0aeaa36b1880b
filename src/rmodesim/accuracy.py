"""Weighted least-squares position covariance and 95% horizontal accuracy.

Each usable station contributes one row [cos(theta), sin(theta), 1] to the
geometry matrix G, with theta its azimuth clockwise from north; the state
columns are then (north error, east error, receiver clock). The rows come
from the great-circle bearing's north and east components x and y
(``geodesy.bearing_components``) as (x/h, y/h, 1) with h = hypot(x, y), so
no azimuth is formed; the azimuth is a diagnostic of the point query
``accuracy_at`` only, folded from the same components as
``geodesy.bearing_rad`` folds them. With R the diagonal of per-station TOA
variances, the position-error covariance is K = (G' R^-1 G)^-1 and the 95%
horizontal accuracy is 2*sqrt(K11 + K22), the two horizontal diagonal entries. This is repeatable accuracy: the
solution is assumed unbiased, with propagation-delay biases corrected
elsewhere.

Any azimuth convention gives the same accuracy (the horizontal trace is
rotation invariant); the formulas hold verbatim for any N >= 3 stations.

``accuracy_arrays`` holds the rules once, batched over points; the point
query ``accuracy_at`` and the coverage sweep both call it.

The kernel eliminates the clock before it sums: with W = sum w_i, u_i the
unit vector (x_i, y_i) / h_i towards station i and u_bar = sum w_i u_i / W,
the horizontal block of K is H^-1 for H = sum w_i (u_i - u_bar)(u_i - u_bar)',
a two-pass weighted variance (Chan, Golub & LeVeque, Am. Stat. 37(3),
1983), and the accuracy is 2*sqrt((h00 + h11) / det H).

A geometry is singular when its normal matrix's 2-norm condition number,
|lambda_max / lambda_min| as ``np.linalg.eigvalsh`` gives it, exceeds
``CONDITION_LIMIT`` or is undefined. Its trace tr = 2W bounds lambda_max
and lambda_mid and its determinant is W det H, so the condition number is
at most tr^3 / det = 8 W^2 / det H: a cell with 16 W^2 < CONDITION_LIMIT
det H is not singular, and every other cell goes to ``eigvalsh``, so the
flags equal the ``eigvalsh`` test's on every cell (see ``_singular`` for
the margin). Each cell's weights are first scaled by a power of two so
that the largest is in [0.5, 1); the scale is exact and undone on the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CoincidentPointsError,
    NonpositiveSnrError,
    SingularGeometryError,
    TooFewStationsError,
    UnknownStationError,
)
from .geodesy import GeoPoint, azimuth_rad, bearing_components
from .propagation import NoiseSpec, PropagationSpec, TransmitterStation, field_strength_dbuv_m
from .variance_model import ModelParams, toa_variance_m2

CONDITION_LIMIT = 1e12  # normal-matrix condition number above which geometry is singular

MASK_TOO_FEW_STATIONS = "TooFewStations"
MASK_SINGULAR_GEOMETRY = "SingularGeometry"
MASK_REASONS = ("", MASK_TOO_FEW_STATIONS, MASK_SINGULAR_GEOMETRY)  # indexed by mask code


def _singular(det, total, cos, sin, weights, skip):
    """Where the normal matrix is singular (see the module docstring); ``skip`` cells never reach ``eigvalsh``.

    Runs under the caller's ``np.errstate``, which must ignore division by zero and invalid values.
    """
    # Margin: the centered sums are off by about (S + 3) eps relative, so det H is off by at most
    # about (2S + 8) eps W^2 / 4, under (S + 4) 1e-5 of a det this screen clears; with tr = 2W to
    # within S eps, a cleared cell's condition number is below 0.51 CONDITION_LIMIT. eigvalsh
    # moves lambda_min by at most p eps lambda_max (modest p), about p 1e-4 of lambda_min here.
    cleared = 16.0 * total * total < CONDITION_LIMIT * det  # False where det is NaN, zero or negative
    check = ~cleared & ~skip
    singular = np.array(~cleared)  # 0-d stays assignable
    if check.any():
        w, cos, sin = weights[:, check], cos[:, check], sin[:, check]
        wc, ws = w * cos, w * sin
        a, b, c = (wc * cos).sum(axis=0), (wc * sin).sum(axis=0), wc.sum(axis=0)
        d, e, f = (ws * sin).sum(axis=0), ws.sum(axis=0), w.sum(axis=0)
        lam = np.abs(np.linalg.eigvalsh(np.array([a, b, c, b, d, e, c, e, f]).T.reshape(-1, 3, 3)))
        singular[check] = ~(lam[:, -1] / lam[:, 0] <= CONDITION_LIMIT)
    return singular


def _inverse_normal(cos: np.ndarray, sin: np.ndarray, weights: np.ndarray, skip=np.False_):
    """The pieces of (G' R^-1 G)^-1 summed over the leading station axis, and where it is singular.

    ``cos``, ``sin`` (the stations' direction cosines) and ``weights``
    share shape (S, ...); a zero weight drops a station. ``skip`` goes to
    ``_singular``. With each cell's weights scaled by a power of two,
    returns the centered sums ``(h00, h01, h11)``, det H, the mean
    direction ``u_bar``, the total weight W, the flags and the exponent
    ``shift`` that undoes the scale, each of shape (...); where not
    singular, H^-1 is ``np.ldexp([[h11, -h01], [-h01, h00]] / det, shift)``.
    """
    # each cell's largest weight to [0.5, 1): exact, and keeps W and det H in range
    _, exponent = np.frexp(weights.max(axis=0))
    weights = np.ldexp(weights, -exponent)
    total = weights.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        u_bar = np.array([(weights * cos).sum(axis=0), (weights * sin).sum(axis=0)]) / total
        dc, ds = cos - u_bar[0], sin - u_bar[1]
        wdc = weights * dc
        h00, h01, h11 = (wdc * dc).sum(axis=0), (wdc * ds).sum(axis=0), (weights * ds * ds).sum(axis=0)
        det = h00 * h11 - h01 * h01
        singular = _singular(det, total, cos, sin, weights, skip)
    return (h00, h01, h11), det, u_bar, total, singular, -exponent


def covariance(azimuths_rad, sigma2_m2) -> np.ndarray:
    """Position-error covariance K = (G' R^-1 G)^-1, a symmetric PSD 3x3.

    ``sigma2_m2`` holds each station's TOA variance in m^2 and must be
    positive. Raises SingularGeometryError when the normal matrix is
    singular (collinear or duplicate azimuths). With the clock eliminated,
    K = [[H^-1, -H^-1 u_bar], [-u_bar' H^-1, 1/W + u_bar' H^-1 u_bar]].
    """
    az = np.asarray(azimuths_rad, dtype=float)
    s2 = np.asarray(sigma2_m2, dtype=float)
    if az.ndim != 1 or az.size < 3:
        raise TooFewStationsError(f"need >= 3 azimuths, got {az.size}")
    if s2.shape != az.shape:
        raise ValueError(f"sigma2 shape {s2.shape} does not match azimuths {az.shape}")
    with np.errstate(divide="ignore", over="ignore"):
        weights = 1.0 / s2
    if not (np.all(s2 > 0.0) and np.all(weights < np.inf)):
        raise ValueError("all sigma2 must be > 0 with a finite reciprocal")
    (h00, h01, h11), det, u_bar, total, singular, shift = _inverse_normal(np.cos(az), np.sin(az), weights)
    if singular:
        raise SingularGeometryError("normal matrix is singular or too ill-conditioned to invert")
    h_inv = np.array([[h11, -h01], [-h01, h00]]) / det
    v = h_inv @ u_bar
    return np.ldexp(np.block([[h_inv, -v[:, None]], [-v, 1.0 / total + u_bar @ v]]), shift)


def accuracy95(k: np.ndarray) -> float:
    """95% horizontal accuracy in meters: 2*sqrt(K11 + K22)."""
    k = np.asarray(k, dtype=float)
    return float(2.0 * np.sqrt(k[0, 0] + k[1, 1]))


def accuracy_arrays(
    lat_deg,
    lon_deg,
    stations: list[TransmitterStation],
    params: ModelParams,
    prop: PropagationSpec,
    noise: NoiseSpec,
    snr_threshold_db: float,
):
    """95% horizontal accuracy at points of any shape; the one copy of the rules.

    ``lat_deg`` and ``lon_deg`` are scalars or broadcastable arrays. Each
    station's SNR is its field strength minus the noise level, its TOA
    variance is J_i^2 + C^2/SNR, and it is usable when its SNR is at or
    above ``snr_threshold_db``. A point with fewer than three usable
    stations is masked ``TooFewStations``; one whose normal matrix is
    singular, ``SingularGeometry``.

    Returns ``(snr_db, bearing, sigma2_m2, usable, accuracy_m,
    usable_count, mask)``. The first four have the station axis first,
    shape (S, ...), ``bearing`` being the pair of ``geodesy.bearing_components``
    from each point to each station (the east one may broadcast smaller); the
    rest have the points' broadcast shape, with NaN accuracy where masked
    and ``mask`` an int8 code indexing ``MASK_REASONS``: 0 where unmasked,
    else the mask reason's position. Raises UnknownStationError for
    a station without a jitter parameter, CoincidentPointsError before any
    propagation for a point on (or within rounding of) a transmitter site,
    NonpositiveSnrError for a NaN SNR and ValueError for shapes that do not
    broadcast or a usable station whose variance is zero or too small for
    its reciprocal.
    """
    for tx in stations:
        if tx.station_id not in params.jitter_m:
            raise UnknownStationError(f"no jitter parameter for station {tx.station_id!r}")
    try:
        per_station = (len(stations),) + (1,) * np.broadcast(lat_deg, lon_deg).ndim
    except ValueError:
        shapes = f"latitude shape {np.shape(lat_deg)} and longitude shape {np.shape(lon_deg)}"
        raise ValueError(f"{shapes} do not broadcast") from None
    site_lat = np.array([tx.position.lat_deg for tx in stations]).reshape(per_station)
    site_lon = np.array([tx.position.lon_deg for tx in stations]).reshape(per_station)
    north, east = bearing_components(lat_deg, lon_deg, site_lat, site_lon)
    h = np.hypot(north, east)
    # a point on a site, or so close that both components round to zero, has no direction to it
    on_site = ((site_lat == lat_deg) & (site_lon == lon_deg)) | (h == 0.0)
    if on_site.any():
        tx = stations[np.nonzero(on_site)[0][0]]
        raise CoincidentPointsError(f"azimuth undefined at the site of station {tx.station_id!r}")
    noise_db = noise.level_at(lat_deg, lon_deg)
    snr_db = np.array([field_strength_dbuv_m(tx, lat_deg, lon_deg, prop) - noise_db for tx in stations])
    if np.isnan(snr_db).any():
        raise NonpositiveSnrError("SNR is NaN; the field strength or the noise level is not a number")
    jitter = np.array([params.jitter_m[tx.station_id] for tx in stations]).reshape(per_station)
    sigma2 = toa_variance_m2(jitter, params.c_m, 10.0 ** (snr_db / 10.0))

    usable = snr_db >= snr_threshold_db
    with np.errstate(divide="ignore", over="ignore"):
        weights = np.divide(1.0, sigma2, out=np.zeros_like(sigma2), where=usable)
    if np.isinf(weights).any():
        raise ValueError(
            "zero TOA variance for a usable station (jitter and C both zero, or too small "
            "for its reciprocal); the weighted solution is undefined"
        )
    count = usable.sum(axis=0)
    too_few = count < 3
    (h00, _, h11), det, _, _, singular, shift = _inverse_normal(north / h, east / h, weights, skip=too_few)
    ok = ~too_few & ~singular
    with np.errstate(divide="ignore", invalid="ignore"):
        accuracy = np.where(ok, 2.0 * np.sqrt(np.ldexp((h00 + h11) / det, shift)), np.nan)
    mask = np.where(too_few, 1, np.where(singular, 2, 0)).astype(np.int8)
    return snr_db, (north, east), sigma2, usable, accuracy, count, mask


@dataclass(frozen=True)
class StationAccuracy:
    """Per-station diagnostics at one query point."""

    station_id: str
    snr_db: float
    snr_linear: float
    sigma2_m2: float
    azimuth_rad: float
    usable: bool


@dataclass(frozen=True)
class PointAccuracy:
    """Accuracy (or the mask reason) at one query point."""

    accuracy_m: float | None
    mask_reason: str | None
    usable_count: int
    stations: list[StationAccuracy]

    @property
    def masked(self) -> bool:
        return self.mask_reason is not None


def accuracy_at(
    p: GeoPoint,
    stations: list[TransmitterStation],
    params: ModelParams,
    prop: PropagationSpec,
    noise: NoiseSpec,
    snr_threshold_db: float,
) -> PointAccuracy:
    """Evaluate 95% horizontal accuracy at one point.

    Stations below the SNR threshold are dropped. Fewer than three
    usable stations, or a singular geometry, masks the point instead of
    raising; a transmitter site raises CoincidentPointsError.
    """
    if not stations:
        raise ValueError("stations must be non-empty")
    snr_db, bearing, sigma2, usable, acc, count, mask = accuracy_arrays(
        p.lat_deg, p.lon_deg, stations, params, prop, noise, snr_threshold_db
    )
    snr_linear = 10.0 ** (snr_db / 10.0)
    az = azimuth_rad(*bearing)  # as geodesy.bearing_rad folds the same components
    columns = zip(snr_db.tolist(), snr_linear.tolist(), sigma2.tolist(), az.tolist(), usable.tolist())
    diags = [StationAccuracy(tx.station_id, *col) for tx, col in zip(stations, columns)]
    reason = MASK_REASONS[mask.item()] or None
    return PointAccuracy(None if reason else float(acc), reason, int(count), diags)
