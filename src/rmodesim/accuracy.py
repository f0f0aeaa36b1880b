"""Weighted least-squares position covariance and 95% horizontal accuracy.

Each usable station contributes one row [cos(theta), sin(theta), 1] to the
geometry matrix G, with theta its azimuth clockwise from north; the state
columns are then (north error, east error, receiver clock). With R the
diagonal of per-station TOA variances, the position-error covariance is
K = (G' R^-1 G)^-1 and the 95% horizontal accuracy is 2*sqrt(K11 + K22),
the two horizontal diagonal entries. This is repeatable accuracy: the
solution is assumed unbiased, with propagation-delay biases corrected
elsewhere.

Any azimuth convention gives the same accuracy (the horizontal trace is
rotation invariant); the formulas hold verbatim for any N >= 3 stations.

``accuracy_arrays`` holds the rules once, batched over points; the point
query ``accuracy_at`` and the coverage sweep both call it.
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
from .geodesy import GeoPoint, bearing_rad
from .propagation import NoiseSpec, PropagationSpec, TransmitterStation, field_strength_dbuv_m
from .variance_model import ModelParams, toa_variance_m2

CONDITION_LIMIT = 1e12  # normal-matrix condition number above which geometry is singular

MASK_TOO_FEW_STATIONS = "TooFewStations"
MASK_SINGULAR_GEOMETRY = "SingularGeometry"
_EYE = np.eye(3)


def _inverse_normal(az_rad: np.ndarray, weights: np.ndarray):
    """(G' R^-1 G)^-1 summed over the leading station axis, and where it is singular.

    ``az_rad`` and ``weights`` share shape (S, ...); a zero weight drops a
    station. A cell is singular when the normal matrix's 2-norm condition
    number is above ``CONDITION_LIMIT`` or undefined; its inverse is then
    that of the identity, so that no warning escapes. Returns the
    inverses, shape (..., 3, 3), and the singular flags, shape (...).
    """
    c, s = np.cos(az_rad), np.sin(az_rad)
    wc, ws = weights * c, weights * s
    m = np.empty(az_rad.shape[1:] + (3, 3))
    m[..., 0, 0] = (wc * c).sum(axis=0)
    m[..., 0, 1] = m[..., 1, 0] = (wc * s).sum(axis=0)
    m[..., 0, 2] = m[..., 2, 0] = wc.sum(axis=0)
    m[..., 1, 1] = (ws * s).sum(axis=0)
    m[..., 1, 2] = m[..., 2, 1] = ws.sum(axis=0)
    m[..., 2, 2] = weights.sum(axis=0)
    lam = np.abs(np.linalg.eigvalsh(m))
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = ~(lam[..., -1] / lam[..., 0] <= CONDITION_LIMIT)
    m[singular] = _EYE

    # adjugate inverse of a symmetric 3x3
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
    d, e, f = m[..., 1, 1], m[..., 1, 2], m[..., 2, 2]
    cof00 = d * f - e * e
    cof01 = c * e - b * f
    cof02 = b * e - c * d
    cof11 = a * f - c * c
    cof12 = b * c - a * e
    cof22 = a * d - b * b
    det = a * cof00 + b * cof01 + c * cof02
    k = np.empty_like(m)
    k[..., 0, 0] = cof00 / det
    k[..., 0, 1] = k[..., 1, 0] = cof01 / det
    k[..., 0, 2] = k[..., 2, 0] = cof02 / det
    k[..., 1, 1] = cof11 / det
    k[..., 1, 2] = k[..., 2, 1] = cof12 / det
    k[..., 2, 2] = cof22 / det
    return k, singular


def covariance(azimuths_rad, sigma2_m2) -> np.ndarray:
    """Position-error covariance K = (G' R^-1 G)^-1, a symmetric PSD 3x3.

    ``sigma2_m2`` holds each station's TOA variance in m^2 and must be
    positive. Raises SingularGeometryError when the normal matrix is
    singular (collinear or duplicate azimuths).
    """
    az = np.asarray(azimuths_rad, dtype=float)
    s2 = np.asarray(sigma2_m2, dtype=float)
    if az.ndim != 1 or az.size < 3:
        raise TooFewStationsError(f"need >= 3 azimuths, got {az.size}")
    if s2.shape != az.shape:
        raise ValueError(f"sigma2 shape {s2.shape} does not match azimuths {az.shape}")
    if not np.all(s2 > 0.0):
        raise ValueError("all sigma2 must be > 0")
    k, singular = _inverse_normal(az, 1.0 / s2)
    if singular:
        raise SingularGeometryError("normal matrix is singular or too ill-conditioned to invert")
    return k


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

    ``lat_deg`` and ``lon_deg`` are scalars or equal-shape arrays. Each
    station's SNR is its field strength minus the noise level, its TOA
    variance is J_i^2 + C^2/SNR, and it is usable when its SNR is at or
    above ``snr_threshold_db``. A point with fewer than three usable
    stations is masked ``TooFewStations``; one whose normal matrix is
    singular, ``SingularGeometry``.

    Returns ``(snr_db, azimuth_rad, sigma2_m2, usable, accuracy_m,
    usable_count, mask)``. The first four have the station axis first,
    shape (S, ...); the rest have the points' shape, with NaN accuracy
    and the reason in ``mask`` where masked and "" elsewhere. Raises
    UnknownStationError for a station without a jitter parameter,
    CoincidentPointsError before any propagation for a point on a
    transmitter site (no azimuth), NonpositiveSnrError for a NaN SNR
    and ValueError for a usable station with zero variance.
    """
    for tx in stations:
        if tx.station_id not in params.jitter_m:
            raise UnknownStationError(f"no jitter parameter for station {tx.station_id!r}")
    per_station = (len(stations),) + (1,) * np.ndim(lat_deg)
    site_lat = np.array([tx.position.lat_deg for tx in stations]).reshape(per_station)
    site_lon = np.array([tx.position.lon_deg for tx in stations]).reshape(per_station)
    on_site = (site_lat == lat_deg) & (site_lon == lon_deg)
    if on_site.any():
        tx = stations[np.nonzero(on_site)[0][0]]
        raise CoincidentPointsError(f"azimuth undefined at the site of station {tx.station_id!r}")
    noise_db = noise.level_at(lat_deg, lon_deg)
    snr_db = np.array([field_strength_dbuv_m(tx, lat_deg, lon_deg, prop) - noise_db for tx in stations])
    if np.isnan(snr_db).any():
        raise NonpositiveSnrError("SNR is NaN; the field strength or the noise level is not a number")
    az = bearing_rad(lat_deg, lon_deg, site_lat, site_lon)
    jitter = np.array([params.jitter_m[tx.station_id] for tx in stations]).reshape(per_station)
    sigma2 = toa_variance_m2(jitter, params.c_m, 10.0 ** (snr_db / 10.0))

    usable = snr_db >= snr_threshold_db
    if (usable & (sigma2 == 0.0)).any():
        raise ValueError(
            "zero TOA variance for a usable station (jitter and C both zero); "
            "the weighted solution is undefined"
        )
    count = usable.sum(axis=0)
    weights = np.divide(1.0, sigma2, out=np.zeros_like(sigma2), where=usable)
    k, singular = _inverse_normal(az, weights)
    too_few = count < 3
    ok = ~too_few & ~singular
    horiz = np.maximum(np.where(ok, k[..., 0, 0] + k[..., 1, 1], 0.0), 0.0)
    accuracy = np.where(ok, 2.0 * np.sqrt(horiz), np.nan)
    mask = np.where(too_few, MASK_TOO_FEW_STATIONS, np.where(singular, MASK_SINGULAR_GEOMETRY, ""))
    return snr_db, az, sigma2, usable, accuracy, count, mask


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
    snr_db, az, sigma2, usable, acc, count, mask = accuracy_arrays(
        p.lat_deg, p.lon_deg, stations, params, prop, noise, snr_threshold_db
    )
    snr_linear = 10.0 ** (snr_db / 10.0)
    columns = zip(snr_db.tolist(), snr_linear.tolist(), sigma2.tolist(), az.tolist(), usable.tolist())
    diags = [StationAccuracy(tx.station_id, *col) for tx, col in zip(stations, columns)]
    reason = mask.item() or None
    return PointAccuracy(None if reason else float(acc), reason, int(count), diags)
