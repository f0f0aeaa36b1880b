"""Per-transmitter SNR fields from power, distance, and a noise level.

Two propagation variants feed the accuracy model:

* a parametric groundwave-style model, inverse-distance spreading plus a
  linear-in-distance excess attenuation, referenced to a field strength
  at 1 km per 1 kW radiated;
* imported field-strength lattices (one per station), bilinearly
  interpolated.

The parametric defaults below are CONFIG DEFAULTS chosen to give
plausible medium-frequency coverage scales; they are not measured or
published values. Noise is a scalar level (or imported lattice) in
dB(uV/m), tagged with the season label and percentile it represents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from ._table import read_table, write_table
from .errors import (
    NonMonotonicAxesError,
    OutOfGridBoundsError,
    ZeroDistanceError,
)
from .geodesy import GeoPoint, haversine_m

SPEED_OF_LIGHT_M_S = 299_792_458.0

DEFAULT_REF_FIELD_DBUV_M = 109.5  # at 1 km per 1 kW; config default, not a measured value
DEFAULT_ATTEN_DB_PER_KM = 0.03  # excess groundwave attenuation; config default

GRID_COLUMNS = ("lat_deg", "lon_deg", "value_dbuv_m")


def wavelength_m(carrier_hz: float) -> float:
    """Carrier wavelength in meters."""
    if carrier_hz <= 0.0:
        raise ValueError(f"carrier_hz must be > 0, got {carrier_hz}")
    return SPEED_OF_LIGHT_M_S / carrier_hz


@dataclass(frozen=True)
class TransmitterStation:
    """A transmitter: identity, site, radiated power and carrier; its jitter J_i lives in ModelParams."""

    station_id: str
    position: GeoPoint
    power_w: float
    carrier_hz: float

    def __post_init__(self):
        if not self.power_w > 0.0:
            raise ValueError(f"power_w must be > 0, got {self.power_w}")
        if not self.carrier_hz > 0.0:
            raise ValueError(f"carrier_hz must be > 0, got {self.carrier_hz}")

    @property
    def wavelength_m(self) -> float:
        return wavelength_m(self.carrier_hz)


class FieldGrid:
    """A rectangular lat/lon lattice of dB(uV/m) values, bilinearly interpolated."""

    def __init__(self, lat_deg, lon_deg, values_dbuv_m):
        self.lat_deg = np.asarray(lat_deg, dtype=float)
        self.lon_deg = np.asarray(lon_deg, dtype=float)
        self.values_dbuv_m = np.asarray(values_dbuv_m, dtype=float)
        if self.lat_deg.ndim != 1 or self.lon_deg.ndim != 1:
            raise ValueError("axes must be 1-D")
        if self.lat_deg.size < 2 or self.lon_deg.size < 2:
            raise ValueError("each axis needs at least 2 nodes")
        for name, axis in (("lat", self.lat_deg), ("lon", self.lon_deg)):
            if np.any(np.diff(axis) <= 0.0):
                raise NonMonotonicAxesError(f"{name} axis is not strictly increasing")
        if self.values_dbuv_m.shape != (self.lat_deg.size, self.lon_deg.size):
            raise ValueError(
                f"values shape {self.values_dbuv_m.shape} does not match axes "
                f"({self.lat_deg.size}, {self.lon_deg.size})"
            )

    def value_at(self, lat_deg, lon_deg):
        """Bilinear interpolation; exact at nodes, continuous across cells.

        Accepts scalars or equal-shape arrays. An exact interior node
        starts a cell, and each axis's upper edge lies in its last cell.
        Raises OutOfGridBoundsError for any query outside the lattice.
        """
        # [()] turns a scalar query into a numpy scalar, whose arithmetic costs less than a 0-d array's
        lat = np.asarray(lat_deg, dtype=float)[()]
        lon = np.asarray(lon_deg, dtype=float)[()]
        ya, xa = self.lat_deg, self.lon_deg
        if ((lat < ya[0]) | (lat > ya[-1]) | (lon < xa[0]) | (lon > xa[-1])).any():
            raise OutOfGridBoundsError(f"query outside lattice lat [{ya[0]}, {ya[-1]}], lon [{xa[0]}, {xa[-1]}]")
        i = ya[1:-1].searchsorted(lat, side="right")
        j = xa[1:-1].searchsorted(lon, side="right")
        t = (lat - ya[i]) / (ya[i + 1] - ya[i])
        u = (lon - xa[j]) / (xa[j + 1] - xa[j])
        v = self.values_dbuv_m
        lo = (1.0 - u) * v[i, j] + u * v[i, j + 1]
        hi = (1.0 - u) * v[i + 1, j] + u * v[i + 1, j + 1]
        out = (1.0 - t) * lo + t * hi
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ParametricPropagation:
    """Groundwave-style model: spreading loss plus linear excess attenuation."""

    ref_field_dbuv_m: float = DEFAULT_REF_FIELD_DBUV_M
    atten_db_per_km: float = DEFAULT_ATTEN_DB_PER_KM

    def __post_init__(self):
        if self.atten_db_per_km < 0.0:
            raise ValueError(f"atten_db_per_km must be >= 0, got {self.atten_db_per_km}")


@dataclass(frozen=True)
class GridPropagation:
    """Imported per-station field-strength lattices."""

    grids: Mapping[str, FieldGrid]


PropagationSpec = Union[ParametricPropagation, GridPropagation]


@dataclass(frozen=True)
class NoiseSpec:
    """Noise level in dB(uV/m): a scalar, or an imported lattice.

    ``season_label`` and ``percentile`` are metadata naming which noise
    condition the level represents; no noise tables are bundled.
    """

    season_label: str = "Averaged"
    percentile: float = 0.95
    level_dbuv_m: float | None = None
    grid: FieldGrid | None = None

    def __post_init__(self):
        if not 0.0 < self.percentile < 1.0:
            raise ValueError(f"percentile must be in (0, 1), got {self.percentile}")
        if (self.level_dbuv_m is None) == (self.grid is None):
            raise ValueError("exactly one of level_dbuv_m or grid must be set")

    def level_at(self, lat_deg, lon_deg):
        """Noise level at a point; scalar specs broadcast over array queries."""
        if self.grid is not None:
            return self.grid.value_at(lat_deg, lon_deg)
        shape = np.shape(lat_deg)
        return np.full(shape, self.level_dbuv_m) if shape else float(self.level_dbuv_m)


def field_strength_dbuv_m(tx: TransmitterStation, lat_deg, lon_deg, spec: PropagationSpec):
    """Field strength in dB(uV/m) at the given points (scalars or arrays).

    Parametric variant: reference field scaled by radiated power,
    20*log10 inverse-distance spreading, and the linear excess
    attenuation; raises ZeroDistanceError at the transmitter site.
    Grid variant: bilinear interpolation of the station's lattice.
    """
    if isinstance(spec, GridPropagation):
        if tx.station_id not in spec.grids:
            raise KeyError(f"no field grid for station {tx.station_id!r}")
        return spec.grids[tx.station_id].value_at(lat_deg, lon_deg)
    d_m = haversine_m(tx.position.lat_deg, tx.position.lon_deg, lat_deg, lon_deg)
    if np.any(d_m == 0.0):
        raise ZeroDistanceError(f"field strength undefined at zero distance from {tx.station_id!r}")
    d_km = d_m / 1000.0
    return (
        spec.ref_field_dbuv_m
        + 10.0 * np.log10(tx.power_w / 1000.0)
        - 20.0 * np.log10(d_km)
        - spec.atten_db_per_km * d_km
    )


def snr_db_at(
    tx: TransmitterStation,
    lat_deg,
    lon_deg,
    prop: PropagationSpec,
    noise: NoiseSpec,
):
    """SNR in dB: field strength minus the noise level, pointwise."""
    return field_strength_dbuv_m(tx, lat_deg, lon_deg, prop) - noise.level_at(lat_deg, lon_deg)


def snr_at(
    tx: TransmitterStation, p: GeoPoint, prop: PropagationSpec, noise: NoiseSpec
) -> tuple[float, float]:
    """SNR at a single point as ``(snr_db, snr_linear)``."""
    db = float(snr_db_at(tx, p.lat_deg, p.lon_deg, prop, noise))
    return db, float(10.0 ** (db / 10.0))


def load_field_grid(path) -> FieldGrid:
    """Read a lattice CSV with header ``lat_deg,lon_deg,value_dbuv_m``.

    Rows must form a complete rectangular lattice in row-major order:
    latitude blocks ascending, longitude ascending within each block
    (the order ``write_field_grid`` emits). Comment lines starting with
    ``#`` are ignored. Raises ParseError on malformed or non-finite rows,
    NonMonotonicAxesError on axis-order violations, and ValueError on an
    incomplete lattice.
    """
    groups = read_table(path, GRID_COLUMNS)
    if not groups:
        raise ValueError("grid file has no data rows")
    lats, lons, values = groups[""]
    lat_axis = np.unique(lats)
    lon_axis = np.unique(lons)
    n_lat, n_lon = lat_axis.size, lon_axis.size
    if lats.size != n_lat * n_lon:
        raise ValueError(f"incomplete lattice: {lats.size} rows for a {n_lat}x{n_lon} grid")
    if not (np.array_equal(lats, np.repeat(lat_axis, n_lon)) and np.array_equal(lons, np.tile(lon_axis, n_lat))):
        raise NonMonotonicAxesError(
            "rows must be lat-major with both axes strictly increasing"
        )
    return FieldGrid(lat_axis, lon_axis, values.reshape(n_lat, n_lon))


def write_field_grid(grid: FieldGrid, path) -> None:
    """Write a lattice CSV in the canonical lat-major order; its values read back bit-exactly."""
    lat, lon = np.meshgrid(grid.lat_deg, grid.lon_deg, indexing="ij")
    write_table(path, GRID_COLUMNS, {"": [lat.ravel(), lon.ravel(), grid.values_dbuv_m.ravel()]})
