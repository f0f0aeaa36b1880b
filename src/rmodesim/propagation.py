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
dB(uV/m); no noise tables are bundled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from ._table import load_clean, read_table, write_table
from .errors import CoincidentPointsError, NonMonotonicAxesError, OutOfGridBoundsError, UnknownStationError
from .geodesy import GeoPoint, haversine_m

SPEED_OF_LIGHT_M_S = 299_792_458.0

DEFAULT_REF_FIELD_DBUV_M = 109.5  # at 1 km per 1 kW; config default, not a measured value
DEFAULT_ATTEN_DB_PER_KM = 0.03  # excess groundwave attenuation; config default

GRID_COLUMNS = ("lat_deg", "lon_deg", "value_dbuv_m")
# bytes per coordinate on the fast lattice path; the longest float repr has 24
_COORD_TEXT = "S25"


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
    """A rectangular lat/lon lattice of dB(uV/m) values, bilinearly interpolated.

    The axes are read-only copies of the ones given. Their bounds and
    interiors are taken once here, so a point query does no axis slicing.
    """

    def __init__(self, lat_deg, lon_deg, values_dbuv_m):
        self.lat_deg = np.array(lat_deg, dtype=float)
        self.lon_deg = np.array(lon_deg, dtype=float)
        self.values_dbuv_m = np.asarray(values_dbuv_m, dtype=float)
        if self.lat_deg.ndim != 1 or self.lon_deg.ndim != 1:
            raise ValueError("axes must be 1-D")
        if self.lat_deg.size < 2 or self.lon_deg.size < 2:
            raise ValueError("each axis needs at least 2 nodes")
        for name, axis in (("lat", self.lat_deg), ("lon", self.lon_deg)):
            if np.any(np.diff(axis) <= 0.0):
                raise NonMonotonicAxesError(f"{name} axis is not strictly increasing")
            axis.flags.writeable = False
        if self.values_dbuv_m.shape != (self.lat_deg.size, self.lon_deg.size):
            raise ValueError(
                f"values shape {self.values_dbuv_m.shape} does not match axes "
                f"({self.lat_deg.size}, {self.lon_deg.size})"
            )
        self._lat_inner, self._lon_inner = self.lat_deg[1:-1], self.lon_deg[1:-1]
        self._bounds = tuple(float(a[k]) for a in (self.lat_deg, self.lon_deg) for k in (0, -1))

    def value_at(self, lat_deg, lon_deg):
        """Bilinear interpolation; exact at nodes, continuous across cells.

        Accepts scalars or broadcastable arrays. An exact interior node
        starts a cell, and each axis's upper edge lies in its last cell.
        Raises OutOfGridBoundsError for any query outside the lattice.
        """
        # [()] turns a scalar query into a numpy scalar, whose arithmetic costs less than a 0-d array's
        lat = np.asarray(lat_deg, dtype=float)[()]
        lon = np.asarray(lon_deg, dtype=float)[()]
        lat_lo, lat_hi, lon_lo, lon_hi = self._bounds
        outside = (lat < lat_lo) | (lat > lat_hi) | (lon < lon_lo) | (lon > lon_hi)
        # numpy's False scalar is a singleton; testing for it spares a scalar query the costly .any()
        if outside is not np.False_ and outside.any():
            raise OutOfGridBoundsError(f"query outside lattice lat [{lat_lo}, {lat_hi}], lon [{lon_lo}, {lon_hi}]")
        ya, xa = self.lat_deg, self.lon_deg
        i = self._lat_inner.searchsorted(lat, side="right")
        j = self._lon_inner.searchsorted(lon, side="right")
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
    """Noise level in dB(uV/m): a scalar, or an imported lattice. No noise tables are bundled."""

    level_dbuv_m: float | None = None
    grid: FieldGrid | None = None

    def __post_init__(self):
        if (self.level_dbuv_m is None) == (self.grid is None):
            raise ValueError("exactly one of level_dbuv_m or grid must be set")

    def level_at(self, lat_deg, lon_deg):
        """Noise level at points of the broadcast shape of ``lat_deg`` and ``lon_deg``, a float at one point.

        A scalar level gives the same shape as a lattice. A query outside
        the lattice raises OutOfGridBoundsError naming the noise lattice.
        """
        if self.grid is not None:
            try:
                return self.grid.value_at(lat_deg, lon_deg)
            except OutOfGridBoundsError as exc:
                raise OutOfGridBoundsError(f"noise lattice: {exc}") from None
        shape = np.broadcast(lat_deg, lon_deg).shape
        return np.full(shape, self.level_dbuv_m) if shape else float(self.level_dbuv_m)


def field_strength_dbuv_m(tx: TransmitterStation, lat_deg, lon_deg, spec: PropagationSpec):
    """Field strength in dB(uV/m) at the given points (scalars or arrays).

    Parametric variant: reference field scaled by radiated power,
    20*log10 inverse-distance spreading, and the linear excess
    attenuation; a distance that is zero, or rounds to it, raises
    CoincidentPointsError. Grid variant: bilinear interpolation of the
    station's lattice; a missing lattice raises UnknownStationError and a
    query outside it OutOfGridBoundsError, each naming the station.
    """
    if isinstance(spec, GridPropagation):
        if tx.station_id not in spec.grids:
            raise UnknownStationError(f"no field lattice for station {tx.station_id!r}")
        try:
            return spec.grids[tx.station_id].value_at(lat_deg, lon_deg)
        except OutOfGridBoundsError as exc:
            raise OutOfGridBoundsError(f"field lattice of station {tx.station_id!r}: {exc}") from None
    d_m = haversine_m(tx.position.lat_deg, tx.position.lon_deg, lat_deg, lon_deg)
    if np.any(d_m == 0.0):
        raise CoincidentPointsError(f"field strength undefined at the site of station {tx.station_id!r}")
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

    A clean file (see ``_table``) whose coordinate text repeats verbatim,
    as ``write_field_grid`` writes it, is read by one numpy parse: only the
    values are parsed as numbers, each axis value once. Any other lattice
    (a coordinate spelled two ways or padded on some rows, comment lines,
    quoting, a bad record) goes to the row loop: the same result, slower.
    """
    grid = _lattice_from_text(path)
    if grid is not None:
        return grid
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


def _lattice_from_text(path) -> FieldGrid | None:
    """The lattice of a clean file whose coordinate text tiles it, or None for the row loop to read.

    The coordinates are read as text: the longitude count is the first row
    whose latitude text differs from row 0's, every block of that many rows
    must repeat its first latitude text, and every block the first block's
    longitude texts. Each axis text then goes through ``float()``, as in the
    row loop, and must give finite, strictly increasing axes.
    """
    dtype = [("lat_deg", _COORD_TEXT), ("lon_deg", _COORD_TEXT), ("value_dbuv_m", float)]
    table = load_clean(path, GRID_COLUMNS, dtype)
    if table is None:
        return None
    lat, lon = table["lat_deg"], table["lon_deg"]
    n_lon = int(np.argmax(lat != lat[0]))  # 0 when every row has row 0's latitude
    if n_lon < 2 or lat.size % n_lon:
        return None
    lat, lon = lat.reshape(-1, n_lon), lon.reshape(-1, n_lon)
    # compare the coordinates' record bytes, as uint8 faster than as S25: no
    # NUL reaches here, so equal bytes are equal text
    raw = table.view([(c, np.uint8, np.dtype(t).itemsize) for c, t in dtype])
    lat_bytes, lon_bytes = (raw[c].reshape(*lat.shape, -1) for c in ("lat_deg", "lon_deg"))
    if not ((lat_bytes == lat_bytes[:, :1]).all() and (lon_bytes == lon_bytes[0]).all()):
        return None
    texts = lat[:, 0].tolist() + lon[0].tolist()
    values = table["value_dbuv_m"].reshape(lat.shape).copy()  # so the text table can go
    del table, raw, lat, lon, lat_bytes, lon_bytes
    # a field as wide as the text may have been cut short
    if max(map(len, texts)) >= np.dtype(_COORD_TEXT).itemsize or not np.isfinite(values).all():
        return None
    try:
        # float() of bytes reads ASCII only; any other text goes to the row loop
        axes = np.array([float(t) for t in texts])
    except ValueError:
        return None
    lat_axis, lon_axis = np.split(axes, [len(values)])
    if not (np.isfinite(axes).all() and (np.diff(lat_axis) > 0.0).all() and (np.diff(lon_axis) > 0.0).all()):
        return None
    return FieldGrid(lat_axis, lon_axis, values)


def write_field_grid(grid: FieldGrid, path) -> None:
    """Write a lattice CSV in the canonical lat-major order; its values read back bit-exactly.

    Each axis value is formatted once and its text repeated, so the file
    takes ``load_field_grid``'s fast path.
    """
    lat, lon = (np.array([repr(x) for x in axis.tolist()], dtype=object) for axis in (grid.lat_deg, grid.lon_deg))
    columns = [np.repeat(lat, lon.size), np.tile(lon, lat.size), grid.values_dbuv_m.ravel()]
    write_table(path, GRID_COLUMNS, {"": columns})
