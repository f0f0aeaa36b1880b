"""Great-circle distance and bearing on a spherical earth.

All geometry uses a sphere of radius ``EARTH_RADIUS_M``; the sub-0.5%
error against an ellipsoid is negligible next to propagation-model
uncertainty at the distances this toolkit works with (< 1000 km).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6_371_000.0  # mean earth radius
TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GeoPoint:
    """A geodetic point in degrees, latitude in [-90, 90], longitude in [-180, 180]."""

    lat_deg: float
    lon_deg: float

    def __post_init__(self):
        if not -90.0 <= self.lat_deg <= 90.0:
            raise ValueError(f"latitude {self.lat_deg} outside [-90, 90]")
        if not -180.0 <= self.lon_deg <= 180.0:
            raise ValueError(f"longitude {self.lon_deg} outside [-180, 180]")


def haversine_m(lat1_deg, lon1_deg, lat2_deg, lon2_deg):
    """Great-circle distance in meters between points given in degrees.

    Accepts scalars or broadcastable arrays; always returns >= 0 and is
    symmetric in its arguments.
    """
    lat1 = np.radians(lat1_deg)
    lat2 = np.radians(lat2_deg)
    dlat = np.radians(np.subtract(lat2_deg, lat1_deg))
    dlon = np.radians(np.subtract(lon2_deg, lon1_deg))
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    # clip guards rounding just above 1 for near-antipodal points
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def bearing_components(lat1_deg, lon1_deg, lat2_deg, lon2_deg):
    """North and east components ``(x, y)`` of the initial great-circle bearing from point 1 to point 2.

    The bearing is ``arctan2(y, x)`` and ``(x, y) / hypot(x, y)`` is its
    unit vector (cos, sin); both components are zero where the points
    coincide, to rounding. Accepts scalars or broadcastable arrays; ``y``
    does not depend on ``lat1_deg``, so its shape may be smaller than ``x``'s.
    """
    lat1 = np.radians(lat1_deg)
    lat2 = np.radians(lat2_deg)
    dlon = np.radians(np.subtract(lon2_deg, lon1_deg))
    y = np.sin(dlon) * np.cos(lat2)
    x = np.cos(lat1) * np.sin(lat2) - np.sin(lat1) * np.cos(lat2) * np.cos(dlon)
    return x, y


def azimuth_rad(north, east):
    """The direction of ``(north, east)`` clockwise from north, normalized to [0, 2*pi)."""
    b = np.mod(np.arctan2(east, north), TWO_PI)
    # mod can round a tiny negative up to exactly 2*pi; fold it back to 0
    return np.where(b >= TWO_PI, 0.0, b)


def bearing_rad(lat1_deg, lon1_deg, lat2_deg, lon2_deg):
    """Initial great-circle bearing from point 1 to point 2.

    Measured clockwise from true north, normalized to [0, 2*pi): the
    ``azimuth_rad`` of the ``bearing_components``. Accepts scalars or
    broadcastable arrays. The bearing at a coincident point is not
    meaningful; ``accuracy.accuracy_arrays`` rejects a query on a
    transmitter site, or one whose components to a site are both zero.
    """
    return azimuth_rad(*bearing_components(lat1_deg, lon1_deg, lat2_deg, lon2_deg))
