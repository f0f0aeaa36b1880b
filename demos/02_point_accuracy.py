#!/usr/bin/env python3
"""
95% horizontal accuracy at a single point
=========================================

Position accuracy combines two ingredients per station: the predicted
TOA variance (from the fitted model and the local SNR) and the azimuth
geometry. The weighted least-squares error covariance is

    K = (G' R^-1 G)^-1,   G row i = [cos(theta_i), sin(theta_i), 1]

and the scalar accuracy is 2*sqrt(K11 + K22) over the horizontal
components. This script builds a three-station scenario and shows how
geometry and SNR shape the result.
"""

import math

import numpy as np

from rmodesim import (
    GeoPoint,
    ModelParams,
    NoiseSpec,
    ParametricPropagation,
    TransmitterStation,
    accuracy95,
    accuracy_at,
    covariance,
)

# ------------------------------------------------------------------
# 1. Scenario: three 300 W transmitters around a harbor area.
# ------------------------------------------------------------------
stations = [
    TransmitterStation("north", GeoPoint(37.80, 127.00), 300.0, 300e3),
    TransmitterStation("southeast", GeoPoint(35.60, 128.40), 300.0, 300e3),
    TransmitterStation("southwest", GeoPoint(35.60, 125.60), 300.0, 300e3),
]
params = ModelParams({"north": 0.0, "southeast": 1.41, "southwest": 0.0}, 22.15)
prop = ParametricPropagation(ref_field_dbuv_m=109.5, atten_db_per_km=0.03)
noise = NoiseSpec(level_dbuv_m=40.0)
THRESHOLD_DB = -15.0

# ------------------------------------------------------------------
# 2. Breakdown at the centroid: every station contributes.
# ------------------------------------------------------------------
center = GeoPoint(36.33, 127.00)
result = accuracy_at(center, stations, params, prop, noise, THRESHOLD_DB)
print(f"at ({center.lat_deg}, {center.lon_deg}):")
for d in result.stations:
    print(
        f"  {d.station_id:10s} snr {d.snr_db:6.2f} dB  sigma^2 {d.sigma2_m2:8.3f} m^2  "
        f"azimuth {math.degrees(d.azimuth_rad):6.1f} deg  "
        f"{'usable' if d.usable else 'below threshold'}"
    )
print(f"  -> accuracy {result.accuracy_m:.2f} m from {result.usable_count} stations")

# ------------------------------------------------------------------
# 3. Geometry matters: the same variances spread at equal 120-degree
#    spacing beat a pinched 30-degree fan.
# ------------------------------------------------------------------
sigma2 = [d.sigma2_m2 for d in result.stations]
spread = accuracy95(covariance(np.radians([0.0, 120.0, 240.0]), sigma2))
pinched = accuracy95(covariance(np.radians([0.0, 15.0, 30.0]), sigma2))
print(f"\nsame variances, equiangular azimuths: {spread:.2f} m")
print(f"same variances, 30-degree fan:        {pinched:.2f} m")

# ------------------------------------------------------------------
# 4. Walking away from the triangle, stations drop below the SNR
#    threshold until the point masks as TooFewStations.
# ------------------------------------------------------------------
print("\nheading west along 36.33N:")
for lon in (127.0, 125.0, 123.0, 121.0, 119.0):
    res = accuracy_at(GeoPoint(36.33, lon), stations, params, prop, noise, THRESHOLD_DB)
    if res.masked:
        print(f"  lon {lon:6.1f}: masked ({res.mask_reason}), usable {res.usable_count}")
    else:
        print(f"  lon {lon:6.1f}: {res.accuracy_m:9.2f} m, usable {res.usable_count}")
