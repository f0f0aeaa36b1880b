#!/usr/bin/env python3
"""
Imported field-strength and noise lattices
==========================================

The parametric groundwave model is a stand-in; when field-strength
predictions from an external simulation are available they can be
imported as per-station CSV lattices and interpolated bilinearly. The
same mechanism supports a spatially varying noise map. This script
fabricates such lattices, round-trips them through the CSV schema, and
runs a sweep with the grid-variant propagation.
"""

from pathlib import Path

import numpy as np

from rmodesim import (
    FieldGrid,
    GeoPoint,
    GridPropagation,
    GridSpec,
    ModelParams,
    NoiseSpec,
    TransmitterStation,
    compute_coverage,
    coverage_summary,
    load_field_grid,
    snr_at,
    write_field_grid,
)
from rmodesim.geodesy import haversine_m

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

# ------------------------------------------------------------------
# 1. Three stations and a lattice covering the area of interest.
# ------------------------------------------------------------------
stations = [
    TransmitterStation("north", GeoPoint(37.2, 127.0), 300.0, 300e3),
    TransmitterStation("east", GeoPoint(36.0, 128.2), 500.0, 300e3),
    TransmitterStation("west", GeoPoint(36.0, 125.8), 300.0, 300e3),
]
lat_axis = np.arange(34.0, 39.01, 0.1)
lon_axis = np.arange(124.0, 130.01, 0.1)
lon2, lat2 = np.meshgrid(lon_axis, lat_axis)

# ------------------------------------------------------------------
# 2. Fabricate "externally computed" fields: inverse-distance decay
#    plus a sinusoidal terrain-like ripple the parametric model cannot
#    express, then write and re-read each lattice through the CSV
#    schema (the round trip is bit-exact).
# ------------------------------------------------------------------
grids = {}
for tx in stations:
    d_km = np.maximum(
        haversine_m(lat2, lon2, tx.position.lat_deg, tx.position.lon_deg), 1000.0
    ) / 1000.0
    field = (
        109.5
        + 10.0 * np.log10(tx.power_w / 1000.0)
        - 20.0 * np.log10(d_km)
        - 0.03 * d_km
        + 1.5 * np.sin(lat2 * 2.1) * np.cos(lon2 * 1.7)
    )
    path = OUT / f"field_{tx.station_id}.csv"
    write_field_grid(FieldGrid(lat_axis, lon_axis, field), path)
    grids[tx.station_id] = load_field_grid(path)
    print(f"wrote and re-read {path.name}: {len(lat_axis)}x{len(lon_axis)} nodes")

prop = GridPropagation(grids=grids)

# spatially varying noise: quieter in the north of the area
noise_field = 42.0 - 0.8 * (lat2 - lat2.min())
noise_path = OUT / "noise_95.csv"
write_field_grid(FieldGrid(lat_axis, lon_axis, noise_field), noise_path)
noise = NoiseSpec(grid=load_field_grid(noise_path))

# ------------------------------------------------------------------
# 3. Point queries hit the interpolated surfaces.
# ------------------------------------------------------------------
p = GeoPoint(36.5, 126.9)
for tx in stations:
    db, lin = snr_at(tx, p, prop, noise)
    print(f"snr at ({p.lat_deg}, {p.lon_deg}) from {tx.station_id}: {db:.2f} dB (linear {lin:.1f})")

# ------------------------------------------------------------------
# 4. The sweep works identically with imported lattices; queries must
#    stay inside the lattice envelope, so the sweep grid does. A node on
#    a transmitter site has no azimuth (CoincidentPointsError), so the
#    nodes sit half a step off the sites.
# ------------------------------------------------------------------
params = ModelParams({"north": 0.0, "east": 1.41, "west": 0.0}, 22.15)
spec = GridSpec(34.525, 38.525, 124.525, 129.525, 0.05)
grid = compute_coverage(spec, stations, params, prop, noise, -15.0)
s = coverage_summary(grid)
print(
    f"\nswept {s['cells']} cells on imported fields: {s['unmasked']} unmasked, "
    f"best {s['min_accuracy_m']:.2f} m, median {s['median_accuracy_m']:.2f} m"
)
