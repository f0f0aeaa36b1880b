#!/usr/bin/env python3
"""
Sweeping a coverage map
=======================

Evaluates 95% horizontal accuracy over a lat/lon lattice for the
three-transmitter scenario shipped in configs/korea_mf.yaml, writes the
CSV / PGM / contour outputs, and prints a coarse ASCII rendering.
Cells where fewer than three stations clear the SNR threshold (or the
geometry is singular) are masked rather than given a number.
"""

from pathlib import Path

from rmodesim import (
    compute_coverage,
    coverage_summary,
    load_config,
    write_contour_csv,
    write_coverage_csv,
    write_coverage_pgm,
)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

# ------------------------------------------------------------------
# 1. Load the shipped scenario and sweep its grid (121 x 121 cells).
# ------------------------------------------------------------------
cfg = load_config(HERE.parent / "configs" / "korea_mf.yaml")
grid = compute_coverage(
    cfg.grid, cfg.stations, cfg.params, cfg.propagation, cfg.noise, cfg.snr_threshold_db
)

s = coverage_summary(grid)
print(f"swept {s['cells']} cells: {s['unmasked']} unmasked")
print(f"best accuracy {s['min_accuracy_m']:.2f} m, median {s['median_accuracy_m']:.2f} m")

# ------------------------------------------------------------------
# 2. Write the standard outputs.
# ------------------------------------------------------------------
write_coverage_csv(grid, OUT / "coverage.csv")
write_coverage_pgm(grid, OUT / "coverage.pgm", accuracy_clip_m=50.0)
write_contour_csv(grid, OUT / "contour_10m.csv", accuracy_limit_m=10.0)
print(f"\nwrote {OUT / 'coverage.csv'}")
print(f"wrote {OUT / 'coverage.pgm'} (white = best, black = masked or >= 50 m)")
print(f"wrote {OUT / 'contour_10m.csv'} (boundary of the 10 m region)")

# ------------------------------------------------------------------
# 3. ASCII rendering, north at the top: each character is one cell of
#    a downsampled lattice, binned by accuracy.
# ------------------------------------------------------------------
BINS = [(10.0, "#"), (20.0, "+"), (50.0, "."), (float("inf"), " ")]


def glyph(i, j):
    if grid.mask_code[i, j]:
        return " "
    acc = grid.accuracy_m[i, j]
    for limit, ch in BINS:
        if acc <= limit:
            return ch
    return " "


print("\naccuracy map (# <= 10 m, + <= 20 m, . <= 50 m):")
step = max(1, grid.lat_deg.size // 30)
for i in range(grid.lat_deg.size - 1, -1, -step):
    row = "".join(glyph(i, j) for j in range(0, grid.lon_deg.size, step))
    print(f"  {grid.lat_deg[i]:6.2f}N |{row}|")
lons = [f"{grid.lon_deg[j]:.0f}" for j in (0, grid.lon_deg.size - 1)]
print(f"          {lons[0]}E ... {lons[1]}E")

# ------------------------------------------------------------------
# 4. Station positions for reference.
# ------------------------------------------------------------------
print("\ntransmitters:")
for tx in cfg.stations:
    print(
        f"  {tx.station_id:10s} ({tx.position.lat_deg:.3f}N, {tx.position.lon_deg:.3f}E)  "
        f"{tx.power_w:.0f} W, jitter {cfg.params.jitter_m[tx.station_id]} m"
    )
