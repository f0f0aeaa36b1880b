"""Grid sweeps producing 95% accuracy coverage maps, plus CSV/PGM output.

Cells are independent, so the sweep runs on a thread pool in blocks, a
column of latitudes against a row of at most ``_BLOCK_CELLS`` longitudes;
every kernel step is per cell, per coordinate or sums over stations only,
so the output is bitwise identical for any block size and worker count.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .accuracy import MASK_REASONS, accuracy_arrays
from .errors import GridTooLargeError, TooFewStationsError
from .geodesy import GeoPoint
from .propagation import NoiseSpec, PropagationSpec, TransmitterStation
from .variance_model import ModelParams

# A grid holds about 10 B/cell (8 accuracy, 1 mask code, 1-2 count), so
# the limit keeps a map's arrays near 100 MB.
CELL_LIMIT = 10_000_000
# Cells per kernel call, in whole rows or a slice of one row. A call costs
# about 0.8 ms of small numpy steps that hold the GIL whatever its size, so
# the two workers overlap only on large blocks: on a 2-vCPU host the
# 601x601 map's sweep at 2 threads took 0.088 s at 5,000 cells, 0.057 s at
# 10,000 and 0.048 s at 20,000 (medians of 15). At 10,000 the kernel's
# temporaries (a tracemalloc peak of about 390 B/cell with three stations,
# the per-station arrays among them) stay near 4 MiB per worker and are
# never held grid-wide, however wide a row is.
_BLOCK_CELLS = 10_000
# Longitudes per string the CSV writer joins, apart from the sweep's block,
# so that a wide row's text stays in 5,000-cell pieces.
_CSV_BLOCK_CELLS = 5000
_PIXEL_STRINGS = np.array([str(v) for v in range(256)], dtype=object)


@dataclass(frozen=True)
class GridSpec:
    """A lat/lon lattice: inclusive bounds and a positive step in degrees.

    Both corners must be valid GeoPoints.
    Node coordinates are ``min + i * step`` (never accumulated), with
    ``floor((max - min) / step + 1e-9) + 1`` nodes per axis: the 1e-9 keeps
    the ``max`` node of a whole number of steps that divides to just under.
    A node that rounds a few ulps past ``max`` is clamped to ``max``.
    The node counts and values raise GridTooLargeError when one axis alone
    has more than ``CELL_LIMIT`` nodes.
    """

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    step_deg: float

    def __post_init__(self):
        if not self.lat_min < self.lat_max:
            raise ValueError(f"lat_min {self.lat_min} must be < lat_max {self.lat_max}")
        if not self.lon_min < self.lon_max:
            raise ValueError(f"lon_min {self.lon_min} must be < lon_max {self.lon_max}")
        GeoPoint(self.lat_min, self.lon_min)  # the corners take GeoPoint's coordinate ranges
        GeoPoint(self.lat_max, self.lon_max)
        if not self.step_deg > 0.0:
            raise ValueError(f"step_deg must be > 0, got {self.step_deg}")

    @property
    def n_lat(self) -> int:
        return self._nodes(self.lat_max - self.lat_min)

    @property
    def n_lon(self) -> int:
        return self._nodes(self.lon_max - self.lon_min)

    @property
    def cell_count(self) -> int:
        return self.n_lat * self.n_lon

    def lat_values(self) -> np.ndarray:
        return np.minimum(self.lat_min + np.arange(self.n_lat) * self.step_deg, self.lat_max)

    def lon_values(self) -> np.ndarray:
        return np.minimum(self.lon_min + np.arange(self.n_lon) * self.step_deg, self.lon_max)

    def _nodes(self, span: float) -> int:
        """Nodes on an axis of ``span`` degrees; GridTooLargeError when the axis alone is over CELL_LIMIT."""
        steps = span / self.step_deg + 1e-9
        if not steps < CELL_LIMIT:  # inf for a step near the float minimum
            # the count has hundreds of digits for a tiny step, so give its magnitude
            spans = (self.lat_max - self.lat_min, self.lon_max - self.lon_min)
            exponent = sum(max(0.0, math.log10(s) - math.log10(self.step_deg)) for s in spans)
            raise GridTooLargeError(
                f"step_deg {self.step_deg!r}: about 1e{math.floor(exponent)} cells exceeds the limit of {CELL_LIMIT}"
            )
        return math.floor(steps) + 1


@dataclass
class CoverageGrid:
    """Sweep results: per-cell accuracy or mask reason, plus diagnostics."""

    lat_deg: np.ndarray  # (n_lat,)
    lon_deg: np.ndarray  # (n_lon,)
    accuracy_m: np.ndarray  # (n_lat, n_lon), NaN where masked
    usable_count: np.ndarray  # (n_lat, n_lon), unsigned, wide enough for every station
    mask_code: np.ndarray  # (n_lat, n_lon) int8 index into MASK_REASONS, 0 where unmasked


def compute_coverage(
    spec: GridSpec,
    stations: list[TransmitterStation],
    params: ModelParams,
    prop: PropagationSpec,
    noise: NoiseSpec,
    snr_threshold_db: float,
    threads: int = 0,
) -> CoverageGrid:
    """Sweep the grid and evaluate accuracy at every cell.

    ``threads`` 0 means one worker per available CPU, 1 runs serially and
    more are capped at the CPU count; the result is identical for any
    value. Raises ValueError when ``threads`` is negative,
    TooFewStationsError for fewer than three stations, GridTooLargeError
    when the grid exceeds ``CELL_LIMIT`` cells and ``accuracy_arrays``'s
    errors, such as CoincidentPointsError for a node on a site.
    """
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    if len(stations) < 3:
        raise TooFewStationsError(f"need >= 3 configured stations, got {len(stations)}")
    cells = spec.cell_count
    if cells > CELL_LIMIT:
        raise GridTooLargeError(f"{cells} cells exceeds the limit of {CELL_LIMIT}")

    lats, lons = spec.lat_values(), spec.lon_values()
    accuracy = np.empty((lats.size, lons.size))
    count = np.empty(accuracy.shape, dtype=np.min_scalar_type(len(stations)))
    mask_code = np.empty(accuracy.shape, dtype=np.int8)

    def run_block(block: tuple[slice, slice]) -> None:
        _, _, _, _, accuracy[block], count[block], mask_code[block] = accuracy_arrays(
            lats[block[0], None], lons[None, block[1]], stations, params, prop, noise, snr_threshold_db
        )

    rows, cols = max(1, _BLOCK_CELLS // lons.size), min(lons.size, _BLOCK_CELLS)
    starts = itertools.product(range(0, lats.size, rows), range(0, lons.size, cols))
    blocks = [(slice(i, i + rows), slice(j, j + cols)) for i, j in starts]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(threads or cpus, cpus, len(blocks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run_block, blocks))

    return CoverageGrid(lats, lons, accuracy_m=accuracy, usable_count=count, mask_code=mask_code)


def coverage_summary(grid: CoverageGrid) -> dict:
    """Cell totals and accuracy stats over the unmasked region."""
    unmasked = grid.mask_code == 0
    vals = grid.accuracy_m[unmasked]  # a copy, so the median may reorder it
    return {
        "cells": int(grid.mask_code.size),
        "unmasked": int(unmasked.sum()),
        "min_accuracy_m": float(vals.min()) if vals.size else None,
        "median_accuracy_m": float(np.median(vals, overwrite_input=True)) if vals.size else None,
    }


def write_coverage_csv(grid: CoverageGrid, path) -> None:
    """Write per-cell rows, latitude ascending then longitude ascending.

    Schema ``lat_deg,lon_deg,accuracy_m,usable_count,mask``: coordinates
    and accuracy carry six fractional digits, a masked cell has an empty
    accuracy field and the mask reason, an unmasked cell an empty mask.
    """
    # csv.writer's QUOTE_MINIMAL framing (no field can hold a comma, quote
    # or newline). A cell's suffix, picked by its mask code and usable count,
    # spells both out with a "%.6f" slot for an unmasked accuracy (it rounds
    # as f"{a:.6f}" does), so each block of a row is one join of its texts
    # and one % of its unmasked accuracies.
    lon_strs = [f"{lon:.6f}" for lon in grid.lon_deg.tolist()]
    suffixes = np.array(
        [[f",{acc},{n},{reason}\r\n" for n in range(int(grid.usable_count.max()) + 1)]
         for acc, reason in zip(("%.6f", "", ""), MASK_REASONS)],  # an accuracy field for code 0 only
        dtype=object,
    )
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("lat_deg,lon_deg,accuracy_m,usable_count,mask\r\n")
        rows = zip(grid.lat_deg.tolist(), grid.accuracy_m, grid.usable_count, grid.mask_code)
        for lat, acc, cnt, code in rows:
            for j in range(0, len(lon_strs), _CSV_BLOCK_CELLS):
                block = slice(j, j + _CSV_BLOCK_CELLS)
                cells = [f"{lat:.6f},"] * (3 * len(lon_strs[block]))
                cells[1::3], cells[2::3] = lon_strs[block], suffixes[code[block], cnt[block]].tolist()
                f.write("".join(cells) % tuple(acc[block][code[block] == 0].tolist()))


def write_coverage_pgm(grid: CoverageGrid, path, accuracy_clip_m: float) -> None:
    """Render the map as plain PGM (P2), row 0 at the northernmost latitude.

    Pixel value is ``255 * (1 - min(accuracy, clip) / clip)`` rounded
    half-up, so accuracy 0 is white (255) and anything at or beyond the
    clip is black; masked cells are 0. Pixels are computed one row at a
    time, so the writer holds no grid-sized temporary.
    """
    if not accuracy_clip_m > 0.0:
        raise ValueError(f"accuracy_clip_m must be > 0, got {accuracy_clip_m}")
    with open(path, "w", encoding="ascii") as f:
        f.write("P2\n")
        f.write(f"{grid.lon_deg.size} {grid.lat_deg.size}\n")
        f.write("255\n")
        for i in range(grid.lat_deg.size - 1, -1, -1):
            unmasked = grid.mask_code[i] == 0
            clipped = np.minimum(np.where(unmasked, grid.accuracy_m[i], accuracy_clip_m), accuracy_clip_m)
            pix = np.floor(255.0 * (1.0 - clipped / accuracy_clip_m) + 0.5)
            pix = np.where(unmasked, pix, 0.0).astype(np.int64)
            f.write(" ".join(_PIXEL_STRINGS[pix].tolist()) + "\n")


def write_contour_csv(grid: CoverageGrid, path, accuracy_limit_m: float) -> None:
    """Write boundary cells of the region meeting an accuracy limit.

    A cell is on the boundary when it is unmasked with accuracy at or
    under the limit, and at least one 4-neighbor is not (or it sits on
    the grid edge). Schema ``lat_deg,lon_deg``, six fractional digits,
    latitude ascending then longitude.
    """
    if not accuracy_limit_m > 0.0:
        raise ValueError(f"accuracy_limit_m must be > 0, got {accuracy_limit_m}")
    inside = (grid.mask_code == 0) & (grid.accuracy_m <= accuracy_limit_m)
    padded = np.pad(inside, 1, constant_values=False)
    neighbors_all_in = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    boundary = inside & ~neighbors_all_in
    i, j = np.nonzero(boundary)
    cells = zip(grid.lat_deg[i].tolist(), grid.lon_deg[j].tolist())
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("lat_deg,lon_deg\r\n")  # csv.writer's framing, as in the coverage CSV
        f.writelines(f"{lat:.6f},{lon:.6f}\r\n" for lat, lon in cells)
