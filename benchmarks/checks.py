"""Output checks: the program's files against the benchmark's own recomputation.

Each ``reference_*`` function computes, once per run, what a correct
output holds; each ``check_*`` function reads one operation's output
directory (and its stdout) and returns ``(problems, stats)``. An empty
problem list means the operation passed. ``stats`` holds counts under
their per-layer metric names, and under ``exempt.*`` how many cells or
points each exemption covered.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import yaml

import reference
import workloads

# A cell or point whose SNR is this close to the threshold, or whose
# condition number is this close (relatively) to the limit, may fall on
# either side in the program's arithmetic; its mask and count are exempt.
THRESHOLD_BAND_DB = 1e-9
CONDITION_BAND = 1e-3
# The program inverts by adjugate, the reference by LU. Rounding in the
# normal matrix is amplified by its condition number: over 10 seeds of
# coverage-map the relative difference reached 740 * eps * cond, so the
# tolerance is about 4500 * eps * cond.
ACCURACY_RTOL = 1e-10
ACCURACY_COND_RTOL = 1e-12
HALF_ULP_6DP = 5e-7 * (1 + 1e-9)  # half a unit in the sixth decimal, with slack for the parse
FIT_COEF_RTOL = 1e-9  # on J^2 and C^2, relative to the largest coefficient
COVERAGE_HEADER = ["lat_deg", "lon_deg", "accuracy_m", "usable_count", "mask"]


def _wls_with_exemptions(snr_db, azimuth, jitters, c_m):
    """Reference WLS over the last axis plus the exempt-cell flags."""
    sigma2 = reference.sigma2_m2(snr_db, np.asarray(jitters), c_m)
    usable = snr_db >= workloads.THRESHOLD_DB
    acc, count, cond, mask = reference.wls(azimuth, sigma2, usable)
    near_threshold = np.any(np.abs(snr_db - workloads.THRESHOLD_DB) <= THRESHOLD_BAND_DB, axis=-1)
    near_limit = np.abs(cond / reference.CONDITION_LIMIT - 1) <= CONDITION_BAND  # NaN compares False
    return {"accuracy": acc, "count": count, "cond": cond, "mask": mask,
            "near_threshold": near_threshold, "near_limit": near_limit}


def _accuracy_tolerance(ref, cond):
    return np.abs(ref) * (ACCURACY_RTOL + ACCURACY_COND_RTOL * np.nan_to_num(cond))


# ---- coverage-map ----------------------------------------------------------


def reference_coverage(expect):
    lat2, lon2 = np.meshgrid(expect["lat_nodes"], expect["lon_nodes"], indexing="ij")
    snr, az = [], []
    for sid, lat, lon, power, _ in workloads.STATIONS:
        d = reference.great_circle_m(lat, lon, lat2, lon2)
        field = reference.parametric_field_dbuv_m(d, power, workloads.REF_FIELD_DBUV_M, workloads.ATTEN_DB_PER_KM)
        snr.append(field - workloads.NOISE_DBUV_M)
        az.append(reference.initial_bearing_rad(lat2, lon2, lat, lon))
    return _wls_with_exemptions(np.stack(snr, -1), np.stack(az, -1), expect["jitters"], expect["c_m"])


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return (rows[0], rows[1:]) if rows else (None, [])


def _pgm_problems(path: Path, acc_csv, unmasked):
    """Pixels must follow the PGM formula from the CSV value within its rounding."""
    tokens = path.read_text(encoding="ascii").split()
    n_lat, n_lon = acc_csv.shape
    if tokens[:4] != ["P2", str(n_lon), str(n_lat), "255"] or len(tokens) != 4 + n_lat * n_lon:
        return [f"PGM header or size wrong: {tokens[:4]}, {len(tokens) - 4} pixels"]
    pix = np.array(tokens[4:], dtype=np.int64).reshape(n_lat, n_lon)[::-1]  # row 0 is the north edge

    def pixel(a):
        clip = workloads.PGM_CLIP_M
        return np.floor(255.0 * (1.0 - np.minimum(a, clip) / clip) + 0.5)

    a = np.where(unmasked, acc_csv, 0.0)
    hi, lo = pixel(a - HALF_ULP_6DP), pixel(a + HALF_ULP_6DP)
    bad = np.where(unmasked, (pix < lo) | (pix > hi), pix != 0)
    return [f"PGM: {int(bad.sum())} pixels disagree with the CSV"] if bad.any() else []


def _contour_problems(path: Path, acc_csv, unmasked, lat_s, lon_s):
    """Boundary cells of {accuracy <= limit}, recomputed from the CSV."""
    limit = workloads.CONTOUR_LIMIT_M
    a = np.where(unmasked, acc_csv, np.inf)
    inside = a <= limit
    ambiguous = np.abs(a - limit) <= HALF_ULP_6DP
    padded = np.pad(inside, 1, constant_values=False)
    boundary = inside & ~(padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:])
    near = np.pad(ambiguous, 1)
    exempt = near[1:-1, 1:-1] | near[:-2, 1:-1] | near[2:, 1:-1] | near[1:-1, :-2] | near[1:-1, 2:]
    header, rows = _read_csv(path)
    if header != ["lat_deg", "lon_deg"]:
        return [f"contour header {header}"], int(exempt.sum())
    lat_index = {v: i for i, v in enumerate(lat_s)}
    lon_index = {v: j for j, v in enumerate(lon_s)}
    if any(len(r) != 2 or r[0] not in lat_index or r[1] not in lon_index for r in rows):
        return ["contour holds a cell that is not a grid node"], int(exempt.sum())
    got = [(lat_index[la], lon_index[lo]) for la, lo in rows]
    want = [(int(i), int(j)) for i, j in zip(*np.nonzero(boundary & ~exempt))]
    kept = [ij for ij in got if not exempt[ij]]
    if kept != want:
        return [f"contour: {len(kept)} cells, expected {len(want)}"], int(exempt.sum())
    return [], int(exempt.sum())


def check_coverage(out: Path, stdout: str, ref, expect):
    problems = []
    lat_s = [f"{v:.6f}" for v in expect["lat_nodes"]]
    lon_s = [f"{v:.6f}" for v in expect["lon_nodes"]]
    n_lat, n_lon = len(lat_s), len(lon_s)
    header, rows = _read_csv(out / "coverage.csv")
    if header != COVERAGE_HEADER:
        return [f"coverage CSV header {header}"], {}
    if len(rows) != n_lat * n_lon or any(len(r) != 5 for r in rows):
        return [f"coverage CSV has {len(rows)} rows, expected {n_lat}x{n_lon}"], {}
    lat_min, lat_max, lon_min, lon_max = workloads.GRID_EXTENT
    if rows[0][:2] != [f"{lat_min:.6f}", f"{lon_min:.6f}"] or rows[-1][:2] != [f"{lat_max:.6f}", f"{lon_max:.6f}"]:
        problems.append(f"first/last node {rows[0][:2]} / {rows[-1][:2]} is not the configured extent")
    lat_c, lon_c, acc_s, count_s, mask = (np.array(c).reshape(n_lat, n_lon) for c in zip(*rows))
    if np.any(lat_c != np.array(lat_s)[:, None]) or np.any(lon_c != np.array(lon_s)[None, :]):
        problems.append("coverage CSV rows are not the grid nodes in lat-then-lon order")
    count = count_s.astype(np.int64)
    unmasked = mask == ""
    if np.any((acc_s == "") == unmasked):
        problems.append("accuracy field present on a masked cell or missing on an unmasked one")
        return problems, {}
    acc = np.where(unmasked, acc_s, "nan").astype(float)

    exempt = ref["near_threshold"] | ref["near_limit"]
    checked = ~exempt
    if np.any((count != ref["count"]) & checked):
        problems.append(f"usable_count differs from the recomputation in {int(((count != ref['count']) & checked).sum())} cells")
    if np.any((mask != ref["mask"]) & checked):
        problems.append(f"mask differs from the recomputation in {int(((mask != ref['mask']) & checked).sum())} cells")
    both = unmasked & (ref["mask"] == "") & checked
    err = np.abs(acc - ref["accuracy"])
    tol = HALF_ULP_6DP + _accuracy_tolerance(ref["accuracy"], ref["cond"])
    if np.any(both & ~(err <= tol)):
        worst = np.nanmax(np.where(both, err - tol, -np.inf))
        problems.append(f"accuracy differs from the recomputation in {int((both & ~(err <= tol)).sum())} cells (worst excess {worst:.3g} m)")

    problems += _pgm_problems(out / "coverage.pgm", acc, unmasked)
    contour, contour_exempt = _contour_problems(out / "contour.csv", acc, unmasked, lat_s, lon_s)
    problems += contour

    vals = acc[unmasked]
    if stdout:  # CLI runs print a summary; traced passes call the writers directly
        lines = stdout.strip().splitlines()
        want = [
            "cells,unmasked,min_accuracy_m,median_accuracy_m",
            f"{mask.size},{int(unmasked.sum())},{vals.min():.6f}," if vals.size else f"{mask.size},0,,",
        ]
        if lines[:1] != want[:1] or len(lines) != 2 or not lines[1].startswith(want[1]):
            problems.append(f"stdout summary {lines} does not match the CSV")
        elif vals.size and not abs(float(lines[1].split(",")[3]) - float(np.median(vals))) <= 2 * HALF_ULP_6DP:
            problems.append(f"stdout median {lines[1]} does not match the CSV")
    stats = {
        "coverage.cells": int(mask.size),
        "coverage.cells_unmasked": int(unmasked.sum()),
        "coverage.cells_too_few_stations": int((mask == reference.TOO_FEW).sum()),
        "coverage.cells_singular_geometry": int((mask == reference.SINGULAR).sum()),
        "coverage.csv_bytes": (out / "coverage.csv").stat().st_size,
        "exempt.near_threshold": int(ref["near_threshold"].sum()),
        "exempt.near_condition_limit": int(ref["near_limit"].sum()),
        "exempt.contour_cells": contour_exempt,
    }
    return problems, stats


# ---- fit-logs --------------------------------------------------------------


def reference_fit(expect):
    jitter, c_m = reference.fit_params(expect["windows"])
    n_samples = {sid: n // expect["window_len"] for sid, n in expect["records"].items()}
    return {"jitter_m": jitter, "c_m": c_m, "n_samples": n_samples}


def check_fit(out: Path, stdout: str, ref, expect):
    problems = []
    params = yaml.safe_load((out / "fitted_params.yaml").read_text(encoding="utf-8"))
    jitter, c_m = params.get("jitter_m", {}), params.get("c_m")
    ids = sorted(ref["jitter_m"])
    if sorted(jitter) != ids or not isinstance(c_m, float):
        return [f"fitted_params.yaml holds {params}"], {}
    got = np.array([jitter[s] ** 2 for s in ids] + [c_m**2])
    want = np.array([ref["jitter_m"][s] ** 2 for s in ids] + [ref["c_m"] ** 2])
    if np.any(np.abs(got - want) > FIT_COEF_RTOL * want.max()):
        problems.append(f"fit J^2, C^2 {got.tolist()} differ from scipy nnls {want.tolist()}")

    header, rows = _read_csv(out / "fit_report.csv")
    want_rows = [[s, repr(jitter[s]), str(ref["n_samples"][s])] for s in ids]
    want_rows.append(["C", repr(c_m), str(sum(ref["n_samples"].values()))])
    if header != ["station_id", "jitter_m", "n_samples", "rss_contribution"] or [r[:3] for r in rows] != want_rows:
        problems.append(f"fit report {rows} does not match fitted_params.yaml and floor(records/window_len)")
    if stdout:
        want_out = ["station_id,jitter_m,n_samples"] + [f"{s},{float(j):.6f},{n}" for s, j, n in want_rows]
        got_out = [",".join(line.split(",")[:3]) for line in stdout.strip().splitlines()]
        if got_out != want_out:
            problems.append(f"stdout {stdout.strip().splitlines()} does not match the fit report")
    return problems, {"ingest.windows": sum(ref["n_samples"].values())}


# ---- track-field-grids -----------------------------------------------------


def reference_track(expect):
    lat, lon = expect["lat"], expect["lon"]
    lattice = lambda name: reference.bilinear(expect["lat_axis"], expect["lon_axis"], expect["lattices"][name], lat, lon)
    noise = lattice("noise")
    snr = np.stack([lattice(s[0]) - noise for s in workloads.STATIONS], -1)
    az = np.stack([reference.initial_bearing_rad(lat, lon, s[1], s[2]) for s in workloads.STATIONS], -1)
    return _wls_with_exemptions(snr, az, [s[4] for s in workloads.STATIONS], workloads.C_M)


def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_track(out: Path, stdout: str, ref, expect):
    problems = []
    for name, values in expect["lattices"].items():
        parts = {p: np.load(out / f"{name}.{p}.npy") for p in ("lat_deg", "lon_deg", "values_dbuv_m")}
        if not (_bitwise_equal(parts["lat_deg"], expect["lat_axis"]) and _bitwise_equal(parts["lon_deg"], expect["lon_axis"])
                and _bitwise_equal(parts["values_dbuv_m"], values)):
            problems.append(f"loaded lattice {name!r} differs from the generated values")
    rows = json.loads((out / "points.json").read_text(encoding="utf-8"))
    if len(rows) != expect["lat"].size:
        return problems + [f"{len(rows)} point results, expected {expect['lat'].size}"], {}
    acc = np.array([np.nan if r[0] is None else r[0] for r in rows])
    count = np.array([r[1] for r in rows])
    mask = np.array([r[2] or "" for r in rows])
    checked = ~(ref["near_threshold"] | ref["near_limit"])
    for what, got, want in (("usable count", count, ref["count"]), ("mask reason", mask, ref["mask"])):
        if np.any((got != want) & checked):
            problems.append(f"{what} differs from the recomputation at {int(((got != want) & checked).sum())} points")
    both = (mask == "") & (ref["mask"] == "") & checked
    if np.any(both & ~(np.abs(acc - ref["accuracy"]) <= _accuracy_tolerance(ref["accuracy"], ref["cond"]))):
        problems.append("accuracy differs from the recomputation")
    if np.any((mask != "") & ~np.isnan(acc)):
        problems.append("a masked point carries an accuracy")
    stats = {
        "accuracy.points": int(acc.size),
        "accuracy.points_masked": int((mask != "").sum()),
        "exempt.near_threshold": int(ref["near_threshold"].sum()),
        "exempt.near_condition_limit": int(ref["near_limit"].sum()),
    }
    return problems, stats


REFERENCES = {"coverage-map": reference_coverage, "fit-logs": reference_fit, "track-field-grids": reference_track}
CHECKS = {"coverage-map": check_coverage, "fit-logs": check_fit, "track-field-grids": check_track}
