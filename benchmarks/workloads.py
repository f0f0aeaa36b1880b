"""Seeded inputs for the three workloads, written with the benchmark's own code.

Every config, log and lattice the program reads is made here from the
seed; nothing is produced by ``rmodesim`` itself. ``make_inputs`` returns
the worker's spec (paths only, JSON-ready) and what the checks expect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

WORKLOADS = ("coverage-map", "fit-logs", "track-field-grids")

# The shipped Korea scenario (configs/korea_mf.yaml): id, lat, lon, power W, jitter m.
STATIONS = (
    ("eocheong", 36.117, 125.983, 300.0, 0.0),
    ("palmi", 37.358, 126.510, 300.0, 0.0),
    ("chungju", 36.970, 127.952, 500.0, 1.41),
)
CARRIER_HZ = 300_000.0
C_M = 22.15
REF_FIELD_DBUV_M = 109.5
ATTEN_DB_PER_KM = 0.03
NOISE_DBUV_M = 40.0
THRESHOLD_DB = -15.0
PGM_CLIP_M = 50.0
CONTOUR_LIMIT_M = 10.0

# Per-size make-up of each workload; "small" runs the same code path fast.
SIZES = {
    "full": {
        "grid_step_deg": 0.01,  # 601 x 601 cells
        "records_per_station": (60_013, 60_029, 60_007),
        "window_len": 40,
        "lattice_nodes_per_axis": 301,
        "track_points": 3000,
    },
    "small": {
        "grid_step_deg": 0.1,  # 61 x 61 cells
        "records_per_station": (2_013, 2_029, 2_007),
        "window_len": 40,
        "lattice_nodes_per_axis": 31,
        "track_points": 200,
    },
}
GRID_EXTENT = (33.0, 39.0, 123.0, 129.0)  # lat_min, lat_max, lon_min, lon_max
LATTICE_EXTENT = (32.0, 40.0, 122.0, 132.0)
LATTICE_NOISE_DBUV_M = 50.0  # raised so the track leaves coverage inside the lattice
TRACK_START = (36.8, 126.8)  # inside the station triangle
TRACK_END = (32.4, 122.4)  # past the -15 dB range of every station


@dataclass
class Inputs:
    spec: dict  # what the worker needs: file names relative to the work directory
    expect: dict  # what the checks need: the generated values themselves
    sizes: dict = field(default_factory=dict)  # input sizes, under their per-layer metric names


def _stations_yaml(jitters):
    lines = ["stations:"]
    for (sid, lat, lon, power, _), j in zip(STATIONS, jitters):
        lines += [
            f"  - id: {sid}",
            f"    lat_deg: {lat!r}",
            f"    lon_deg: {lon!r}",
            f"    power_w: {power!r}",
            f"    carrier_hz: {CARRIER_HZ!r}",
            f"    jitter_m: {float(j)!r}",
        ]
    return lines


def _write(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _coverage_map(rng, size, work: Path) -> Inputs:
    # the seed moves the model parameters a little; geometry and masks stay put
    jitters = np.array([s[4] for s in STATIONS]) + rng.uniform(0.0, 0.2, len(STATIONS))
    c_m = C_M * rng.uniform(0.97, 1.03)
    lat_min, lat_max, lon_min, lon_max = GRID_EXTENT
    step = size["grid_step_deg"]
    lines = _stations_yaml(jitters) + [
        "model:",
        f"  c_m: {c_m!r}",
        "propagation:",
        "  kind: parametric",
        f"  ref_field_dbuv_m: {REF_FIELD_DBUV_M!r}",
        f"  atten_db_per_km: {ATTEN_DB_PER_KM!r}",
        "noise:",
        f"  level_dbuv_m: {NOISE_DBUV_M!r}",
        f"snr_threshold_db: {THRESHOLD_DB!r}",
        "grid:",
        f"  lat_min: {lat_min!r}",
        f"  lat_max: {lat_max!r}",
        f"  lon_min: {lon_min!r}",
        f"  lon_max: {lon_max!r}",
        f"  step_deg: {step!r}",
        "outputs:",
        "  coverage_csv: out/coverage.csv",
        "  coverage_pgm: out/coverage.pgm",
        f"  pgm_clip_m: {PGM_CLIP_M!r}",
        "  contour_csv: out/contour.csv",
        f"  contour_limit_m: {CONTOUR_LIMIT_M!r}",
    ]
    _write(work / "coverage.yaml", lines)
    n_lat = round((lat_max - lat_min) / step) + 1
    n_lon = round((lon_max - lon_min) / step) + 1
    expect = {
        "jitters": jitters,
        "c_m": c_m,
        "lat_nodes": lat_min + np.arange(n_lat) * step,
        "lon_nodes": lon_min + np.arange(n_lon) * step,
    }
    return Inputs({"config": "coverage.yaml"}, expect)


def _fit_logs(rng, size, work: Path) -> Inputs:
    window_len = size["window_len"]
    wavelength = reference.SPEED_OF_LIGHT_M_S / CARRIER_HZ
    logs, series = [], {}
    (work / "logs").mkdir()
    for (sid, *_, jitter), n in zip(STATIONS, size["records_per_station"]):
        n_windows = -(-n // window_len)
        window_snr_db = np.repeat(rng.uniform(-5.0, 30.0, n_windows), window_len)[:n]
        snr_db = window_snr_db + rng.normal(0.0, 0.3, n)
        sigma_m = np.sqrt(reference.sigma2_m2(window_snr_db, jitter, C_M))
        # a carrier phase near +-pi makes the receiver's wrapping jump often
        offset = np.pi - rng.uniform(0.0, 0.2)
        phase = offset + rng.normal(0.0, 1.0, n) * sigma_m * (2 * np.pi / wavelength)
        wrapped = np.mod(phase + np.pi, 2 * np.pi) - np.pi
        t = np.arange(n) * 0.1
        name = f"logs/{sid}.csv"
        _write(
            work / name,
            ["timestamp,station_id,phase_rad,snr_db"]
            + [f"{a!r},{sid},{b!r},{c!r}" for a, b, c in zip(t.tolist(), wrapped.tolist(), snr_db.tolist())],
        )
        logs.append(name)
        series[sid] = (wrapped, snr_db)
    lines = _stations_yaml([s[4] for s in STATIONS]) + [
        "model:",
        f"  c_m: {C_M!r}",
        "noise:",
        f"  level_dbuv_m: {NOISE_DBUV_M!r}",
        "fit:",
        f"  window_len: {window_len}",
        "  detrend: none",
        "  trim_fraction: 0.0",
        "outputs:",
        "  fit_report_csv: out/fit_report.csv",
        "  params_yaml: out/fitted_params.yaml",
    ]
    _write(work / "fit.yaml", lines)
    windows = {
        sid: reference.window_variance(phase, snr, window_len, wavelength)
        for sid, (phase, snr) in series.items()
    }
    a, y = reference.fit_design(windows)
    np.save(work / "design_a.npy", a)
    np.save(work / "design_y.npy", y)
    spec = {"config": "fit.yaml", "logs": logs, "design": ["design_a.npy", "design_y.npy"]}
    expect = {"windows": windows, "records": dict(zip([s[0] for s in STATIONS], size["records_per_station"])),
              "window_len": window_len}
    sizes = {
        "ingest.records": sum(size["records_per_station"]),
        "ingest.log_bytes": sum((work / name).stat().st_size for name in logs),
    }
    return Inputs(spec, expect, sizes)


def _ripple(rng, lat2, lon2, amplitude_db):
    """A smooth seeded terrain-like ripple the parametric model cannot express."""
    out = np.zeros_like(lat2)
    for _ in range(3):
        f_lat, f_lon = rng.uniform(0.2, 0.8, 2)
        out += amplitude_db / 3 * np.sin(2 * np.pi * (f_lat * lat2 + f_lon * lon2) + rng.uniform(0, 2 * np.pi))
    return out


def _write_lattice(path: Path, lat_axis, lon_axis, values) -> None:
    lines = ["lat_deg,lon_deg,value_dbuv_m"]
    for lat, row in zip(lat_axis.tolist(), values.tolist()):
        lines += [f"{lat!r},{lon!r},{v!r}" for lon, v in zip(lon_axis.tolist(), row)]
    _write(path, lines)


def track_points(n):
    """A fixed track from inside the station triangle out past coverage."""
    s = np.linspace(0.0, 1.0, n)
    wobble = 0.05 * np.sin(6 * np.pi * s)
    lat = TRACK_START[0] + s * (TRACK_END[0] - TRACK_START[0]) + wobble
    lon = TRACK_START[1] + s * (TRACK_END[1] - TRACK_START[1]) - wobble
    return lat, lon


def _track_field_grids(rng, size, work: Path) -> Inputs:
    n = size["lattice_nodes_per_axis"]
    lat_axis = np.linspace(LATTICE_EXTENT[0], LATTICE_EXTENT[1], n)
    lon_axis = np.linspace(LATTICE_EXTENT[2], LATTICE_EXTENT[3], n)
    lat2, lon2 = np.meshgrid(lat_axis, lon_axis, indexing="ij")
    lattices, files = {}, {}
    for sid, lat, lon, power, _ in STATIONS:
        d_m = np.maximum(reference.great_circle_m(lat, lon, lat2, lon2), 1000.0)
        lattices[sid] = reference.parametric_field_dbuv_m(d_m, power, REF_FIELD_DBUV_M, ATTEN_DB_PER_KM) + _ripple(
            rng, lat2, lon2, 2.0
        )
    lattices["noise"] = LATTICE_NOISE_DBUV_M + _ripple(rng, lat2, lon2, 3.0)
    for name, values in lattices.items():
        files[name] = f"lattice_{name}.csv"
        _write_lattice(work / files[name], lat_axis, lon_axis, values)
    lines = _stations_yaml([s[4] for s in STATIONS]) + [
        "model:",
        f"  c_m: {C_M!r}",
        "propagation:",
        "  kind: grid",
        "  grids:",
        *[f"    {sid}: {files[sid]}" for sid, *_ in STATIONS],
        "noise:",
        f"  grid: {files['noise']}",
        f"snr_threshold_db: {THRESHOLD_DB!r}",
    ]
    _write(work / "track.yaml", lines)
    lat, lon = track_points(size["track_points"])
    np.save(work / "track.npy", np.stack([lat, lon]))
    spec = {"config": "track.yaml", "lattices": files, "points": "track.npy"}
    expect = {"lat_axis": lat_axis, "lon_axis": lon_axis, "lattices": lattices, "lat": lat, "lon": lon}
    return Inputs(spec, expect, {"propagation.lattice_nodes": len(lattices) * n * n})


def make_inputs(workload: str, seed: int, size: str, work: Path) -> Inputs:
    """Write one workload's inputs into ``work``; the same seed gives the same files."""
    make = {"coverage-map": _coverage_map, "fit-logs": _fit_logs, "track-field-grids": _track_field_grids}[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inputs = make(rng, SIZES[size], work)
    (work / "spec.json").write_text(json.dumps(dict(inputs.spec, workload=workload)), encoding="utf-8")
    return inputs
