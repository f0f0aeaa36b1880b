"""Runs one workload's operations in a process of its own; started by run.py.

Usage: ``python3 benchmarks/worker.py WORK_DIR {untraced,traced} SECONDS``
with ``PYTHONPATH`` holding the checkout's ``src``. The work directory
holds the generated inputs and ``spec.json``.

Untraced mode runs one discarded warm-up operation, then whole
operations until their summed wall time reaches SECONDS (at least one),
timing each by wall clock and by process CPU time. After every operation
it also times ``import rmodesim`` in a fresh interpreter, so the set-up
samples are spread over the run like the operations. Traced mode makes the same module calls
in the order the CLI makes them, plus the per-module probes, and records
a span (name, start, end, parent) around each call; spans stay in memory
and are written out with the result. After every operation its outputs
are hashed; outputs not seen before are kept for run.py to check, repeats
are deleted. The result goes to ``WORK_DIR/<mode>.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import yaml

import rmodesim
from rmodesim import accuracy, cli, config, coverage, geodesy, ingest, propagation, variance_model
from rmodesim.nnls import nnls  # the package re-exports the function under the module's name


class Tracer:
    """In-memory spans: ``[name, start, end, parent index]``."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()


IMPORT_SNIPPET = "import time; t = time.perf_counter(); import rmodesim; print(time.perf_counter() - t)"


def _import_time() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def _rss_mib() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _points(work: Path, spec):
    lat, lon = np.load(work / spec["points"])
    return list(zip(lat.tolist(), lon.tolist()))


def _save_track(out: Path, cfg, results) -> None:
    """Write the point results and the loaded lattices for run.py to check."""
    out.mkdir(exist_ok=True)
    rows = [[r.accuracy_m, r.usable_count, r.mask_reason] for r in results]
    (out / "points.json").write_text(json.dumps(rows), encoding="utf-8")
    lattices = dict(cfg.propagation.grids, noise=cfg.noise.grid)
    for name, g in lattices.items():
        for part in ("lat_deg", "lon_deg", "values_dbuv_m"):
            np.save(out / f"{name}.{part}.npy", getattr(g, part))


# ---- untraced operations: each returns (exit code, stdout, results to save) --


def op_coverage_map(work, spec, state):
    return *_cli(["coverage", "--config", str(work / spec["config"]), "--threads", "2", "--format", "csv"]), None


def op_fit_logs(work, spec, state):
    logs = [str(work / name) for name in spec["logs"]]
    return *_cli(["fit", "--config", str(work / spec["config"]), *logs, "--format", "csv"]), None


def op_track_field_grids(work, spec, state):
    cfg = config.load_config(work / spec["config"])
    results = [
        accuracy.accuracy_at(
            geodesy.GeoPoint(lat, lon), cfg.stations, cfg.params, cfg.propagation, cfg.noise, cfg.snr_threshold_db
        )
        for lat, lon in state["points"]
    ]
    return 0, "", (cfg, results)


# ---- traced passes: the CLI's calls module by module, then the probes -------


def pass_coverage_map(work, spec, state, tr):
    out = work / "out"
    out.mkdir()
    with tr.span("op"):
        with tr.span("config.load_config"):
            cfg = config.load_config(work / spec["config"])
        args = (cfg.grid, cfg.stations, cfg.params, cfg.propagation, cfg.noise, cfg.snr_threshold_db)
        with tr.span("coverage.compute_coverage"):
            grid = coverage.compute_coverage(*args, threads=2)
        with tr.span("coverage.write_coverage_csv"):
            coverage.write_coverage_csv(grid, cfg.resolve(cfg.outputs.coverage_csv))
        with tr.span("coverage.write_coverage_pgm"):
            coverage.write_coverage_pgm(grid, cfg.resolve(cfg.outputs.coverage_pgm), cfg.outputs.pgm_clip_m)
        with tr.span("coverage.write_contour_csv"):
            coverage.write_contour_csv(grid, cfg.resolve(cfg.outputs.contour_csv), cfg.outputs.contour_limit_m)
        with tr.span("coverage.coverage_summary"):
            coverage.coverage_summary(grid)
    lat2, lon2 = np.meshgrid(grid.lat_deg, grid.lon_deg, indexing="ij")
    with tr.span("propagation.snr_db_at"):
        for tx in cfg.stations:
            propagation.snr_db_at(tx, lat2, lon2, cfg.propagation, cfg.noise)
    with tr.span("geodesy.bearing_rad"):
        for tx in cfg.stations:
            geodesy.bearing_rad(lat2, lon2, tx.position.lat_deg, tx.position.lon_deg)
    with tr.span("coverage.compute_coverage_serial"):
        serial = coverage.compute_coverage(*args, threads=1)
    arrays = {k: v for k, v in vars(grid).items() if isinstance(v, np.ndarray)}
    identical = all(
        v.dtype == getattr(serial, k).dtype and v.shape == getattr(serial, k).shape
        and v.tobytes() == getattr(serial, k).tobytes()
        for k, v in arrays.items()
    )
    return {
        "threads_identical": identical,
        "coverage.grid_bytes_per_cell": sum(v.nbytes for v in arrays.values()) / grid.accuracy_m.size,
    }


def pass_fit_logs(work, spec, state, tr):
    with tr.span("op"):
        with tr.span("config.load_config"):
            cfg = config.load_config(work / spec["config"])
        by_id = {tx.station_id: tx for tx in cfg.stations}
        records = []
        rss0 = _rss_mib()
        for name in spec["logs"]:
            with tr.span("ingest.parse_measurement_file"):
                records.extend(ingest.parse_measurement_file(work / name))
        growth = _rss_mib() - rss0
        with tr.span("ingest.group_by_station"):
            groups = ingest.group_by_station(records)
        samples = []
        for sid in sorted(groups):
            with tr.span("ingest.window_variance"):
                samples.extend(
                    ingest.window_variance(
                        groups[sid], window_len=cfg.fit.window_len,
                        wavelength_m=by_id[sid].wavelength_m, detrend=cfg.fit.detrend,
                    )
                )
        with tr.span("variance_model.fit_params"):
            params, report = variance_model.fit_params(samples, trim_fraction=cfg.fit.trim_fraction)
        report_path = cfg.resolve(cfg.outputs.fit_report_csv)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        with tr.span("variance_model.write_fit_report_csv"):
            variance_model.write_fit_report_csv(params, report, report_path)
        with open(cfg.resolve(cfg.outputs.params_yaml), "w", encoding="utf-8") as f:
            yaml.safe_dump(
                {"jitter_m": {k: float(v) for k, v in sorted(params.jitter_m.items())}, "c_m": float(params.c_m)},
                f, sort_keys=False,
            )
    del records, groups, samples
    with tr.span("nnls.nnls"):
        nnls(state["design_a"], state["design_y"])
    return {"ingest.parse_rss_growth_mb": growth}


def pass_track_field_grids(work, spec, state, tr):
    for name in spec["lattices"].values():
        with tr.span("propagation.load_field_grid"):
            propagation.load_field_grid(work / name)
    with tr.span("op"):
        with tr.span("config.load_config"):
            cfg = config.load_config(work / spec["config"])
        results = []
        for lat, lon in state["points"]:
            with tr.span("accuracy.accuracy_at"):
                results.append(
                    accuracy.accuracy_at(
                        geodesy.GeoPoint(lat, lon), cfg.stations, cfg.params, cfg.propagation, cfg.noise,
                        cfg.snr_threshold_db,
                    )
                )
    for lat, lon in state["points"]:
        p = geodesy.GeoPoint(lat, lon)
        for tx in cfg.stations:
            with tr.span("propagation.snr_at"):
                propagation.snr_at(tx, p, cfg.propagation, cfg.noise)
    _save_track(work / "out", cfg, results)
    return {}


OPS = {"coverage-map": op_coverage_map, "fit-logs": op_fit_logs, "track-field-grids": op_track_field_grids}
PASSES = {"coverage-map": pass_coverage_map, "fit-logs": pass_fit_logs, "track-field-grids": pass_track_field_grids}


def _digest(out: Path, rc: int, stdout: str) -> str:
    h = hashlib.sha256(f"{rc}\n{stdout}".encode())
    if out.is_dir():
        for p in sorted(out.iterdir()):
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def main(work: Path, mode: str, seconds: float) -> None:
    spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))
    workload = spec["workload"]
    state = {}
    if "points" in spec:
        state["points"] = _points(work, spec)
    if "design" in spec:
        state["design_a"], state["design_y"] = (np.load(work / name) for name in spec["design"])
    out, kept = work / "out", work / f"kept_{mode}"
    kept.mkdir()
    seen = set()
    ops, setup = [], []
    measured = 0.0
    while not ops or measured < seconds:
        shutil.rmtree(out, ignore_errors=True)
        record = {"warm_up": not ops}
        tr = Tracer()
        t0, c0 = time.perf_counter(), time.process_time()
        to_save = None
        try:
            if mode == "traced":
                record["extra"] = PASSES[workload](work, spec, state, tr)
                rc, stdout = 0, ""
            else:
                rc, stdout, to_save = OPS[workload](work, spec, state)
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            rc, stdout = 1, traceback.format_exc()
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = time.process_time() - c0
        if mode == "traced":
            record["spans"] = tr.spans
        if to_save is not None:
            _save_track(out, *to_save)
        digest = _digest(out, rc, stdout)
        record.update(rc=rc, digest=digest)
        if digest not in seen:
            seen.add(digest)
            record.update(stdout=stdout, kept=str(kept / str(len(ops))))
            if out.is_dir():
                out.rename(record["kept"])
        if ops:  # the warm-up is not part of the measured time
            measured += record["wall_s"]
        ops.append(record)
        if mode == "untraced":
            setup.append(_import_time())
    shutil.rmtree(out, ignore_errors=True)
    result = {
        "ops": ops,
        "setup_s": setup,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rmodesim_file": rmodesim.__file__,
    }
    (work / f"{mode}.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(Path(sys.argv[1]), sys.argv[2], float(sys.argv[3]))
