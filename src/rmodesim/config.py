"""Run configuration: one YAML file describing a complete scenario.

Everything a run needs lives in the file: stations, model parameters,
propagation and noise specs, SNR threshold, sweep grid, fit options,
and output paths. Validation is total and happens at load; a config
either fails fast with a ConfigError naming the offending key or the
run proceeds without configuration surprises. Relative paths resolve
against the config file's directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .coverage import GridSpec
from .errors import ConfigError, RmodeError
from .geodesy import GeoPoint
from .ingest import DEFAULT_WINDOW_LEN
from .propagation import (
    DEFAULT_ATTEN_DB_PER_KM,
    DEFAULT_REF_FIELD_DBUV_M,
    FieldGrid,
    GridPropagation,
    NoiseSpec,
    ParametricPropagation,
    PropagationSpec,
    TransmitterStation,
    load_field_grid,
)
from .variance_model import ModelParams

DEFAULT_SNR_THRESHOLD_DB = -15.0


@dataclass(frozen=True)
class FitOptions:
    window_len: int
    detrend: str
    trim_fraction: float


@dataclass(frozen=True)
class OutputPaths:
    """Output file names; resolved against the config directory when relative."""

    coverage_csv: str
    coverage_pgm: str
    pgm_clip_m: float
    contour_csv: str | None
    contour_limit_m: float
    fit_report_csv: str
    params_yaml: str


@dataclass
class RunConfig:
    stations: list[TransmitterStation]
    params: ModelParams
    propagation: PropagationSpec
    noise: NoiseSpec
    snr_threshold_db: float
    grid: GridSpec | None
    fit: FitOptions
    outputs: OutputPaths
    base_dir: Path = field(default_factory=Path)

    def resolve(self, name: str) -> Path:
        p = Path(name)
        return p if p.is_absolute() else self.base_dir / p


class _Section:
    """A mapping wrapper that tracks key usage and reports typos."""

    def __init__(self, data, where: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
        self.data = data
        self.where = where
        self.seen: set[str] = set()

    def get(self, key, default=None, required=False):
        self.seen.add(key)
        if key not in self.data:
            if required:
                raise ConfigError(f"{self.where}: missing required key {key!r}")
            return default
        return self.data[key]

    def number(self, key, default=None, required=False):
        v = self.get(key, default, required)
        if v is None:
            return None
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{self.where}.{key}: expected a number, got {v!r}")
        if not math.isfinite(v):
            raise ConfigError(f"{self.where}.{key}: expected a finite number, got {v!r}")
        return float(v)

    def finish(self):
        unknown = set(self.data) - self.seen
        if unknown:
            raise ConfigError(f"{self.where}: unknown keys {sorted(unknown)}")


def _load_grid_file(base_dir: Path, where: str, name) -> FieldGrid:
    if not isinstance(name, str):
        raise ConfigError(f"{where}: expected a file path string, got {name!r}")
    path = Path(name)
    if not path.is_absolute():
        path = base_dir / path
    if not path.exists():
        raise ConfigError(f"{where}: file not found: {path}")
    try:
        return load_field_grid(path)
    except (RmodeError, ValueError) as exc:
        raise ConfigError(f"{where}: {path}: {exc}") from exc


def load_config(path) -> RunConfig:
    """Load and fully validate a run configuration."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as f:
        try:
            raw = yaml.safe_load(f)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    base_dir = path.parent
    top = _Section(raw, str(path))

    stations_raw = top.get("stations", required=True)
    if not isinstance(stations_raw, list) or not stations_raw:
        raise ConfigError("stations: expected a non-empty list")
    stations = []
    jitter_m = {}
    for n, entry in enumerate(stations_raw):
        sec = _Section(entry, f"stations[{n}]")
        sid = sec.get("id", required=True)
        if not isinstance(sid, str) or not sid:
            raise ConfigError(f"stations[{n}].id: expected a non-empty string")
        if sid == "C":
            raise ConfigError(f"stations[{n}].id: 'C' is reserved for the shared constant's row in the fit report")
        try:
            position = GeoPoint(sec.number("lat_deg", required=True), sec.number("lon_deg", required=True))
            power_w = sec.number("power_w", required=True)
            carrier_hz = sec.number("carrier_hz", required=True)
            jitter = sec.number("jitter_m", 0.0)
            stations.append(TransmitterStation(sid, position, power_w, carrier_hz))
            if jitter < 0.0:
                raise ValueError(f"jitter_m must be >= 0, got {jitter}")
        except ValueError as exc:
            raise ConfigError(f"stations[{n}]: {exc}") from exc
        jitter_m[sid] = jitter
        sec.finish()
    ids = [tx.station_id for tx in stations]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ConfigError(f"stations: duplicate ids {dupes}")

    model = _Section(top.get("model", required=True), "model")
    try:
        params = ModelParams(jitter_m=jitter_m, c_m=model.number("c_m", required=True))
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    model.finish()

    prop_sec = _Section(top.get("propagation", {"kind": "parametric"}), "propagation")
    kind = prop_sec.get("kind", "parametric")
    if kind == "parametric":
        try:
            propagation: PropagationSpec = ParametricPropagation(
                ref_field_dbuv_m=prop_sec.number("ref_field_dbuv_m", DEFAULT_REF_FIELD_DBUV_M),
                atten_db_per_km=prop_sec.number("atten_db_per_km", DEFAULT_ATTEN_DB_PER_KM),
            )
        except ValueError as exc:
            raise ConfigError(f"propagation: {exc}") from exc
    elif kind == "grid":
        grids_raw = prop_sec.get("grids", required=True)
        if not isinstance(grids_raw, dict):
            raise ConfigError("propagation.grids: expected a mapping of station id to path")
        missing = [i for i in ids if i not in grids_raw]
        if missing:
            raise ConfigError(f"propagation.grids: no grid for stations {missing}")
        unknown = [k for k in grids_raw if k not in ids]
        if unknown:
            raise ConfigError(f"propagation.grids: unknown stations {sorted(unknown)}")
        propagation = GridPropagation(
            grids={
                sid: _load_grid_file(base_dir, f"propagation.grids.{sid}", p)
                for sid, p in grids_raw.items()
            }
        )
    else:
        raise ConfigError(f"propagation.kind: expected 'parametric' or 'grid', got {kind!r}")
    prop_sec.finish()

    noise_sec = _Section(top.get("noise", required=True), "noise")
    level = noise_sec.number("level_dbuv_m")
    noise_grid_path = noise_sec.get("grid")
    if (level is None) == (noise_grid_path is None):
        raise ConfigError("noise: set exactly one of level_dbuv_m or grid")
    try:
        noise = NoiseSpec(
            season_label=str(noise_sec.get("season", "Averaged")),
            percentile=noise_sec.number("percentile", 0.95),
            level_dbuv_m=level,
            grid=None
            if noise_grid_path is None
            else _load_grid_file(base_dir, "noise.grid", noise_grid_path),
        )
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc
    noise_sec.finish()

    snr_threshold_db = top.number("snr_threshold_db", DEFAULT_SNR_THRESHOLD_DB)

    grid = None
    grid_raw = top.get("grid")
    if grid_raw is not None:
        gsec = _Section(grid_raw, "grid")
        try:
            grid = GridSpec(
                lat_min=gsec.number("lat_min", required=True),
                lat_max=gsec.number("lat_max", required=True),
                lon_min=gsec.number("lon_min", required=True),
                lon_max=gsec.number("lon_max", required=True),
                step_deg=gsec.number("step_deg", required=True),
            )
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc
        gsec.finish()

    fit_sec = _Section(top.get("fit", {}), "fit")
    window_len = fit_sec.get("window_len", DEFAULT_WINDOW_LEN)
    if not isinstance(window_len, int) or isinstance(window_len, bool) or window_len < 2:
        raise ConfigError(f"fit.window_len: expected an integer >= 2, got {window_len!r}")
    detrend = fit_sec.get("detrend", "none")
    if detrend not in ("none", "linear"):
        raise ConfigError(f"fit.detrend: expected 'none' or 'linear', got {detrend!r}")
    trim = fit_sec.number("trim_fraction", 0.0)
    if not 0.0 <= trim < 1.0:
        raise ConfigError(f"fit.trim_fraction: expected a fraction in [0, 1), got {trim}")
    fit = FitOptions(window_len=window_len, detrend=detrend, trim_fraction=trim)
    fit_sec.finish()

    out_sec = _Section(top.get("outputs", {}), "outputs")
    contour_csv = out_sec.get("contour_csv")
    if contour_csv is not None and not isinstance(contour_csv, str):
        raise ConfigError(f"outputs.contour_csv: expected a path string, got {contour_csv!r}")
    outputs = OutputPaths(
        coverage_csv=str(out_sec.get("coverage_csv", "coverage.csv")),
        coverage_pgm=str(out_sec.get("coverage_pgm", "coverage.pgm")),
        pgm_clip_m=out_sec.number("pgm_clip_m", 50.0),
        contour_csv=contour_csv,
        contour_limit_m=out_sec.number("contour_limit_m", 10.0),
        fit_report_csv=str(out_sec.get("fit_report_csv", "fit_report.csv")),
        params_yaml=str(out_sec.get("params_yaml", "fitted_params.yaml")),
    )
    if outputs.pgm_clip_m <= 0.0:
        raise ConfigError(f"outputs.pgm_clip_m: must be > 0, got {outputs.pgm_clip_m}")
    if outputs.contour_limit_m <= 0.0:
        raise ConfigError(f"outputs.contour_limit_m: must be > 0, got {outputs.contour_limit_m}")
    out_sec.finish()

    top.finish()

    if grid is not None:
        lattices = dict(propagation.grids) if isinstance(propagation, GridPropagation) else {}
        if noise.grid is not None:
            lattices["noise.grid"] = noise.grid
        for name, lattice in lattices.items():
            if (
                lattice.lat_deg[0] > grid.lat_min
                or lattice.lat_deg[-1] < grid.lat_max
                or lattice.lon_deg[0] > grid.lon_min
                or lattice.lon_deg[-1] < grid.lon_max
            ):
                raise ConfigError(
                    f"lattice {name!r} does not cover the sweep grid "
                    f"(lat {grid.lat_min}..{grid.lat_max}, lon {grid.lon_min}..{grid.lon_max})"
                )

    return RunConfig(
        stations=stations,
        params=params,
        propagation=propagation,
        noise=noise,
        snr_threshold_db=snr_threshold_db,
        grid=grid,
        fit=fit,
        outputs=outputs,
        base_dir=base_dir,
    )
