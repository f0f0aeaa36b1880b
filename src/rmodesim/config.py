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
from dataclasses import dataclass
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
    base_dir: Path

    def resolve(self, name: str) -> Path:
        return self.base_dir / name  # an absolute name replaces base_dir


class _Section:
    """One config mapping, read key by key in a ``with`` block.

    Each key is read by name through the accessor for its kind; a null
    stands for "unset" only where a key is optional and has no default.
    A ValueError or toolkit error raised in the block, such as a
    constructor's own check or a lattice's ParseError, becomes a
    ConfigError naming the section. A clean exit rejects every key the
    block never read. A key's own errors name it as ``where.key``, or
    as ``key`` alone where ``where`` is the config file.
    """

    def __init__(self, data, where: str, top: bool = False):
        if not isinstance(data, dict):
            raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
        self.data = data
        self.where = where
        self.prefix = "" if top else f"{where}."
        self.seen: set = set()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is None:
            unknown = set(self.data) - self.seen
            if unknown:  # YAML keys need not share a type, so sort by their text
                raise ConfigError(f"{self.where}: unknown keys {sorted(unknown, key=str)}")
        elif isinstance(exc, (ValueError, RmodeError)) and not isinstance(exc, ConfigError):
            raise ConfigError(f"{self.where}: {exc}") from exc

    def get(self, key, default=None, required=False):
        self.seen.add(key)
        if key not in self.data:
            if required:
                raise ConfigError(f"{self.where}: missing required key {key!r}")
            return default
        return self.data[key]

    def number(self, key, default=None, required=False):
        v = self.get(key, default, required)
        if v is None and default is None and not required:
            return None
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{self.prefix}{key}: expected a number, got {v!r}")
        try:
            x = float(v)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if not math.isfinite(x):
            raise ConfigError(f"{self.prefix}{key}: expected a finite number, got {v!r}")
        return x

    def string(self, key, default=None, required=False):
        v = self.get(key, default, required)
        if v is None and default is None and not required:
            return None
        if not isinstance(v, str) or not v:
            raise ConfigError(f"{self.prefix}{key}: expected a non-empty string, got {v!r}")
        return v


def _load_grid_file(sec: _Section, key: str, base_dir: Path) -> FieldGrid:
    path = base_dir / sec.string(key, required=True)
    if not path.is_file():
        raise ConfigError(f"{sec.prefix}{key}: file not found: {path}")
    with _Section({}, f"{sec.prefix}{key}: {path}"):  # reads no keys; names the lattice's errors
        return load_field_grid(path)


def load_config(path) -> RunConfig:
    """Load and fully validate a run configuration."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as f:
        try:
            raw = yaml.safe_load(f)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    base_dir = path.parent

    with _Section(raw, str(path), top=True) as top:
        stations_raw = top.get("stations", required=True)
        if not isinstance(stations_raw, list) or not stations_raw:
            raise ConfigError("stations: expected a non-empty list")
        stations = []
        jitter_m = {}
        for n, entry in enumerate(stations_raw):
            with _Section(entry, f"stations[{n}]") as sec:
                sid = sec.string("id", required=True)
                if sid == "C":
                    raise ConfigError(f"stations[{n}].id: 'C' is reserved for the shared constant's row in the fit report")
                position = GeoPoint(sec.number("lat_deg", required=True), sec.number("lon_deg", required=True))
                power_w = sec.number("power_w", required=True)
                carrier_hz = sec.number("carrier_hz", required=True)
                jitter = jitter_m[sid] = sec.number("jitter_m", 0.0)
                stations.append(TransmitterStation(sid, position, power_w, carrier_hz))
                if jitter < 0.0:
                    raise ValueError(f"jitter_m must be >= 0, got {jitter}")
        ids = [tx.station_id for tx in stations]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ConfigError(f"stations: duplicate ids {dupes}")

        with _Section(top.get("model", required=True), "model") as model:
            params = ModelParams(jitter_m=jitter_m, c_m=model.number("c_m", required=True))

        with _Section(top.get("propagation", {"kind": "parametric"}), "propagation") as prop:
            kind = prop.get("kind", "parametric")
            if kind == "parametric":
                propagation: PropagationSpec = ParametricPropagation(
                    ref_field_dbuv_m=prop.number("ref_field_dbuv_m", DEFAULT_REF_FIELD_DBUV_M),
                    atten_db_per_km=prop.number("atten_db_per_km", DEFAULT_ATTEN_DB_PER_KM),
                )
            elif kind == "grid":
                with _Section(prop.get("grids", required=True), "propagation.grids") as grids:
                    missing = [i for i in ids if i not in grids.data]
                    if missing:
                        raise ConfigError(f"propagation.grids: no grid for stations {missing}")
                    propagation = GridPropagation(grids={sid: _load_grid_file(grids, sid, base_dir) for sid in ids})
            else:
                raise ConfigError(f"propagation.kind: expected 'parametric' or 'grid', got {kind!r}")

        with _Section(top.get("noise", required=True), "noise") as noise_sec:
            level = noise_sec.number("level_dbuv_m")
            # checked before NoiseSpec does, so that a lattice is loaded only when it is the one source
            if (level is None) == (noise_sec.get("grid") is None):
                raise ConfigError("noise: set exactly one of level_dbuv_m or grid")
            noise = NoiseSpec(
                level_dbuv_m=level,
                grid=None if level is not None else _load_grid_file(noise_sec, "grid", base_dir),
            )

        snr_threshold_db = top.number("snr_threshold_db", DEFAULT_SNR_THRESHOLD_DB)

        grid = None
        grid_raw = top.get("grid")
        if grid_raw is not None:
            with _Section(grid_raw, "grid") as gsec:
                keys = ("lat_min", "lat_max", "lon_min", "lon_max", "step_deg")
                grid = GridSpec(**{key: gsec.number(key, required=True) for key in keys})

        with _Section(top.get("fit", {}), "fit") as fit_sec:
            window_len = fit_sec.get("window_len", DEFAULT_WINDOW_LEN)
            if not isinstance(window_len, int) or isinstance(window_len, bool) or window_len < 2:
                raise ConfigError(f"fit.window_len: expected an integer >= 2, got {window_len!r}")
            detrend = fit_sec.get("detrend", "none")
            if detrend not in ("none", "linear"):
                raise ConfigError(f"fit.detrend: expected 'none' or 'linear', got {detrend!r}")
            if detrend == "linear" and window_len < 3:
                raise ConfigError(f"fit.window_len: linear detrend needs an integer >= 3, got {window_len}")
            trim = fit_sec.number("trim_fraction", 0.0)
            if not 0.0 <= trim < 1.0:
                raise ConfigError(f"fit.trim_fraction: expected a fraction in [0, 1), got {trim}")
            fit = FitOptions(window_len=window_len, detrend=detrend, trim_fraction=trim)

        with _Section(top.get("outputs", {}), "outputs") as out_sec:
            outputs = OutputPaths(
                coverage_csv=out_sec.string("coverage_csv", "coverage.csv"),
                coverage_pgm=out_sec.string("coverage_pgm", "coverage.pgm"),
                pgm_clip_m=out_sec.number("pgm_clip_m", 50.0),
                contour_csv=out_sec.string("contour_csv"),
                contour_limit_m=out_sec.number("contour_limit_m", 10.0),
                fit_report_csv=out_sec.string("fit_report_csv", "fit_report.csv"),
                params_yaml=out_sec.string("params_yaml", "fitted_params.yaml"),
            )
            if outputs.pgm_clip_m <= 0.0:
                raise ConfigError(f"outputs.pgm_clip_m: must be > 0, got {outputs.pgm_clip_m}")
            if outputs.contour_limit_m <= 0.0:
                raise ConfigError(f"outputs.contour_limit_m: must be > 0, got {outputs.contour_limit_m}")

    if grid is not None:
        lattices = dict(propagation.grids) if isinstance(propagation, GridPropagation) else {}
        if noise.grid is not None:
            lattices["noise.grid"] = noise.grid
        for name, lattice in lattices.items():
            with _Section({}, f"lattice {name!r} does not cover the sweep grid"):
                lattice.value_at([grid.lat_min, grid.lat_max], [grid.lon_min, grid.lon_max])

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
