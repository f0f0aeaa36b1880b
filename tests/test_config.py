import re

import numpy as np
import pytest

from rmodesim import load_config, write_field_grid
from rmodesim.errors import ConfigError
from rmodesim.propagation import FieldGrid, GridPropagation, ParametricPropagation


def test_valid_config_loads(config_factory):
    cfg = load_config(config_factory())
    assert [tx.station_id for tx in cfg.stations] == ["s0", "s1", "s2"]
    assert cfg.params.c_m == 22.15
    assert isinstance(cfg.propagation, ParametricPropagation)
    assert cfg.noise.level_dbuv_m == 40.0
    assert cfg.snr_threshold_db == -15.0
    assert cfg.grid.step_deg == 0.25
    assert cfg.fit.window_len == 100


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/run.yaml")


def test_duplicate_station_ids(config_factory):
    def mutate(cfg):
        cfg["stations"][1]["id"] = "s0"

    with pytest.raises(ConfigError, match="duplicate"):
        load_config(config_factory(mutate=mutate))


def test_unknown_top_level_key(config_factory):
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(config_factory(overrides={"grdi": {}}))


def test_unknown_station_key(config_factory):
    def mutate(cfg):
        cfg["stations"][0]["powre_w"] = 100.0

    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(config_factory(mutate=mutate))


def test_station_value_validation(config_factory):
    def mutate(cfg):
        cfg["stations"][0]["power_w"] = -5.0

    with pytest.raises(ConfigError, match=r"stations\[0\]"):
        load_config(config_factory(mutate=mutate))


def test_missing_required_key(config_factory):
    def mutate(cfg):
        del cfg["model"]

    with pytest.raises(ConfigError, match="model"):
        load_config(config_factory(mutate=mutate))


def test_noise_needs_exactly_one_source(config_factory):
    def mutate(cfg):
        cfg["noise"] = {"level_dbuv_m": 40.0, "grid": "noise.csv"}

    with pytest.raises(ConfigError, match="exactly one"):
        load_config(config_factory(mutate=mutate))


def test_grid_section_optional(config_factory):
    def mutate(cfg):
        del cfg["grid"]

    cfg = load_config(config_factory(mutate=mutate))
    assert cfg.grid is None


def test_non_numeric_rejected(config_factory):
    def mutate(cfg):
        cfg["snr_threshold_db"] = "loud"

    with pytest.raises(ConfigError, match="expected a number"):
        load_config(config_factory(mutate=mutate))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_number_rejected(config_factory, value):
    def mutate(cfg):
        cfg["noise"]["level_dbuv_m"] = value

    with pytest.raises(ConfigError, match=r"noise\.level_dbuv_m: expected a finite number"):
        load_config(config_factory(mutate=mutate))


def test_integer_beyond_float_range_rejected(config_factory):
    def mutate(cfg):
        cfg["model"]["c_m"] = 10**400

    with pytest.raises(ConfigError, match=r"^model\.c_m: expected a finite number, got 10{400}$"):
        load_config(config_factory(mutate=mutate))


@pytest.mark.parametrize("key, value", [("lat_max", 95.0), ("lat_min", -90.5), ("lon_max", 180.5)])
def test_grid_outside_geographic_ranges_rejected(config_factory, key, value):
    def mutate(cfg):
        cfg["grid"].update({"lat_min": 35.0, "lat_max": 37.0, "lon_min": 126.0, "lon_max": 128.0})
        cfg["grid"][key] = value

    with pytest.raises(ConfigError, match="grid"):
        load_config(config_factory(mutate=mutate))


def test_grid_propagation_loads_lattices(config_factory, tmp_path):
    grid = FieldGrid([34.0, 38.0], [125.0, 129.0], np.full((2, 2), 60.0))
    for sid in ("s0", "s1", "s2"):
        write_field_grid(grid, tmp_path / f"{sid}.csv")

    def mutate(cfg):
        cfg["propagation"] = {
            "kind": "grid",
            "grids": {sid: f"{sid}.csv" for sid in ("s0", "s1", "s2")},
        }

    cfg = load_config(config_factory(mutate=mutate))
    assert isinstance(cfg.propagation, GridPropagation)
    assert cfg.propagation.grids["s1"].value_at(36.0, 127.0) == 60.0


def test_grid_propagation_missing_station(config_factory, tmp_path):
    grid = FieldGrid([34.0, 38.0], [125.0, 129.0], np.full((2, 2), 60.0))
    write_field_grid(grid, tmp_path / "s0.csv")

    def mutate(cfg):
        cfg["propagation"] = {"kind": "grid", "grids": {"s0": "s0.csv"}}

    with pytest.raises(ConfigError, match="no grid for stations"):
        load_config(config_factory(mutate=mutate))


def test_lattice_must_cover_sweep_grid(config_factory, tmp_path):
    small = FieldGrid([35.5, 36.5], [126.5, 127.5], np.full((2, 2), 60.0))
    write_field_grid(small, tmp_path / "small.csv")
    write_field_grid(FieldGrid([34.0, 38.0], [125.0, 129.0], np.full((2, 2), 60.0)), tmp_path / "wide.csv")
    sections = {
        "noise.grid": ("noise", {"grid": "small.csv"}),
        "s2": ("propagation", {"kind": "grid", "grids": {"s0": "wide.csv", "s1": "wide.csv", "s2": "small.csv"}}),
    }
    for name, (section, value) in sections.items():
        with pytest.raises(ConfigError) as info:
            load_config(config_factory(mutate=lambda cfg: cfg.update({section: value})))
        assert str(info.value) == (
            f"lattice {name!r} does not cover the sweep grid: "
            "query outside lattice lat [35.5, 36.5], lon [126.5, 127.5]"
        )


def test_grid_propagation_missing_file(config_factory):
    def mutate(cfg):
        cfg["propagation"] = {
            "kind": "grid",
            "grids": {sid: f"{sid}.csv" for sid in ("s0", "s1", "s2")},
        }

    with pytest.raises(ConfigError, match="file not found"):
        load_config(config_factory(mutate=mutate))


def test_noise_grid_loaded(config_factory, tmp_path):
    grid = FieldGrid([34.0, 38.0], [125.0, 129.0], np.array([[40.0, 42.0], [44.0, 46.0]]))
    write_field_grid(grid, tmp_path / "noise.csv")

    def mutate(cfg):
        cfg["noise"] = {"grid": "noise.csv"}

    cfg = load_config(config_factory(mutate=mutate))
    assert cfg.noise.grid is not None
    assert cfg.noise.level_at(34.0, 125.0) == 40.0


def test_relative_outputs_resolve_against_config_dir(config_factory, tmp_path):
    cfg = load_config(config_factory())
    assert cfg.resolve("x/y.csv") == tmp_path / "x" / "y.csv"
    assert str(cfg.resolve("/abs/y.csv")) == "/abs/y.csv"


def test_defaults_applied(config_factory):
    def mutate(cfg):
        del cfg["propagation"]
        del cfg["fit"]
        del cfg["outputs"]
        del cfg["snr_threshold_db"]

    cfg = load_config(config_factory(mutate=mutate))
    assert isinstance(cfg.propagation, ParametricPropagation)
    assert cfg.propagation.ref_field_dbuv_m == 109.5
    assert cfg.snr_threshold_db == -15.0
    assert cfg.fit.window_len == 100
    assert cfg.outputs.coverage_csv == "coverage.csv"


def test_negative_jitter_rejected(config_factory):
    def mutate(cfg):
        cfg["stations"][0]["jitter_m"] = -1.0

    with pytest.raises(ConfigError, match=r"^stations\[0\]: jitter_m must be >= 0, got -1\.0$"):
        load_config(config_factory(mutate=mutate))


def test_station_jitter_seeds_the_model(config_factory):
    def mutate(cfg):
        cfg["stations"][1]["jitter_m"] = 1.41
        del cfg["stations"][2]["jitter_m"]

    cfg = load_config(config_factory(mutate=mutate))
    assert list(cfg.params.jitter_m.items()) == [("s0", 0.0), ("s1", 1.41), ("s2", 0.0)]


def test_reserved_station_id_rejected(config_factory):
    # the fit report's footer row and the fit's stdout name the shared constant C
    def mutate(cfg):
        cfg["stations"][2]["id"] = "C"

    with pytest.raises(ConfigError, match=r"^stations\[2\]\.id: 'C' is reserved"):
        load_config(config_factory(mutate=mutate))


def _lattice(tmp_path, *names):
    grid = FieldGrid([34.0, 38.0], [125.0, 129.0], np.full((2, 2), 60.0))
    for name in names:
        write_field_grid(grid, tmp_path / name)


def _grid_propagation(cfg, **extra):
    cfg["propagation"] = {"kind": "grid", "grids": {sid: f"{sid}.csv" for sid in ("s0", "s1", "s2")}}
    cfg["propagation"]["grids"].update(extra)


def _at(cfg, path):
    """The part of a config dict at the dotted ``path``, list indices as digits; "" is the whole."""
    for part in path.split(".") if path else ():
        cfg = cfg[int(part)] if part.isdigit() else cfg[part]
    return cfg


def _setter(path, value):
    """A config mutation that sets the key at the dotted ``path`` to ``value``."""
    parent, _, key = path.rpartition(".")
    return lambda cfg: _at(cfg, parent).__setitem__(key, value)


KEY_ERRORS = [
    ("model", [22.15], r"^model: expected a mapping, got list$"),
    ("stations", [], r"^stations: expected a non-empty list$"),
    ("stations", {"id": "s0"}, r"^stations: expected a non-empty list$"),
    ("stations.0.id", 5, r"^stations\[0\]\.id: expected a non-empty string"),
    ("stations.0.id", "", r"^stations\[0\]\.id: expected a non-empty string"),
    ("model.c_m", -1.0, r"^model: c_m must be finite and >= 0, got -1\.0$"),
    ("propagation.atten_db_per_km", -0.1, r"^propagation: atten_db_per_km must be >= 0, got -0\.1$"),
    ("propagation.kind", "raytrace", r"^propagation\.kind: expected 'parametric' or 'grid', got 'raytrace'$"),
    ("propagation", {"kind": "grid", "grids": ["s0.csv"]}, r"^propagation\.grids: expected a mapping"),
    ("fit.window_len", 1, r"^fit\.window_len: expected an integer >= 2, got 1$"),
    ("fit.window_len", True, r"^fit\.window_len: expected an integer >= 2, got True$"),
    ("fit.detrend", "quadratic", r"^fit\.detrend: expected 'none' or 'linear', got 'quadratic'$"),
    ("fit", {"window_len": 2, "detrend": "linear"}, r"^fit\.window_len: linear detrend needs an integer >= 3, got 2$"),
    ("fit.trim_fraction", 1.0, r"^fit\.trim_fraction: expected a fraction in \[0, 1\), got 1\.0$"),
    ("outputs.contour_csv", 5, r"^outputs\.contour_csv: expected a .*string, got 5$"),
    ("outputs.pgm_clip_m", 0.0, r"^outputs\.pgm_clip_m: must be > 0, got 0\.0$"),
    ("outputs.contour_limit_m", -1.0, r"^outputs\.contour_limit_m: must be > 0, got -1\.0$"),
]


@pytest.mark.parametrize("path, value, message", KEY_ERRORS, ids=[f"{p}={v!r}" for p, v, _ in KEY_ERRORS])
def test_config_error_names_the_key(config_factory, path, value, message):
    with pytest.raises(ConfigError, match=message):
        load_config(config_factory(mutate=_setter(path, value)))


def test_invalid_yaml_rejected(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("stations: [\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"run\.yaml: invalid YAML: "):
        load_config(path)


def test_unknown_grid_station_rejected(config_factory, tmp_path):
    _lattice(tmp_path, "s0.csv", "s1.csv", "s2.csv")
    with pytest.raises(ConfigError, match=r"^propagation\.grids: unknown \w+ \['s9'\]$"):
        load_config(config_factory(mutate=lambda c: _grid_propagation(c, s9="s0.csv")))


def test_non_string_grid_path_rejected(config_factory, tmp_path):
    _lattice(tmp_path, "s0.csv", "s1.csv", "s2.csv")
    with pytest.raises(ConfigError, match=r"^propagation\.grids\.s1: expected a .*string, got 5$"):
        load_config(config_factory(mutate=lambda c: _grid_propagation(c, s1=5)))


def test_malformed_lattice_names_key_file_and_row(config_factory, tmp_path):
    path = tmp_path / "noise.csv"
    path.write_text("lat_deg,lon_deg,value_dbuv_m\n34.0,125.0,x\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"^noise\.grid: {path}: row 2: non-numeric field"):
        load_config(config_factory(mutate=lambda c: c.update(noise={"grid": "noise.csv"})))


@pytest.mark.parametrize("where", ["", "stations.0", "propagation.grids"], ids=["top", "station", "grids"])
def test_unknown_keys_of_mixed_types_rejected(config_factory, tmp_path, where):
    _lattice(tmp_path, "s0.csv", "s1.csv", "s2.csv")

    def mutate(cfg):
        _grid_propagation(cfg)
        _at(cfg, where).update({1: 2, "grdi": "s0.csv"})

    named = {"": r".*run\.yaml", "stations.0": r"stations\[0\]"}.get(where, re.escape(where))
    with pytest.raises(ConfigError, match=rf"^{named}: unknown keys \[1, 'grdi'\]$"):
        load_config(config_factory(mutate=mutate))


STRING_KEYS = ["outputs.coverage_csv", "outputs.coverage_pgm", "outputs.fit_report_csv", "outputs.params_yaml"]


@pytest.mark.parametrize("value", [None, "", 2024, [1, 2]], ids=["null", "empty", "number", "list"])
@pytest.mark.parametrize("path", STRING_KEYS)
def test_string_key_must_be_a_non_empty_string(config_factory, path, value):
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: expected a non-empty string, got "):
        load_config(config_factory(mutate=_setter(path, value)))


def test_unset_contour_csv_is_no_contour(config_factory):
    cfg = load_config(config_factory(mutate=_setter("outputs.contour_csv", None)))
    assert cfg.outputs.contour_csv is None


NUMBER_KEYS = [
    "stations.0.lat_deg",
    "stations.0.jitter_m",
    "model.c_m",
    "propagation.ref_field_dbuv_m",
    "snr_threshold_db",
    "grid.step_deg",
    "fit.trim_fraction",
    "outputs.pgm_clip_m",
]


@pytest.mark.parametrize("path", NUMBER_KEYS)
def test_null_number_rejected(config_factory, path):
    # a null stands for "unset" only where a key has no default, as noise.level_dbuv_m does
    named = re.escape(path).replace(r"stations\.0", r"stations\[0\]")
    with pytest.raises(ConfigError, match=rf"^{named}: expected a number, got None$"):
        load_config(config_factory(mutate=_setter(path, None)))


def test_directory_is_not_a_file(config_factory, tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        load_config(tmp_path)
    with pytest.raises(ConfigError, match=r"^noise\.grid: file not found: "):
        load_config(config_factory(mutate=lambda c: c.update(noise={"grid": "."})))
