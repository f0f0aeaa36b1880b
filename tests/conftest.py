import math

import pytest
import yaml

from helpers import destination_point


def _station_entries(center_lat=36.0, center_lon=127.0, distance_m=200_000.0):
    entries = []
    for i, bearing in enumerate([15.0, 135.0, 255.0]):
        lat, lon = destination_point(center_lat, center_lon, math.radians(bearing), distance_m)
        entries.append(
            {
                "id": f"s{i}",
                "lat_deg": round(lat, 6),
                "lon_deg": round(lon, 6),
                "power_w": 300.0,
                "carrier_hz": 300000.0,
                "jitter_m": 0.0,
            }
        )
    return entries


def base_config_dict():
    return {
        "stations": _station_entries(),
        "model": {"c_m": 22.15},
        "propagation": {
            "kind": "parametric",
            "ref_field_dbuv_m": 109.5,
            "atten_db_per_km": 0.03,
        },
        "noise": {"level_dbuv_m": 40.0},
        "snr_threshold_db": -15.0,
        "grid": {
            "lat_min": 35.0,
            "lat_max": 37.0,
            "lon_min": 126.0,
            "lon_max": 128.0,
            "step_deg": 0.25,
        },
        "fit": {"window_len": 100, "detrend": "none", "trim_fraction": 0.0},
        "outputs": {
            "coverage_csv": "coverage.csv",
            "coverage_pgm": "coverage.pgm",
            "pgm_clip_m": 50.0,
            "fit_report_csv": "fit_report.csv",
            "params_yaml": "fitted_params.yaml",
        },
    }


@pytest.fixture
def config_factory(tmp_path):
    """Write a config dict (default: a valid 3-station scenario) to YAML."""

    def make(overrides=None, name="run.yaml", mutate=None):
        cfg = base_config_dict()
        if overrides:
            cfg.update(overrides)
        if mutate:
            mutate(cfg)
        path = tmp_path / name
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        return path

    return make
