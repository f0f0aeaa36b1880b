"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from rmodesim import (
    GeoPoint,
    GridSpec,
    ModelParams,
    NoiseSpec,
    ParametricPropagation,
    TransmitterStation,
    accuracy95,
    compute_coverage,
    covariance,
    fit_params,
    window_variance,
)
from rmodesim.ingest import StationLog
from rmodesim.propagation import SPEED_OF_LIGHT_M_S

from helpers import destination_point, mc_wls_horizontal_cov, subprocess_env

REPO_ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIG = REPO_ROOT / "configs" / "korea_mf.yaml"

TRUE_JITTER = {"eocheong": 0.0, "chungju": 1.41, "palmi": 0.0}
TRUE_C = 22.15


def _verdict(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{tail}")
    assert ok, f"{name}{tail}"


def _samples_from(jitter_by_station, c_m, snr_by_station, noise_sigma_frac=0.0, rng=None):
    samples = []
    for sid, j in jitter_by_station.items():
        snrs = snr_by_station[sid]
        s2 = j * j + c_m * c_m / snrs
        if noise_sigma_frac:
            s2 = np.maximum(s2 + rng.normal(0.0, noise_sigma_frac * s2), 0.0)
        samples.extend((sid, float(s), float(v)) for s, v in zip(snrs, s2))
    return samples


def _random_geometry(rng, n):
    while True:
        az = rng.uniform(0.0, 2.0 * math.pi, size=n)
        g = np.column_stack([np.cos(az), np.sin(az), np.ones(n)])
        if np.linalg.cond(g.T @ g) < 1e3:
            return az


def test_criterion_1_fit_round_trip_at_published_values():
    t0 = time.perf_counter()

    # noiseless: 500 samples per station, recovery to 1e-6, zeros exact
    snrs = {sid: np.linspace(1.0, 1000.0, 500) for sid in TRUE_JITTER}
    params, _ = fit_params(_samples_from(TRUE_JITTER, TRUE_C, snrs))
    ok = abs(params.c_m - TRUE_C) / TRUE_C < 1e-6
    ok &= abs(params.jitter_m["chungju"] - 1.41) / 1.41 < 1e-6
    ok &= params.jitter_m["eocheong"] == 0.0 and params.jitter_m["palmi"] == 0.0

    # noisy: sigma = 5% of sigma^2, 100 seeded trials; zero jitters are
    # asserted against the model's length scale (5% of C)
    worst_c = worst_j = worst_zero = 0.0
    for trial in range(100):
        rng = np.random.default_rng([20260811, trial])
        snrs = {sid: rng.uniform(1.0, 1000.0, size=1000) for sid in TRUE_JITTER}
        p, _ = fit_params(_samples_from(TRUE_JITTER, TRUE_C, snrs, 0.05, rng))
        worst_c = max(worst_c, abs(p.c_m - TRUE_C) / TRUE_C)
        worst_j = max(worst_j, abs(p.jitter_m["chungju"] - 1.41) / 1.41)
        worst_zero = max(worst_zero, p.jitter_m["eocheong"], p.jitter_m["palmi"])
    ok &= worst_c <= 0.05 and worst_j <= 0.05 and worst_zero <= 0.05 * TRUE_C

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _verdict(
        "criterion 1: fit round-trip at published values",
        ok,
        f"noisy worst: C {worst_c:.2%}, J {worst_j:.2%}, zero-J {worst_zero:.3f} m; {elapsed:.2f}s",
    )


def test_criterion_2_nnls_boundary_behavior():
    # station data lying below the shared curve drives its unconstrained
    # intercept negative; the constrained fit must return exactly zero
    rng = np.random.default_rng(2)
    snrs = rng.uniform(1.0, 200.0, size=200)
    x = 1.0 / snrs
    b_true = TRUE_C * TRUE_C
    on_curve = [("pin", float(s), float(v)) for s, v in zip(snrs, b_true * x)]
    below = [
        ("below", float(s), float(v))
        for s, v in zip(snrs, np.maximum(0.8 * b_true * x + rng.normal(0.0, 0.5, 200), 0.0))
    ]
    samples = on_curve + below

    # confirm the unconstrained joint optimum really is infeasible
    a = np.zeros((len(samples), 3))
    y = np.empty(len(samples))
    for i, (sid, snr, var) in enumerate(samples):
        a[i, 0] = 1.0 if sid == "below" else 0.0
        a[i, 1] = 1.0 if sid == "pin" else 0.0
        a[i, 2] = 1.0 / snr
        y[i] = var
    unconstrained, *_ = np.linalg.lstsq(a, y, rcond=None)
    assert unconstrained[0] < 0.0

    params, _ = fit_params(samples)
    ok = params.jitter_m["below"] == 0.0 and params.jitter_m["pin"] >= 0.0

    # and the published-value regime: both zero-jitter stations come back
    # as exact zeros from noiseless data
    snr_grid = {sid: np.linspace(1.0, 1000.0, 500) for sid in TRUE_JITTER}
    p2, _ = fit_params(_samples_from(TRUE_JITTER, TRUE_C, snr_grid))
    ok &= p2.jitter_m["eocheong"] == 0.0 and p2.jitter_m["palmi"] == 0.0
    _verdict("criterion 2: NNLS boundary gives exact zero jitter", ok)


def test_criterion_3_monte_carlo_covariance_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(3, 6))
        az = _random_geometry(rng, n)
        s2 = rng.uniform(0.1, 100.0, size=n)
        k = covariance(az, s2)
        sample = mc_wls_horizontal_cov(az, s2, trials=1_000_000, rng=rng)
        frob = np.linalg.norm(sample - k[:2, :2]) / np.linalg.norm(k[:2, :2])
        worst = max(worst, frob)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.02 and elapsed < 60.0
    _verdict(
        "criterion 3: Monte Carlo covariance oracle (20 geometries, 1e6 trials)",
        ok,
        f"worst Frobenius error {worst:.3%}, {elapsed:.1f}s",
    )


def test_criterion_4_equiangular_closed_form():
    az = np.radians([0.0, 120.0, 240.0])
    worst = 0.0
    for sigma in (0.5, 3.0, 25.0):
        acc = accuracy95(covariance(az, [sigma**2] * 3))
        expected = 4.0 * sigma / math.sqrt(3.0)
        worst = max(worst, abs(acc - expected) / expected)
    _verdict(
        "criterion 4: equiangular closed form 4*sigma/sqrt(3)",
        worst < 1e-9,
        f"worst relative error {worst:.2e}",
    )


def test_criterion_5_invariance_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    n_cases = 1000

    worst_rot = 0.0
    for _ in range(n_cases):
        az = _random_geometry(rng, int(rng.integers(3, 6)))
        s2 = rng.uniform(0.1, 100.0, size=az.size)
        base = accuracy95(covariance(az, s2))
        rotated = accuracy95(covariance(az + rng.uniform(0.0, 2.0 * math.pi), s2))
        worst_rot = max(worst_rot, abs(rotated - base) / base)
    ok = worst_rot < 1e-9

    scaling_exact = True
    for _ in range(n_cases):
        az = _random_geometry(rng, int(rng.integers(3, 6)))
        s2 = rng.uniform(0.1, 100.0, size=az.size)
        scaling_exact &= np.array_equal(covariance(az, 4.0 * s2), 4.0 * covariance(az, s2))
    ok &= scaling_exact

    mono_sigma = True
    for _ in range(n_cases):
        az = _random_geometry(rng, 4)
        s2 = rng.uniform(0.5, 50.0, size=4)
        base = accuracy95(covariance(az, s2))
        improved = s2.copy()
        improved[int(rng.integers(0, 4))] *= rng.uniform(0.05, 0.95)
        mono_sigma &= accuracy95(covariance(az, improved)) <= base * (1.0 + 1e-12)
    ok &= mono_sigma

    mono_station = True
    for _ in range(n_cases):
        az = _random_geometry(rng, 3)
        s2 = rng.uniform(0.5, 50.0, size=3)
        base = accuracy95(covariance(az, s2))
        az4 = np.append(az, rng.uniform(0.0, 2.0 * math.pi))
        s24 = np.append(s2, rng.uniform(0.5, 50.0))
        mono_station &= accuracy95(covariance(az4, s24)) <= base * (1.0 + 1e-12)
    ok &= mono_station

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _verdict(
        "criterion 5: invariance suite (rotation, scaling, monotonicity x2)",
        ok,
        f"rotation worst {worst_rot:.2e}, scaling exact {scaling_exact}, "
        f"{4 * n_cases} cases, {elapsed:.1f}s",
    )


def test_criterion_6_phase_to_toa_unit_check():
    lam = SPEED_OF_LIGHT_M_S / 300_000.0  # 999.3082 m at 300 kHz
    n = 100
    d = math.sqrt((n - 1) / n)  # alternating +-d has sample variance 1
    records = StationLog(
        "s", np.arange(n, dtype=float), [d if i % 2 == 0 else -d for i in range(n)], np.full(n, 20.0)
    )
    (sample,) = window_variance(records, window_len=n, wavelength_m=lam)
    expected = (lam / (2.0 * math.pi)) ** 2
    ok = abs(sample["toa_var_m2"] - 25_295.0) <= 1.0
    ok &= abs(sample["toa_var_m2"] - expected) / expected < 1e-9

    (doubled,) = window_variance(records, window_len=n, wavelength_m=2.0 * lam)
    (quadrupled,) = window_variance(records, window_len=n, wavelength_m=4.0 * lam)
    ok &= doubled["toa_var_m2"] == 4.0 * sample["toa_var_m2"]
    ok &= quadrupled["toa_var_m2"] == 16.0 * sample["toa_var_m2"]
    _verdict(
        "criterion 6: unit phase variance at 300 kHz -> 25295 m^2, scaling exact",
        ok,
        f"got {sample['toa_var_m2']:.2f} m^2",
    )


def _run_cli(args, cwd):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "rmodesim", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=subprocess_env(),
    )
    return proc, time.perf_counter() - t0


def test_criterion_7_end_to_end_determinism(tmp_path):
    cfg = yaml.safe_load(SHIPPED_CONFIG.read_text())

    # verbatim shipped scenario: runs end to end with a nonempty unmasked
    # region (output values are not asserted against any published map)
    verbatim = tmp_path / "shipped"
    verbatim.mkdir()
    (verbatim / "run.yaml").write_text(yaml.safe_dump(cfg))
    proc, _ = _run_cli(["coverage", "--config", str(verbatim / "run.yaml")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    unmasked = int(
        [l for l in proc.stdout.splitlines() if l.startswith("unmasked:")][0].split()[1]
    )
    ok = unmasked > 0

    # 200 x 200 variant of the same scenario: bitwise-determinism and time
    # upper bounds padded by half a step so the floor-based node count
    # sits safely off the floating-point knife edge
    cfg["grid"] = {
        "lat_min": 34.0,
        "lat_max": 37.99,
        "lon_min": 124.0,
        "lon_max": 127.99,
        "step_deg": 0.02,
    }
    run_dir = tmp_path / "det"
    run_dir.mkdir()
    config = run_dir / "run.yaml"
    config.write_text(yaml.safe_dump(cfg))
    spec = GridSpec(34.0, 37.99, 124.0, 127.99, 0.02)
    assert (spec.n_lat, spec.n_lon) == (200, 200)

    outputs = []
    slowest = 0.0
    for threads in ("1", "1", "8"):
        proc, dt = _run_cli(
            ["coverage", "--config", str(config), "--threads", threads], tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((run_dir / "out" / "coverage.csv").read_bytes())
        slowest = max(slowest, dt)
    ok &= outputs[0] == outputs[1] == outputs[2]
    ok &= slowest < 10.0
    _verdict(
        "criterion 7: bitwise-identical coverage CSV across runs and thread counts",
        ok,
        f"200x200 run, slowest {slowest:.1f}s, shipped unmasked cells {unmasked}",
    )


def test_criterion_8_coverage_monotonicity_in_power():
    stations = []
    for i, bearing in enumerate([15.0, 135.0, 255.0]):
        lat, lon = destination_point(36.0, 127.0, math.radians(bearing), 200_000.0)
        stations.append(
            TransmitterStation(f"s{i}", GeoPoint(lat, lon), 300.0, 300e3)
        )
    params = ModelParams({tx.station_id: 0.0 for tx in stations}, TRUE_C)
    prop = ParametricPropagation(ref_field_dbuv_m=109.5, atten_db_per_km=0.03)
    noise = NoiseSpec(level_dbuv_m=65.0)  # mask boundary falls inside the grid
    spec = GridSpec(35.0, 36.99, 126.0, 127.99, 0.02)
    assert (spec.n_lat, spec.n_lon) == (100, 100)

    base = compute_coverage(spec, stations, params, prop, noise, -15.0)
    n_base = int((base.mask_code == 0).sum())
    assert 0 < n_base < base.mask_code.size  # the scenario must exercise the mask edge

    ok = True
    details = []
    for idx, tx in enumerate(stations):
        boosted = list(stations)
        boosted[idx] = TransmitterStation(
            tx.station_id, tx.position, 2.0 * tx.power_w, tx.carrier_hz
        )
        new = compute_coverage(spec, boosted, params, prop, noise, -15.0)
        n_new = int((new.mask_code == 0).sum())
        ok &= n_new >= n_base
        both = (base.mask_code == 0) & (new.mask_code == 0)
        ok &= bool(np.all(new.accuracy_m[both] <= base.accuracy_m[both]))
        details.append(f"{tx.station_id}: {n_base}->{n_new}")
    _verdict(
        "criterion 8: doubling any power never shrinks coverage or worsens cells",
        ok,
        "; ".join(details),
    )
