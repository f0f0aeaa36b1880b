"""Tests of the benchmark's own reference, checks and runner.

Run from the repository root: ``python3 -m pytest benchmarks/tests``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import reference
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_three_stations_120_degrees_apart_with_equal_variance():
    sigma2 = 2.5
    az = np.radians([[0.0, 120.0, 240.0]])
    acc, count, cond, mask = reference.wls(az, np.full((1, 3), sigma2), np.ones((1, 3), dtype=bool))
    # G'R^-1 G = diag(3/2, 3/2, 3) / sigma2, so K11 + K22 = 4 sigma2 / 3
    assert acc[0] == pytest.approx(2 * np.sqrt(4 * sigma2 / 3), rel=1e-12)
    assert count[0] == 3 and mask[0] == "" and cond[0] == pytest.approx(2.0)


def test_two_usable_stations_and_collinear_geometry_are_masked():
    az = np.radians([[0.0, 120.0, 240.0], [0.0, 0.0, 0.0]])
    usable = np.array([[True, True, False], [True, True, True]])
    acc, count, _, mask = reference.wls(az, np.ones((2, 3)), usable)
    assert list(mask) == [reference.TOO_FEW, reference.SINGULAR]
    assert list(count) == [2, 3] and np.isnan(acc).all()


def test_noise_free_windows_give_back_the_generating_parameters():
    jitters = {"a": 0.5, "b": 1.0, "c": 1.41}
    c_m, window_len, wavelength = 22.15, 40, 999.3
    pattern = np.tile([1.0, -1.0], window_len // 2)  # zero mean, var(ddof=1) = n/(n-1)
    windows = {}
    for k, (sid, j) in enumerate(sorted(jitters.items())):
        snr_db = np.linspace(-5.0, 30.0, 25) + k
        target = reference.sigma2_m2(snr_db, j, c_m) * (2 * np.pi / wavelength) ** 2
        amplitude = np.sqrt(target * (window_len - 1) / window_len)
        phase = (np.pi - 0.05 + amplitude[:, None] * pattern).ravel()  # crosses +-pi: wraps
        wrapped = np.mod(phase + np.pi, 2 * np.pi) - np.pi
        windows[sid] = reference.window_variance(wrapped, np.repeat(snr_db, window_len), window_len, wavelength)
    got_j, got_c = reference.fit_params(windows)
    assert got_c == pytest.approx(c_m, rel=1e-9)
    for sid, j in jitters.items():
        assert got_j[sid] == pytest.approx(j, rel=1e-9)


def test_window_variance_drops_the_remainder():
    snr, var = reference.window_variance(np.zeros(103), np.zeros(103), 10, 1.0)
    assert snr.shape == var.shape == (10,)


def _measure(workload, work):
    inputs = workloads.make_inputs(workload, 7, "small", work)
    return inputs, {"untraced": run._run_worker(ROOT, work, "untraced", 0.01, time.monotonic() + 120)}


def _corrupt_coverage(out: Path):
    lines = (out / "coverage.csv").read_text().splitlines()
    row = lines[100].split(",")
    row[2] = f"{float(row[2]) + 0.001:.6f}"
    lines[100] = ",".join(row)
    (out / "coverage.csv").write_text("\n".join(lines) + "\n")


def _corrupt_fit(out: Path):
    params = yaml.safe_load((out / "fitted_params.yaml").read_text())
    params["jitter_m"]["chungju"] += 0.01
    (out / "fitted_params.yaml").write_text(yaml.safe_dump(params, sort_keys=False))


def _corrupt_track(out: Path):
    rows = json.loads((out / "points.json").read_text())
    masked = next(r for r in rows if r[2] == reference.TOO_FEW)
    masked[2] = reference.SINGULAR
    (out / "points.json").write_text(json.dumps(rows))


@pytest.mark.parametrize(
    "workload, corrupt",
    [("coverage-map", _corrupt_coverage), ("fit-logs", _corrupt_fit), ("track-field-grids", _corrupt_track)],
)
def test_a_corrupted_output_is_a_failed_operation(tmp_path, workload, corrupt):
    inputs, runs = _measure(workload, tmp_path)
    summary, _ = run.evaluate(workload, inputs, runs, None)
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 2

    corrupt(Path(next(op["kept"] for op in runs["untraced"]["ops"] if op.get("kept"))))
    summary, details = run.evaluate(workload, inputs, runs, None)
    # every operation produced the same bytes, so all of them now fail
    assert not summary["correct"] and summary["failed"] == summary["attempted"]
    assert details["problems"]


def test_a_nonzero_exit_code_is_a_failed_operation(tmp_path):
    inputs, runs = _measure("fit-logs", tmp_path)
    runs["untraced"]["ops"][-1]["rc"] = 2
    summary, _ = run.evaluate("fit-logs", inputs, runs, None)
    assert summary["failed"] == 1


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("benchmarks") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs_at_reduced_size(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "small"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    own = run.LAYER_METRICS[workload] if trace else [m["name"] for m in listed]
    timed = [name for name in own if name.endswith("_s")]
    assert all(result["metrics"][name]["value"] > 0 for name in timed)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("_work", "results"))
    proc = _run(["--workload", "fit-logs", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
