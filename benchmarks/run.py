"""rmodesim benchmark: run one workload (or all) and print its metrics.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload coverage-map --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer metrics from a traced run. The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with machine facts and
every timing, goes to ``benchmarks/results/``. See benchmarks/README.md.
"""

from __future__ import annotations

import os

# at most two threads per process: the coverage pool's two, and no BLAS pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import workloads

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170  # a run must end within 180 s

# Per-layer metrics each workload measures; the others read 0 there,
# because that workload does not call the module.
LAYER_METRICS = {
    "coverage-map": [
        "config.load_config_s", "propagation.snr_db_at_s", "geodesy.bearing_rad_s",
        "coverage.compute_coverage_s", "coverage.compute_coverage_serial_s", "coverage.write_coverage_csv_s",
        "coverage.write_coverage_pgm_s", "coverage.write_contour_csv_s", "coverage.grid_bytes_per_cell",
        "coverage.csv_bytes", "coverage.cells", "coverage.cells_unmasked", "coverage.cells_too_few_stations",
        "coverage.cells_singular_geometry",
    ],
    "fit-logs": [
        "config.load_config_s", "ingest.parse_measurement_file_s", "ingest.group_by_station_s",
        "ingest.window_variance_s", "variance_model.fit_params_s", "nnls.nnls_s",
        "variance_model.write_fit_report_csv_s", "ingest.parse_rss_growth_mb", "ingest.records",
        "ingest.windows", "ingest.log_bytes",
    ],
    "track-field-grids": [
        "propagation.load_field_grid_s", "config.load_config_s", "propagation.snr_at_s",
        "accuracy.accuracy_at_s", "propagation.lattice_nodes", "accuracy.points", "accuracy.points_masked",
    ],
}


class BenchmarkError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def _run_worker(root: Path, work: Path, mode: str, seconds: float, deadline: float) -> dict:
    """Run worker.py in its own session; on overrun kill it with its children."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(work), mode, repr(seconds)],
        env=_env(root), cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"worker ({mode}) ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker ({mode}) exited {proc.returncode}:\n{stderr}")
    result = json.loads((work / f"{mode}.json").read_text(encoding="utf-8"))
    src = (root / "src").resolve()
    if src not in Path(result["rmodesim_file"]).resolve().parents:
        raise BenchmarkError(f"worker imported rmodesim from {result['rmodesim_file']}, not from {src}")
    return result


def _median(values):
    return statistics.median(values) if values else 0.0


def evaluate(workload: str, inputs: workloads.Inputs, runs: dict, layer_names):
    """Check every operation's outputs and turn the timings into metrics.

    ``runs`` maps worker mode to its result. Returns ``(summary, details)``
    where ``summary`` has the four keys of the printed result line.
    """
    ref = checks.REFERENCES[workload](inputs.expect)
    checked = {}  # kept output directory -> (problems, stats)
    attempted = failed = 0
    problems_seen = []
    for mode, result in runs.items():
        for op in result["ops"]:
            attempted += 1
            if op.get("kept"):
                try:
                    checked[op["digest"]] = checks.CHECKS[workload](Path(op["kept"]), op["stdout"], ref, inputs.expect)
                except Exception as exc:  # missing or malformed output fails the operation, not the run
                    checked[op["digest"]] = ([f"unreadable output: {exc!r}"], {})
            problems = list(checked[op["digest"]][0]) if op["digest"] in checked else ["outputs were never kept"]
            if op["rc"] != 0:
                problems.insert(0, f"exit code {op['rc']}")
            if op.get("extra", {}).get("threads_identical") is False:
                problems.append("compute_coverage differs between threads=1 and threads=2")
            if problems:
                failed += 1
                problems_seen.append(f"{mode} op: " + "; ".join(problems))
    stats = next((s for _, s in checked.values() if s), {})

    untraced = [op for op in runs["untraced"]["ops"] if not op["warm_up"]]
    wall_s = _median([op["wall_s"] for op in untraced])
    if layer_names is None:
        metrics = {
            "wall_s": (wall_s, "s"),
            "cpu_s": (_median([op["cpu_s"] for op in untraced]), "s"),
            "peak_rss_mb": (runs["untraced"]["peak_rss_mib"], "MiB"),
            "setup_s": (_median(runs["untraced"]["setup_s"][1:]), "s"),
        }
    else:
        passes = [op for op in runs["traced"]["ops"] if not op["warm_up"] and "extra" in op]  # completed passes
        values = {}
        for name in {s[0] for op in passes for s in op["spans"]}:
            # a module's time in one pass is the sum of its spans; report the median pass
            values[f"{name}_s"] = _median([sum(s[2] - s[1] for s in op["spans"] if s[0] == name) for op in passes])
        values["trace.overhead_s"] = values.pop("op_s", wall_s) - wall_s
        for key in {k for op in passes for k in op["extra"]} - {"threads_identical"}:
            values[key] = _median([op["extra"][key] for op in passes])
        values.update(stats)
        values.update(inputs.sizes)
        own = set(LAYER_METRICS[workload]) | {"trace.overhead_s"}
        missing = own - set(values)
        if missing and not failed:
            raise BenchmarkError(f"{workload}: no value for {sorted(missing)}")
        metrics = {name: (values.get(name, 0.0) if name in own else 0.0, unit) for name, unit in layer_names}
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {"problems": problems_seen[:20], "check_stats": stats}
    return summary, details


def _machine(root: Path) -> dict:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        cpuinfo = []
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")), "unknown")
    sha = "unknown"  # a checkout without .git has no SHA to report
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = out.stdout.strip() or sha
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "git_sha": sha,
    }


def run_one(root: Path, workload: str, seed: int, seconds: int, trace: int, size: str):
    deadline = time.monotonic() + TIME_LIMIT_S
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_names = [(m["name"], m["unit"]) for m in spec["per_layer"]] if trace else None
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=HERE / "_work"))
    try:
        inputs = workloads.make_inputs(workload, seed, size, work)
        runs = {"untraced": _run_worker(root, work, "untraced", seconds / 2 if trace else seconds, deadline)}
        if trace:
            runs["traced"] = _run_worker(root, work, "traced", seconds / 2, deadline)
        summary, details = evaluate(workload, inputs, runs, layer_names)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "machine": _machine(root), **summary, **details, "setup_s_samples": runs["untraced"]["setup_s"],
        "ops": {mode: [{k: op[k] for k in ("warm_up", "wall_s", "cpu_s", "rc")} for op in r["ops"]]
                for mode, r in runs.items()},
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{workload}_seed{seed}_trace{trace}_{size}_{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"{workload}: seed {seed}, {summary['attempted']} operations, {summary['failed']} failed; record {path}")
    for problem in details["problems"]:
        print(f"  FAILED {problem}")
    for name, m in summary["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full", help="small: same path, reduced inputs")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    root = Path.cwd()
    if not (root / "src" / "rmodesim" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print(f"error: {root} is not an rmodesim checkout (no src/rmodesim or BENCHMARK.json)", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = {w: run_one(root, w, args.seed, args.seconds, args.trace, args.size) for w in names}
    except (BenchmarkError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        summary = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}/{k}": m for w, s in summaries.items() for k, m in s["metrics"].items()},
        }
    else:
        summary = summaries[args.workload]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
