"""Command-line entry point: fit, accuracy, and coverage subcommands.

Every subcommand takes ``--config`` pointing at a run configuration
(see config module); outputs land next to the config file unless the
configured paths are absolute. Exit codes: 0 success, 1 stdout closed
early, 2 validation or parse failure, 3 fit degeneracy, insufficient data
or NNLS non-convergence, 4 resource limits.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from .accuracy import accuracy_at
from .config import load_config
from .coverage import (
    compute_coverage,
    coverage_summary,
    write_contour_csv,
    write_coverage_csv,
    write_coverage_pgm,
)
from .errors import (
    ConfigError,
    DegenerateDesignError,
    GridTooLargeError,
    InsufficientDataError,
    InsufficientSamplesError,
    NnlsConvergenceError,
    RmodeError,
)
from .geodesy import GeoPoint
from .ingest import group_by_station, parse_measurement_file, window_variance
from .synth import synth_station_log, write_measurement_csv
from .variance_model import fit_params, write_fit_report_csv

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_RESOURCE = 4


def _build_parser() -> argparse.ArgumentParser:
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="run configuration YAML")
    formatted = argparse.ArgumentParser(add_help=False, parents=[config])
    formatted.add_argument("--format", choices=("text", "csv"), default="text")

    parser = argparse.ArgumentParser(
        prog="rmodesim",
        description="TOA-variance model fitting and 95% accuracy coverage mapping",
    )
    # synth stays out of the advertised commands; it is test tooling
    sub = parser.add_subparsers(dest="command", required=True, metavar="{fit,accuracy,coverage}")

    p_fit = sub.add_parser("fit", parents=[formatted], help="fit jitter/constant from measurement logs")
    p_fit.add_argument("measurements", nargs="+", help="measurement CSV files")
    p_fit.set_defaults(func=cmd_fit)

    p_acc = sub.add_parser("accuracy", parents=[formatted], help="accuracy breakdown at one point")
    p_acc.add_argument("--lat", type=float, required=True)
    p_acc.add_argument("--lon", type=float, required=True)
    p_acc.set_defaults(func=cmd_accuracy)

    p_cov = sub.add_parser("coverage", parents=[formatted], help="sweep the configured grid")
    p_cov.add_argument("--threads", type=int, default=0, help="sweep workers, 0 = one per CPU")
    p_cov.set_defaults(func=cmd_coverage)

    # test tooling: synthesize measurement logs from the configured model
    p_syn = sub.add_parser("synth", parents=[config])
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--out-dir", required=True)
    p_syn.add_argument("--windows", type=int, default=200)
    p_syn.add_argument("--snr-spacing", choices=("log", "linear"), default="log")
    p_syn.add_argument("--noise", choices=("none", "gauss"), default="gauss")
    p_syn.set_defaults(func=cmd_synth)

    return parser


def _prepare(path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def cmd_fit(args) -> int:
    cfg = load_config(args.config)
    by_id = {tx.station_id: tx for tx in cfg.stations}

    logs = []
    for path in args.measurements:
        logs.extend(parse_measurement_file(path))
    groups = group_by_station(logs)
    unknown = sorted(set(groups) - set(by_id))
    if unknown:
        raise ConfigError(f"measurements reference stations not in config: {unknown}")

    windows = [
        window_variance(groups[sid], cfg.fit.window_len, by_id[sid].wavelength_m, cfg.fit.detrend)
        for sid in sorted(groups)
    ]
    params, report = fit_params(np.concatenate(windows) if windows else [], cfg.fit.trim_fraction)

    report_path = _prepare(cfg.resolve(cfg.outputs.fit_report_csv))
    write_fit_report_csv(params, report, report_path)
    params_path = _prepare(cfg.resolve(cfg.outputs.params_yaml))
    fitted = {"jitter_m": {k: float(v) for k, v in sorted(params.jitter_m.items())}, "c_m": float(params.c_m)}
    with open(params_path, "w", encoding="utf-8") as f:
        yaml.safe_dump(fitted, f, sort_keys=False)

    if args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["station_id", "jitter_m", "n_samples", "rss_contribution"])
        for sid in sorted(params.jitter_m):
            w.writerow([sid, f"{params.jitter_m[sid]:.6f}", report.n_samples[sid],
                        f"{report.rss_by_station[sid]:.6g}"])
        w.writerow(["C", f"{params.c_m:.6f}", sum(report.n_samples.values()),
                    f"{report.rss_m4:.6g}"])
    else:
        for sid in sorted(params.jitter_m):
            print(
                f"{sid}: J = {params.jitter_m[sid]:.6f} m  "
                f"(n={report.n_samples[sid]}, rss={report.rss_by_station[sid]:.6g} m^4)"
            )
        print(f"C = {params.c_m:.6f} m")
        print(f"RSS = {report.rss_m4:.6g} m^4")
        print(f"fit report: {report_path}")
        print(f"params: {params_path}")
    return EXIT_OK


def cmd_accuracy(args) -> int:
    cfg = load_config(args.config)
    point = GeoPoint(args.lat, args.lon)  # ValueError -> exit 2
    res = accuracy_at(
        point, cfg.stations, cfg.params, cfg.propagation, cfg.noise, cfg.snr_threshold_db
    )

    if args.format == "csv":
        print("station_id,snr_db,snr_linear,sigma2_m2,azimuth_rad,usable")
        for d in res.stations:
            print(
                f"{d.station_id},{d.snr_db:.6f},{d.snr_linear:.6f},"
                f"{d.sigma2_m2:.6f},{d.azimuth_rad:.6f},{int(d.usable)}"
            )
    else:
        for d in res.stations:
            flag = "usable" if d.usable else "below threshold"
            print(
                f"{d.station_id}: snr = {d.snr_db:.2f} dB, sigma2 = {d.sigma2_m2:.4f} m^2, "
                f"azimuth = {np.degrees(d.azimuth_rad):.2f} deg  [{flag}]"
            )
        print(f"usable stations: {res.usable_count}")
    if res.masked:
        print(f"masked,{res.mask_reason}")
    else:
        print(f"accuracy_m,{res.accuracy_m:.6f}")
    return EXIT_OK


def cmd_coverage(args) -> int:
    cfg = load_config(args.config)
    if cfg.grid is None:
        raise ConfigError("config has no grid section; coverage needs one")
    grid = compute_coverage(
        cfg.grid,
        cfg.stations,
        cfg.params,
        cfg.propagation,
        cfg.noise,
        cfg.snr_threshold_db,
        threads=args.threads,
    )
    csv_path = _prepare(cfg.resolve(cfg.outputs.coverage_csv))
    pgm_path = _prepare(cfg.resolve(cfg.outputs.coverage_pgm))
    write_coverage_csv(grid, csv_path)
    write_coverage_pgm(grid, pgm_path, cfg.outputs.pgm_clip_m)
    contour_path = None
    if cfg.outputs.contour_csv is not None:
        contour_path = _prepare(cfg.resolve(cfg.outputs.contour_csv))
        write_contour_csv(grid, contour_path, cfg.outputs.contour_limit_m)

    s = coverage_summary(grid)
    fmt = lambda v: "" if v is None else f"{v:.6f}"
    if args.format == "csv":
        print("cells,unmasked,min_accuracy_m,median_accuracy_m")
        print(f"{s['cells']},{s['unmasked']},{fmt(s['min_accuracy_m'])},{fmt(s['median_accuracy_m'])}")
    else:
        print(f"cells: {s['cells']}")
        print(f"unmasked: {s['unmasked']}")
        print(f"min accuracy: {fmt(s['min_accuracy_m'])} m")
        print(f"median accuracy: {fmt(s['median_accuracy_m'])} m")
        print(f"coverage csv: {csv_path}")
        print(f"coverage pgm: {pgm_path}")
        if contour_path is not None:
            print(f"contour csv: {contour_path}")
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    if args.windows < 2:
        raise ConfigError(f"--windows must be >= 2, got {args.windows}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # window SNRs span 1 to 1000 (0 to 30 dB)
    if args.snr_spacing == "log":
        snrs = np.logspace(0.0, 3.0, args.windows)
    else:
        snrs = np.linspace(1.0, 1000.0, args.windows)
    for idx, tx in enumerate(cfg.stations):
        rng = np.random.default_rng([args.seed, idx])
        log = synth_station_log(
            tx.station_id,
            jitter_m=cfg.params.jitter_m[tx.station_id],
            c_m=cfg.params.c_m,
            wavelength_m=tx.wavelength_m,
            snr_linear=snrs,
            window_len=cfg.fit.window_len,
            noise=args.noise,
            rng=rng,
        )
        path = out_dir / f"{tx.station_id}.csv"
        write_measurement_csv(log, path)
        print(f"wrote {log.timestamp.size} records: {path}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error (printed) and 0 after --help
        return exc.code
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left (`| head -1`): devnull takes the rest, so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except GridTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InsufficientSamplesError, InsufficientDataError, DegenerateDesignError,
            NnlsConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (RmodeError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
