"""Command-line entry point: fit, accuracy, and coverage subcommands.

Every subcommand takes ``--config`` pointing at a run configuration
(see config module); outputs land next to the config file unless the
configured paths are absolute, and a command that fails leaves every
output as it was. Exit codes: 0 success, 1 stdout closed early,
otherwise the failing error's ``exit_code`` (2 for a toolkit error that
sets none and for any ``OSError`` or ``ValueError``); the README's "Exit
codes" lists which error classes exit 3 and 4.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import os
import shutil
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
from .errors import ConfigError, RmodeError
from .geodesy import GeoPoint
from .ingest import group_by_station, parse_measurement_file, window_variance
from .variance_model import FIT_REPORT_COLUMNS, fit_params, fit_report_rows, write_fit_report_csv

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_VALIDATION = 2


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="run configuration YAML")
    common.add_argument("--format", choices=("text", "csv"), default="text")

    parser = argparse.ArgumentParser(
        prog="rmodesim",
        description="TOA-variance model fitting and 95% accuracy coverage mapping",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", parents=[common], help="fit jitter/constant from measurement logs")
    p_fit.add_argument("measurements", nargs="+", help="measurement CSV files")
    p_fit.set_defaults(func=cmd_fit)

    p_acc = sub.add_parser("accuracy", parents=[common], help="accuracy breakdown at one point")
    p_acc.add_argument("--lat", type=float, required=True)
    p_acc.add_argument("--lon", type=float, required=True)
    p_acc.set_defaults(func=cmd_accuracy)

    p_cov = sub.add_parser("coverage", parents=[common], help="sweep the configured grid")
    p_cov.add_argument("--threads", type=int, default=0, help="sweep workers, 0 = one per CPU")
    p_cov.set_defaults(func=cmd_coverage)

    return parser


@contextlib.contextmanager
def _outputs(*paths: Path):
    """Yield a temporary beside each output; move them all into place when the block succeeds.

    An output that is a directory fails before anything is written, and on
    any failure every temporary is removed, so a failed write leaves no new
    file; an OSError on a temporary is raised naming its output. A replaced
    output keeps its mode, and a symlinked output is written through to its target.
    """
    targets = [Path(os.path.realpath(path)) for path in paths]
    for path, target in zip(paths, targets):
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    for target in targets:
        target.parent.mkdir(parents=True, exist_ok=True)
    # named apart from the output, so a temporary's name fits wherever the output's does
    temps = [target.with_name(f".rmodesim-{os.getpid()}-{k}.tmp") for k, target in enumerate(targets)]
    try:
        yield temps
        for temp, target in zip(temps, targets):
            with contextlib.suppress(FileNotFoundError):  # a new output keeps the mode open() gave it
                shutil.copymode(target, temp)
        for temp, target in zip(temps, targets):
            os.replace(temp, target)
    except OSError as exc:
        output = dict(zip(map(str, temps), paths)).get(str(exc.filename))
        if output is None:
            raise
        raise OSError(exc.errno, exc.strerror, str(output)) from None
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def cmd_fit(cfg, args) -> int:
    by_id = {tx.station_id: tx for tx in cfg.stations}
    written = {os.path.realpath(cfg.resolve(getattr(cfg.outputs, key))): key
               for key in ("fit_report_csv", "params_yaml")}
    for path in args.measurements:
        key = written.get(os.path.realpath(path))
        if key is not None:
            raise ConfigError(f"outputs.{key}: {path} is a measurement file; the fit would overwrite it")

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

    report_path = cfg.resolve(cfg.outputs.fit_report_csv)
    params_path = cfg.resolve(cfg.outputs.params_yaml)
    rows = list(fit_report_rows(params, report))
    *stations, (_, c_m, _, rss_m4) = rows
    fitted = {"jitter_m": {sid: float(j) for sid, j, _, _ in stations}, "c_m": float(c_m)}
    with _outputs(report_path, params_path) as (report_tmp, params_tmp):
        write_fit_report_csv(params, report, report_tmp)
        with open(params_tmp, "w", encoding="utf-8") as f:
            yaml.safe_dump(fitted, f, sort_keys=False)

    if args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(FIT_REPORT_COLUMNS)
        w.writerows((sid, f"{value:.6f}", n, f"{rss:.6g}") for sid, value, n, rss in rows)
    else:
        for sid, j, n, rss in stations:
            print(f"{sid}: J = {j:.6f} m  (n={n}, rss={rss:.6g} m^4)")
        print(f"C = {c_m:.6f} m")
        print(f"RSS = {rss_m4:.6g} m^4")
        print(f"fit report: {report_path}")
        print(f"params: {params_path}")
    return EXIT_OK


def cmd_accuracy(cfg, args) -> int:
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


def cmd_coverage(cfg, args) -> int:
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
    outputs = [cfg.resolve(cfg.outputs.coverage_csv), cfg.resolve(cfg.outputs.coverage_pgm)]
    if cfg.outputs.contour_csv is not None:
        outputs.append(cfg.resolve(cfg.outputs.contour_csv))
    with _outputs(*outputs) as (csv_tmp, pgm_tmp, *contour_tmp):
        write_coverage_csv(grid, csv_tmp)
        write_coverage_pgm(grid, pgm_tmp, cfg.outputs.pgm_clip_m)
        for path in contour_tmp:  # none when no contour is configured
            write_contour_csv(grid, path, cfg.outputs.contour_limit_m)

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
        for label, path in zip(("coverage csv", "coverage pgm", "contour csv"), outputs):
            print(f"{label}: {path}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error (printed) and 0 after --help
        return exc.code
    try:
        code = args.func(load_config(args.config), args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left (`| head -1`): devnull takes the rest, so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (RmodeError, OSError, ValueError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, RmodeError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
