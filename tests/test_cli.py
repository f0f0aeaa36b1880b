import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import rmodesim.cli
import rmodesim.errors
import rmodesim.variance_model
from rmodesim.cli import main
from rmodesim.errors import NnlsConvergenceError, ParseError, RmodeError
from rmodesim.ingest import MEASUREMENT_COLUMNS, parse_measurement_file
from rmodesim.propagation import FieldGrid, write_field_grid
from rmodesim.synth import synth_station_log, write_measurement_csv

from helpers import destination_point, long_field_file, subprocess_env, synth_logs

SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "korea_mf.yaml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_fit_stdout(out):
    jitter = {}
    c_m = None
    for line in out.splitlines():
        if line.startswith("C = "):
            c_m = float(line.split()[2])
        elif ": J = " in line:
            sid, rest = line.split(": J = ")
            jitter[sid] = float(rest.split()[0])
    return jitter, c_m


class TestFit:
    def test_noiseless_round_trip(self, config_factory, tmp_path, capsys):
        def mutate(cfg):
            cfg["stations"][2]["jitter_m"] = 1.41

        config = config_factory(mutate=mutate)
        logs = synth_logs(config, tmp_path / "logs", noise="none", windows=60)
        assert len(logs) == 3

        code, out, err = run(
            capsys, "fit", "--config", str(config), *[str(p) for p in logs]
        )
        assert code == 0, err
        jitter, c_m = parse_fit_stdout(out)
        assert c_m == pytest.approx(22.15, rel=1e-6)
        assert jitter["s2"] == pytest.approx(1.41, rel=1e-6)
        assert jitter["s0"] == 0.0 and jitter["s1"] == 0.0

        params = yaml.safe_load((tmp_path / "fitted_params.yaml").read_text())
        assert params["c_m"] == pytest.approx(22.15, rel=1e-6)
        report = (tmp_path / "fit_report.csv").read_text().splitlines()
        assert report[0] == "station_id,jitter_m,n_samples,rss_contribution"
        assert report[-1].startswith("C,")

    def test_noisy_round_trip(self, config_factory, tmp_path, capsys):
        # chi-squared scatter of a 400-record window is ~7% per sample;
        # at 600 windows/station the unweighted fit lands C within 5%
        # and the 1.41 m jitter within 10% (measured worst case over 10
        # seeds: 2.9% and 5.0%)
        def mutate(cfg):
            cfg["stations"][2]["jitter_m"] = 1.41
            cfg["fit"]["window_len"] = 400

        config = config_factory(mutate=mutate)
        logs = synth_logs(config, tmp_path / "logs", noise="gauss", windows=600, spacing="linear", seed=7)
        code, out, err = run(capsys, "fit", "--config", str(config), *[str(p) for p in logs])
        assert code == 0, err
        jitter, c_m = parse_fit_stdout(out)
        assert c_m == pytest.approx(22.15, rel=0.05)
        assert jitter["s2"] == pytest.approx(1.41, rel=0.10)
        assert jitter["s0"] < 1.0 and jitter["s1"] < 1.0

    def test_missing_file_exit_2_names_path(self, config_factory, capsys):
        config = config_factory()
        code, _, err = run(capsys, "fit", "--config", str(config), "/no/such/file.csv")
        assert code == 2
        assert "/no/such/file.csv" in err

    def test_empty_measurements_exit_3(self, config_factory, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(MEASUREMENT_COLUMNS) + "\n")
        code, _, err = run(capsys, "fit", "--config", str(config_factory()), str(empty))
        assert code == 3
        assert "samples" in err

    def test_log_shorter_than_a_window_names_the_station_exit_3(self, config_factory, tmp_path, capsys):
        rows = [",".join(MEASUREMENT_COLUMNS)] + [f"{float(i)},s2,0.0,10.0" for i in range(50)]
        log = tmp_path / "log.csv"
        log.write_text("\n".join(rows) + "\n")
        code, out, err = run(capsys, "fit", "--config", str(config_factory()), str(log))
        assert (code, out, err) == (3, "", "error: station 's2': 50 records, need at least window_len=100\n")

    def test_constant_snr_exit_3(self, config_factory, tmp_path, capsys):
        rows = [",".join(MEASUREMENT_COLUMNS)]
        rng = np.random.default_rng(0)
        for i in range(400):
            rows.append(f"{float(i)},s0,{rng.normal(0, 0.01)},10.0")
        log = tmp_path / "log.csv"
        log.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, "fit", "--config", str(config_factory()), str(log))
        assert code == 3

    def test_unknown_station_exit_2(self, config_factory, tmp_path, capsys):
        rows = [",".join(MEASUREMENT_COLUMNS)]
        for i in range(200):
            rows.append(f"{float(i)},mystery,0.0,10.0")
        log = tmp_path / "log.csv"
        log.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, "fit", "--config", str(config_factory()), str(log))
        assert code == 2
        assert "mystery" in err

    def test_output_naming_a_measurement_file_exit_2(self, config_factory, tmp_path, capsys):
        config = config_factory(mutate=lambda cfg: cfg["outputs"].update(fit_report_csv="logs/../logs/s1.csv"))
        logs = synth_logs(config, tmp_path / "logs", windows=5)
        before = [log.read_bytes() for log in logs]
        given = [f"{log.parent}/./{log.name}" for log in logs]  # each side spells the path its own way
        code, out, err = run(capsys, "fit", "--config", str(config), *given)
        assert (code, out) == (2, "")
        assert err == f"error: outputs.fit_report_csv: {given[1]} is a measurement file; the fit would overwrite it\n"
        assert [log.read_bytes() for log in logs] == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["logs", "run.yaml"]

    def test_malformed_row_exit_2_with_row_number(self, config_factory, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(",".join(MEASUREMENT_COLUMNS) + "\n1.0,s0,zzz,10.0\n")
        code, _, err = run(capsys, "fit", "--config", str(config_factory()), str(log))
        assert code == 2
        assert "row 2" in err

    @pytest.mark.parametrize("comment", [0, 1], ids=["clean", "comment_first"])
    def test_field_over_csv_limit_exit_2_with_row_number(self, config_factory, tmp_path, capsys, comment):
        # numpy's parser and the row loop give one answer: no traceback
        log = long_field_file(tmp_path / "log.csv", "log", comment)
        code, _, err = run(capsys, "fit", "--config", str(config_factory()), str(log))
        assert code == 2
        assert f"error: row {5 + comment}: malformed CSV: field larger than field limit" in err

    def test_nnls_non_convergence_exit_3(self, config_factory, tmp_path, capsys, monkeypatch):
        config = config_factory()
        logs = synth_logs(config, tmp_path / "logs", noise="none", windows=20)

        def stalled(a, b):
            raise NnlsConvergenceError("nnls failed to converge in 40 iterations")

        monkeypatch.setattr(rmodesim.variance_model, "nnls", stalled)
        code, out, err = run(capsys, "fit", "--config", str(config), *[str(p) for p in logs])
        assert code == 3
        assert "converge" in err and "Traceback" not in err
        assert not (tmp_path / "fitted_params.yaml").exists()

    @staticmethod
    def fit_with_first_snr(capsys, config, tmp_path, snr_db):
        """Exit code and stderr of a fit whose first 100 records log ``snr_db``."""
        synth_logs(config, tmp_path / "logs", noise="none", windows=5)
        log = tmp_path / "logs" / "s0.csv"
        lines = log.read_text().splitlines()
        lines[1:101] = [line.rsplit(",", 1)[0] + f",{snr_db}" for line in lines[1:101]]
        log.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "fit", "--config", str(config), str(log))
        return code, err

    def test_snr_beyond_float_range_exit_2(self, config_factory, tmp_path, capsys):
        # 10^(4000/10) overflows a float: the first window is named, no traceback
        code, err = self.fit_with_first_snr(capsys, config_factory(), tmp_path, 4000.0)
        assert code == 2
        assert err.splitlines() == [err.strip()] and err.startswith("error: ")
        assert "'s0' window 1 of 5" in err and "Traceback" not in err

    def test_snr_below_float_range_exit_2(self, config_factory, tmp_path, capsys):
        # 10^(-4000/10) underflows to 0.0, which is no power ratio either
        code, err = self.fit_with_first_snr(capsys, config_factory(), tmp_path, -4000.0)
        assert code == 2
        assert err.splitlines() == [err.strip()] and err.startswith("error: ")
        assert "'s0' window 1 of 5: mean snr_db -4000.0 is too small" in err and "Traceback" not in err

    def test_csv_format(self, config_factory, tmp_path, capsys):
        config = config_factory()
        logs = synth_logs(config, tmp_path / "logs", noise="none", windows=40)
        code, out, _ = run(
            capsys, "fit", "--config", str(config), "--format", "csv", *[str(p) for p in logs]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "station_id,jitter_m,n_samples,rss_contribution"
        assert lines[-1].startswith("C,")

    def test_every_output_renders_one_fit_table(self, config_factory, tmp_path, capsys):
        # seed 2 clamps s1 to J = 0 and leaves s0 and s2 above it
        def mutate(cfg):
            cfg["stations"][2]["jitter_m"] = 1.41

        config = config_factory(mutate=mutate)
        logs = synth_logs(config, tmp_path / "logs", noise="gauss", windows=40, seed=2)
        argv = ["fit", "--config", str(config), *map(str, logs)]
        code, text, _ = run(capsys, *argv)
        assert code == 0
        code, csv_out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0

        header, *rows = [line.split(",") for line in (tmp_path / "fit_report.csv").read_text().splitlines()]
        assert header == ["station_id", "jitter_m", "n_samples", "rss_contribution"]
        table = [(sid, float(value), int(n), float(rss)) for sid, value, n, rss in rows]
        *stations, (c_id, c_m, n_total, rss_m4) = table
        assert [sid for sid, *_ in stations] == ["s0", "s1", "s2"] and c_id == "C"
        assert stations[1][1] == 0.0 and stations[0][1] > 0.0 and stations[2][1] > 0.0
        assert n_total == sum(n for *_, n, _ in stations) and rss_m4 == sum(rss for *_, rss in stations)

        params = yaml.safe_load((tmp_path / "fitted_params.yaml").read_text())
        assert list(params) == ["jitter_m", "c_m"]
        assert list(params["jitter_m"].items()) == [(sid, j) for sid, j, _, _ in stations]
        assert params["c_m"] == c_m

        printed = [[sid, f"{value:.6f}", str(n), f"{rss:.6g}"] for sid, value, n, rss in table]
        assert csv_out.splitlines() == [",".join(header), *map(",".join, printed)]
        *station_lines, c_line, rss_line, report_line, params_line = text.splitlines()
        assert station_lines == [f"{sid}: J = {j} m  (n={n}, rss={rss} m^4)" for sid, j, n, rss in printed[:-1]]
        assert c_line == f"C = {printed[-1][1]} m" and rss_line == f"RSS = {printed[-1][3]} m^4"
        assert report_line.startswith("fit report: ") and params_line.startswith("params: ")

    def test_station_split_over_two_files_fits_like_one(self, config_factory, tmp_path, capsys):
        config = config_factory()
        logs = synth_logs(config, tmp_path / "logs", noise="gauss", windows=20, seed=2)

        def fit(paths):
            outs = [run(capsys, "fit", "--config", str(config), *map(str, paths), *fmt)
                    for fmt in ([], ["--format", "csv"])]
            assert all(code == 0 for code, _, _ in outs)
            files = [(tmp_path / name).read_bytes() for name in ("fitted_params.yaml", "fit_report.csv")]
            return [out for _, out, _ in outs], files

        whole = fit(logs)
        header, *rows = logs[1].read_text(encoding="utf-8").splitlines(keepends=True)
        split = 7 * 100  # a window boundary at window_len 100
        parts = [tmp_path / "s1_a.csv", tmp_path / "s1_b.csv"]
        parts[0].write_text(header + "".join(rows[:split]), encoding="utf-8")
        parts[1].write_text(header + "".join(rows[split:]), encoding="utf-8")
        assert fit([logs[0], *parts, logs[2]]) == whole

    @pytest.mark.parametrize("order, code", [("twice", 2), ("split", 0), ("reversed", 2)])
    def test_station_files_must_be_in_time_order(self, tmp_path, capsys, order, code):
        # the shipped scenario's seed-3 fit with chungju's log given twice, split in two or split and reversed
        config = tmp_path / "korea_mf.yaml"
        config.write_bytes(SHIPPED_CONFIG.read_bytes())
        synth_logs(config, tmp_path / "logs", seed=3, windows=50)
        eocheong, palmi, chungju = (str(tmp_path / "logs" / f"{sid}.csv") for sid in ("eocheong", "palmi", "chungju"))
        header, *rows = (tmp_path / "logs" / "chungju.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        parts = [tmp_path / "chungju_a.csv", tmp_path / "chungju_b.csv"]
        for part, chunk in zip(parts, (rows[:2000], rows[2000:])):  # a window boundary at window_len 100
            part.write_text(header + "".join(chunk), encoding="utf-8")
        given = {"twice": [chungju, chungju], "split": parts, "reversed": parts[::-1]}[order]
        got, out, err = run(capsys, "fit", "--config", str(config), eocheong, palmi, *map(str, given))
        assert got == code
        if code:
            assert err == "error: station 'chungju': timestamps must increase strictly\n"
        else:
            assert parse_fit_stdout(out) == ({"chungju": 0.0, "eocheong": 0.105551, "palmi": 0.0}, 22.115506)


class TestAccuracy:
    def test_point_inside_coverage(self, config_factory, capsys):
        code, out, err = run(
            capsys, "accuracy", "--config", str(config_factory()), "--lat", "36.0", "--lon", "127.0"
        )
        assert code == 0, err
        assert "usable stations: 3" in out
        acc_line = [l for l in out.splitlines() if l.startswith("accuracy_m,")]
        assert len(acc_line) == 1
        assert float(acc_line[0].split(",")[1]) > 0.0

    def test_masked_point(self, config_factory, capsys):
        def mutate(cfg):
            cfg["noise"]["level_dbuv_m"] = 150.0

        code, out, _ = run(
            capsys, "accuracy", "--config", str(config_factory(mutate=mutate)),
            "--lat", "36.0", "--lon", "127.0",
        )
        assert code == 0
        assert "masked,TooFewStations" in out

    def test_csv_format_station_rows(self, config_factory, capsys):
        code, out, _ = run(
            capsys, "accuracy", "--config", str(config_factory()),
            "--lat", "36.0", "--lon", "127.0", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "station_id,snr_db,snr_linear,sigma2_m2,azimuth_rad,usable"
        assert len(lines) == 5  # header + 3 stations + result
        for line in lines[1:4]:
            fields = line.split(",")
            assert len(fields) == 6
            assert fields[5] in ("0", "1")

    @pytest.mark.parametrize(
        "section, value, named",
        [
            ("propagation", {"kind": "grid", "grids": {"s0": "wide.csv", "s1": "wide.csv", "s2": "wide.csv"}},
             "field lattice of station 's0'"),
            ("noise", {"grid": "wide.csv"}, "noise lattice"),
        ],
        ids=["field", "noise"],
    )
    def test_point_outside_a_lattice_names_it_exit_2(self, config_factory, tmp_path, capsys, section, value, named):
        write_field_grid(FieldGrid([34.0, 38.0], [125.0, 129.0], np.full((2, 2), 60.0)), tmp_path / "wide.csv")
        config = config_factory(mutate=lambda cfg: cfg.update({section: value}))
        code, out, err = run(capsys, "accuracy", "--config", str(config), "--lat", "33.5", "--lon", "127.0")
        assert (code, out) == (2, "")
        assert err == f"error: {named}: query outside lattice lat [34.0, 38.0], lon [125.0, 129.0]\n"

    def test_latitude_out_of_range_exit_2(self, config_factory, capsys):
        code, _, err = run(
            capsys, "accuracy", "--config", str(config_factory()), "--lat", "91", "--lon", "0"
        )
        assert code == 2
        assert "latitude" in err

    def test_matches_equiangular_closed_form(self, config_factory, tmp_path, capsys):
        # stations at equal distance on bearings 0/120/240 from the query point
        entries = []
        for i, b in enumerate([0.0, 120.0, 240.0]):
            lat, lon = destination_point(36.0, 127.0, math.radians(b), 150_000.0)
            entries.append({"id": f"s{i}", "lat_deg": lat, "lon_deg": lon,
                            "power_w": 300.0, "carrier_hz": 300000.0, "jitter_m": 0.0})

        def mutate(cfg):
            cfg["stations"] = entries
            cfg["propagation"]["atten_db_per_km"] = 0.0

        code, out, _ = run(
            capsys, "accuracy", "--config", str(config_factory(mutate=mutate)),
            "--lat", "36.0", "--lon", "127.0", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        snr_linear = float(lines[1].split(",")[1 + 1])
        sigma = math.sqrt(22.15 ** 2 / snr_linear)
        expected = 4.0 * sigma / math.sqrt(3.0)
        acc = float(lines[-1].split(",")[1])
        assert acc == pytest.approx(expected, rel=1e-4)


class TestCoverage:
    def test_writes_outputs_and_summary(self, config_factory, tmp_path, capsys):
        config = config_factory()
        code, out, err = run(capsys, "coverage", "--config", str(config))
        assert code == 0, err
        assert (tmp_path / "coverage.csv").exists()
        assert (tmp_path / "coverage.pgm").exists()
        assert "cells: 81" in out
        assert "unmasked: " in out

    def test_rerun_is_bitwise_identical(self, config_factory, tmp_path, capsys):
        config = config_factory()
        run(capsys, "coverage", "--config", str(config))
        first = (tmp_path / "coverage.csv").read_bytes()
        run(capsys, "coverage", "--config", str(config))
        assert (tmp_path / "coverage.csv").read_bytes() == first

    def test_thread_count_is_bitwise_identical(self, config_factory, tmp_path, capsys):
        config = config_factory()
        run(capsys, "coverage", "--config", str(config), "--threads", "1")
        serial = (tmp_path / "coverage.csv").read_bytes()
        run(capsys, "coverage", "--config", str(config), "--threads", "8")
        assert (tmp_path / "coverage.csv").read_bytes() == serial

    def test_negative_threads_exit_2(self, config_factory, tmp_path, capsys):
        config = config_factory()
        code, out, err = run(capsys, "coverage", "--config", str(config), "--threads", "-3")
        assert code == 2
        assert "threads" in err and out == ""
        assert not (tmp_path / "coverage.csv").exists()

    def test_grid_too_large_exit_4(self, config_factory, capsys):
        # 1e-4 gives ~400M cells; at 1e-308 and 5e-324 span / step is inf
        for step in (1e-4, 1e-308, 5e-324):
            def mutate(cfg):
                cfg["grid"]["step_deg"] = step

            code, _, err = run(capsys, "coverage", "--config", str(config_factory(mutate=mutate)))
            assert code == 4, step
            assert err.startswith("error: ") and err.endswith(" cells exceeds the limit of 10000000\n"), err
            assert err.count("\n") == 1, err

    def test_grid_too_large_names_the_step_not_the_count(self, config_factory, capsys):
        # the exact count at this step has 602 digits
        def mutate(cfg):
            cfg["grid"]["step_deg"] = 1.0e-300

        code, _, err = run(capsys, "coverage", "--config", str(config_factory(mutate=mutate)))
        assert code == 4
        assert err == "error: step_deg 1e-300: about 1e600 cells exceeds the limit of 10000000\n"

    def test_no_grid_section_exit_2(self, config_factory, capsys):
        def mutate(cfg):
            del cfg["grid"]

        code, _, err = run(capsys, "coverage", "--config", str(config_factory(mutate=mutate)))
        assert code == 2

    def test_config_error_exit_2(self, config_factory, capsys):
        def mutate(cfg):
            cfg["stations"][0]["id"] = cfg["stations"][1]["id"]

        code, _, err = run(capsys, "coverage", "--config", str(config_factory(mutate=mutate)))
        assert code == 2

    @pytest.mark.parametrize(
        "section, update, named",
        [
            ("fit", {"detrend": "quadratic"}, "fit.detrend: expected 'none' or 'linear', got 'quadratic'"),
            ("stations", {1: 2, "grdi": 3}, "stations[0]: unknown keys [1, 'grdi']"),
            ("outputs", {"coverage_csv": None}, "outputs.coverage_csv: expected a non-empty string, got None"),
            ("outputs", {"fit_report_csv": [1, 2]}, "outputs.fit_report_csv: expected a non-empty string, got [1, 2]"),
            ("noise", {"season": "Averaged", "percentile": 0.95}, "noise: unknown keys ['percentile', 'season']"),
        ],
        ids=["bad-value", "mixed-keys", "null-path", "list-path", "retired-noise-labels"],
    )
    def test_config_error_names_the_key_exit_2(self, config_factory, tmp_path, capsys, section, update, named):
        def mutate(cfg):
            (cfg[section][0] if section == "stations" else cfg[section]).update(update)

        code, out, err = run(capsys, "coverage", "--config", str(config_factory(mutate=mutate)))
        assert (code, out, err) == (2, "", f"error: {named}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]

    def test_two_outputs_naming_one_file_exit_2(self, config_factory, tmp_path, capsys):
        config = config_factory(mutate=lambda cfg: cfg["outputs"].update(coverage_pgm="coverage.csv"))
        (tmp_path / "coverage.csv").write_bytes(b"an earlier map\n")
        code, out, err = run(capsys, "coverage", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: outputs.coverage_pgm: {tmp_path}/coverage.csv is the same file as outputs.coverage_csv\n"
        assert (tmp_path / "coverage.csv").read_bytes() == b"an earlier map\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["coverage.csv", "run.yaml"]

    def test_grid_beyond_pole_exit_2(self, config_factory, tmp_path, capsys):
        def mutate(cfg):
            cfg["grid"] = {"lat_min": 85.0, "lat_max": 95.0, "lon_min": 120.0, "lon_max": 121.0,
                           "step_deg": 1.0}

        code, out, err = run(capsys, "coverage", "--config", str(config_factory(mutate=mutate)))
        assert code == 2
        assert "grid" in err and "[-90, 90]" in err and out == ""
        assert not (tmp_path / "coverage.csv").exists()

    def test_last_node_rounding_past_the_lattice_edge_exit_0(self, config_factory, tmp_path, capsys):
        # the grid's last latitude node, 9.957 + 97 * 0.1, rounds a few ulps
        # above 19.657, where the lattices end
        lattice = FieldGrid([9.957, 19.657], [120.0, 121.0], np.full((2, 2), 60.0))
        for sid in ("s0", "s1", "s2"):
            write_field_grid(lattice, tmp_path / f"{sid}.csv")

        def mutate(cfg):
            cfg["propagation"] = {"kind": "grid", "grids": {sid: f"{sid}.csv" for sid in ("s0", "s1", "s2")}}
            cfg["grid"] = {"lat_min": 9.957, "lat_max": 19.657, "lon_min": 120.0, "lon_max": 121.0, "step_deg": 0.1}

        code, out, err = run(capsys, "coverage", "--config", str(config_factory(mutate=mutate)))
        assert (code, err) == (0, "")
        assert "cells: 1078\n" in out
        last = (tmp_path / "coverage.csv").read_text().splitlines()[-1]
        assert last.startswith("19.657000,121.000000,")

    def test_missing_config_exit_2(self, capsys):
        code, _, err = run(capsys, "coverage", "--config", "/no/run.yaml")
        assert code == 2
        assert "/no/run.yaml" in err

    def test_halving_step_scales_cell_count(self, config_factory, tmp_path, capsys):
        config = config_factory()
        _, out_coarse, _ = run(capsys, "coverage", "--config", str(config))
        def mutate(cfg):
            cfg["grid"]["step_deg"] = 0.125
        config2 = config_factory(mutate=mutate, name="run2.yaml")
        _, out_fine, _ = run(capsys, "coverage", "--config", str(config2))
        coarse = int(out_coarse.splitlines()[0].split(": ")[1])
        fine = int(out_fine.splitlines()[0].split(": ")[1])
        assert coarse == 9 * 9 and fine == 17 * 17  # floor(2/0.25)+1 vs floor(2/0.125)+1

    def test_contour_output(self, config_factory, tmp_path, capsys):
        def mutate(cfg):
            cfg["outputs"]["contour_csv"] = "contour.csv"
            cfg["outputs"]["contour_limit_m"] = 10.0

        code, _, err = run(capsys, "coverage", "--config", str(config_factory(mutate=mutate)))
        assert code == 0, err
        lines = (tmp_path / "contour.csv").read_text().splitlines()
        assert lines[0] == "lat_deg,lon_deg"


@pytest.mark.parametrize(
    "command", [["coverage"], ["accuracy", "--lat", "36.0", "--lon", "127.0"]], ids=["coverage", "accuracy"]
)
def test_nan_noise_level_exit_2(config_factory, tmp_path, capsys, command):
    def mutate(cfg):
        cfg["noise"]["level_dbuv_m"] = float("nan")

    config = config_factory(mutate=mutate)
    assert "level_dbuv_m: .nan" in config.read_text()
    code, out, err = run(capsys, command[0], "--config", str(config), *command[1:])
    assert code == 2
    assert "noise.level_dbuv_m" in err and out == ""
    assert not (tmp_path / "coverage.csv").exists()


class TestSynth:
    """Synthetic logs come from the library, as the fit tests above write them; the CLI has no synth command."""

    def test_same_seed_same_bytes(self, tmp_path):
        def log_bytes(name, seed):
            log = synth_station_log("s0", 0.0, 22.15, 999.3, np.logspace(0.0, 3.0, 20), 100, noise="gauss",
                                    rng=np.random.default_rng([seed, 0]))
            write_measurement_csv(log, tmp_path / name)
            return (tmp_path / name).read_bytes()

        a, b, c = log_bytes("a.csv", 5), log_bytes("b.csv", 5), log_bytes("c.csv", 6)
        assert a == b
        assert a != c

    def test_logs_parse_cleanly(self, config_factory, tmp_path):
        synth_logs(config_factory(), tmp_path / "logs", windows=5)
        (log,) = parse_measurement_file(tmp_path / "logs" / "s1.csv")
        assert log.timestamp.size == 500
        assert log.station_id == "s1"
        assert all(-math.pi <= p < math.pi for p in log.phase_rad)

    def test_synth_command_exit_2(self, config_factory, tmp_path, capsys):
        assert main(["synth", "--config", str(config_factory()), "--out-dir", str(tmp_path / "logs")]) == 2
        err = capsys.readouterr().err
        # the usage line lists every command the parser accepts
        assert err.startswith("usage: rmodesim [-h] {fit,accuracy,coverage} ...\n")
        assert "invalid choice: 'synth'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]


@pytest.mark.parametrize(
    "command", [["coverage"], ["accuracy", "--lat", "36.0", "--lon", "127.0"]], ids=["coverage", "accuracy"]
)
def test_point_on_a_transmitter_site_exit_2(config_factory, tmp_path, capsys, command):
    def mutate(cfg):
        cfg["stations"][0]["lat_deg"], cfg["stations"][0]["lon_deg"] = 36.0, 127.0  # a grid node

    code, out, err = run(capsys, command[0], "--config", str(config_factory(mutate=mutate)), *command[1:])
    assert code == 2
    assert "site of station 's0'" in err and out == ""
    assert not (tmp_path / "coverage.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--threads", "2", "s0.csv"],
        ["accuracy", "--seed", "1", "--lat", "36.0", "--lon", "127.0"],
        ["coverage", "--seed", "1"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[1]}",
)
def test_option_of_another_subcommand_exit_2(config_factory, tmp_path, capsys, argv):
    assert main([argv[0], "--config", str(config_factory()), *argv[1:]]) == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]


@pytest.mark.parametrize("argv", [["--help"], ["coverage", "--help"]], ids=["main", "coverage"])
def test_help_prints_usage_and_returns_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: rmodesim")


def test_each_subcommand_takes_its_own_options(config_factory, tmp_path, capsys):
    config = str(config_factory())
    logs = list(map(str, synth_logs(config, tmp_path / "logs", seed=1, windows=5)))
    assert run(capsys, "fit", "--config", config, *logs, "--format", "csv")[0] == 0
    assert run(capsys, "coverage", "--config", config, "--threads", "2", "--format", "csv")[0] == 0


def test_reserved_station_id_exit_2(config_factory, tmp_path, capsys):
    def mutate(cfg):
        cfg["stations"][0]["id"] = "C"

    code, out, err = run(capsys, "coverage", "--config", str(config_factory(mutate=mutate)))
    assert code == 2
    assert "stations[0].id" in err and out == ""
    assert not (tmp_path / "coverage.csv").exists()


ERROR_CLASSES = [c for c in vars(rmodesim.errors).values() if isinstance(c, type) and issubclass(c, RmodeError)]
# the errors that do not exit 2; every other toolkit error inherits RmodeError's 2
EXIT_CODES = {"InsufficientDataError": 3, "InsufficientSamplesError": 3, "DegenerateDesignError": 3,
              "NnlsConvergenceError": 3, "GridTooLargeError": 4}


@pytest.mark.parametrize("cls", [*ERROR_CLASSES, OSError, ValueError], ids=lambda cls: cls.__name__)
def test_error_class_sets_the_exit_status(config_factory, capsys, monkeypatch, cls):
    code = EXIT_CODES.get(cls.__name__, 2)
    if issubclass(cls, RmodeError):
        assert cls.exit_code == code
        assert ("exit_code" in vars(cls)) == (cls.__name__ in EXIT_CODES or cls is RmodeError)
    exc = cls(7, "bad field") if cls is ParseError else cls(f"a {cls.__name__} from the subcommand")

    def fail(path):
        raise exc

    monkeypatch.setattr(rmodesim.cli, "load_config", fail)
    got = run(capsys, "accuracy", "--config", str(config_factory()), "--lat", "36.0", "--lon", "127.0")
    assert got == (code, "", f"error: {exc}\n")


@pytest.mark.parametrize("case", ["coverage_csv", "fit_report_csv", "log"])
def test_directory_where_a_file_is_expected_exit_2(config_factory, tmp_path, capsys, case):
    def mutate(cfg):
        if case != "log":
            cfg.setdefault("outputs", {})[case] = "."

    config = str(config_factory(mutate=mutate))
    if case == "coverage_csv":
        argv = ["coverage", "--config", config]
    else:
        logs = synth_logs(config, tmp_path / "logs", windows=5)
        argv = ["fit", "--config", config, *map(str, [tmp_path / "logs"] if case == "log" else logs)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and out == ""


@pytest.mark.parametrize(
    "command, directory, existing",
    [("fit", "fitted_params.yaml", None), ("fit", "fitted_params.yaml", "fit_report.csv"),
     ("coverage", "contour.csv", "coverage.pgm")],
    ids=["fit", "fit-existing-report", "coverage"],
)
def test_an_output_that_is_a_directory_leaves_every_file_as_it_was_exit_2(
    config_factory, tmp_path, capsys, command, directory, existing
):
    # the last output each command writes is a directory, so at the parent the
    # outputs written before it were new or overwritten
    def mutate(cfg):
        cfg["outputs"]["contour_csv"] = "contour.csv"

    config = str(config_factory(mutate=mutate))
    argv = [command, "--config", config]
    if command == "fit":
        argv += map(str, synth_logs(config, tmp_path / "logs", windows=5))
    (tmp_path / directory).mkdir()
    if existing:
        (tmp_path / existing).write_bytes(b"an earlier run\n")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path / directory}'\n"
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_symlinked_output_is_written_through_to_its_target(config_factory, tmp_path, capsys):
    target = tmp_path / "maps" / "coverage.csv"
    target.parent.mkdir()
    (tmp_path / "coverage.csv").symlink_to(target)
    code, _, err = run(capsys, "coverage", "--config", str(config_factory()))
    assert code == 0, err
    assert (tmp_path / "coverage.csv").is_symlink()
    assert target.read_text().startswith("lat_deg,lon_deg,accuracy_m,usable_count,mask\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["coverage.csv", "coverage.csv", "coverage.pgm", "maps", "run.yaml"]


def test_outputs_take_the_mode_a_plain_open_gives(config_factory, tmp_path, capsys):
    code, _, err = run(capsys, "coverage", "--config", str(config_factory()))
    assert code == 0, err
    with open(tmp_path / "plain", "w"):
        pass
    mode = (tmp_path / "plain").stat().st_mode
    assert (tmp_path / "coverage.csv").stat().st_mode == (tmp_path / "coverage.pgm").stat().st_mode == mode


# waits for a line on stdin before running the command, so the reader can
# close stdout first, as `rmodesim accuracy ... | head -1` does
_AFTER_GO = (
    "import sys\n"
    "from rmodesim.cli import main\n"
    "print('ready', flush=True)\n"
    "sys.stdin.readline()\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_without_traceback(config_factory, unbuffered):
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:  # each print writes at once, so the command itself meets the closed pipe
        env["PYTHONUNBUFFERED"] = "1"
    argv = ["accuracy", "--config", str(config_factory()), "--lat", "36.0", "--lon", "127.0"]
    proc = subprocess.Popen([sys.executable, "-c", _AFTER_GO, *argv], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"ready\n"
    proc.stdout.close()
    _, err = proc.communicate(b"go\n", timeout=120)
    assert proc.returncode == 1
    assert err == b""
