import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmodesim import StationLog, parse_measurement_file, unwrap_phase, wavelength_m, window_variance
from rmodesim.errors import EmptyInputError, InsufficientDataError, ParseError
from rmodesim.ingest import group_by_station
from rmodesim.synth import synth_station_log

from helpers import polyfit_detrended_variance

HEADER = "timestamp,station_id,phase_rad,snr_db\n"


def write(tmp_path, text, name="meas.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def make_log(phases, station="stn", snr_db=20.0, t0=0.0):
    n = len(phases)
    return StationLog(station, t0 + np.arange(n), phases, np.full(n, snr_db))


class TestParse:
    def test_header_only_gives_empty_list(self, tmp_path):
        assert parse_measurement_file(write(tmp_path, HEADER)) == []

    def test_single_row_round_trip(self, tmp_path):
        path = write(tmp_path, HEADER + "1.5,stn_a,-0.25,12.5\n")
        (log,) = parse_measurement_file(path)
        assert log.station_id == "stn_a"
        assert (log.timestamp.tolist(), log.phase_rad.tolist(), log.snr_db.tolist()) == ([1.5], [-0.25], [12.5])

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "# comment\n" + HEADER + "# another\n1.0,a,0.1,10\n\n2.0,a,0.2,11\n"
        (log,) = parse_measurement_file(write(tmp_path, text))
        assert log.timestamp.size == 2

    def test_non_numeric_phase_rejected_with_row(self, tmp_path):
        path = write(tmp_path, HEADER + "1.0,a,0.1,10\n2.0,a,oops,10\n")
        with pytest.raises(ParseError) as exc:
            parse_measurement_file(path)
        assert exc.value.row == 3

    def test_bad_row_after_comments_reports_its_file_line(self, tmp_path):
        text = "# log\n" + HEADER + "# note\n1.0,a,0.1,10\n\n2.0,a,0.2,11\n1.5,a,0.3,12\n"
        with pytest.raises(ParseError, match="row 7: timestamp 1.5 not increasing for station a") as exc:
            parse_measurement_file(write(tmp_path, text))
        assert exc.value.row == 7

    def test_missing_column_rejected(self, tmp_path):
        path = write(tmp_path, HEADER + "1.0,a,0.1\n")
        with pytest.raises(ParseError):
            parse_measurement_file(path)

    def test_bad_header_rejected(self, tmp_path):
        path = write(tmp_path, "time,station,phase,snr\n1.0,a,0.1,10\n")
        with pytest.raises(ParseError):
            parse_measurement_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_measurement_file(tmp_path / "nope.csv")

    def test_non_increasing_timestamp_rejected(self, tmp_path):
        path = write(tmp_path, HEADER + "2.0,a,0.1,10\n2.0,a,0.2,10\n")
        with pytest.raises(ParseError) as exc:
            parse_measurement_file(path)
        assert exc.value.row == 3

    def test_interleaved_stations_allowed(self, tmp_path):
        text = HEADER + "1.0,a,0.1,10\n1.0,b,0.3,8\n2.0,a,0.2,10\n2.0,b,0.4,8\n"
        groups = group_by_station(parse_measurement_file(write(tmp_path, text)))
        assert sorted(groups) == ["a", "b"]
        assert groups["a"].timestamp.tolist() == [1.0, 2.0]

    def test_phase_of_exactly_pi_parses(self, tmp_path):
        # the check is closed on purpose: the wrap np.mod(x + pi, 2*pi) - pi, as
        # synth_station_log writes it, turns x just under -pi into +pi exactly
        x = -np.pi - 3e-16
        assert np.mod(x + np.pi, 2.0 * np.pi) - np.pi == np.pi
        (log,) = parse_measurement_file(write(tmp_path, HEADER + f"1.0,a,{np.pi!r},10\n2.0,a,{-np.pi!r},10\n"))
        assert log.phase_rad.tolist() == [np.pi, -np.pi]

    @pytest.mark.parametrize("bad", [math.nextafter(math.pi, 4.0), -180.0])
    def test_phase_outside_pi_rejected_naming_file_station_and_value(self, tmp_path, bad):
        path = write(tmp_path, HEADER + f"1.0,a,0.5,10\n2.0,b,0.5,10\n3.0,b,{bad!r},10\n4.0,b,{2 * bad!r},10\n")
        with pytest.raises(ValueError) as exc:
            parse_measurement_file(path)
        assert str(exc.value) == f"{path}: station 'b': phase_rad {bad!r} is outside [-pi, pi]; phases must be in radians"

    def test_logs_of_one_station_join_in_input_order(self):
        b = make_log([0.3], station="b")
        groups = group_by_station([make_log([0.1, 0.2]), b, make_log([0.4], t0=2.0)])
        assert list(groups) == ["stn", "b"]
        assert groups["b"] is b  # a station's only log comes back uncopied
        assert groups["stn"].timestamp.tolist() == [0.0, 1.0, 2.0]
        assert groups["stn"].phase_rad.tolist() == [0.1, 0.2, 0.4]

    @pytest.mark.parametrize("t0", [1.0, 0.0, -1.0], ids=["overlap", "repeat", "earlier"])
    def test_logs_of_one_station_out_of_time_order_raise(self, t0):
        with pytest.raises(ValueError, match=r"^station 'stn': timestamps must increase strictly$"):
            group_by_station([make_log([0.1, 0.2]), make_log([0.3], station="b"), make_log([0.4], t0=t0)])


class TestUnwrap:
    def test_no_wraps_unchanged(self):
        out = unwrap_phase([0.1, 0.2, 0.3])
        assert np.array_equal(out, [0.1, 0.2, 0.3])

    def test_single_jump_removed(self):
        out = unwrap_phase([3.1, -3.1])
        assert out[0] == 3.1
        assert out[1] == pytest.approx(-3.1 + 2.0 * math.pi, abs=1e-12)  # 3.18319

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            unwrap_phase([])

    def test_steps_land_in_half_open_interval(self):
        rng = np.random.default_rng(3)
        walk = np.cumsum(rng.uniform(-2.5, 2.5, size=500))
        wrapped = np.mod(walk + np.pi, 2 * np.pi) - np.pi
        steps = np.diff(unwrap_phase(wrapped))
        assert np.all(steps > -np.pi) and np.all(steps <= np.pi)

    def test_boundary_step_maps_to_plus_pi(self):
        out = unwrap_phase([0.0, -np.pi])
        assert out[1] == np.pi

    @given(
        st.lists(
            st.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=200)
    def test_congruence_mod_two_pi(self, wrapped):
        out = unwrap_phase(wrapped)
        delta = out - np.asarray(wrapped)
        residual = delta - 2.0 * math.pi * np.round(delta / (2.0 * math.pi))
        assert np.all(np.abs(residual) < 1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        wrapped = rng.uniform(-np.pi, np.pi, size=1000)
        once = unwrap_phase(wrapped)
        twice = unwrap_phase(once)
        assert np.allclose(once, twice, atol=1e-9)


class TestWindowVariance:
    def test_constant_phase_gives_zero(self):
        samples = window_variance(make_log([0.7] * 100), window_len=100, wavelength_m=wavelength_m(300e3))
        assert len(samples) == 1
        assert samples[0]["toa_var_m2"] == 0.0

    def test_unit_phase_variance_scales_by_wavelength_factor(self):
        # pattern with sample variance exactly 1 rad^2
        n = 100
        d = math.sqrt((n - 1) / n)
        pattern = [d if i % 2 == 0 else -d for i in range(n)]
        lam = 999.308
        (sample,) = window_variance(make_log(pattern), window_len=n, wavelength_m=lam)
        assert sample["toa_var_m2"] == pytest.approx((lam / (2 * math.pi)) ** 2, rel=1e-12)
        assert sample["toa_var_m2"] == pytest.approx(25_295.0, abs=1.0)

    def test_partition_discards_remainder(self):
        samples = window_variance(make_log([0.0] * 250), window_len=100, wavelength_m=wavelength_m(300e3))
        assert len(samples) == 2

    def test_linear_detrend_needs_three_records_per_window(self):
        with pytest.raises(ValueError, match=r"^linear detrend needs window_len >= 3$"):
            window_variance(make_log([0.0] * 10), window_len=2, wavelength_m=wavelength_m(300e3), detrend="linear")

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            window_variance(make_log([0.0] * 99), window_len=100, wavelength_m=wavelength_m(300e3))

    def test_phase_offset_invariance(self):
        rng = np.random.default_rng(5)
        phases = rng.normal(0.0, 0.05, size=300)
        base = window_variance(make_log(list(phases)), window_len=100, wavelength_m=wavelength_m(300e3))
        shifted = window_variance(make_log(list(phases + 0.4)), window_len=100, wavelength_m=wavelength_m(300e3))
        for a, b in zip(base, shifted):
            assert a["toa_var_m2"] == pytest.approx(b["toa_var_m2"], rel=1e-9, abs=1e-15)

    def test_wavelength_squared_scaling_is_exact(self):
        rng = np.random.default_rng(6)
        recs = make_log(list(rng.normal(0.0, 0.05, size=200)))
        base = window_variance(recs, window_len=100, wavelength_m=500.0)
        doubled = window_variance(recs, window_len=100, wavelength_m=1000.0)
        for a, b in zip(base, doubled):
            assert b["toa_var_m2"] == 4.0 * a["toa_var_m2"]

    def test_snr_mean_in_db_then_linear(self):
        log = StationLog("s", [0.0, 1.0], [0.0, 0.0], [10.0, 20.0])
        (sample,) = window_variance(log, window_len=2, wavelength_m=wavelength_m(300e3))
        assert sample["snr_linear"] == pytest.approx(10.0 ** 1.5, rel=1e-12)

    def test_unwrap_happens_before_windowing(self):
        # a slow ramp crossing +pi: the wrap must not inflate the variance
        ramp = np.linspace(3.0, 3.6, 100)
        wrapped = list(np.mod(ramp + np.pi, 2 * np.pi) - np.pi)
        (sample,) = window_variance(make_log(wrapped), window_len=100, wavelength_m=1.0)
        ramp_var = np.var(ramp, ddof=1) / (2 * math.pi) ** 2
        assert sample["toa_var_m2"] == pytest.approx(ramp_var, rel=1e-9)

    def test_linear_detrend_removes_clock_ramp(self):
        rng = np.random.default_rng(8)
        noise = rng.normal(0.0, 0.01, size=200)
        ramp = np.linspace(0.0, 2.0, 200)
        recs = make_log(list(ramp + noise))
        raw = window_variance(recs, window_len=100, wavelength_m=1.0)
        det = window_variance(recs, window_len=100, wavelength_m=1.0, detrend="linear")
        for r, d in zip(raw, det):
            assert d["toa_var_m2"] < 0.1 * r["toa_var_m2"]
        scale = 1.0 / (2 * math.pi) ** 2
        for d in det:
            assert d["toa_var_m2"] == pytest.approx(0.01 ** 2 * scale, rel=0.5)

    def test_linear_detrend_agrees_with_one_polyfit_per_window(self):
        # bound: 8 eps of each window's sum of squares before detrending, over n - 2; the
        # worst of 3,000 random logs was 2.5 eps, and on the logs that come nearest, where
        # the residual is a tiny part of that sum, the per-window polyfit is the one that errs
        rng = np.random.default_rng(13)
        for _ in range(300):
            n, n_windows = int(rng.choice([3, 4, 5, 10, 40, 100])), int(rng.integers(1, 20))
            t = np.arange(n * n_windows, dtype=float)
            slope = rng.uniform(-0.5, 0.5) * 10.0 ** rng.uniform(-2.0, 0.5)  # rad per record
            phase = slope * t + rng.normal(0.0, 10.0 ** rng.uniform(-4.0, 0.0), t.size)
            log = StationLog("s", t, np.mod(phase + np.pi, 2.0 * np.pi) - np.pi, np.full(t.size, 20.0))
            got = window_variance(log, n, 2.0 * math.pi, detrend="linear")["toa_var_m2"]
            p = unwrap_phase(log.phase_rad)[: n * n_windows].reshape(n_windows, n)
            p = p - p[:, :1]
            bound = 8.0 * np.finfo(float).eps * (p * p).sum(axis=1) / (n - 2)
            assert np.all(np.abs(got - polyfit_detrended_variance(log, n, 2.0 * math.pi)) <= bound)

    @pytest.mark.parametrize("window_len", [2, 3, 17, 100])
    @settings(max_examples=50, deadline=None)
    @given(
        n_windows=st.integers(1, 6),
        extra=st.integers(0, 99),
        offset=st.floats(-2.0, 2.0) | st.floats(-1e3 - 1.0, -1e3 + 1.0) | st.floats(1e3 - 1.0, 1e3 + 1.0),
        spread=st.floats(1e-8, 1e2),
        lam=st.floats(1.0, 3e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_no_detrend_is_numpy_sample_variance_bit_for_bit(self, window_len, n_windows, extra, offset, spread,
                                                             lam, seed):
        # the variance as np.var(ddof=1) of the windows anchored on their first element, kept as a reference
        n = n_windows * window_len + extra % window_len
        # offset stands for a large unwrapped phase: a drift of 3e-3 * offset rad per record, under pi, before the wrap
        phase = 3e-3 * offset * np.arange(n) + spread * np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        phase = np.mod(phase + np.pi, 2.0 * np.pi) - np.pi
        got = window_variance(StationLog("s", np.arange(n, dtype=float), phase, np.full(n, 20.0)), window_len, lam)
        p = unwrap_phase(phase)[: n_windows * window_len].reshape(n_windows, window_len)
        want = (lam / (2.0 * math.pi)) ** 2 * np.var(p - p[:, :1], axis=1, ddof=1)
        assert got["toa_var_m2"].tobytes() == want.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            window_variance(make_log([0.0] * 10), window_len=1, wavelength_m=wavelength_m(300e3))
        with pytest.raises(ValueError):
            window_variance(make_log([0.0] * 10), window_len=5, wavelength_m=wavelength_m(300e3), detrend="quadratic")
        with pytest.raises(ValueError):
            window_variance(make_log([0.0] * 10), window_len=5, wavelength_m=0.0)


def test_station_log_columns_must_share_one_length():
    with pytest.raises(ValueError):
        StationLog("s", [0.0, 1.0], [0.0], [10.0, 10.0])
    with pytest.raises(ValueError):
        StationLog("s", [[0.0]], [[0.0]], [[10.0]])


class TestPhaseRange:
    def synth(self, station="s0"):
        snrs = np.logspace(0.0, 3.0, 20)
        return synth_station_log(station, 0.5, 22.15, 999.3, snrs, 10, "gauss", np.random.default_rng(3))

    @pytest.mark.parametrize(
        "bad", [math.nextafter(math.pi, 4.0), -math.nextafter(math.pi, 4.0), math.nan, math.inf, 180.0],
        ids=["above", "below", "nan", "inf", "degrees"],
    )
    def test_phase_outside_pi_raises_naming_station_and_first_bad_value(self, bad):
        with pytest.raises(ValueError) as exc:
            make_log([0.5, bad, -2.0 * bad], station="b")
        assert str(exc.value) == f"station 'b': phase_rad {bad!r} is outside [-pi, pi]; phases must be in radians"

    def test_exactly_pi_and_synth_logs_accepted(self):
        assert make_log([np.pi, -np.pi]).phase_rad.tolist() == [np.pi, -np.pi]
        # synth_station_log builds a StationLog from its wrap, which can return +pi exactly
        for noise in ("none", "gauss"):
            snrs = np.logspace(0.0, 3.0, 50)
            log = synth_station_log("s0", 1.41, 22.15, 999.3, snrs, 100, noise, np.random.default_rng(0))
            assert log.phase_rad.size == 5000

    def test_degree_copy_of_a_synth_log_raises_at_construction(self):
        log = self.synth()
        degrees = np.degrees(log.phase_rad)
        first = float(degrees[np.flatnonzero(np.abs(degrees) > np.pi)[0]])
        with pytest.raises(ValueError, match=rf"^station 's0': phase_rad {re.escape(repr(first))} is outside"):
            StationLog(log.station_id, log.timestamp, degrees, log.snr_db)

    def test_joining_a_radian_and_a_degree_log_of_one_station_raises_naming_it(self):
        # a log-like record that never went through StationLog's check, as a caller's own type may be
        log = self.synth()
        later = SimpleNamespace(station_id="s0", timestamp=log.timestamp + log.timestamp.size,
                                phase_rad=np.degrees(log.phase_rad), snr_db=log.snr_db)
        msg = r"^station 's0': phase_rad .* is outside \[-pi, pi\]; phases must be in radians$"
        with pytest.raises(ValueError, match=msg):
            group_by_station([log, self.synth("s1"), later])
