import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmodesim import (
    WINDOW_DTYPE,
    ModelParams,
    fit_params,
    synth_station_log,
    wavelength_m,
    window_variance,
    write_fit_report_csv,
)
from rmodesim.errors import DegenerateDesignError, InsufficientSamplesError
from rmodesim.variance_model import toa_variance_m2

from helpers import grid_search_single_station, loop_fit_params, loop_rss_m4


def make_samples(jitter_by_station, c_m, snr_values, noise=None):
    samples = []
    for sid, j in jitter_by_station.items():
        for k, snr in enumerate(snr_values):
            s2 = j * j + c_m * c_m / snr
            if noise is not None:
                s2 = max(s2 + noise[sid][k], 0.0)
            samples.append((sid, float(snr), float(s2)))
    return samples


class TestPredict:
    def test_published_parameter_example(self):
        # 1.41^2 + 22.15^2/100 = 1.9881 + 4.906225
        assert toa_variance_m2(1.41, 22.15, 100.0) == pytest.approx(6.8943, abs=1e-4)

    def test_zero_jitter_at_unity_snr(self):
        assert toa_variance_m2(0.0, 22.15, 1.0) == pytest.approx(490.62, abs=0.01)

    def test_vanishes_at_high_snr_with_zero_jitter(self):
        assert toa_variance_m2(0.0, 22.15, 1e12) == pytest.approx(0.0, abs=1e-6)

    def test_strictly_decreasing_in_snr_when_c_positive(self):
        snrs = np.linspace(0.5, 200.0, 100)
        assert np.all(np.diff(toa_variance_m2(1.0, 5.0, snrs)) < 0.0)

    def test_constant_in_snr_when_c_zero(self):
        assert toa_variance_m2(2.0, 0.0, 1.0) == toa_variance_m2(2.0, 0.0, 1e6) == 4.0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams({"s": -0.1}, 1.0)
        with pytest.raises(ValueError):
            ModelParams({"s": 0.1}, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_rejected(self, bad):
        for make in (
            lambda: ModelParams({"s": bad}, 1.0),
            lambda: ModelParams({"s": 0.1}, bad),
            lambda: fit_params([("s", bad, 1.0), ("s", 20.0, 1.0)]),
            lambda: fit_params([("s", 10.0, 1.0), ("s", 20.0, bad)]),
        ):
            with pytest.raises(ValueError, match="finite"):
                make()


class TestFit:
    def test_noiseless_round_trip_at_published_values(self):
        true = {"eocheong": 0.0, "chungju": 1.41, "palmi": 0.0}
        snrs = np.logspace(0.0, 3.0, 500)
        params, report = fit_params(make_samples(true, 22.15, snrs))
        assert params.c_m == pytest.approx(22.15, rel=1e-6)
        assert params.jitter_m["chungju"] == pytest.approx(1.41, rel=1e-6)
        assert params.jitter_m["eocheong"] == 0.0
        assert params.jitter_m["palmi"] == 0.0
        assert report.rss_m4 < 1e-12

    def test_single_station_exact_linear_system(self):
        snrs = np.linspace(1.0, 100.0, 50)
        samples = [("s", float(x), 5.0 + 100.0 / x) for x in snrs]
        params, _ = fit_params(samples)
        assert params.jitter_m["s"] == pytest.approx(math.sqrt(5.0), rel=1e-9)
        assert params.c_m == pytest.approx(10.0, rel=1e-9)

    def test_negative_unconstrained_intercept_clamps_to_zero(self):
        # one station pins the shared curve, the other sits below it
        snrs = np.linspace(1.0, 50.0, 40)
        samples = [("on_curve", float(x), 100.0 / x) for x in snrs]
        samples += [("below", float(x), 80.0 / x) for x in snrs]
        params, _ = fit_params(samples)
        assert params.jitter_m["below"] == 0.0
        assert params.jitter_m["on_curve"] >= 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        true = {"a": 0.5, "b": 0.0}
        snrs = rng.uniform(1.0, 500.0, size=60)
        noise = {sid: rng.normal(0.0, 0.3, size=60) for sid in true}
        samples = make_samples(true, 8.0, snrs, noise)
        p1, r1 = fit_params(samples)
        shuffled = list(samples)
        rng.shuffle(shuffled)
        p2, r2 = fit_params(shuffled)
        assert p1.c_m == p2.c_m
        assert p1.jitter_m == p2.jitter_m
        assert r1.rss_m4 == r2.rss_m4

    def test_kkt_by_finite_differences(self):
        rng = np.random.default_rng(10)
        true = {"a": 1.2, "b": 0.0, "c": 0.4}
        snrs = rng.uniform(1.0, 800.0, size=150)
        noise = {sid: rng.normal(0.0, 0.5, size=150) for sid in true}
        samples = make_samples(true, 15.0, snrs, noise)
        params, report = fit_params(samples)

        sids = sorted(true)
        coeffs = np.array([params.jitter_m[s] ** 2 for s in sids] + [params.c_m ** 2])

        def rss_of(vec):
            p = ModelParams({s: math.sqrt(max(v, 0.0)) for s, v in zip(sids, vec[:-1])},
                            math.sqrt(max(vec[-1], 0.0)))
            return loop_rss_m4(p, samples)

        scale = max(report.rss_m4, 1.0)
        h = 1e-5 * max(1.0, float(np.abs(coeffs).max()))
        for i in range(coeffs.size):
            up = coeffs.copy()
            up[i] += h
            if coeffs[i] > 0.0:  # free parameter: stationary point
                down = coeffs.copy()
                down[i] -= h
                grad = (rss_of(up) - rss_of(down)) / (2.0 * h)
                assert abs(grad) <= 1e-6 * scale
            else:  # bound parameter: increasing it must not reduce the RSS
                grad = (rss_of(up) - report.rss_m4) / h
                assert grad >= -1e-6 * scale

    def test_fit_beats_random_perturbations(self):
        rng = np.random.default_rng(11)
        true = {"a": 0.8, "b": 0.0}
        snrs = rng.uniform(1.0, 300.0, size=80)
        noise = {sid: rng.normal(0.0, 0.4, size=80) for sid in true}
        samples = make_samples(true, 12.0, snrs, noise)
        params, report = fit_params(samples)
        for _ in range(100):
            perturbed = ModelParams(
                {s: abs(v + rng.normal(0.0, 0.2)) for s, v in params.jitter_m.items()},
                abs(params.c_m + rng.normal(0.0, 0.2)),
            )
            assert loop_rss_m4(perturbed, samples) >= report.rss_m4 - 1e-9 * max(report.rss_m4, 1.0)

    def test_matches_grid_search_oracle_single_station(self):
        rng = np.random.default_rng(12)
        snrs = rng.uniform(1.0, 200.0, size=60)
        noise = {"s": rng.normal(0.0, 1.0, size=60)}
        samples = make_samples({"s": 1.0}, 10.0, snrs, noise)
        params, report = fit_params(samples)
        a, b, rss = grid_search_single_station(
            [s[1] for s in samples], [s[2] for s in samples],
            a_max=25.0, b_max=400.0,
        )
        assert report.rss_m4 <= rss + 1e-9
        assert params.jitter_m["s"] ** 2 == pytest.approx(a, abs=0.02)
        assert params.c_m ** 2 == pytest.approx(b, abs=0.2)

    def test_grid_search_confirms_boundary_optimum(self):
        rng = np.random.default_rng(13)
        snrs = rng.uniform(1.0, 200.0, size=60)
        x = 1.0 / snrs
        y = np.maximum(90.0 * x - 0.05 + rng.normal(0.0, 0.05, size=60), 0.0)
        samples = [("s", float(s), float(v)) for s, v in zip(snrs, y)]
        params, report = fit_params(samples)
        assert params.jitter_m["s"] == 0.0
        _, _, rss = grid_search_single_station(snrs, y, a_max=5.0, b_max=200.0)
        assert report.rss_m4 <= rss + 1e-9

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            fit_params([])
        with pytest.raises(InsufficientSamplesError):
            fit_params([("s", 10.0, 1.0)])

    def test_degenerate_design_constant_snr(self):
        samples = [("s", 10.0, 1.0), ("s", 10.0, 1.2)]
        with pytest.raises(DegenerateDesignError):
            fit_params(samples)

    def test_trimming_discards_interference_bursts(self):
        rng = np.random.default_rng(14)
        snrs = np.linspace(1.0, 500.0, 100)
        samples = make_samples({"s": 1.0}, 10.0, snrs)
        # symmetric contamination: a burst and a too-clean sample
        samples[10] = ("s", samples[10][1], 1e5)
        samples[20] = ("s", samples[20][1], 0.0)
        raw, _ = fit_params(samples)
        trimmed, report = fit_params(samples, trim_fraction=0.05)
        assert len(samples) - sum(report.n_samples.values()) == 4
        assert abs(trimmed.c_m - 10.0) < 0.05
        assert abs(raw.c_m - 10.0) > abs(trimmed.c_m - 10.0)

    def test_trim_breaks_variance_ties_by_snr(self):
        # two bursts and two too-clean samples share one variance each, so
        # the trim boundary falls inside a tie whatever the input order
        samples = [("s", x, 1.0 + 100.0 / x) for x in np.arange(2.0, 40.0).tolist()]
        samples += [("s", 1.5, 500.0), ("s", 50.0, 500.0)]
        samples += [("s", 3.5, 0.5), ("s", 70.0, 0.5)]
        rng = np.random.default_rng(15)
        fits = set()
        for _ in range(50):
            rng.shuffle(samples)
            params, report = fit_params(samples, trim_fraction=0.05)
            fits.add(repr((params, report)))
        assert len(fits) == 1
        # the lower SNR of each tie sorts first, so the trim drops (3.5, 0.5)
        # and (50, 500) and keeps the other two
        kept = [s for s in samples if s[1:] not in {(3.5, 0.5), (50.0, 500.0)}]
        params, report = fit_params(kept)
        assert fits == {repr((params, report))}


def test_window_values_checked_by_fit():
    with pytest.raises(ValueError, match=r"^snr_linear must be finite and > 0, got 0\.0$"):
        fit_params([("s", 0.0, 1.0), ("s", 2.0, 1.0)])
    with pytest.raises(ValueError, match=r"^toa_var_m2 must be finite and >= 0, got -0\.5$"):
        fit_params([("s", 1.0, -0.5), ("s", 2.0, 1.0)])
    # the first bad window names the error, whichever column fails
    with pytest.raises(ValueError, match=r"^toa_var_m2 must be finite and >= 0, got nan$"):
        fit_params([("s", 1.0, math.nan), ("s", -1.0, 1.0)])
    fit_params([("s", 1.0, 0.0), ("s", 2.0, 1.0)])


def test_trim_fraction_must_be_under_one():
    with pytest.raises(ValueError, match=r"^trim_fraction must be in \[0, 1\), got 1\.0$"):
        fit_params([("s", 1.0, 0.5), ("s", 2.0, 1.0)], trim_fraction=1.0)


def test_synth_arguments_checked():
    with pytest.raises(ValueError, match=r"^noise must be 'none' or 'gauss', got 'uniform'$"):
        synth_station_log("s", 0.0, 22.15, 999.3, [10.0], 4, noise="uniform")
    with pytest.raises(ValueError, match=r"^gaussian noise needs an rng$"):
        synth_station_log("s", 0.0, 22.15, 999.3, [10.0], 4, noise="gauss")
    with pytest.raises(ValueError, match=r"^snr_linear values must be > 0$"):
        synth_station_log("s", 0.0, 22.15, 999.3, [10.0, 0.0], 4)


def test_synth_odd_window_is_zero_mean_with_the_target_variance():
    # an odd window ends on a zero, so the +1/-1 pattern stays zero-mean
    log = synth_station_log("s", 1.41, 22.15, 999.3, [10.0, 100.0], 5)
    phases = log.phase_rad.reshape(2, 5)
    assert (phases[:, -1] == 0.0).all()
    assert np.abs(phases.sum(axis=1)).max() < 1e-15
    target = (1.41**2 + 22.15**2 / np.array([10.0, 100.0])) * (2 * math.pi / 999.3) ** 2
    np.testing.assert_allclose(np.var(phases, axis=1, ddof=1), target, rtol=1e-12)
    windows = window_variance(log, window_len=5, wavelength_m=999.3)
    np.testing.assert_allclose(windows["toa_var_m2"], target * (999.3 / (2 * math.pi)) ** 2, rtol=1e-12)


def test_generator_of_windows_is_a_named_type_error():
    windows = [("s", 1.0, 0.5), ("s", 2.0, 1.0)]
    msg = r"^windows must be a sequence or structured array, got generator$"
    with pytest.raises(TypeError, match=msg):
        fit_params(w for w in windows)
    with pytest.raises(TypeError, match=r"got list_iterator$"):
        fit_params(iter(windows))
    fit_params(windows)


def test_tuple_of_windows_fits_like_the_list():
    windows = [("s", 1.0, 0.5), ("s", 2.0, 1.0), ("t", 1.0, 0.7), ("t", 3.0, 0.9)]
    assert repr(fit_params(tuple(windows))) == repr(fit_params(windows))
    records = np.concatenate([np.array(windows[:2], dtype=WINDOW_DTYPE), np.array(windows[2:], dtype=WINDOW_DTYPE)])
    assert repr(fit_params(tuple(records))) == repr(fit_params(list(records)))


@pytest.mark.parametrize("trim_fraction", [0.0, 0.1])
def test_windows_extended_per_station_fit_like_joined_windows(trim_fraction):
    # the glue of demos/01 and benchmarks/worker.py::pass_fit_logs: one
    # list.extend per station in sorted id order hands fit_params a list of
    # window_variance's records rather than one structured array
    snrs = np.linspace(1.0, 1000.0, 60)
    logs = {}
    for k, (sid, j) in enumerate([("palmi", 0.0), ("chungju", 1.41), ("eocheong", 0.3)]):
        rng = np.random.default_rng([5, k])
        logs[sid] = synth_station_log(sid, j, 22.15, 999.3, snrs, 40, noise="gauss", rng=rng)
    per_station = [window_variance(logs[sid], window_len=40, wavelength_m=999.3) for sid in sorted(logs)]
    assert all(w.dtype == WINDOW_DTYPE for w in per_station)
    samples = []
    for w in per_station:
        samples.extend(w)
    glue = repr(fit_params(samples, trim_fraction=trim_fraction))
    assert glue == repr(fit_params(np.concatenate(per_station), trim_fraction=trim_fraction))
    assert glue == repr(loop_fit_params(samples, trim_fraction=trim_fraction))


def _outcome(fit, samples, trim_fraction):
    try:
        return repr(fit(samples, trim_fraction=trim_fraction))
    except (InsufficientSamplesError, DegenerateDesignError) as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def tie_free_samples(draw):
    """1-4 stations of samples whose variances are distinct within each station."""
    samples = []
    for sid in draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True)):
        n = draw(st.integers(1, 40))
        snrs = draw(st.lists(st.sampled_from([1.0, 2.5, 40.0]) | st.floats(0.5, 1e3), min_size=n, max_size=n))
        variances = draw(st.lists(st.floats(0.0, 1e4), min_size=n, max_size=n, unique=True))
        samples += [(sid, x, v + 0.0) for x, v in zip(snrs, variances)]
    return draw(st.permutations(samples))


@settings(max_examples=300, deadline=None)
@given(tie_free_samples(), st.floats(0.0, 0.9))
def test_fit_matches_loop_reference_bit_for_bit(samples, trim_fraction):
    assert _outcome(fit_params, samples, trim_fraction) == _outcome(loop_fit_params, samples, trim_fraction)


# Worst |coefficient - 50-digit solution| over the largest coefficient, in eps:
# 3.07 over these 10 seeds and 4.36 over seeds 0-199.
FIT_ULPS = 8.0


def test_fit_is_the_least_squares_solution_on_its_free_set_to_50_digits():
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    wavelength = wavelength_m(300e3)
    snrs = np.logspace(0.0, 3.0, 40)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        windows = np.concatenate([
            window_variance(synth_station_log(sid, j, 22.15, wavelength, snrs, 100, noise="gauss", rng=rng), 100, wavelength)
            for sid, j in (("a", 0.0), ("b", 0.5), ("c", 1.41))
        ])
        params, _ = fit_params(windows)
        ids = sorted(params.jitter_m)
        with mpmath.workdps(50):
            # a_i = J_i^2 and b = C^2 on the design fit_params solves: station indicators and 1/snr
            coef = [mpmath.mpf(params.jitter_m[sid]) ** 2 for sid in ids] + [mpmath.mpf(params.c_m) ** 2]
            cols = [[mpmath.mpf(float(sid == w)) for w in windows["station_id"]] for sid in ids]
            cols.append([mpmath.mpf(x) for x in (1.0 / windows["snr_linear"]).tolist()])
            y = [mpmath.mpf(v) for v in windows["toa_var_m2"].tolist()]
            free = [k for k, c in enumerate(coef) if c > 0]

            def dot(u, v):
                return mpmath.fsum(p * q for p, q in zip(u, v))

            solution = mpmath.lu_solve(
                mpmath.matrix([[dot(cols[i], cols[j]) for j in free] for i in free]),
                mpmath.matrix([dot(cols[i], y) for i in free]),
            )
            exact = [mpmath.mpf(0)] * len(coef)
            for k, i in enumerate(free):
                exact[i] = solution[k]
            scale = max(abs(e) for e in exact)
            assert max(abs(c - e) for c, e in zip(coef, exact)) <= FIT_ULPS * eps * scale, seed
            # each clamped coefficient's gradient of half the RSS is >= 0 up to rounding
            residual = [dot([col[r] for col in cols], exact) - y[r] for r in range(len(y))]
            for i in sorted(set(range(len(coef))) - set(free)):
                tol = FIT_ULPS * eps * mpmath.fsum(abs(p * q) for p, q in zip(cols[i], residual))
                assert dot(cols[i], residual) >= -tol, (seed, i)


def test_fit_report_csv_schema(tmp_path):
    true = {"a": 0.5, "b": 0.0}
    samples = make_samples(true, 8.0, np.linspace(1.0, 100.0, 30))
    params, report = fit_params(samples)
    path = tmp_path / "report.csv"
    write_fit_report_csv(params, report, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["station_id", "jitter_m", "n_samples", "rss_contribution"]
    assert [r[0] for r in rows[1:]] == ["a", "b", "C"]
    assert float(rows[1][1]) == params.jitter_m["a"]
    assert rows[3][0] == "C"
    assert float(rows[3][1]) == params.c_m
    assert int(rows[3][2]) == 60
