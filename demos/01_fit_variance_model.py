#!/usr/bin/env python3
"""
Fitting the TOA variance model from raw phase logs
==================================================

The variance of a time-of-arrival measurement follows

    sigma_i^2 = J_i^2 + C^2 / SNR_i

with a per-transmitter jitter J_i and a constant C shared by all
transmitters, SNR as a linear power ratio. This walkthrough generates
synthetic receiver logs from known parameters, pushes them through the
ingestion pipeline (parse -> unwrap -> windowed variance), and fits the
parameters back by non-negative least squares.
"""

import numpy as np

from rmodesim import ModelParams, fit_params, window_variance
from rmodesim.propagation import wavelength_m
from rmodesim.synth import synth_station_log
from rmodesim.variance_model import toa_variance_m2

# ------------------------------------------------------------------
# 1. Ground truth: two quiet transmitters and one jittery one.
# ------------------------------------------------------------------
TRUE_JITTER_M = {"alpha": 0.0, "bravo": 1.41, "charlie": 0.0}
TRUE_C_M = 22.15
LAMBDA_M = wavelength_m(300e3)  # 300 kHz carrier, ~999.3 m

print("ground truth:")
for sid, j in TRUE_JITTER_M.items():
    print(f"  J[{sid}] = {j} m")
print(f"  C = {TRUE_C_M} m")

# ------------------------------------------------------------------
# 2. Synthesize logs: 600 windows of 400 phase samples per station,
#    SNR swept over the linear range 1..1000. Gaussian phase noise
#    gives each windowed variance a chi-squared scatter of ~7%, which
#    is what limits how tightly the parameters come back.
# ------------------------------------------------------------------
WINDOW_LEN = 400
snr_schedule = np.linspace(1.0, 1000.0, 600)

samples = []
for idx, (sid, jitter) in enumerate(sorted(TRUE_JITTER_M.items())):
    rng = np.random.default_rng([42, idx])
    log = synth_station_log(
        sid, jitter, TRUE_C_M, LAMBDA_M, snr_schedule, WINDOW_LEN, noise="gauss", rng=rng
    )
    station_samples = window_variance(log, window_len=WINDOW_LEN, wavelength_m=LAMBDA_M)
    samples.extend(station_samples)
    print(f"{sid}: {log.timestamp.size} records -> {len(station_samples)} variance samples")

# ------------------------------------------------------------------
# 3. Fit. The model is linear in (J_i^2, C^2), so the RSS-minimizing
#    parameters come from one deterministic NNLS solve; jitters the
#    data pulls negative land exactly on the J = 0 bound.
# ------------------------------------------------------------------
params, report = fit_params(samples)

print("\nfitted parameters:")
for sid in sorted(params.jitter_m):
    true_j = TRUE_JITTER_M[sid]
    print(f"  J[{sid}] = {params.jitter_m[sid]:8.4f} m   (true {true_j})")
print(f"  C = {params.c_m:8.4f} m   (true {TRUE_C_M})")
print(f"  RSS = {report.rss_m4:.4g} m^4 over {sum(report.n_samples.values())} samples")

# ------------------------------------------------------------------
# 4. The fitted parameters should beat small perturbations: the RSS
#    surface is convex in the squared parameters.
# ------------------------------------------------------------------
rng = np.random.default_rng(7)


def rss(p):
    # one window_variance record per sample: (station_id, snr_linear, toa_var_m2)
    return sum((var - toa_variance_m2(p.jitter_m[sid], p.c_m, snr)) ** 2 for sid, snr, var in samples)


fitted_rss = rss(params)
worse = 0
for _ in range(200):
    perturbed = ModelParams(
        {sid: abs(j + rng.normal(0.0, 0.1)) for sid, j in params.jitter_m.items()},
        abs(params.c_m + rng.normal(0.0, 0.1)),
    )
    worse += rss(perturbed) >= fitted_rss
print(f"\nperturbation probe: {worse}/200 random neighbors have higher RSS")
