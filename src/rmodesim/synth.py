"""Synthetic measurement-log generation for tests and demos.

Builds one station's raw phase/SNR log as a ``StationLog`` whose
windowed variance reproduces a given model exactly ("none" noise: a
zero-mean pattern scaled so each window's sample variance hits the
target bit-for-bit up to rounding) or statistically ("gauss" noise:
independent normal phases, chi-squared scatter in the recovered
variances). Test tooling, not a claim about how any real receiver
behaves.
"""

from __future__ import annotations

import numpy as np

from ._table import write_table
from .ingest import MEASUREMENT_COLUMNS, TWO_PI, StationLog
from .variance_model import toa_variance_m2


def synth_station_log(
    station_id: str,
    jitter_m: float,
    c_m: float,
    wavelength_m: float,
    snr_linear,
    window_len: int,
    noise: str = "none",
    rng: np.random.Generator | None = None,
) -> StationLog:
    """Generate one station's log: one window per entry of ``snr_linear``.

    Each window holds ``window_len`` records at the window's SNR, with
    phase variance matching sigma^2 = jitter^2 + C^2/snr scaled into the
    phase domain by (2*pi/wavelength)^2. Record k has timestamp k.
    """
    if noise not in ("none", "gauss"):
        raise ValueError(f"noise must be 'none' or 'gauss', got {noise!r}")
    if noise == "gauss" and rng is None:
        raise ValueError("gaussian noise needs an rng")
    snr_values = np.asarray(snr_linear, dtype=float)
    if np.any(snr_values <= 0.0):
        raise ValueError("snr_linear values must be > 0")

    n = int(window_len)
    base = np.empty(n)
    base[0::2] = 1.0
    base[1::2] = -1.0
    if n % 2:
        base[-1] = 0.0  # keeps the pattern zero-mean for odd windows
    base_var = float(np.var(base, ddof=1))

    phase_scale = (TWO_PI / wavelength_m) ** 2  # m^2 -> rad^2
    phase_var = toa_variance_m2(jitter_m, c_m, snr_values) * phase_scale
    if noise == "none":
        phases = base * np.sqrt(phase_var / base_var)[:, None]
    else:
        phases = rng.normal(0.0, np.sqrt(phase_var)[:, None], (snr_values.size, n))
    wrapped = np.mod(phases + np.pi, TWO_PI) - np.pi  # to [-pi, pi], as receivers log phase
    return StationLog(
        station_id, np.arange(phases.size, dtype=float), wrapped.ravel(), np.repeat(10.0 * np.log10(snr_values), n)
    )


def write_measurement_csv(log: StationLog, path) -> None:
    """Write one station's log in the measurement CSV schema."""
    write_table(path, MEASUREMENT_COLUMNS, {log.station_id: [log.timestamp, log.phase_rad, log.snr_db]})
