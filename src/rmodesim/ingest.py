"""Receiver log ingestion: CSV parsing, phase unwrapping, windowed variance.

Turns raw wrapped-phase/SNR logs, held as one ``StationLog`` of columns
per station, into ``WINDOW_DTYPE`` records of per-window TOA variance, the
input of ``variance_model.fit_params``. The TOA variance of a window is the
sample variance of the continuous (unwrapped) carrier phase scaled by
(wavelength / 2*pi)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import read_table
from .errors import EmptyInputError, InsufficientDataError
from .geodesy import TWO_PI

MEASUREMENT_COLUMNS = ("timestamp", "station_id", "phase_rad", "snr_db")
LOG_COLUMNS = ("timestamp", "phase_rad", "snr_db")

DEFAULT_WINDOW_LEN = 100  # records per variance window
# one record per variance window: station, linear SNR, TOA variance in m^2
WINDOW_DTYPE = np.dtype([("station_id", object), ("snr_linear", "f8"), ("toa_var_m2", "f8")])


@dataclass(frozen=True, eq=False)
class StationLog:
    """One station's logged carrier-phase observations, in time order.

    ``timestamp``, ``phase_rad`` and ``snr_db`` are float64 arrays of one
    length, one entry per logged record, with strictly increasing
    timestamps. Phase is wrapped to [-pi, pi] as receivers log it; SNR is
    the receiver-reported value in dB. Every log, read or built in code, is
    checked: a phase outside [-pi, pi] or NaN (degrees, say) raises
    ValueError naming the station and its first bad value.
    """

    station_id: str
    timestamp: np.ndarray
    phase_rad: np.ndarray
    snr_db: np.ndarray

    def __post_init__(self):
        for name in LOG_COLUMNS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.timestamp.ndim != 1 or not self.timestamp.shape == self.phase_rad.shape == self.snr_db.shape:
            raise ValueError("timestamp, phase_rad and snr_db must be 1-D arrays of one length")
        if not (self.timestamp[1:] > self.timestamp[:-1]).all():
            raise ValueError(f"station {self.station_id!r}: timestamps must increase strictly")
        ok = np.abs(self.phase_rad) <= np.pi  # closed: the wrap np.mod(x + pi, 2*pi) - pi can return +pi
        if not ok.all():
            bad = float(self.phase_rad[np.argmin(ok)])  # argmin: the first False
            raise ValueError(f"station {self.station_id!r}: phase_rad {bad} is outside [-pi, pi]; phases must be in radians")


def parse_measurement_file(path) -> list[StationLog]:
    """Parse a measurement CSV into one StationLog per station.

    Schema: header ``timestamp,station_id,phase_rad,snr_db``, one record
    per line, ``.`` decimal separator, UTF-8. Lines starting with ``#``
    are comments. Timestamps must be strictly increasing per station.
    Stations may interleave; the logs come back in the order each station
    first appears, each holding its records in file order.

    Raises FileNotFoundError for a missing file,
    ParseError (with the 1-based line number) for a malformed
    header, non-numeric fields, missing columns, or a timestamp that
    does not increase, and StationLog's ValueError for a phase outside
    [-pi, pi], with the file's path in front.
    """
    table = read_table(path, MEASUREMENT_COLUMNS)
    try:
        return [StationLog(sid, *cols) for sid, cols in table.items()]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def group_by_station(logs) -> dict[str, StationLog]:
    """Join the logs of each station in input order, so several files can hold one station.

    A station with one log gets that log back unchanged. A log given twice
    or out of time order raises StationLog's ValueError, which names the station.
    """
    parts: dict[str, list[StationLog]] = {}
    for log in logs:
        parts.setdefault(log.station_id, []).append(log)
    return {
        sid: ps[0] if len(ps) == 1
        else StationLog(sid, *(np.concatenate([getattr(p, c) for p in ps]) for c in LOG_COLUMNS))
        for sid, ps in parts.items()
    }


def unwrap_phase(wrapped) -> np.ndarray:
    """Remove 2*pi jumps so every successive difference lies in (-pi, pi].

    The first element is kept as-is and the output is congruent to the
    input modulo 2*pi, element by element.
    """
    w = np.asarray(wrapped, dtype=float)
    if w.size == 0:
        raise EmptyInputError("cannot unwrap an empty phase series")
    d = np.diff(w)
    k = np.floor((np.pi - d) / TWO_PI)
    out = np.empty_like(w)
    out[0] = w[0]
    out[1:] = w[0] + np.cumsum(d + TWO_PI * k)
    return out


def window_variance(log: StationLog, window_len: int, wavelength_m: float, detrend: str = "none") -> np.ndarray:
    """Convert one station's log into TOA-variance windows.

    The phase series is unwrapped once over the whole series, then split
    into consecutive non-overlapping windows of ``window_len`` records
    (any remainder is discarded). Each window yields one ``WINDOW_DTYPE``
    record, in log order:

    * ``toa_var_m2`` = (wavelength / 2*pi)^2 times the residual sum of
      squares of the continuous phase about its window mean, over n-1;
    * ``snr_linear`` = 10^(mean(snr_db)/10), the dB mean converted to a
      linear power ratio.

    ``detrend="linear"`` also removes each window's least-squares slope (a
    receiver clock ramp) before the sum of squares, which then goes over
    n-2. Off by default. With ``detrend="none"`` this is, bit for bit,
    numpy's ``ddof=1`` variance of each window less its first element.

    Raises InsufficientDataError, naming the station, when the log holds
    fewer than ``window_len`` records and ValueError, naming the window,
    when a mean SNR overflows the linear ratio (above ~3,083 dB) or
    underflows it to zero (below ~-3,240 dB).
    """
    if window_len < 2:
        raise ValueError(f"window_len must be >= 2, got {window_len}")
    if wavelength_m <= 0.0:
        raise ValueError(f"wavelength_m must be > 0, got {wavelength_m}")
    if detrend not in ("none", "linear"):
        raise ValueError(f"detrend must be 'none' or 'linear', got {detrend!r}")
    if detrend == "linear" and window_len < 3:
        raise ValueError("linear detrend needs window_len >= 3")
    n_windows = log.phase_rad.size // window_len
    if n_windows == 0:
        raise InsufficientDataError(
            f"station {log.station_id!r}: {log.phase_rad.size} records, need at least window_len={window_len}"
        )
    shape = (n_windows, window_len)
    phase = unwrap_phase(log.phase_rad)[: n_windows * window_len].reshape(shape)
    # anchoring on each window's first element keeps the variance well
    # conditioned when the mean phase dwarfs its scatter
    p = phase - phase[:, :1]
    p = p - p.mean(axis=1, keepdims=True)
    if detrend == "linear":
        # least-squares line on centered time: the intercept is the window mean, the slope p.t / t.t
        t = np.arange(window_len) - (window_len - 1) / 2.0
        p -= (p @ t / (t @ t))[:, None] * t
    var = (p * p).sum(axis=1) / (window_len - 2 if detrend == "linear" else window_len - 1)
    mean_db = np.mean(log.snr_db[: n_windows * window_len].reshape(shape), axis=1).tolist()
    scale = (wavelength_m / TWO_PI) ** 2
    # the dB -> linear power stays on Python floats: numpy's vectorised pow
    # can differ from the scalar one in the last bit
    try:
        snr = [10.0 ** (m / 10.0) for m in mean_db]
    except OverflowError:
        i, size = int(np.argmax(mean_db)), "large"
    else:
        if 0.0 not in snr:
            windows = np.empty(n_windows, dtype=WINDOW_DTYPE)
            windows["station_id"] = log.station_id
            windows["snr_linear"] = snr
            windows["toa_var_m2"] = scale * np.asarray(var)
            return windows
        i, size = snr.index(0.0), "small"
    raise ValueError(
        f"station {log.station_id!r} window {i + 1} of {n_windows}: mean snr_db {mean_db[i]} "
        f"is too {size} for a linear power ratio"
    )
