"""TOA variance model: sigma_i^2 = J_i^2 + C^2 / SNR_i.

``J_i`` is the per-transmitter jitter in meters (timing noise originating
at the transmitter, independent of where the receiver sits) and ``C`` is
a constant, also in meters, shared by all transmitters. SNR enters as a
linear power ratio. Both parameters are estimated from (SNR, variance)
windows by minimizing the residual sum of squares; because the model is
linear in ``J_i^2`` and ``C^2``, the fit is a non-negative least-squares
problem solved exactly by an active-set method.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DegenerateDesignError, InsufficientSamplesError
from .ingest import WINDOW_DTYPE
from .nnls import nnls

C_ROW_ID = "C"  # the fit report's row for the shared constant; no station may take this id
FIT_REPORT_COLUMNS = ("station_id", "jitter_m", "n_samples", "rss_contribution")


@dataclass(frozen=True)
class ModelParams:
    """Fitted model parameters: per-station jitter plus the shared constant."""

    jitter_m: Mapping[str, float]
    c_m: float

    def __post_init__(self):
        for sid, j in self.jitter_m.items():
            if not (math.isfinite(j) and j >= 0.0):
                raise ValueError(f"jitter_m[{sid!r}] must be finite and >= 0, got {j}")
        if not (math.isfinite(self.c_m) and self.c_m >= 0.0):
            raise ValueError(f"c_m must be finite and >= 0, got {self.c_m}")


@dataclass(frozen=True)
class FitReport:
    """Diagnostics from a model fit.

    RSS values are plain (unweighted) model-vs-sample residual sums over
    the samples left by trimming, which drops ``len(windows) - sum(n_samples.values())``.
    """

    rss_m4: float
    n_samples: Mapping[str, int]
    rss_by_station: Mapping[str, float]


def toa_variance_m2(jitter_m, c_m, snr_linear):
    """The model's TOA variance J^2 + C^2/SNR in m^2, elementwise over arrays."""
    return jitter_m * jitter_m + c_m * c_m / snr_linear


def fit_params(windows, trim_fraction: float = 0.0) -> tuple[ModelParams, FitReport]:
    """Estimate per-station jitter and the shared constant from variance windows.

    ``windows`` is ``window_variance``'s array or any iterable (a list,
    a tuple, a generator) of its records or of ``(station_id, snr_linear,
    toa_var_m2)`` tuples.

    The model is linear in ``a_i = J_i^2`` and ``b = C^2``: each window
    contributes a design row with an indicator column for its station's
    ``a_i`` and the regressor ``1/snr_linear`` for ``b``. Non-negative
    least squares on (a_1..a_S, b) minimizes the residual sum of squares
    subject to the physical constraints ``J_i^2 >= 0`` and ``C^2 >= 0``;
    the returned parameters are the square roots. Station intercepts the
    data pulls negative come back as exact zeros.

    ``trim_fraction`` symmetrically drops that fraction of each station's
    most extreme variance windows before fitting (off by default; useful
    against interference bursts): ``k = int(n * trim_fraction / 2)`` from
    each end of the station's windows ordered by variance, with equal
    variances ordered by SNR.

    The fit is unweighted, deterministic, and invariant to window order:
    the design rows are ordered by station, SNR and variance.

    Raises ValueError for the first window whose ``snr_linear`` is not
    finite and > 0 or whose ``toa_var_m2`` is not finite and >= 0,
    InsufficientSamplesError when any station has fewer than two windows
    (or there are none at all) and DegenerateDesignError when a station's
    windows share a single SNR value, which makes its jitter and the
    constant jointly unidentifiable.
    """
    if not 0.0 <= trim_fraction < 1.0:
        raise ValueError(f"trim_fraction must be in [0, 1), got {trim_fraction}")
    if not isinstance(windows, np.ndarray):
        windows = list(windows)  # numpy would read an outer tuple as one record, and cannot read an iterator
    windows = np.asarray(windows, dtype=WINDOW_DTYPE)
    if windows.size == 0:
        raise InsufficientSamplesError("no variance samples")
    snr, var = windows["snr_linear"], windows["toa_var_m2"]
    ok = (0.0 < snr) & (snr < np.inf) & (0.0 <= var) & (var < np.inf)
    if not ok.all():
        i = int(np.argmin(ok))  # the first bad window
        if not 0.0 < snr[i] < np.inf:
            raise ValueError(f"snr_linear must be finite and > 0, got {float(snr[i])}")
        raise ValueError(f"toa_var_m2 must be finite and >= 0, got {float(var[i])}")
    station_ids, st = np.unique(windows["station_id"], return_inverse=True)
    station_ids = station_ids.tolist()

    # trim: rank each row within its station by (variance, SNR)
    order = np.lexsort((snr, var, st))
    counts = np.bincount(st)
    k = (counts * trim_fraction / 2.0).astype(int)
    by_row = st[order]
    rank = np.arange(windows.size) - (np.cumsum(counts) - counts)[by_row]
    keep = order[(rank >= k[by_row]) & (rank < (counts - k)[by_row])]
    # canonical row order makes the fit independent of input ordering
    keep = keep[np.lexsort((var[keep], snr[keep], st[keep]))]
    st, snr, var = st[keep], snr[keep], var[keep]

    counts = np.bincount(st)
    new_snr = np.ones(st.size, dtype=bool)
    new_snr[1:] = (st[1:] != st[:-1]) | (snr[1:] != snr[:-1])
    distinct_snr = np.bincount(st[new_snr])
    for sid, n, n_snr in zip(station_ids, counts.tolist(), distinct_snr.tolist()):
        if n < 2:
            raise InsufficientSamplesError(f"station {sid!r} has {n} samples after trimming, need >= 2")
        if n_snr < 2:
            raise DegenerateDesignError(
                f"station {sid!r} samples share one SNR value; jitter and the "
                "shared constant are not separately identifiable"
            )

    a = np.zeros((st.size, len(station_ids) + 1))
    a[np.arange(st.size), st] = 1.0
    a[:, -1] = 1.0 / snr
    coeffs, _ = nnls(a, var)
    jitter = np.sqrt(coeffs[:-1])
    params = ModelParams(jitter_m=dict(zip(station_ids, jitter.tolist())), c_m=float(np.sqrt(coeffs[-1])))

    r = var - toa_variance_m2(jitter[st], params.c_m, snr)
    rss_by_station = dict(zip(station_ids, np.bincount(st, weights=r * r).tolist()))
    report = FitReport(
        rss_m4=float(sum(rss_by_station.values())),
        n_samples=dict(zip(station_ids, counts.tolist())),
        rss_by_station=rss_by_station,
    )
    return params, report


def fit_report_rows(params: ModelParams, report: FitReport) -> Iterator[tuple[str, float, int, float]]:
    """The fit table's rows under ``FIT_REPORT_COLUMNS``: ``(station_id, value, n_samples, rss)``.

    One row per station in id order with its jitter in meters, then the
    ``C_ROW_ID`` row with the shared constant, the total sample count and
    the total RSS. Every rendering of a fit (the report CSV, the parameter
    YAML and the CLI's stdout) prints these rows.
    """
    for sid in sorted(params.jitter_m):
        yield sid, params.jitter_m[sid], report.n_samples.get(sid, 0), report.rss_by_station.get(sid, 0.0)
    yield C_ROW_ID, params.c_m, sum(report.n_samples.values()), report.rss_m4


def write_fit_report_csv(params: ModelParams, report: FitReport, path) -> None:
    """Write ``FIT_REPORT_COLUMNS`` and then ``fit_report_rows``, each float as its ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(FIT_REPORT_COLUMNS)
        w.writerows((sid, repr(value), n, repr(rss)) for sid, value, n, rss in fit_report_rows(params, report))
