"""TOA variance model: sigma_i^2 = J_i^2 + C^2 / SNR_i.

``J_i`` is the per-transmitter jitter in meters (timing noise originating
at the transmitter, independent of where the receiver sits) and ``C`` is
a constant, also in meters, shared by all transmitters. SNR enters as a
linear power ratio. Both parameters are estimated from (SNR, variance)
samples by minimizing the residual sum of squares; because the model is
linear in ``J_i^2`` and ``C^2``, the fit is a non-negative least-squares
problem solved exactly by an active-set method.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateDesignError,
    InsufficientSamplesError,
    NonpositiveSnrError,
    UnknownStationError,
)
from .ingest import VarianceSample
from .nnls import nnls


@dataclass(frozen=True)
class ModelParams:
    """Fitted model parameters: per-station jitter plus the shared constant."""

    jitter_m: Mapping[str, float]
    c_m: float

    def __post_init__(self):
        for sid, j in self.jitter_m.items():
            if j < 0.0:
                raise ValueError(f"jitter_m[{sid!r}] must be >= 0, got {j}")
        if self.c_m < 0.0:
            raise ValueError(f"c_m must be >= 0, got {self.c_m}")


@dataclass(frozen=True)
class FitReport:
    """Diagnostics from a model fit.

    RSS values are plain (unweighted) model-vs-sample residual sums over
    the samples that survived trimming.
    """

    rss_m4: float
    n_samples: Mapping[str, int]
    rss_by_station: Mapping[str, float]
    n_trimmed: int


def toa_variance_m2(jitter_m, c_m, snr_linear):
    """The model's TOA variance J^2 + C^2/SNR in m^2, elementwise over arrays."""
    return jitter_m * jitter_m + c_m * c_m / snr_linear


def predict_sigma2(params: ModelParams, station_id: str, snr_linear: float) -> float:
    """Predicted TOA variance in m^2 for one station at a linear SNR."""
    if station_id not in params.jitter_m:
        raise UnknownStationError(f"no jitter parameter for station {station_id!r}")
    if not snr_linear > 0.0:
        raise NonpositiveSnrError(f"snr_linear must be > 0, got {snr_linear}")
    return toa_variance_m2(params.jitter_m[station_id], params.c_m, snr_linear)


def residual_rss(params: ModelParams, samples: Sequence[VarianceSample]) -> float:
    """Residual sum of squares, in m^4, of the model against samples."""
    return float(
        sum(
            (s.toa_var_m2 - predict_sigma2(params, s.station_id, s.snr_linear)) ** 2
            for s in samples
        )
    )


def _trim_symmetric(rows: list[tuple[VarianceSample, float]], fraction: float):
    """Drop the lowest and highest ``fraction/2`` of each station's variances."""
    by_station: dict[str, list[tuple[VarianceSample, float]]] = {}
    for row in rows:
        by_station.setdefault(row[0].station_id, []).append(row)
    kept = []
    for sid in sorted(by_station):
        group = sorted(by_station[sid], key=lambda r: r[0].toa_var_m2)
        k = int(len(group) * fraction / 2.0)
        kept.extend(group[k : len(group) - k] if k else group)
    return kept


def fit_params(
    samples: Sequence[VarianceSample],
    trim_fraction: float = 0.0,
    weights: Sequence[float] | None = None,
) -> tuple[ModelParams, FitReport]:
    """Estimate per-station jitter and the shared constant from samples.

    The model is linear in ``a_i = J_i^2`` and ``b = C^2``: each sample
    contributes a design row with an indicator column for its station's
    ``a_i`` and the regressor ``1/snr_linear`` for ``b``. Non-negative
    least squares on (a_1..a_S, b) minimizes the residual sum of squares
    subject to the physical constraints ``J_i^2 >= 0`` and ``C^2 >= 0``;
    the returned parameters are the square roots. Station intercepts the
    data pulls negative come back as exact zeros.

    ``trim_fraction`` symmetrically drops that fraction of each station's
    most extreme variance samples before fitting (off by default; useful
    against interference bursts). ``weights`` optionally weights each
    (untrimmed) sample's squared residual; it must match ``samples`` in
    length and be positive.

    The fit is unweighted by default, deterministic, and invariant to
    sample order (rows are canonicalized internally).

    Raises InsufficientSamplesError when any station has fewer than two
    samples (or there are none at all) and DegenerateDesignError when a
    station's samples share a single SNR value, which makes its jitter
    and the constant jointly unidentifiable.
    """
    if not 0.0 <= trim_fraction < 1.0:
        raise ValueError(f"trim_fraction must be in [0, 1), got {trim_fraction}")
    samples = list(samples)
    if weights is None:
        rows = [(s, 1.0) for s in samples]
    else:
        if len(weights) != len(samples):
            raise ValueError("weights length must match samples")
        if any(w <= 0.0 for w in weights):
            raise ValueError("weights must be positive")
        rows = [(s, float(w)) for s, w in zip(samples, weights)]
    if not rows:
        raise InsufficientSamplesError("no variance samples")

    n_before = len(rows)
    if trim_fraction > 0.0:
        rows = _trim_symmetric(rows, trim_fraction)

    station_ids = sorted({s.station_id for s, _ in rows})
    col = {sid: i for i, sid in enumerate(station_ids)}
    for sid in station_ids:
        group = [s for s, _ in rows if s.station_id == sid]
        if len(group) < 2:
            raise InsufficientSamplesError(
                f"station {sid!r} has {len(group)} samples after trimming, need >= 2"
            )
        if len({s.snr_linear for s in group}) < 2:
            raise DegenerateDesignError(
                f"station {sid!r} samples share one SNR value; jitter and the "
                "shared constant are not separately identifiable"
            )

    # canonical row order makes the fit independent of input ordering
    rows.sort(key=lambda r: (col[r[0].station_id], r[0].snr_linear, r[0].toa_var_m2, r[1]))
    n_s = len(station_ids)
    a = np.zeros((len(rows), n_s + 1))
    y = np.empty(len(rows))
    for i, (s, _) in enumerate(rows):
        a[i, col[s.station_id]] = 1.0
        a[i, n_s] = 1.0 / s.snr_linear
        y[i] = s.toa_var_m2
    if weights is not None:
        sw = np.sqrt([w for _, w in rows])
        a *= sw[:, None]
        y *= sw

    coeffs, _ = nnls(a, y)
    params = ModelParams(
        jitter_m={sid: float(np.sqrt(coeffs[col[sid]])) for sid in station_ids},
        c_m=float(np.sqrt(coeffs[n_s])),
    )

    n_samples = {sid: 0 for sid in station_ids}
    rss_by_station = {sid: 0.0 for sid in station_ids}
    for s, _ in rows:
        n_samples[s.station_id] += 1
        r = s.toa_var_m2 - predict_sigma2(params, s.station_id, s.snr_linear)
        rss_by_station[s.station_id] += r * r
    report = FitReport(
        rss_m4=float(sum(rss_by_station.values())),
        n_samples=n_samples,
        rss_by_station=rss_by_station,
        n_trimmed=n_before - len(rows),
    )
    return params, report


def write_fit_report_csv(params: ModelParams, report: FitReport, path) -> None:
    """Write the fit report: one row per station, then a footer row for C.

    Schema ``station_id,jitter_m,n_samples,rss_contribution``; the footer
    row uses the reserved id ``C`` with the constant in the jitter_m
    column, total sample count, and total RSS.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["station_id", "jitter_m", "n_samples", "rss_contribution"])
        for sid in sorted(params.jitter_m):
            w.writerow(
                [
                    sid,
                    repr(params.jitter_m[sid]),
                    report.n_samples.get(sid, 0),
                    repr(report.rss_by_station.get(sid, 0.0)),
                ]
            )
        w.writerow(["C", repr(params.c_m), sum(report.n_samples.values()), repr(report.rss_m4)])
