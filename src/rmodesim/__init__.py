"""Medium-frequency R-Mode accuracy simulation toolkit.

Estimates the parameters of a TOA-variance-vs-SNR model from raw
phase/SNR logs, evaluates weighted least-squares position accuracy from
transmitter geometry, and sweeps geographic grids into 95% horizontal
accuracy coverage maps.
"""

from .accuracy import (
    MASK_REASONS,
    MASK_SINGULAR_GEOMETRY,
    MASK_TOO_FEW_STATIONS,
    PointAccuracy,
    StationAccuracy,
    accuracy95,
    accuracy_at,
    covariance,
)
from .config import FitOptions, OutputPaths, RunConfig, load_config
from .coverage import (
    CoverageGrid,
    GridSpec,
    compute_coverage,
    coverage_summary,
    write_contour_csv,
    write_coverage_csv,
    write_coverage_pgm,
)
from .geodesy import EARTH_RADIUS_M, GeoPoint
from .ingest import (
    StationLog,
    VarianceSample,
    group_by_station,
    parse_measurement_file,
    unwrap_phase,
    window_variance,
)
from .nnls import nnls
from .propagation import (
    FieldGrid,
    GridPropagation,
    NoiseSpec,
    ParametricPropagation,
    TransmitterStation,
    load_field_grid,
    snr_at,
    wavelength_m,
    write_field_grid,
)
from .synth import synth_station_log, write_measurement_csv
from .variance_model import FitReport, ModelParams, fit_params, write_fit_report_csv

__version__ = "0.1.0"
