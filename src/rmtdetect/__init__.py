"""Early event detection in multivariate sensor streams via random-matrix
spectral statistics: moving-window random-matrix models, linear eigenvalue
statistics compared against their limiting laws, a synthetic scenario
generator, and a pilot-regression baseline for contrast."""

__version__ = "0.1.0"

from .detect import (
    DetectorConfig,
    Event,
    EventReport,
    IndicatorSeries,
    extract_events,
    regional_series,
    sweep,
)
from .ingest import (
    DataSource,
    RegionPartition,
    WindowSpec,
    load_csv,
    load_partition,
    write_csv,
)
from .les import (
    FUNCTIONS,
    clt_variance,
    get_function,
    lln_expectation,
    mc_covariance_les,
    mc_ring_msr,
    msr_moments,
)
from .mapgen import render_run
from .pca import PilotModel, residual_series, train
from .rmm import (
    RingProduct,
    StandardizedMatrix,
    covariance,
    haar_unitary,
    ring_product,
    singular_value_equivalent,
    standardize,
)
from .spectral import (
    MarchenkoPastur,
    RingLaw,
    Semicircle,
    SpectrumSet,
    eigen_general,
    eigen_hermitian,
    esd_distance,
    sample_goe,
)
from .synth import (
    Scenario,
    Segment,
    generate,
    sample_gaussian_matrix,
    table3_partition,
    table3_scenario,
)

__all__ = [name for name in dir() if not name.startswith("_")]
