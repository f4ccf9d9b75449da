"""Sharp bounds on sector-switching costs in a two-sector selection model.

The package estimates conditional outcome distributions on a grid, turns
stochastic-monotonicity restrictions on an instrument into envelope bounds
on the counterfactual distributions, inverts those envelopes into pointwise
bounds on the nonpecuniary cost of sector 1, and wraps the lower bound in a
one-sided uniform confidence band.
"""

from .bounds import (
    BoundSurface,
    IfBoundCurve,
    RandomCostCdfBounds,
    TestabilityReport,
    cost_bounds_if,
    cost_bounds_pf,
    if_bounds_from_moments,
    random_cost_bounds,
    testability_if,
)
from .coverage import CoverageReport, default_coverage_grid, run_coverage
from .envelopes import (
    CrossingReport,
    crossing_test,
    envelope_table,
    lower_envelope,
    sandwich,
    upper_envelope,
)
from .errors import (
    ConfigError,
    DomainError,
    InvalidDgpError,
    NoSupportError,
    RoyBoundsError,
)
from .estimation import (
    ConditionalCdfTable,
    conditional_mean,
    estimate_tables,
    silverman_bandwidth,
)
from .inference import (
    ConfidenceBand,
    bootstrap_errors,
    clr_band,
    confidence_band,
    default_selection_subset,
)
from .model import (
    DgpSpec,
    EvaluationGrid,
    ObservationSample,
    ZLaw,
    generate_sample,
    true_cost,
)
from .population import population_tables
from .reporting import (
    SurvivalSummary,
    band_values_at,
    cost_survival,
    ingest_csv,
    write_band_csv,
    write_sample_csv,
    write_surface_csv,
    write_table_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BoundSurface", "IfBoundCurve", "RandomCostCdfBounds", "TestabilityReport",
    "cost_bounds_if", "cost_bounds_pf", "if_bounds_from_moments",
    "random_cost_bounds", "testability_if",
    "CoverageReport", "default_coverage_grid", "run_coverage",
    "CrossingReport", "crossing_test", "envelope_table", "lower_envelope",
    "sandwich", "upper_envelope",
    "ConfigError", "DomainError", "InvalidDgpError", "NoSupportError",
    "RoyBoundsError",
    "ConditionalCdfTable", "conditional_mean", "estimate_tables",
    "silverman_bandwidth",
    "ConfidenceBand", "bootstrap_errors", "clr_band", "confidence_band",
    "default_selection_subset",
    "DgpSpec", "EvaluationGrid", "ObservationSample", "ZLaw",
    "generate_sample", "true_cost",
    "population_tables",
    "SurvivalSummary", "band_values_at", "cost_survival", "ingest_csv",
    "write_band_csv", "write_sample_csv", "write_surface_csv",
    "write_table_csv",
    "__version__",
]
