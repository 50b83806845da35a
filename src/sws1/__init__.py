"""Perturbation-series solver for the spin-weight-1 spheroidal angular
equation, with an independent finite-difference verification harness.

The series machinery works in exact rational arithmetic; floating point
enters only at evaluation time.  See the README for the CLI and the
acceptance battery.
"""

from .core import (
    EnergySeries,
    ModeParams,
    Rational,
    WnTable,
    tables_from_text,
    tables_to_text,
)
from .evaluate import (
    EvalPoint,
    WavefunctionSample,
    eval_energy,
    eval_ground_wavefunction,
    eval_w,
    eval_w_derivative,
    potential,
    riccati_residual,
    uniform_interior_grid,
)
from .oracle import (
    FdGrid,
    OracleError,
    OracleReport,
    fd_ground_eigenvalue,
    fd_ground_eigenvector,
    quadrature_an,
    richardson_eigenvalue,
    verify_all,
)
from .recurrence import (
    SeriesInconsistencyError,
    SeriesState,
    advance,
    base_order0,
    base_order1,
    base_order2,
    base_order3,
    compute_series,
    convolve_sources,
    energy_coeff,
    i_coeff,
    rt_tables,
    xy_tables,
)

__version__ = "0.1.0"

__all__ = [
    "EnergySeries",
    "EvalPoint",
    "FdGrid",
    "ModeParams",
    "OracleError",
    "OracleReport",
    "Rational",
    "SeriesInconsistencyError",
    "SeriesState",
    "WavefunctionSample",
    "WnTable",
    "advance",
    "base_order0",
    "base_order1",
    "base_order2",
    "base_order3",
    "compute_series",
    "convolve_sources",
    "energy_coeff",
    "eval_energy",
    "eval_ground_wavefunction",
    "eval_w",
    "eval_w_derivative",
    "fd_ground_eigenvalue",
    "fd_ground_eigenvector",
    "i_coeff",
    "potential",
    "quadrature_an",
    "richardson_eigenvalue",
    "riccati_residual",
    "rt_tables",
    "tables_from_text",
    "tables_to_text",
    "uniform_interior_grid",
    "verify_all",
    "xy_tables",
]
