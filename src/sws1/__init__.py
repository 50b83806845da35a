"""Perturbation-series solver for the spin-weight-1 spheroidal angular
equation.

The package root exports the exact core: the series is built order by
order in rational arithmetic (`compute_series`) and written or read as
text tables.  It imports no numpy.  The float evaluation lives in
`sws1.evaluate` and the finite-difference oracle in `sws1.oracle`; see
the README for the CLI and the acceptance battery.
"""

from .core import ModeParams, WnTable, tables_from_text, tables_to_text
from .recurrence import SeriesInconsistencyError, SeriesState, compute_series

__version__ = "0.1.0"

__all__ = [
    "ModeParams",
    "SeriesInconsistencyError",
    "SeriesState",
    "WnTable",
    "compute_series",
    "tables_from_text",
    "tables_to_text",
]
