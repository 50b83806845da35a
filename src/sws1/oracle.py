"""Independent verification of the series output.

The boundary-value problem is discretized on a uniform interior grid with
Dirichlet endpoints and solved by Sturm-sequence bisection on the
symmetric tridiagonal operator, entirely independently of the recurrence
path.  A Gauss-Legendre re-computation of the order-n antiderivative from
the nearer endpoint provides a second cross-check of the coefficient
tables themselves.

Endpoint handling: the transformed potential carries inverse-square
singularities at both ends, and at m = 1 the far endpoint sits exactly at
the critical coupling -1/4 where a naive nodal discretization loses its
second-order convergence entirely (measured order ~0.2).  The diagonal
therefore replaces the inverse-square part of the potential at every node
by the discrete curvature of the local power solution x^alpha (alpha from
the indicial roots m+3/2 and m-1/2).  The replacement decays like the
fourth power of the node index away from each endpoint, leaves the
operator symmetric tridiagonal, and restores clean h^2 convergence for
all m >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import ModeParams
from .evaluate import (
    eval_energy,
    gauss_legendre,
    gauss_panels,
    potential_on_grid,
    w_derivative_on_grid,
    w_on_grid,
    wavefunction_on_grid,
    weighted_orders_on_grid,
)
from .recurrence import SeriesState, compute_series, convolve_sources, rt_tables

RICHARDSON_GRIDS = (1024, 2048, 4096)

DEFAULT_TOLERANCES = {
    "eigenvalue": 1e-6,  # series partial sum vs Richardson-extrapolated value
    "eigenvalue_beta0": 5e-5,  # single finest grid, beta = 0 only
    "wavefunction": 1e-3,  # max-norm vs the normalized discrete eigenvector
    "residual_slope_below": 0.3,  # slope may undershoot N+1 by this much
    "residual_slope_above": 0.7,  # and overshoot by this much
}

_ROUNDOFF_FLOOR = 16.0 * np.finfo(float).eps  # roundoff floor of the Riccati defect, per unit size
_BISECTION_TOL = 1e-13
_BISECTION_MAX_ITER = 200


class OracleError(RuntimeError):
    """A verification sub-solver failed (non-convergence, nodal ground state...)."""


@dataclass(frozen=True)
class FdGrid:
    """Uniform interior grid for the Dirichlet problem on (0, pi)."""

    points: int

    def __post_init__(self) -> None:
        if self.points < 64:
            raise ValueError(f"grid needs at least 64 interior points, got {self.points}")

    @property
    def h(self) -> float:
        return math.pi / (self.points + 1)

    @cached_property
    def thetas(self) -> np.ndarray:
        return self.h * np.arange(1, self.points + 1)


@dataclass
class OracleReport:
    """Comparison record for one (m, beta) pair."""

    m: int
    beta: float
    order: int
    series_value: float
    numeric_value: float
    abs_gap: float
    rel_gap: float
    grid_sizes: tuple
    grid_eigenvalues: tuple
    richardson_estimate: float
    wavefunction_gap: float
    residual_slope: float
    checks: dict = field(default_factory=dict)
    skipped: dict = field(default_factory=dict)  # check name -> why it was not run
    passed: bool | None = None
    error: str | None = None


def _indicial_correction(m: int, points: int, h: float) -> np.ndarray:
    """Diagonal replacement of the inverse-square potential parts by the
    exact discrete curvature of x^alpha, applied from both endpoints."""
    j = np.arange(1, points + 1, dtype=float)
    corr = np.zeros(points)
    for from_left, alpha in ((True, m + 1.5), (False, m - 0.5)):
        kappa = alpha * (alpha - 1.0)
        disc = (j + 1.0) ** alpha - 2.0 * j**alpha + (j - 1.0) ** alpha
        adj = (disc / j**alpha - kappa / j**2) / h**2
        corr += adj if from_left else adj[::-1]
    return corr


def _assemble_diagonal(params: ModeParams, beta: float, grid: FdGrid) -> np.ndarray:
    h = grid.h
    v = potential_on_grid(grid.thetas, params, beta)
    return 2.0 / h**2 + v + _indicial_correction(params.m, grid.points, h)


def _sturm_count(diag: list, offsq: float, lam: float) -> int:
    """Number of eigenvalues of the tridiagonal operator below lam, from
    the sign changes of the LDL^T pivots."""
    count = 0
    d = diag[0] - lam
    if d == 0.0:
        d = -1e-300
    if d < 0.0:
        count += 1
    for t in diag[1:]:
        d = (t - lam) - offsq / d
        if d == 0.0:
            d = -1e-300
        if d < 0.0:
            count += 1
    return count


def fd_ground_eigenvalue(params: ModeParams, beta: float, grid: FdGrid) -> float:
    """Smallest eigenvalue of the discretized boundary-value problem via
    bisection on the Sturm-sequence count."""
    diag = _assemble_diagonal(params, beta, grid).tolist()
    off = 1.0 / grid.h**2
    offsq = off * off
    lo = min(diag) - 2.0 * off
    hi = max(diag) + 2.0 * off
    for _ in range(_BISECTION_MAX_ITER):
        if hi - lo <= _BISECTION_TOL * max(1.0, abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if _sturm_count(diag, offsq, mid) >= 1:
            hi = mid
        else:
            lo = mid
    raise OracleError(
        f"eigenvalue bisection did not reach tolerance {_BISECTION_TOL} "
        f"within {_BISECTION_MAX_ITER} iterations (bracket [{lo}, {hi}])"
    )


def sturm_count_below(params: ModeParams, beta: float, grid: FdGrid, lam: float) -> int:
    """Public probe of the Sturm count; the found ground eigenvalue must
    have count 0 just below and >= 1 just above."""
    diag = _assemble_diagonal(params, beta, grid).tolist()
    off = 1.0 / grid.h**2
    return _sturm_count(diag, off * off, lam)


def _solve_tridiagonal(diag: np.ndarray, off: float, rhs: np.ndarray) -> np.ndarray:
    """Thomas solve with constant off-diagonal and tiny-pivot guards (the
    matrix is deliberately near-singular during inverse iteration)."""
    n = len(diag)
    cp = np.empty(n)
    dp = np.empty(n)
    piv = diag[0]
    if abs(piv) < 1e-200:
        piv = math.copysign(1e-200, piv if piv != 0.0 else 1.0)
    cp[0] = off / piv
    dp[0] = rhs[0] / piv
    for i in range(1, n):
        piv = diag[i] - off * cp[i - 1]
        if abs(piv) < 1e-200:
            piv = math.copysign(1e-200, piv if piv != 0.0 else 1.0)
        cp[i] = off / piv
        dp[i] = (rhs[i] - off * dp[i - 1]) / piv
    x = dp
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x


def fd_ground_eigenvector(
    params: ModeParams,
    beta: float,
    grid: FdGrid,
    eigenvalue: float | None = None,
) -> np.ndarray:
    """Ground eigenvector by inverse iteration at the converged eigenvalue,
    normalized to unit discrete L2 (h-weighted) with positive interior
    sign.  The ground state is nodeless; a detected node means the
    bisection landed on the wrong state and raises OracleError."""
    if eigenvalue is None:
        eigenvalue = fd_ground_eigenvalue(params, beta, grid)
    diag = _assemble_diagonal(params, beta, grid) - eigenvalue
    off = -1.0 / grid.h**2
    x = np.ones(grid.points)
    for _ in range(3):
        x = _solve_tridiagonal(diag, off, x)
        x /= np.linalg.norm(x)
    x /= math.sqrt(grid.h) * np.linalg.norm(x)
    if x[int(np.argmax(np.abs(x)))] < 0.0:
        x = -x
    significant = np.abs(x) > 1e-12 * float(np.max(np.abs(x)))
    signs = np.sign(x[significant])
    if np.any(signs[:-1] * signs[1:] < 0.0):
        raise OracleError(
            "ground eigenvector changes sign; the smallest eigenvalue does "
            "not belong to the nodeless state"
        )
    return x


def richardson_eigenvalue(
    params: ModeParams,
    beta: float,
    grids: tuple = RICHARDSON_GRIDS,
) -> tuple[float, dict]:
    """Eigenvalue on three nested grids plus one level of h^2 elimination
    on the two finest; the coarsest grid feeds the convergence-order
    diagnostic."""
    sizes = tuple(sorted(grids))
    if len(sizes) != 3 or any(b != 2 * a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"need three grids with ratio 2, got {sizes}")
    values = {p: fd_ground_eigenvalue(params, beta, FdGrid(p)) for p in sizes}
    estimate = (4.0 * values[sizes[2]] - values[sizes[1]]) / 3.0
    return estimate, values


def quadrature_an(state: SeriesState, n: int, theta: float) -> float:
    """Recompute the order-n antiderivative A_n(theta) = int_0^theta f by a
    Gauss-Legendre rule, fully independently of the closed-form tables: the
    integrand f = (E_n + sum_k W_k W_(n-k)) (1 - cos)^2 sin^(2m-1) is
    assembled from the W_k tables of the lower orders.

    E_n is fixed by int_0^pi f = 0, so A_n vanishes at both ends, and past
    pi/2 the rule runs over [theta, pi] and returns minus that integral: from
    0, A_n there is left by a cancellation down to ~1e-14 against an
    integrand mass of ~1e-3, which no float64 rule resolves.
    """
    if n < 3:
        raise ValueError("orders below 3 carry bespoke sources; quadrature starts at n = 3")
    if n > state.current_order:
        raise ValueError(f"order {n} not computed (state holds up to {state.current_order})")
    if not 0.0 < theta <= math.pi:
        raise ValueError("theta must lie in (0, pi]")
    m = state.params.m
    lo, hi, sign = (0.0, theta, 1.0) if theta <= math.pi / 2.0 else (theta, math.pi, -1.0)
    t, w = gauss_legendre(lo, hi, gauss_panels(m))
    unit = np.eye(state.current_order)
    orders = [weighted_orders_on_grid(state, unit[k - 1], t) for k in range(1, n)]
    f = float(state.energy[n]) + sum(orders[k - 1] * orders[n - k - 1] for k in range(1, n))
    one_minus = 2.0 * np.sin(t / 2.0) ** 2
    return sign * float(w @ (f * one_minus**2 * np.sin(t) ** (2 * m - 1)))


def an_closed_form(state: SeriesState, n: int, theta: float) -> float:
    """Rebuild the order-n antiderivative from the plain/cos-weighted
    expansion tables, the quantity the quadrature is checked against."""
    h, g = convolve_sources(state, n)
    R, T = rt_tables(h, g, state.energy[n], state.params)
    m = state.params.m
    s = math.sin(theta)
    c = math.cos(theta)
    r_val = sum(float(v) * s ** (2 * m + 2 * p) for p, v in enumerate(R))
    t_val = sum(float(v) * s ** (2 * m + 2 * j) for j, v in enumerate(T))
    return r_val + c * t_val


def residual_slope(state: SeriesState, theta: float = math.pi / 3.0) -> float:
    """Log-log slope of the Riccati defect W^2 - W' - V + E against beta
    over [1e-3, 1e-1].

    The four terms cancel far below their own size, so float64 leaves a
    roundoff floor of 16 eps (W^2 + |W'| + |V| + |E|) per beta; samples at
    or below it carry no slope information and are excluded from the fit.
    """
    betas = np.logspace(-3, -1, 9)
    th = np.array([theta])
    values = np.empty(len(betas))
    floors = np.empty(len(betas))
    for i, beta in enumerate(betas):
        w = float(w_on_grid(state, beta, th)[0])
        wp = float(w_derivative_on_grid(state, beta, th)[0])
        v = float(potential_on_grid(th, state.params, beta)[0])
        e = eval_energy(state, beta)
        values[i] = abs(w * w - wp - v + e)
        floors[i] = _ROUNDOFF_FLOOR * (w * w + abs(wp) + abs(v) + abs(e))
    keep = values > floors
    if keep.sum() < 3:
        raise OracleError(
            f"residual is above its roundoff floor 16 eps (W^2 + |W'| + |V| + |E|) "
            f"at {keep.sum()} of {len(betas)} betas; the fit needs 3"
        )
    slope, _ = np.polyfit(np.log(betas[keep]), np.log(values[keep]), 1)
    return float(slope)


def verify_all(
    params: ModeParams,
    beta_list,
    tolerances: dict | None = None,
    state: SeriesState | None = None,
) -> list[OracleReport]:
    """Run the full comparison battery for each beta.

    Sub-oracle failures are captured per report instead of aborting the
    batch.  Above |beta| = 1 the gaps are reported without a pass/fail
    judgment, since series truncation dominates every tolerance there.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    if state is None:
        state = compute_series(params)
    n_order = state.current_order

    skipped = {}
    try:
        slope = residual_slope(state)
    except Exception as exc:  # no signal above the noise floor at high order
        slope = float("nan")
        if n_order >= 1:
            skipped["residual_slope"] = str(exc)

    reports = []
    for beta in beta_list:
        report = OracleReport(
            m=params.m,
            beta=float(beta),
            order=n_order,
            series_value=float("nan"),
            numeric_value=float("nan"),
            abs_gap=float("nan"),
            rel_gap=float("nan"),
            grid_sizes=RICHARDSON_GRIDS,
            grid_eigenvalues=(),
            richardson_estimate=float("nan"),
            wavefunction_gap=float("nan"),
            residual_slope=slope,
            skipped=dict(skipped),
        )
        try:
            series_value = eval_energy(state, beta, n_order)
            estimate, per_grid = richardson_eigenvalue(params, beta)
            finest = FdGrid(max(RICHARDSON_GRIDS))
            vec = fd_ground_eigenvector(params, beta, finest, eigenvalue=per_grid[finest.points])
            psi, _, _ = wavefunction_on_grid(state, beta, finest.thetas)
            psi = psi / (math.sqrt(finest.h) * np.linalg.norm(psi))
            wavefunction_gap = float(np.max(np.abs(psi - vec)))

            report.series_value = series_value
            report.numeric_value = estimate
            report.richardson_estimate = estimate
            report.grid_eigenvalues = tuple(per_grid[p] for p in report.grid_sizes)
            report.abs_gap = abs(series_value - estimate)
            report.rel_gap = (
                report.abs_gap / abs(series_value) if series_value != 0.0 else float("inf")
            )
            report.wavefunction_gap = wavefunction_gap

            checks = {
                "eigenvalue_gap": report.abs_gap <= tol["eigenvalue"],
                "wavefunction_gap": wavefunction_gap <= tol["wavefunction"],
            }
            if beta == 0.0:
                single = per_grid[finest.points]
                checks["eigenvalue_gap_beta0_single_grid"] = (
                    abs(series_value - single) <= tol["eigenvalue_beta0"]
                )
            if n_order >= 1 and "residual_slope" not in skipped:
                target = n_order + 1
                checks["residual_slope"] = (
                    target - tol["residual_slope_below"]
                    <= slope
                    <= target + tol["residual_slope_above"]
                )
            report.checks = checks
            report.passed = None if abs(beta) > 1.0 else all(checks.values())
        except Exception as exc:
            report.error = str(exc)
            report.passed = False
        reports.append(report)
    return reports
