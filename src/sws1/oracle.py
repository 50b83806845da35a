"""Independent verification of the series output.

The boundary-value problem is discretized on a uniform interior grid with
Dirichlet endpoints and solved by Sturm-sequence bisection on the
symmetric tridiagonal operator, entirely independently of the recurrence
path.  `verify_all` runs that comparison, plus the Riccati-defect slope
of the series itself.  `quadrature_an`, a Gauss-Legendre re-computation
of the order-n antiderivative from the nearer endpoint, cross-checks the
coefficient tables themselves; `verify_all` does not call it, the test
suite and the benchmark's verify-battery do.

Cost: the floating-point Sturm count is monotone in the shift (Demmel,
Dhillon & Ren 1995), so the bisection sweeps only at midpoints between
its certified bounds.  Newton steps on det(T - lam) place those bounds
within the float noise of the eigenvalue from a seed, and a count at
min(diag) caps the bracket.  Every seed comes from `spectral_eigenvalue`,
the operator as a 40 x 40 matrix in the spin-weighted harmonics 1Y_l^m
(Hughes 2000, PRD 61, 084004; Cook & Zalutskiy 2014, PRD 90, 124021),
and from the h^2 fall of the FD error (`richardson_eigenvalue`); no
verdict reads the spectral value yet.  The bisection keeps the plain
bisection's midpoints and decisions, so every eigenvalue is the same
float.  The eigenvector takes two steps of inverse iteration on one
factorization of the shifted matrix, the first forward substitution run
inside it, and the residual slope evaluates its nine betas in one call.

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

from .core import DEFAULT_TOLERANCES, JUDGED_BETA_LIMIT, ModeParams
from .evaluate import (
    _beta_tables,
    _half_angle,
    _orders_at,
    _potential,
    _riccati_terms,
    eval_energy,
    gauss_legendre,
    gauss_panels,
    wavefunction_on_grid,
)
from .recurrence import SeriesState, compute_series, convolve_sources, rt_tables

RICHARDSON_GRIDS = (1024, 2048, 4096)
_SPECTRAL_SIZE = 40  # harmonics l = m..m+39; 80 move E by a few ulps at m <= 80, |beta| <= 2

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
    """Comparison record for one (m, beta) pair.  A value the run did not
    measure stays NaN, or empty."""

    m: int
    beta: float
    order: int
    series_value: float = math.nan
    numeric_value: float = math.nan
    abs_gap: float = math.nan
    rel_gap: float = math.nan
    grid_sizes: tuple = RICHARDSON_GRIDS
    grid_eigenvalues: tuple = ()
    richardson_estimate: float = math.nan
    wavefunction_gap: float = math.nan
    residual_slope: float = math.nan
    checks: dict = field(default_factory=dict)
    skipped: dict = field(default_factory=dict)  # check name -> why it was not run
    passed: bool | None = None
    error: str | None = None


def _indicial_correction(m: int, points: int, h: float) -> np.ndarray:
    """Diagonal replacement of the inverse-square potential parts by the
    exact discrete curvature of x^alpha, applied from both endpoints.  The
    powers j^alpha overflow at large m; a rescaled form would move the last
    digits of every FD value below that.  Each power is formed once, over
    j = 0..points+1, and read at j-1, j and j+1."""
    j = np.arange(points + 2, dtype=float)
    corr = np.zeros(points)
    for from_left, alpha in ((True, m + 1.5), (False, m - 0.5)):
        kappa = alpha * (alpha - 1.0)
        power = j**alpha
        disc = power[2:] - 2.0 * power[1:-1] + power[:-2]
        adj = (disc / power[1:-1] - kappa / j[1:-1] ** 2) / h**2
        corr += adj if from_left else adj[::-1]
    return corr


def _assemble_diagonal(params: ModeParams, beta: float, grid: FdGrid) -> np.ndarray:
    """Diagonal of the operator.  A diagonal that is not finite is refused
    with its cause, a beta whose square overflows or an m past the indicial
    correction's range; numpy's warnings about that overflow are silenced."""
    h = grid.h
    with np.errstate(over="ignore", invalid="ignore"):
        corr = _indicial_correction(params.m, grid.points, h)
        diag = 2.0 / h**2 + _potential(params.m, beta, _half_angle(grid.thetas)) + corr
    if not np.isfinite(diag).all():
        if not np.isfinite(corr).all():
            # finite while 2 (points+1)^(m+3/2) is: m <= 83 at 4096 points
            largest = math.log(np.finfo(float).max / 2.0) / math.log(grid.points + 1) - 1.5
            raise ValueError(
                f"the indicial correction overflows on the {grid.points}-point grid "
                f"at m={params.m}; this grid supports m <= {math.floor(largest)}"
            )
        raise ValueError(
            f"the potential is not finite on the {grid.points}-point grid at beta={beta}"
        )
    return diag


def _sturm_count(diag: list, offsq: float, lam: float) -> int:
    """Number of eigenvalues of the tridiagonal operator below lam, from
    the sign changes of the LDL^T pivots."""
    count = 0
    d = math.inf  # no coupling into the first row
    for t in diag:
        d = (t - lam) - offsq / d
        if d <= 0.0:  # a zero pivot counts as a tiny negative one
            count += 1
            if d == 0.0:
                d = -1e-300
    return count


def _sturm_newton(diag: list, offsq: float, lam: float) -> tuple[int, float]:
    """`_sturm_count` at lam, its pivots d_i formed by the very same float
    operations, with the Newton step -1 / (d/dlam log|det(T - lam)|) from
    the pivots' derivatives d_i' = -1 + offsq d_(i-1)' / d_(i-1)^2.  A zero
    sum gives a NaN step."""
    count = 0
    d, r, dlog = math.inf, 0.0, 0.0  # r = d_i' / d_i
    for t in diag:
        q = offsq / d
        d = (t - lam) - q
        if d <= 0.0:
            count += 1
            if d == 0.0:
                d = -1e-300
        r = (q * r - 1.0) / d
        dlog += r
    return count, (-1.0 / dlog if dlog else math.nan)


def fd_ground_eigenvalue(
    params: ModeParams, beta: float, grid: FdGrid, *, guess: float = math.nan
) -> float:
    """Smallest eigenvalue of the discretized boundary-value problem via
    bisection on the Sturm-sequence count, from the Gershgorin bracket to a
    width of 1e-13 relative.

    Two certified bounds are kept: the highest probe with count 0 and the
    lowest with count >= 1.  The count is monotone in lam (Demmel, Dhillon
    & Ren 1995), so a midpoint at or beyond them is decided without a
    sweep; only one strictly between them runs `_sturm_count`.

    The bounds are placed first, where the eigenvalue is.  Newton steps on
    det(T - lam) run from `guess` (`_sturm_newton`, whose count certifies
    each iterate; `richardson_eigenvalue` guesses from the spectral
    value): below the eigenvalue a step never overshoots, and from between
    it and the next one a step lands below it.  Then counts at four
    last steps to either side of the final iterate, the distance widened
    fourfold until both bounds lie within it, and one count at min(diag),
    which is at or above the eigenvalue, close the bracket.  A guess that
    is NaN, the default, or outside the bracket takes no Newton step.
    The midpoints and decisions stay those of the plain bisection, so the
    result is the same float for any guess; a good guess only saves
    sweeps.  A diagonal that is not finite is refused
    (`_assemble_diagonal`): there is no bracket to bisect."""
    diag = _assemble_diagonal(params, beta, grid).tolist()
    off = 1.0 / grid.h**2
    offsq = off * off
    lo = min(diag) - 2.0 * off
    hi = max(diag) + 2.0 * off
    below, above = lo, hi  # certified: count 0 at or below, >= 1 at or above

    def certify(lam: float, count: int) -> None:
        nonlocal below, above
        if count >= 1:
            above = lam
        else:
            below = lam

    def probe(lam: float) -> None:
        if below < lam < above:
            certify(lam, _sturm_count(diag, offsq, lam))

    # Newton until its steps stop shrinking fourfold (the float noise of
    # the pivots), stepping up from below or down from above
    x, last = guess, math.inf
    while below < x < above:
        count, step = _sturm_newton(diag, offsq, x)
        certify(x, count)
        if not abs(step) <= last / 4.0 or (step > 0.0) != (count == 0):
            break
        x, last = x + step, abs(step)
    gap = max(4.0 * last, _BISECTION_TOL * max(1.0, abs(x)))
    while below < x - gap or x + gap < above:
        probe(x - gap)
        probe(x + gap)
        gap *= 4.0
    probe(min(diag))
    for _ in range(_BISECTION_MAX_ITER):
        if hi - lo <= _BISECTION_TOL * max(1.0, abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        probe(mid)
        if mid >= above:
            hi = mid
        else:
            lo = mid
    raise OracleError(
        f"eigenvalue bisection did not reach tolerance {_BISECTION_TOL} "
        f"within {_BISECTION_MAX_ITER} iterations (bracket [{lo}, {hi}])"
    )


def fd_ground_eigenvector(
    params: ModeParams,
    beta: float,
    grid: FdGrid,
    eigenvalue: float,
) -> np.ndarray:
    """Ground eigenvector by two steps of inverse iteration at the
    converged eigenvalue of the same grid (`fd_ground_eigenvalue`),
    normalized to unit discrete L2 (h-weighted) with positive interior
    sign.  At a shift accurate to working precision two steps reach the
    converged vector (Ipsen 1997, SIAM Rev. 39, 254).  The shifted matrix
    is factored once, by Thomas pivots with a tiny-pivot guard (the matrix
    is deliberately near-singular), and the first forward substitution,
    whose right-hand side is all ones, runs in the same loop; the vector is
    rescaled between the steps.  The ground state is nodeless; a detected
    node means the eigenvalue belongs to another state and raises
    OracleError."""
    off = -1.0 / grid.h**2
    shifted = _assemble_diagonal(params, beta, grid) - eigenvalue
    pivots, mults, x = [], [], []
    c = y = 0.0  # no coupling into the first row
    for t in shifted.tolist():
        piv = t - off * c
        if abs(piv) < 1e-200:
            piv = math.copysign(1e-200, piv if piv != 0.0 else 1.0)
        c = off / piv
        y = (1.0 - off * y) / piv  # forward substitution of the all-ones vector
        pivots.append(piv)
        mults.append(c)
        x.append(y)
    back = range(len(x) - 2, -1, -1)
    for i in back:
        x[i] -= mults[i] * x[i + 1]
    scale, y = 1.0 / math.hypot(*x), 0.0  # the second step, from the rescaled first
    for i, piv in enumerate(pivots):
        y = x[i] = (x[i] * scale - off * y) / piv
    for i in back:
        x[i] -= mults[i] * x[i + 1]
    x = np.array(x)
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


def spectral_eigenvalue(m: int, beta: float) -> float:
    """Ground eigenvalue of the operator in the spin-weighted spherical
    harmonics 1Y_l^m, l = m..m+39 (Hughes 2000; Cook & Zalutskiy 2014):
    the smallest eigenvalue of diag(l(l+1) - 2) + 2 beta C - beta^2 C^2,
    where C, the matrix of cos(theta), has

        C_ll = -m / (l(l+1)),
        C_l,l+1 = sqrt(((l+1)^2 - m^2) ((l+1)^2 - 1) / ((2l+1)(2l+3))) / (l+1).

    C^2 is formed from one more row of C before it is truncated, so its
    kept block is that of the untruncated C.  A matrix that is not finite
    (beta^2 or an entry overflows) gives NaN, and no numpy warning: the FD
    grids then refuse that input with its cause."""
    m = float(m)
    l = m + np.arange(_SPECTRAL_SIZE + 1)
    k = l[:-1] + 1.0
    with np.errstate(all="ignore"):
        band = np.sqrt((k * k - m * m) * (k * k - 1.0) / ((2.0 * k - 1.0) * (2.0 * k + 1.0))) / k
        cos = np.diag(-m / (l * (l + 1.0))) + np.diag(band, 1) + np.diag(band, -1)
        matrix = np.diag(l * (l + 1.0) - 2.0) + 2.0 * beta * cos - beta * beta * (cos @ cos)
    matrix = matrix[:_SPECTRAL_SIZE, :_SPECTRAL_SIZE]
    if not np.isfinite(matrix).all():
        return math.nan
    return float(np.linalg.eigvalsh(matrix)[0])


def richardson_eigenvalue(params: ModeParams, beta: float) -> tuple[float, dict]:
    """Eigenvalue on the three RICHARDSON_GRIDS plus one level of h^2
    elimination on the two finest, (4 v_4096 - v_2048)/3; the coarsest
    grid's value is only reported, with the others, per grid size.  The
    grids are not nested: h = pi/(p+1) on p points, so h_2048/h_4096 is
    4097/2049, not 2, and the weight 4 is only approximate (it keeps about
    6.5e-4 of the finest grid's h^2 error; ROADMAP.md, item 1).

    Every grid's bisection is seeded from the spectral value s
    (`spectral_eigenvalue`): the 1024-point grid takes s, and each finer
    grid s + (v - s)/4, v the value of the grid before it, since the FD
    error falls like h^2.  The seeds save sweeps and change no value
    (`fd_ground_eigenvalue`)."""
    spectral = guess = spectral_eigenvalue(params.m, beta)
    per_grid = {}
    for points in RICHARDSON_GRIDS:
        per_grid[points] = fd_ground_eigenvalue(params, beta, FdGrid(points), guess=guess)
        guess = spectral + (per_grid[points] - spectral) / 4.0
    _, middle, finest = RICHARDSON_GRIDS
    return (4.0 * per_grid[finest] - per_grid[middle]) / 3.0, per_grid


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
    s, c, one_minus, _ = _half_angle(t)
    a, b, energy = state.floats
    orders = [_orders_at(a[k - 1], b[k - 1], s, c) for k in range(1, n)]
    f = energy[n] + sum(orders[k - 1] * orders[n - k - 1] for k in range(1, n))
    return sign * float(w @ (f * one_minus**2 * s ** (2 * m - 1)))


def an_closed_form(state: SeriesState, n: int, theta: float) -> float:
    """Rebuild the order-n antiderivative from the plain/cos-weighted
    expansion tables, the quantity the quadrature is checked against."""
    h, g, den = convolve_sources(state, n)
    R, T, Z = rt_tables(h, g, den, state.energy[n], state.params)
    m = state.params.m
    s = math.sin(theta)
    c = math.cos(theta)
    r_val = sum(v / Z * s ** (2 * m + 2 * p) for p, v in enumerate(R))
    t_val = sum(v / Z * s ** (2 * m + 2 * j) for j, v in enumerate(T))
    return r_val + c * t_val


def residual_slope(state: SeriesState) -> float:
    """Log-log slope of the Riccati defect W^2 - W' - V + E against beta
    over [1e-3, 1e-1], at theta = pi/3.

    The four terms cancel far below their own size, so float64 leaves a
    roundoff floor of 16 eps (W^2 + |W'| + |V| + |E|) per beta; samples at
    or below it carry no slope information and are excluded from the fit.
    """
    betas = np.logspace(-3, -1, 9)
    trig = [np.repeat(t, len(betas)) for t in _half_angle(np.array([math.pi / 3.0]))]
    w, wp, v, e = _riccati_terms(state, betas, _beta_tables(state, betas), trig)
    values = np.abs(w * w - wp - v + e)
    floors = _ROUNDOFF_FLOOR * (w * w + np.abs(wp) + np.abs(v) + np.abs(e))
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
    batch; a beta the oracle cannot take (a non-finite potential) raises
    ValueError.  Above |beta| = JUDGED_BETA_LIMIT the gaps are reported
    without a pass/fail judgment, since series truncation dominates every
    tolerance there.
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
        slope = math.nan
        if n_order >= 1:
            skipped["residual_slope"] = str(exc)

    reports = []
    for beta in beta_list:
        common = dict(
            m=params.m, beta=float(beta), order=n_order, residual_slope=slope, skipped=dict(skipped)
        )
        try:
            series_value = eval_energy(state, beta, n_order)
            estimate, per_grid = richardson_eigenvalue(params, beta)
            finest = FdGrid(RICHARDSON_GRIDS[-1])
            vec = fd_ground_eigenvector(params, beta, finest, per_grid[finest.points])
            with np.errstate(over="ignore", invalid="ignore"):  # NaN at large |beta|
                psi, _, _ = wavefunction_on_grid(state, beta, finest.thetas)
                psi = psi / (math.sqrt(finest.h) * np.linalg.norm(psi))
                wavefunction_gap = float(np.max(np.abs(psi - vec)))
            abs_gap = abs(series_value - estimate)

            checks = {
                "eigenvalue_gap": abs_gap <= tol["eigenvalue"],
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
            report = OracleReport(
                **common,
                series_value=series_value,
                numeric_value=estimate,
                abs_gap=abs_gap,
                rel_gap=abs_gap / abs(series_value) if series_value != 0.0 else math.inf,
                grid_eigenvalues=tuple(per_grid[p] for p in RICHARDSON_GRIDS),
                richardson_estimate=estimate,
                wavefunction_gap=wavefunction_gap,
                checks=checks,
                passed=None if abs(beta) > JUDGED_BETA_LIMIT else all(checks.values()),
            )
        except ValueError:
            raise  # an input out of range is refused, not judged
        except Exception as exc:
            report = OracleReport(**common, passed=False, error=str(exc))
        reports.append(report)
    return reports
