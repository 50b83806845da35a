"""Independent verification of the series output.

The boundary-value problem is discretized on a uniform interior grid with
Dirichlet endpoints and solved by Sturm-sequence bisection on the
symmetric tridiagonal operator, entirely independently of the recurrence
path.  Four nested grids, h = pi/256 ... pi/2048, each coarse node every
other node of the next grid, feed one Richardson table (Richardson 1911,
Phil. Trans. R. Soc. A 210, 307) for the eigenvalue and the eigenvector
alike.  `verify_all` runs that comparison, plus the Riccati-defect slope
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

Most of a diagonal does not depend on beta.  The four Richardson grids
are module constants (`_GRIDS`), and each keeps its nodes' `_half_angle`
values (`FdGrid.trig`), which the potential and the series psi read:
about 120 KB for the four grids.  The indicial correction is cached per
(m, grid), about 30 KB per m over the four grids.  A case at a new beta
then evaluates only the potential for each diagonal, the eigenvectors'
second assemblies included.  Every cached array is read-only, and every
float is the one a fresh build gives.

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
from functools import cache, cached_property

import numpy as np

from .core import DEFAULT_TOLERANCES, JUDGED_BETA_LIMIT, ModeParams
from .evaluate import (
    _beta_tables,
    _half_angle,
    _orders_at,
    _potential,
    _riccati_terms,
    _wavefunction,
    eval_energy,
    gauss_legendre,
    gauss_panels,
)
from .recurrence import SeriesState, compute_series, convolve_sources, rt_tables

RICHARDSON_GRIDS = (255, 511, 1023, 2047)  # h = pi/256 ... pi/2048, nested
_SPECTRAL_SIZE = 40  # harmonics l = m..m+39; 80 move E by a few ulps at m <= 80, |beta| <= 2

_ROUNDOFF_FLOOR = 16.0 * np.finfo(float).eps  # roundoff floor of the Riccati defect, per unit size
_BISECTION_TOL = 1e-13
_BISECTION_MAX_ITER = 200
_FAR_STEP = 2.0**16  # stopping widths; the Sturm noise spans at most about 2^10


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

    @cached_property
    def trig(self) -> tuple:
        """`_half_angle` of the nodes, read-only: the potential's and psi's
        trigonometric values at every beta."""
        trig = _half_angle(self.thetas)
        for values in trig:
            values.flags.writeable = False
        return trig


_GRIDS = {points: FdGrid(points) for points in RICHARDSON_GRIDS}  # their trig is built once
_COARSEST = _GRIDS[RICHARDSON_GRIDS[0]]  # its nodes lie on every grid


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
    # checks of the oracle against an exact value: name -> None if it held,
    # else why not.  They judge the oracle, not the series; `passed` omits them
    oracle_checks: dict = field(default_factory=dict)
    passed: bool | None = None
    error: str | None = None


@cache
def _indicial_correction(m: int, points: int, h: float) -> np.ndarray:
    """Diagonal replacement of the inverse-square potential parts by the
    exact discrete curvature of x^alpha, applied from both endpoints.  The
    powers j^alpha overflow at large m; a rescaled form would move the last
    digits of every FD value below that.  Each power is formed once, over
    j = 0..points+1, and read at j-1, j and j+1.  It does not depend on
    beta, so it is formed once per (m, grid) and returned read-only."""
    j = np.arange(points + 2, dtype=float)
    corr = np.zeros(points)
    for from_left, alpha in ((True, m + 1.5), (False, m - 0.5)):
        kappa = alpha * (alpha - 1.0)
        power = j**alpha
        disc = power[2:] - 2.0 * power[1:-1] + power[:-2]
        adj = (disc / power[1:-1] - kappa / j[1:-1] ** 2) / h**2
        corr += adj if from_left else adj[::-1]
    corr.flags.writeable = False
    return corr


def _assemble_diagonal(params: ModeParams, beta: float, grid: FdGrid) -> np.ndarray:
    """Diagonal of the operator, 2/h^2 + V + the indicial correction.  Only
    the potential V depends on beta; the grid's `trig` and the correction
    are built once and reused.  A diagonal that is not finite is refused
    with its cause, a beta whose square overflows or an m past the indicial
    correction's range; numpy's warnings about that overflow are silenced."""
    h = grid.h
    with np.errstate(over="ignore", invalid="ignore"):
        corr = _indicial_correction(params.m, grid.points, h)
        diag = 2.0 / h**2 + _potential(params.m, beta, grid.trig) + corr
    if not np.isfinite(diag).all():
        if not np.isfinite(corr).all():
            # finite while 2 (points+1)^(m+3/2) is: m <= 91 at 2047 points
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
    value) until a step fails to halve the one before, at the float noise
    of the pivots: below the eigenvalue a step never overshoots, and from
    between it and the next one a step lands below it.  Far below it, where
    the other eigenvalues shorten every step and halving would stop Newton
    early, a step up need only be shorter than the last.  Then counts at
    four last steps to either side of the final iterate, the distance
    widened fourfold until both bounds lie within it, and one count at
    min(diag), which is at or above the eigenvalue, close the bracket.  A
    guess below the bracket starts Newton at its floor (at large m the
    coarsest grid's value lies far above the spectral one); a guess that
    is NaN, the default, or above the bracket takes no Newton step.
    The midpoints and decisions stay those of the plain bisection, so the
    result is the same float for any guess; a good guess only saves
    sweeps.  A diagonal that is not finite is refused
    (`_assemble_diagonal`): there is no bracket to bisect."""
    diagonal = _assemble_diagonal(params, beta, grid)
    diag, least = diagonal.tolist(), float(diagonal.min())
    off = 1.0 / grid.h**2
    offsq = off * off
    lo = least - 2.0 * off
    hi = float(diagonal.max()) + 2.0 * off
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

    # Newton until its steps stop halving (the float noise of the pivots),
    # stepping up from below or down from above.  Far below, the other
    # eigenvalues shorten every step, so there a step up need only be
    # shorter than the last while it spans over _FAR_STEP stopping widths.
    # A guess below the bracket starts at its floor, certified by Gershgorin
    x, last = (lo if guess < lo else guess), math.inf
    while below < x < above or x == lo:
        count, step = _sturm_newton(diag, offsq, x)
        certify(x, count)
        far = count == 0 and _FAR_STEP * _BISECTION_TOL * max(1.0, abs(x)) < step < last
        if not (abs(step) <= last / 2.0 or far) or (step > 0.0) != (count == 0):
            break
        x, last = x + step, abs(step)
    gap = max(4.0 * last, _BISECTION_TOL * max(1.0, abs(x)))
    while below < x - gap or x + gap < above:
        probe(x - gap)
        probe(x + gap)
        gap *= 4.0
    probe(least)
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
    rescaled between the steps.  The four loops run over preallocated
    lists, and each substitution carries the entry it last wrote.  The
    diagonal is the eigenvalue's own (`_assemble_diagonal`), so at a
    Richardson grid only its potential is formed again.  The ground state
    is nodeless; a detected node means the eigenvalue belongs to another
    state and raises OracleError."""
    off = -1.0 / grid.h**2
    shifted = _assemble_diagonal(params, beta, grid) - eigenvalue
    pivots, mults, x = [0.0] * grid.points, [0.0] * grid.points, [0.0] * grid.points
    c = y = 0.0  # no coupling into the first row
    for i, t in enumerate(shifted.tolist()):
        piv = t - off * c
        if -1e-200 < piv < 1e-200:
            piv = math.copysign(1e-200, piv if piv != 0.0 else 1.0)
        c = mults[i] = off / piv
        y = x[i] = (1.0 - off * y) / piv  # forward substitution of the all-ones vector
        pivots[i] = piv
    back = range(len(x) - 2, -1, -1)
    for i in back:  # y holds x[-1], as after each forward loop
        y = x[i] = x[i] - mults[i] * y
    scale, y = 1.0 / math.hypot(*x), 0.0  # the second step, from the rescaled first
    for i, piv in enumerate(pivots):
        y = x[i] = (x[i] * scale - off * y) / piv
    for i in back:
        y = x[i] = x[i] - mults[i] * y
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


def _richardson(values: list):
    """Richardson's table over the nested grids, coarsest first: level k
    combines adjacent entries as (4^k fine - coarse) / (4^k - 1), which
    removes the h^(2k) term of the error, until one entry is left.  The
    values are floats, or arrays on the nodes every grid shares."""
    for k in range(1, len(values)):
        weight = 4.0**k
        pairs = zip(values, values[1:])
        values = [(weight * fine - coarse) / (weight - 1.0) for coarse, fine in pairs]
    (estimate,) = values
    return estimate


def richardson_eigenvalue(params: ModeParams, beta: float) -> tuple[float, dict]:
    """Eigenvalue on the four RICHARDSON_GRIDS, extrapolated by three
    levels of `_richardson` (h^2, h^4 and h^6 eliminated), and the value
    per grid size.  The grids are nested, h = pi/256 ... pi/2048, so h
    halves exactly from grid to grid and every weight 4^k is exact.

    Every grid's bisection is seeded from the spectral value s
    (`spectral_eigenvalue`): the coarsest grid takes s, and each finer
    grid s + (v - s)/4, v the value of the grid before it, since the FD
    error falls like h^2.  The seeds save sweeps and change no value
    (`fd_ground_eigenvalue`)."""
    spectral = guess = spectral_eigenvalue(params.m, beta)
    per_grid = {}
    for points, grid in _GRIDS.items():
        per_grid[points] = fd_ground_eigenvalue(params, beta, grid, guess=guess)
        guess = spectral + (per_grid[points] - spectral) / 4.0
    return _richardson(list(per_grid.values())), per_grid


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
    tolerance there.  At beta = 0 the finest grid alone is also held to
    the exact E0 = m(m+1) - 2: a check of the oracle, not of the series,
    reported in `oracle_checks` and left out of `passed`.
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
            vectors = [
                fd_ground_eigenvector(params, beta, grid, per_grid[points])
                for points, grid in _GRIDS.items()
            ]
            # each vector normalized on its own grid, read on the coarsest
            # grid's nodes (grid j's every 2^j-th), then extrapolated like
            # the eigenvalue: the table removes the h^2 terms of the discrete
            # norm too, so the limit is psi normalized over (0, pi)
            vec = _richardson([v[(1 << j) - 1 :: 1 << j] for j, v in enumerate(vectors)])
            with np.errstate(over="ignore", invalid="ignore"):  # NaN at large |beta|
                psi, _, _ = _wavefunction(params.m, _beta_tables(state, beta), _COARSEST.trig)
                wavefunction_gap = float(np.max(np.abs(psi - vec)))
            abs_gap = abs(series_value - estimate)

            checks = {
                "eigenvalue_gap": abs_gap <= tol["eigenvalue"],
                "wavefunction_gap": wavefunction_gap <= tol["wavefunction"],
            }
            oracle_checks = {}
            if beta == 0.0:
                finest = RICHARDSON_GRIDS[-1]
                single = abs(per_grid[finest] - (params.m * (params.m + 1) - 2))  # exact E0
                oracle_checks["eigenvalue_gap_beta0_single_grid"] = (
                    None
                    if single <= tol["eigenvalue_beta0"]
                    else f"the {finest}-point grid is too coarse at m={params.m}: "
                    f"it lies {single:.3g} from E0, above {tol['eigenvalue_beta0']:g}"
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
                oracle_checks=oracle_checks,
                passed=None if abs(beta) > JUDGED_BETA_LIMIT else all(checks.values()),
            )
        except ValueError:
            raise  # an input out of range is refused, not judged
        except Exception as exc:
            report = OracleReport(**common, passed=False, error=str(exc))
        reports.append(report)
    return reports
