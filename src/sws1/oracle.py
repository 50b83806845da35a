"""Independent verification of the series output.

The boundary-value problem is discretized on a uniform interior grid with
Dirichlet endpoints as a symmetric tridiagonal operator T, entirely
independently of the recurrence path.  Four nested grids, h = pi/256 ...
pi/2048, each coarse node every other node of the next grid, feed one
Richardson table (Richardson 1911, Phil. Trans. R. Soc. A 210, 307) for
the eigenvalue and the eigenvector alike.  `verify_all` runs that
comparison, plus the Riccati-defect slope of the series itself.
`quadrature_an`, a Gauss-Legendre re-computation of the order-n
antiderivative from the nearer endpoint, cross-checks the coefficient
tables themselves; `verify_all` does not call it, the test suite and the
benchmark's verify-battery do.

Every grid is solved by Rayleigh-quotient iteration (`fd_ground_state`):
one inverse-iteration step at a shift from a start vector, and a second
step at the Rayleigh quotient rho only when rho lies more than
delta = 1e-9 max(1, |rho|) from the shift.  rho is formed as
(sum (dv)^2 / h^2 + sum w v^2) / sum v^2, w the potential plus the
indicial correction, so it does not carry the cancellation of
2/h^2 - lam that sets the Sturm count's noise.  A Rayleigh quotient lies
at or above the ground eigenvalue.  A step solves (T - tau) x = b, tau
its shift, by odd-even reduction in numpy down to 255 unknowns and a
Python Thomas sweep of those (`_inverse_step`).  Its pivots are those of
a block LDL^T factorization of T - tau, so by Sylvester's law of inertia
and Haynsworth's inertia additivity (1968, Linear Algebra Appl. 1, 73)
the last step's pivots count the eigenvalues below tau (Kahan 1966,
Stanford CS41): when none of them is <= 0 and tau lies in
[rho - delta, rho + delta], the eigenvalue lies at or above
tau >= rho - delta, so in [rho - delta, rho], and the grid needs no
sweep of its own.  Otherwise one Sturm count of 0 at rho - delta puts
the eigenvalue in [rho - delta, rho]; a grid whose count is not 0 raises
OracleError.

The shifts come from the spectral value s (`spectral_eigenvalue`): the
operator as a 40 x 40 matrix in the spin-weighted harmonics 1Y_l^m
(Hughes 2000, PRD 61, 084004; Cook & Zalutskiy 2014, PRD 90, 124021).
An oracle check holds the Richardson estimate to s; no verdict reads it.
On the 255-point grid Newton steps on det(T - lam), taken from below the
eigenvalue, move s to it, and one inverse step from the all-ones vector
there is the start.  Each finer grid starts from the grids before it
(`_next_start`): the 511-point grid at the Richardson seed
s + (v - s)/4, the two finest, as full multigrid's nested iteration does
(Brandt 1977, Math. Comp. 31, 333), from an h^4 model of the value and
an h^2-corrected vector.  The residual slope evaluates its nine betas in
one call.

The work that does not depend on beta is cached, read-only, and every
float is the one a fresh build gives: the nodes' `_half_angle` values of
the four Richardson grids (`_GRIDS`, `FdGrid.trig`), which the potential
and the series psi read; the residual slope's nine betas and its
`_half_angle` values at theta = pi/3, formed once per process
(`_slope_grid`); the indicial correction per (m, grid); and the spectral
matrix's parts per m.

README's Accuracy envelope states how close each of these parts lands,
over which (m, N, beta), and the test that holds it.

Endpoint handling: the transformed potential carries inverse-square
singularities at both ends, and at m = 1 the far endpoint sits exactly at
the critical coupling -1/4 where a naive nodal discretization loses its
second-order convergence entirely.  The diagonal therefore replaces the
inverse-square part of the potential at every node by the discrete
curvature of the local power solution x^alpha (alpha from the indicial
roots m+3/2 and m-1/2).  The replacement decays like the fourth power of
the node index away from each endpoint, leaves the operator symmetric
tridiagonal, and restores clean h^2 convergence for all m >= 1.
"""

from __future__ import annotations

import itertools
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
    _powers,
    _riccati_terms,
    _wavefunction,
    eval_energy,
    gauss_legendre,
    gauss_panels,
    uniform_interior_grid,
)
from .recurrence import SeriesState, compute_series, convolve_sources, rt_tables

RICHARDSON_GRIDS = (255, 511, 1023, 2047)  # h = pi/256 ... pi/2048, nested
_SPECTRAL_SIZE = 40  # harmonics l = m..m+39; 80 move E by a few ulps at m <= 80, |beta| <= 2

_ROUNDOFF_FLOOR = 16.0 * np.finfo(float).eps  # roundoff floor of the Riccati defect, per unit size
_FAR_STEP = 2.0**16 * 1e-13  # relative; the Sturm noise spans at most about 2^10 * 1e-13
_CERTIFIED_WIDTH = 1e-9  # relative; above the Sturm count's noise, which peaks at 2047 points
# the most rows an inverse step sweeps in Python: reducing the 255-point
# grid too would move its bytes and slow its step
_SWEPT_ROWS = 255


class OracleError(RuntimeError):
    """A verification sub-solver failed (non-convergence, nodal ground state...)."""


@dataclass(frozen=True)
class FdGrid:
    """Uniform interior grid for the Dirichlet problem on (0, pi)."""

    points: int

    @property
    def h(self) -> float:
        return math.pi / (self.points + 1)

    @cached_property
    def thetas(self) -> np.ndarray:
        return uniform_interior_grid(self.points)

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
def _indicial_correction(m: int, points: int) -> np.ndarray:
    """Diagonal replacement of the inverse-square potential parts by the
    exact discrete curvature of x^alpha, applied from both endpoints.  Each
    power j^alpha is formed once, over j = 0..points+1, and read at j-1, j
    and j+1.  It does not depend on beta, so it is formed once per
    (m, grid) and returned read-only.  The powers overflow at large m, and
    a rescaled form would move the last digits of every FD value below
    that, so an m past the grid's range is refused with that range and no
    numpy warning."""
    h = math.pi / (points + 1)
    j = np.arange(points + 2, dtype=float)
    corr = np.zeros(points)
    with np.errstate(over="ignore", invalid="ignore"):
        for from_left, alpha in ((True, m + 1.5), (False, m - 0.5)):
            kappa = alpha * (alpha - 1.0)
            power = j**alpha
            disc = power[2:] - 2.0 * power[1:-1] + power[:-2]
            adj = (disc / power[1:-1] - kappa / j[1:-1] ** 2) / h**2
            corr += adj if from_left else adj[::-1]
    if not np.isfinite(corr).all():
        # finite while 2 (points+1)^(m+3/2) is: m <= 91 at 2047 points
        largest = math.log(np.finfo(float).max / 2.0) / math.log(points + 1) - 1.5
        raise ValueError(
            f"the indicial correction overflows on the {points}-point grid "
            f"at m={m}; this grid supports m <= {math.floor(largest)}"
        )
    corr.flags.writeable = False
    return corr


def _weights(params: ModeParams, beta: float, grid: FdGrid) -> np.ndarray:
    """The operator's diagonal without its 2/h^2: the potential V on the
    grid's cached half-angle values plus the cached indicial correction,
    which refuses an m past the grid's range.  A beta whose square
    overflows leaves V not finite, and is refused with its cause; numpy's
    warnings about that overflow are silenced."""
    corr = _indicial_correction(params.m, grid.points)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = _potential(params.m, beta, grid.trig) + corr
    if not np.isfinite(weights).all():
        raise ValueError(
            f"the potential is not finite on the {grid.points}-point grid at beta={beta}"
        )
    return weights


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


def _shift_below(diag: list, offsq: float, seed: float, floor: float) -> float:
    """A shift at the ground eigenvalue lambda_1 by Newton steps on
    det(T - lam) taken from below it (`_sturm_newton`, whose count places
    each iterate), where in exact arithmetic a step never overshoots.  The
    steps start from `seed` when its count is 0.  When its count is 1 and
    its step points down, they start one step down, if the count there is
    0: a step from between lambda_1 and lambda_2 may also point up, towards
    lambda_2.
    Otherwise, and for a NaN seed or one below it, they start from the
    Gershgorin `floor`.  They stop where a step fails to halve the one
    before, at the float noise of the pivots; far below lambda_1, where the
    other eigenvalues shorten every step, a step longer than `_FAR_STEP`
    relative need only be shorter than the last.

    Within that noise the last step may land on either side of lambda_1,
    so the 255-point grid's last step, taken at this shift, need not
    certify rho, and the grid then takes a Sturm count
    (`fd_ground_state`)."""
    x = seed if seed > floor else floor
    count, step = _sturm_newton(diag, offsq, x)
    if count == 1 and step < 0.0:
        x += step
        count, step = _sturm_newton(diag, offsq, x)
    if count:
        x = floor
        count, step = _sturm_newton(diag, offsq, x)
    last = math.inf
    while not count and (0.0 < step <= last / 2.0 or _FAR_STEP * max(1.0, abs(x)) < step < last):
        x, last = x + step, step
        count, step = _sturm_newton(diag, offsq, x)
    return x


def _thomas(diag: list, couplings, rhs: list) -> tuple[list, int]:
    """Solve the symmetric tridiagonal system with diagonal `diag`, row i
    coupled to row i - 1 by couplings[i] (couplings[0] enters only as
    couplings[0] / inf = 0), in one Python sweep of Thomas's algorithm.
    The pivots carry a tiny-pivot guard (the shifted matrix is deliberately
    near-singular), the forward substitution runs in the factorization's
    loop, and the back substitution writes the solution backwards.  Also
    returns how many pivots were <= 0 before the guard."""
    mults, x = [], []
    piv, y = math.inf, 0.0  # no coupling into the first row
    below = 0
    for t, e, b in zip(diag, couplings, rhs):
        c = e / piv
        piv = t - e * c
        if piv < 1e-200:  # rare: a pivot <= 0 counts, a tiny one is guarded
            below += piv <= 0.0
            if piv > -1e-200:
                piv = math.copysign(1e-200, piv if piv != 0.0 else 1.0)
        y = (b - e * y) / piv
        mults.append(c)
        x.append(y)
    solution = [y]  # the last entry; the rest run backwards from it
    for mult, entry in zip(reversed(mults), reversed(x[:-1])):
        y = entry - mult * y
        solution.append(y)
    solution.reverse()
    return solution, below


def _inverse_step(
    diag: np.ndarray, off: float, shift: float, rhs: np.ndarray
) -> tuple[np.ndarray, int]:
    """One step of inverse iteration: solve (T - shift) x = rhs for the
    symmetric tridiagonal T with diagonal `diag` and off-diagonal `off` by
    odd-even reduction (Hockney 1965, J. ACM 12, 95; Buzbee, Golub &
    Nielson 1970, SIAM J. Numer. Anal. 7, 627).  Each level eliminates the
    unknowns at even indices (the first, third, ...), a system of even
    length padded with one decoupled node, until at most `_SWEPT_ROWS`
    remain for `_thomas`; numpy back-substitutes the eliminated ones.  The
    grids are nested, so each Richardson grid leaves the 255-point grid's
    rows to the Python sweep, and that grid is not reduced.

    A level carries its couplings as E = -(s/2)(1 - V), s = -2 off halved
    per level, V = 0 inside and 1 past the ends.  With rho = (p - s)/p at
    each eliminated pivot p and t = rho + V(2 - V)(1 - rho) on either
    side, a kept diagonal d - E_l^2/p_l - E_r^2/p_r forms as
    s/2 + ((d - s) + (s/4)(t_l + t_r)), its excess over the Laplacian's,
    so that no kept diagonal is a difference of the large terms s and s/4,
    and the coupling through p as V' = rho + (1 - rho)(V_a + V_b - V_a V_b).

    Also returns how many pivots were <= 0 before the guard.  A level's
    eliminated unknowns are mutually uncoupled, so it is a block LDL^T
    step with a diagonal block, and by Haynsworth's inertia additivity
    (1968, Linear Algebra Appl. 1, 73) the pivots of all levels and of
    `_thomas` count the eigenvalues below the shift, as `_sturm_count`
    does up to the float noise of the pivots.  A pivot that vanishes
    exactly counts; the guard goes on with a positive one where the Sturm
    sweep takes a negative one, so the counts may differ after it.  A
    count of 0 means that every pivot was positive."""
    d, b = np.subtract(diag, shift), np.asarray(rhs, dtype=float)
    s, below, levels = -2.0 * off, 0, []
    v = np.zeros(len(d) + 1)
    v[0] = v[-1] = 1.0
    while len(d) > _SWEPT_ROWS:
        size = len(d)
        if size % 2 == 0:  # a decoupled node, its pivot |s| > 0 and its t exactly 1
            d, b, v = np.append(d, abs(s) or 1.0), np.append(b, 0.0), np.append(v, 1.0)
        p, left, right, e = d[0::2], v[0::2], v[1::2], -0.5 * s * (1.0 - v)
        below += int(np.count_nonzero(p <= 0.0))
        tiny = np.abs(p) < 1e-200  # rare: guarded as `_thomas` guards its pivots
        if tiny.any():
            p = np.where(tiny, np.where(p < 0.0, -1e-200, 1e-200), p)
        rho = (p - s) / p
        s_over_p = 1.0 - rho
        t_next = rho + right * (2.0 - right) * s_over_p  # t_l of the next kept node
        t_prev = rho + left * (2.0 - left) * s_over_p  # t_r of the one before
        d_kept = 0.5 * s + ((d[1::2] - s) + 0.25 * s * (t_next[:-1] + t_prev[1:]))
        v = rho + s_over_p * (left + right - left * right)
        v[0] = v[-1] = 1.0
        e_left, e_right, b_out = e[0::2], e[1::2], b[0::2]
        b = b[1::2] - (e_right / p)[:-1] * b_out[:-1] - (e_left / p)[1:] * b_out[1:]
        levels.append((size, p, e_left, e_right, b_out))
        d, s = d_kept, 0.5 * s
    # an unreduced system keeps the one coupling `off`, and its cost
    couplings = (-0.5 * s * (1.0 - v)).tolist() if levels else itertools.repeat(off)
    x, count = _thomas(d.tolist(), couplings, b.tolist())
    x = np.array(x, dtype=float)
    for size, p, e_left, e_right, b_out in reversed(levels):
        outer = np.concatenate(([0.0], x, [0.0]))
        full = np.empty(len(p) + len(x))
        full[0::2] = (b_out - e_left * outer[:-1] - e_right * outer[1:]) / p
        full[1::2] = x
        x = full[:size]
    return x, below + count


def _ground_vector(x: np.ndarray, h: float) -> np.ndarray:
    """x normalized to unit discrete L2 (h-weighted), its largest entry
    positive.  x is first scaled by the power of two that brings that
    entry into [0.5, 1): exact, so no bit of the result moves, but a shift
    that makes a pivot vanish, whose guarded pivot leaves entries near
    1/1e-200, no longer overflows the norm.  The scale is sqrt(x.dot(x)),
    which is what np.linalg.norm(x) computes for a real 1-D x, so the
    bytes are that expression's.  A vector that is not finite, or has a
    node (the ground state is nodeless, so x belongs to another state),
    raises OracleError: with the peak positive, a node is an entry below
    -1e-12 times it."""
    peak = float(x[np.abs(x).argmax()])  # NaN if any entry is
    if not math.isfinite(peak):
        raise OracleError("inverse iteration overflowed")
    x = np.ldexp(x, -math.frexp(peak)[1])
    x /= math.copysign(math.sqrt(h) * math.sqrt(x.dot(x)), peak)
    if x.min() < -1e-12 * x.max():
        raise OracleError(
            "ground eigenvector changes sign; the smallest eigenvalue does "
            "not belong to the nodeless state"
        )
    return x


def _rayleigh_quotient(vector: np.ndarray, weights: np.ndarray, h: float) -> float:
    """(sum (dv)^2 / h^2 + sum w v^2) / sum v^2, the differences taken with
    the zero Dirichlet ends: v^T T v / v^T v without forming 2/h^2 - lam,
    whose cancellation sets the Sturm count's noise.  numpy's pairwise sums,
    not BLAS, so the float does not depend on BLAS threading.  The bytes
    are those of np.diff(v, prepend=0.0, append=0.0) and np.sum, which
    take the same differences of a zero-padded copy and the same
    `add.reduce`."""
    padded = np.concatenate(([0.0], vector, [0.0]))
    diff = padded[1:] - padded[:-1]
    square = vector * vector
    return float(((diff * diff).sum() / h**2 + (weights * square).sum()) / square.sum())


def _prolong(coarse: np.ndarray) -> np.ndarray:
    """A vector on the next nested grid: fine node 2i+1 takes coarse node
    i, each even node the mean of its neighbours, the ends zero."""
    padded = np.concatenate(([0.0], coarse, [0.0]))
    fine = np.empty(2 * len(coarse) + 1)
    fine[1::2] = coarse
    fine[0::2] = 0.5 * (padded[:-1] + padded[1:])
    return fine


def _cubic_prolong(coarse: np.ndarray) -> np.ndarray:
    """`_prolong` with each even node given the cubic midpoint rule
    (-a + 9b + 9c - d)/16 over its four nearest coarse nodes, the vector
    continued past each zero end by odd reflection."""
    padded = np.concatenate(([-coarse[0], 0.0], coarse, [0.0, -coarse[-1]]))
    fine = np.empty(2 * len(coarse) + 1)
    fine[1::2] = coarse
    fine[0::2] = (9.0 * (padded[1:-2] + padded[2:-1]) - padded[:-3] - padded[3:]) / 16.0
    return fine


def _next_start(spectral: float, values: list, vectors: list) -> tuple[float, np.ndarray]:
    """The shift and start of the next nested grid from the values and
    vectors of the grids solved so far, coarsest first, s the spectral
    value.  After one grid, with value v, the FD error falls like h^2: the
    shift is s + (v - s)/4 and the start its vector, `_prolong`ed.

    After two, the last two model the next to h^4.  With e0, e1 their
    values minus s, coarser first, B = (e0 - 4 e1)/12 is e1's h^4 term, and
    the shift lies max(|B|/64, delta/8) below s + (e1 - B)/4 + B/16, delta
    the certified width: below the eigenvalue, yet within delta of the
    Rayleigh quotient, so the step's own pivots certify the grid where the
    model holds (`fd_ground_state` falls back on its second step and Sturm
    count where it does not).  Their vectors v0, v1 differ on the shared
    nodes by -3 c h1^2, c h^2 the vectors' own error, so
    t = v1 + P(v1[1::2] - v0)/4, P being `_prolong`, holds the next
    grid's h^2 term; `_cubic_prolong` carries t over."""
    e1 = values[-1] - spectral
    if len(values) == 1:
        return spectral + e1 / 4.0, _prolong(vectors[-1])
    quartic = (values[-2] - spectral - 4.0 * e1) / 12.0
    guess = spectral + (e1 - quartic) / 4.0 + quartic / 16.0
    margin = max(abs(quartic) / 64.0, _CERTIFIED_WIDTH * max(1.0, abs(guess)) / 8.0)
    coarse, fine = vectors[-2:]
    return guess - margin, _cubic_prolong(fine + _prolong(fine[1::2] - coarse) / 4.0)


def fd_ground_state(
    params: ModeParams, beta: float, grid: FdGrid, shift: float, start: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Ground eigenvalue rho and unit vector (`_ground_vector`) of the
    grid's operator by Rayleigh-quotient iteration (Parlett 1998, The
    Symmetric Eigenvalue Problem, ch. 4): one `_inverse_step` at `shift`
    from `start`, then one at rho only if rho lies more than the certified
    width from the shift.  The weights are built once and serve the steps,
    rho (`_rayleigh_quotient`) and the count; the vectors stay arrays, and
    the diagonal becomes a Python list only for the sweeps that read one,
    Newton's and the Sturm count.  Without a start, `shift` is a seed that
    `_shift_below` moves to the eigenvalue, and the start is one inverse
    step there from the all-ones vector.

    rho is a Rayleigh quotient, so it lies at or above the ground
    eigenvalue whatever tau is.  When the last step at tau had no pivot
    <= 0, over its reduction's levels and its Thomas sweep, and
    rho - delta <= tau <= rho + delta, delta the certified width,
    its pivots put the eigenvalue at or above tau >= rho - delta, so in
    [rho - delta, rho]; otherwise one Sturm count of 0 at rho - delta
    does.  tau lies above rho only by rounding.  A count above 0 there,
    or a vector with a node, raises OracleError; a diagonal that is not
    finite is refused (`_weights`).

    The single step taken when rho lies within delta of the shift
    converges the vector only while lambda_2 - lambda_1 is large, or the
    start is already close (`_next_start` on the two finest grids).  At
    |beta| >= 10 the two lowest eigenvalues can draw together, and the
    wavefunction gap of a report there carries the vector's error; README's
    Accuracy envelope bounds it inside and past the judged range."""
    h = grid.h
    weights = _weights(params, beta, grid)
    diag = 2.0 / h**2 + weights
    off = -1.0 / h**2
    if start is None:
        rows = diag.tolist()
        shift = _shift_below(rows, off * off, shift, min(rows) + 2.0 * off)
        start = _inverse_step(diag, off, shift, np.ones(grid.points))[0]
        start /= np.abs(start).max()  # a vanishing pivot leaves entries near 1e202
    x, below = _inverse_step(diag, off, shift, start)
    vector = _ground_vector(x, h)
    value = _rayleigh_quotient(vector, weights, h)
    if abs(value - shift) > _CERTIFIED_WIDTH * max(1.0, abs(value)):
        shift = value
        x, below = _inverse_step(diag, off, shift, vector)
        vector = _ground_vector(x, h)
        value = _rayleigh_quotient(vector, weights, h)
    delta = _CERTIFIED_WIDTH * max(1.0, abs(value))
    if below or not value - delta <= shift <= value + delta:
        below = _sturm_count(diag.tolist(), off * off, value - delta)
        if below:
            raise OracleError(
                f"the Rayleigh quotient {value!r} on the {grid.points}-point grid is not "
                f"certified: {below} eigenvalue(s) lie below it by more than {delta:.3g}"
            )
    return value, vector


@cache
def _spectral_parts(m: int) -> tuple:
    """diag(l(l+1) - 2), C and C^2 of `spectral_eigenvalue`, truncated to
    l = m..m+39, C^2 formed from one more row of C.  They do not depend on
    beta, so they are formed once per m and returned read-only."""
    m = float(m)
    l = m + np.arange(_SPECTRAL_SIZE + 1)
    k = l[:-1] + 1.0
    with np.errstate(all="ignore"):
        band = np.sqrt((k * k - m * m) * (k * k - 1.0) / ((2.0 * k - 1.0) * (2.0 * k + 1.0))) / k
        cos = np.diag(-m / (l * (l + 1.0))) + np.diag(band, 1) + np.diag(band, -1)
        parts = (np.diag(l * (l + 1.0) - 2.0), cos, cos @ cos)
    parts = tuple(part[:_SPECTRAL_SIZE, :_SPECTRAL_SIZE] for part in parts)
    for part in parts:
        part.flags.writeable = False
    return parts


def spectral_eigenvalue(m: int, beta: float) -> float:
    """Ground eigenvalue of the operator in the spin-weighted spherical
    harmonics 1Y_l^m, l = m..m+39 (Hughes 2000; Cook & Zalutskiy 2014):
    the smallest eigenvalue of diag(l(l+1) - 2) + 2 beta C - beta^2 C^2,
    where C, the matrix of cos(theta), has

        C_ll = -m / (l(l+1)),
        C_l,l+1 = sqrt(((l+1)^2 - m^2) ((l+1)^2 - 1) / ((2l+1)(2l+3))) / (l+1).

    C^2 is formed from one more row of C before it is truncated, so its
    kept block is that of the untruncated C (`_spectral_parts`).  A matrix
    that is not finite (beta^2 or an entry overflows) gives NaN, and no
    numpy warning: the FD grids then refuse that input with its cause."""
    diagonal, cos, square = _spectral_parts(m)
    with np.errstate(all="ignore"):
        matrix = diagonal + 2.0 * beta * cos - beta * beta * square
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


def _ground_states(params: ModeParams, beta: float) -> tuple[float, dict, list, float]:
    """The Richardson estimate, the eigenvalue per grid size, the four
    grids' ground vectors, coarsest first, each from `fd_ground_state`,
    and the spectral value s (`spectral_eigenvalue`) that seeds them.
    The coarsest grid is seeded with s; each finer grid takes its shift
    and start from the grids before it (`_next_start`).  The grids are
    nested, so h halves exactly from grid to grid and every weight 4^k of
    `_richardson` is exact."""
    spectral = spectral_eigenvalue(params.m, beta)
    shift, start, per_grid, vectors = spectral, None, {}, []
    for points, grid in _GRIDS.items():
        if vectors:
            shift, start = _next_start(spectral, list(per_grid.values()), vectors)
        value, vector = fd_ground_state(params, beta, grid, shift, start)
        per_grid[points] = value
        vectors.append(vector)
    return _richardson(list(per_grid.values())), per_grid, vectors, spectral


def quadrature_an(state: SeriesState, n: int, theta: float) -> float:
    """Recompute the order-n antiderivative A_n(theta) = int_0^theta f by a
    Gauss-Legendre rule, fully independently of the closed-form tables: the
    integrand f = (E_n + sum_k W_k W_(n-k)) (1 - cos)^2 sin^(2m-1) is
    assembled from the W_k tables of the lower orders.

    E_n is fixed by int_0^pi f = 0, so A_n vanishes at both ends, and past
    pi/2 the rule runs over [theta, pi] and returns minus that integral: from
    0, A_n there is the small remainder of a cancellation that no float64
    rule resolves.
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
    trig = _half_angle(t)
    s, _, one_minus, x = trig
    a, b, energy = state.floats
    powers = _powers(x, (a, b))
    orders = [_orders_at(a[k - 1], b[k - 1], trig, powers) for k in range(1, n)]
    f = energy[n] + sum(orders[k - 1] * orders[n - k - 1] for k in range(1, n))
    return sign * float(w @ (f * one_minus**2 * s ** (2 * m - 1)))


def an_closed_form(state: SeriesState, n: int, theta: float) -> float:
    """Rebuild the order-n antiderivative from the plain/cos-weighted
    expansion tables, the quantity the quadrature is checked against."""
    h, g, den = convolve_sources(state, n)
    R, T, Z, _ = rt_tables(h, g, den, state.params)
    m = state.params.m
    s = math.sin(theta)
    c = math.cos(theta)
    r_val = sum(v / Z * s ** (2 * m + 2 * p) for p, v in enumerate(R))
    t_val = sum(v / Z * s ** (2 * m + 2 * j) for j, v in enumerate(T))
    return r_val + c * t_val


@cache
def _slope_grid() -> tuple[np.ndarray, tuple]:
    """The residual slope's nine betas over [1e-3, 1e-1] and the
    `_half_angle` values at theta = pi/3, read-only.  The first slope of a
    process forms them, not the import, so a process that takes no slope
    does not load the numpy code their first use loads."""
    betas = np.logspace(-3, -1, 9)
    trig = _half_angle(np.array([math.pi / 3.0]))
    for values in (betas, *trig):
        values.flags.writeable = False
    return betas, trig


def residual_slope(state: SeriesState) -> float:
    """Log-log slope of the Riccati defect W^2 - W' - V + E against beta
    over [1e-3, 1e-1], at theta = pi/3.

    The four terms cancel far below their own size, so float64 leaves a
    roundoff floor of 16 eps (W^2 + |W'| + |V| + |E|) per beta; samples at
    or below it carry no slope information and are excluded from the fit.
    """
    betas, trig = _slope_grid()
    tables = _beta_tables(state, betas)
    # one row per beta, one column for the angle
    terms = _riccati_terms(state, betas, tables, trig, _powers(trig[3], tables))
    w, wp, v, e = (t[:, 0] for t in terms)
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
    """Run the full comparison battery for each beta, from `state` when
    given, which must have been built for `params`.

    Sub-oracle failures are captured per report instead of aborting the
    batch; an m or beta the oracle cannot take raises ValueError
    (`_weights`).  Above |beta| = JUDGED_BETA_LIMIT the gaps are reported
    without a pass/fail judgment, since series truncation dominates every
    tolerance there.  A NaN wavefunction gap, where exp of the series
    phase overflows, was not measured and is skipped, not judged.  At
    every beta the Richardson estimate is also held to the spectral value
    that seeded its grids, under the `eigenvalue` tolerance: a check of
    the oracle, not of the series, reported in `oracle_checks` and left
    out of `passed`.  At beta = 0 the spectral value is exactly E0.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    if state is None:
        state = compute_series(params)
    elif state.params != params:
        raise ValueError(f"the state was built for {state.params}, not for {params}")
    n_order = state.current_order

    skipped = {}
    try:
        slope = residual_slope(state)
    except Exception as exc:  # no signal above the noise floor at high order
        slope = math.nan
        skipped["residual_slope"] = str(exc)

    reports = []
    for beta in beta_list:
        common = dict(
            m=params.m, beta=float(beta), order=n_order, residual_slope=slope, skipped=dict(skipped)
        )
        try:
            series_value = eval_energy(state, beta)
            estimate, per_grid, vectors, spectral = _ground_states(params, beta)
            # each vector normalized on its own grid, read on the coarsest
            # grid's nodes (grid j's every 2^j-th), then extrapolated like
            # the eigenvalue: the table removes the h^2 terms of the discrete
            # norm too, so the limit is psi normalized over (0, pi)
            vec = _richardson([v[(1 << j) - 1 :: 1 << j] for j, v in enumerate(vectors)])
            with np.errstate(over="ignore", invalid="ignore"):  # NaN at large |beta|
                tables = _beta_tables(state, beta)
                trig = _COARSEST.trig
                psi, _, _ = _wavefunction(params.m, tables, trig, _powers(trig[3], tables))
                wavefunction_gap = float(np.abs(psi - vec).max())
            abs_gap = abs(series_value - estimate)

            checks = {"eigenvalue_gap": abs_gap <= tol["eigenvalue"]}
            if math.isnan(wavefunction_gap):
                common["skipped"]["wavefunction_gap"] = "exp of the series phase overflows"
            else:
                checks["wavefunction_gap"] = wavefunction_gap <= tol["wavefunction"]
            fd_gap = abs(estimate - spectral)
            oracle_checks = {
                "eigenvalue_gap_fd_spectral": None
                if fd_gap <= tol["eigenvalue"]
                else f"the FD estimate lies {fd_gap:.3g} from the spectral value, "
                f"above {tol['eigenvalue']:g}"
            }
            if "residual_slope" not in skipped:
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
