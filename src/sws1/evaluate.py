"""Floating-point evaluation of the series.

Everything upstream is exact rational arithmetic.  A series' tables become
floats once per series (`SeriesState.floats`, each entry rounded once), and
every sine polynomial of the series is evaluated along one path.  Each call
weights the rows of those tables by beta^n once,

    alpha_k = sum_n beta^n a_{n,k},    gamma_k = sum_n beta^n b_{n,k},

by a sequential cumulative sum over the orders from a zero row, which keeps
the floats of adding one order at a time; a single order is one row.  With
s = sin(theta), c = cos(theta) and x = s^2 the weighted orders are

    sum_n beta^n W_n(theta) = s (c PA(x) + PB(x)),

PA and PB having the coefficients alpha and gamma.  Their theta-derivative
and the phase of the ground eigenfunction, sum_k alpha_k x^k / (2k) + c Q(x)
with Q the image of gamma under the closed-form antiderivative rows of the
odd sine powers (`i_coeff`), are polynomials in x as well.  Each set of
angles gets one table of the powers x^0 .. x^(N//2) per call, each row
the one before times x (`_powers`), which W, W' and psi share.  Every sine
polynomial is read off it by a matrix product (`_sine_pair`): the two
polynomials of W, of W' and of the phase are the two rows of one product.

The eigenfunction is normalized by Gauss-Legendre quadrature on [0, pi];
its square is analytic there, so the rule converges geometrically.  The
rule is composite, 64 nodes on each of ceil(sqrt(m/40)) equal panels:
sin^(2m-1) narrows the integrand around pi/2 like 1/sqrt(m), and panels
keep the nodes evenly spread over it without building a rule of hundreds
of nodes.

Trigonometric bookkeeping: 1 -+ cos(theta) are always formed from
half-angle squares, which stays accurate near both endpoints where the
naive difference cancels catastrophically.  x = sin^2 is their product,
formed once per set of angles, and sin = sqrt((1 - cos)(1 + cos)), so sin
costs no libm pass of its own.  The squares stay normal for theta above
about 2e-154; below that sin loses its last bits, and by theta = 1e-154
W' and V overflow.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .recurrence import SeriesState, i_coeff


@cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 64-point Gauss-Legendre rule on [-1, 1], by
    Newton's method on the three-term recurrence of P_64 (no linear algebra,
    so no LAPACK is loaded).  Six steps are taken from these starting
    values, past the step where the nodes stop moving."""
    n = 64
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(6):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def gauss_legendre(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule: the 64-point Gauss-Legendre
    rule on each of `panels` equal panels of [a, b]."""
    nodes, weights = _legendre_rule()
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (nodes + 1.0)).ravel(), (half * weights).ravel()


def gauss_panels(m: int) -> int:
    """Panel count of the composite Gauss-Legendre rules over integrands
    weighted by sin^(2m-1), whose width around pi/2 shrinks like 1/sqrt(m):
    one 64-node panel over [0, pi] serves up to m = 40 (README's Accuracy
    envelope holds the norm it gives)."""
    return math.ceil(math.sqrt(m / 40))


def _half_angle(theta):
    """Return (sin, cos, 1 - cos, sin^2): 1 -+ cos from the half-angle
    squares, sin^2 as their product and sin as its root."""
    half = theta / 2.0
    one_minus = 2.0 * np.sin(half) ** 2
    x = one_minus * (2.0 * np.cos(half) ** 2)
    return np.sqrt(x), 1.0 - one_minus, one_minus, x


@cache
def _normalization_rule(m: int) -> tuple[np.ndarray, tuple]:
    """Weights of the composite rule over [0, pi] for this m and the
    `_half_angle` values of its nodes, read-only: they depend on m alone."""
    nodes, weights = gauss_legendre(0.0, math.pi, gauss_panels(m))
    trig = _half_angle(nodes)
    for values in (weights, *trig):
        values.flags.writeable = False
    return weights, trig


def _powers(x: np.ndarray, tables) -> np.ndarray:
    """Rows x^0 .. x^K of an array of sin^2 values, each row the one before
    times x, K = len(alpha): every sine polynomial of these tables reads its
    powers here."""
    rows = np.empty((len(tables[0]) + 1, *x.shape))
    rows[0] = 1.0
    for k in range(1, len(rows)):
        np.multiply(rows[k - 1], x, out=rows[k])
    return rows


def _sine_pair(first: np.ndarray, second: np.ndarray, powers: np.ndarray):
    """(sum_i first_i x^i, sum_i second_i x^i) on the angles of `powers`, the
    two coefficient rows zero-padded to one length and contracted in one
    matrix product."""
    size = max(len(first), len(second))
    pair = np.zeros((2, size))
    pair[0, : len(first)] = first
    pair[1, : len(second)] = second
    values = pair @ powers[:size]
    return values[0], values[1]


def _ordered_sum(rows: np.ndarray) -> np.ndarray:
    """Sum of the rows one at a time from a +0.0 row: each entry is the
    float a loop adding row after row gives."""
    return np.cumsum(np.concatenate((np.zeros((1, *rows.shape[1:])), rows)), axis=0)[-1]


def _beta_tables(state: SeriesState, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """alpha_k = sum_n beta^n a_{n,k} over k = 1..N//2 and gamma_k, the same
    sum of the b tables, over k = 1..(N+1)//2: the truncated series at beta."""
    a, b, _ = state.floats
    w = np.cumprod(np.full((state.current_order, 1), float(beta)), axis=0)
    return tuple(_ordered_sum(w * t) for t in (a, b))


@cache
def _i_coeff_rows(size: int) -> np.ndarray:
    """rows[k, i] = i_coeff(k, k - i) as floats, zero for i > k."""
    rows = [[float(i_coeff(k, k - i)) for i in range(size)] for k in range(size)]
    return np.array(rows).reshape(size, size)


def _odd_sine_antiderivative(gamma: np.ndarray) -> np.ndarray:
    """Coefficients of Q(x) with cos(theta) Q(sin^2 theta) an antiderivative
    of sum_k gamma_k sin^(2k-1): per k, -cos/(2k) sum_j i_coeff(k-1, j)
    sin^(2k-2-2j)."""
    two_k = 2 * np.arange(1, len(gamma) + 1)[:, None]
    return _ordered_sum(-(_i_coeff_rows(len(gamma)) * gamma[:, None] / two_k))


def _orders_at(alpha: np.ndarray, gamma: np.ndarray, trig, powers):
    s, c, _, _ = trig
    pa, pb = _sine_pair(alpha, gamma, powers)
    return s * (c * pa + pb)


def _w(m: int, tables, trig, powers):
    s, c, _, _ = trig
    return -(1.0 + (m + 0.5) * c) / s + _orders_at(*tables, trig, powers)


def _w_derivative(m: int, tables, trig, powers):
    """Uses d/dtheta[-(1 + (m+1/2) cos)/sin] = (m + 1/2 + cos)/sin^2 and, per
    k, d/dtheta[cos sin^(2k-1)] = (2k-1) x^(k-1) - 2k x^k and
    d/dtheta[sin^(2k-1)] = (2k-1) cos x^(k-1)."""
    _, c, _, x = trig
    alpha, gamma = tables
    k = np.arange(1, len(gamma) + 1)
    ka = k[: len(alpha)]
    da = np.zeros(len(alpha) + 1)
    da[:-1] += (2 * ka - 1) * alpha
    da[1:] -= 2 * ka * alpha
    pa, pb = _sine_pair(da, (2 * k - 1) * gamma, powers)
    return (m + 0.5 + c) / x + pa + c * pb


def _potential(m: int, beta: float, trig):
    """V = ((m + cos)^2 - 1/4) / sin^2 - 5/4 - (beta cos)^2 + 2 beta cos,
    sin^2 the product (1 - cos)(1 + cos) of the half-angle values."""
    _, c, _, x = trig
    return ((m + c) ** 2 - 0.25) / x - 1.25 - (beta * c) ** 2 + 2.0 * beta * c


def _riccati_terms(state: SeriesState, beta: float, tables, trig, powers) -> tuple:
    """W, W', V and E at beta from its `_beta_tables` on the `_half_angle`
    values and their `_powers`."""
    m = state.params.m
    w, wp = _w(m, tables, trig, powers), _w_derivative(m, tables, trig, powers)
    return w, wp, _potential(m, beta, trig), eval_energy(state, beta)


def _wavefunction(m: int, tables, trig, powers):
    """psi = norm (1 - cos) sin^(m-1/2) exp(-phase), where the phase is the
    antiderivative of W - W_0 whose odd-sine-power parts are the closed
    forms -cos/(2k) sum_j i_coeff(k-1, j) sin^(2k-2-2j).  Returns
    (psi, theta_big, norm_const) where the normalization makes the square
    of psi integrate to one over (0, pi)."""
    alpha, gamma = tables
    # phase = sum_k alpha_k x^k / (2k) + c Q(x), both polynomials in x = sin^2
    plain = np.concatenate(([0.0], alpha / (2 * np.arange(1, len(alpha) + 1))))
    q = _odd_sine_antiderivative(gamma)

    def unnormalized(trig, powers):
        s, c, one_minus, _ = trig
        phase, odd = _sine_pair(plain, q, powers)
        return one_minus * s ** (m - 0.5) * np.exp(-(phase + c * odd))

    weights, nodes = _normalization_rule(m)
    norm = 1.0 / math.sqrt(float(weights @ unnormalized(nodes, _powers(nodes[3], tables)) ** 2))
    psi = norm * unnormalized(trig, powers)
    return psi, psi / np.sqrt(trig[0]), norm


def eval_on_grid(state: SeriesState, beta: float, thetas: np.ndarray) -> tuple:
    """(psi, theta_big, W, Riccati defect, E), all `sws1 eval` prints, from one
    `_half_angle` of the grid, one `_beta_tables` and one `_powers` table of
    the grid; each holds the floats of its view: the matching `*_on_grid`
    function or `eval_energy`."""
    trig = _half_angle(np.asarray(thetas, dtype=float))
    tables = _beta_tables(state, beta)
    powers = _powers(trig[3], tables)
    psi, theta_big, _ = _wavefunction(state.params.m, tables, trig, powers)
    w, wp, v, e = _riccati_terms(state, beta, tables, trig, powers)
    return psi, theta_big, w, w * w - wp - v + e, e


def w_on_grid(state: SeriesState, beta: float, thetas: np.ndarray) -> np.ndarray:
    """Truncated super-potential W(theta; beta) on an array of angles,
    from W_0 = -(1 + (m+1/2) cos)/sin up."""
    trig = _half_angle(np.asarray(thetas, dtype=float))
    tables = _beta_tables(state, beta)
    return _w(state.params.m, tables, trig, _powers(trig[3], tables))


def eval_energy(state: SeriesState, beta: float, upto: int | None = None) -> float:
    """Partial sum of the eigenvalue series through order `upto`."""
    top = state.current_order if upto is None else upto
    if top > state.current_order:
        raise ValueError(f"requested order {top} exceeds computed order {state.current_order}")
    if top < 0:
        raise ValueError("upto must be >= 0")
    acc = 0.0
    for c in reversed(state.floats[2][: top + 1]):
        acc = acc * beta + c
    return acc


def riccati_residual_on_grid(state: SeriesState, beta: float, thetas: np.ndarray) -> np.ndarray:
    """Defect W^2 - W' - V + E of the truncated series; decays one power of
    beta faster than the last retained order."""
    trig = _half_angle(np.asarray(thetas, dtype=float))
    tables = _beta_tables(state, beta)
    w, wp, v, e = _riccati_terms(state, beta, tables, trig, _powers(trig[3], tables))
    return w * w - wp - v + e


def wavefunction_on_grid(state: SeriesState, beta: float, thetas: np.ndarray):
    """Normalized ground eigenfunction on interior angles; see `_wavefunction`."""
    trig = _half_angle(np.asarray(thetas, dtype=float))
    tables = _beta_tables(state, beta)
    return _wavefunction(state.params.m, tables, trig, _powers(trig[3], tables))


def uniform_interior_grid(points: int) -> np.ndarray:
    """Uniform grid of `points` interior angles, endpoints excluded; a
    single point lands on pi/2."""
    if points < 1:
        raise ValueError("need at least one grid point")
    h = math.pi / (points + 1)
    return h * np.arange(1, points + 1)
