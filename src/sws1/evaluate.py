"""Floating-point evaluation of the series.

Everything upstream is exact rational arithmetic.  Here every sine
polynomial of the series is evaluated along one path.  A weight per order
(the powers of beta for the truncated series, a unit vector for a single
order) sums the dense tables once into

    alpha_k = sum_n w_n a_{n,k},    gamma_k = sum_n w_n b_{n,k},

and with s = sin(theta), c = cos(theta) and x = s^2 the weighted orders are

    sum_n w_n W_n(theta) = s (c PA(x) + PB(x)),

PA and PB having the coefficients alpha and gamma.  Their theta-derivative
and the phase of the ground eigenfunction, sum_k alpha_k x^k / (2k) + c Q(x)
with Q the image of gamma under the closed-form antiderivative rows of the
odd sine powers (`i_coeff`), are polynomials in x as well.  All of them are
evaluated by Horner's rule, O(N) per point.

The eigenfunction is normalized by Gauss-Legendre quadrature on [0, pi];
its square is analytic there, so the rule converges geometrically.  The
rule is composite, 64 nodes on each of ceil(sqrt(m/40)) equal panels:
sin^(2m-1) narrows the integrand around pi/2 like 1/sqrt(m), and panels
keep the nodes evenly spread over it without building a rule of hundreds
of nodes.

Trigonometric bookkeeping: 1 -+ cos(theta) are always formed from
half-angle squares, which stays accurate near both endpoints where the
naive difference cancels catastrophically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import ModeParams
from .recurrence import SeriesState, i_coeff


@dataclass(frozen=True)
class EvalPoint:
    """Evaluation point: polar angle in the open interval (0, pi) and the
    spheroidicity parameter beta."""

    theta: float
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < math.pi:
            raise ValueError(f"theta must lie strictly inside (0, pi), got {self.theta}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")


@dataclass(frozen=True)
class WavefunctionSample:
    """Ground-eigenfunction sample: psi includes the normalization constant,
    theta_big = psi / sqrt(sin(theta)) is the original angular variable."""

    psi: float
    theta_big: float
    norm_const: float


@cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 64-point Gauss-Legendre rule on [-1, 1], by
    Newton's method on the three-term recurrence of P_64 (no linear algebra,
    so no LAPACK is loaded).  From these starting values four steps reach
    roundoff; six are taken."""
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
    one 64-node panel over [0, pi] is at roundoff up to m = 40."""
    return math.ceil(math.sqrt(m / 40))


def _half_angle(theta):
    """Return (sin, cos, 1-cos, 1+cos) with the last two formed stably."""
    half = theta / 2.0
    one_minus = 2.0 * np.sin(half) ** 2
    one_plus = 2.0 * np.cos(half) ** 2
    return np.sin(theta), 1.0 - one_minus, one_minus, one_plus


def _horner(coeffs: np.ndarray, x):
    """sum_i coeffs[i] x^i."""
    acc = np.zeros_like(x)
    for v in coeffs[::-1]:
        acc = acc * x + v
    return acc


def _weighted_tables(state: SeriesState, weights) -> tuple[np.ndarray, np.ndarray]:
    """alpha_k = sum_n weights[n-1] a_{n,k} over k = 1..N//2 and gamma_k,
    the same sum of the b tables, over k = 1..(N+1)//2."""
    alpha = np.zeros(state.current_order // 2)
    gamma = np.zeros((state.current_order + 1) // 2)
    for w, table in zip(weights, state.orders):
        alpha[: len(table.a)] += w * np.array(table.a, dtype=float)
        gamma[: len(table.b)] += w * np.array(table.b, dtype=float)
    return alpha, gamma


def _beta_tables(state: SeriesState, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The tables weighted by beta^n, the truncated series at beta."""
    return _weighted_tables(state, np.cumprod(np.full(state.current_order, float(beta))))


def _odd_sine_antiderivative(gamma: np.ndarray) -> np.ndarray:
    """Coefficients of Q(x) with cos(theta) Q(sin^2 theta) an antiderivative
    of sum_k gamma_k sin^(2k-1): per k, -cos/(2k) sum_j i_coeff(k-1, j)
    sin^(2k-2-2j)."""
    q = np.zeros(len(gamma))
    for k, g in enumerate(gamma, start=1):
        for i in range(k):
            q[i] -= float(i_coeff(k - 1, k - 1 - i)) * g / (2 * k)
    return q


def _orders_at(alpha: np.ndarray, gamma: np.ndarray, s, c):
    x = s * s
    return s * (c * _horner(alpha, x) + _horner(gamma, x))


def potential_on_grid(thetas: np.ndarray, params: ModeParams, beta: float) -> np.ndarray:
    """Potential of the transformed boundary-value problem on an array of
    interior angles (spin weight 1)."""
    s, c, one_minus, one_plus = _half_angle(np.asarray(thetas, dtype=float))
    m = params.m
    inv_sin2 = ((m + c) ** 2 - 0.25) / (one_minus * one_plus)
    return inv_sin2 - 1.25 - (beta * c) ** 2 + 2.0 * beta * c


def potential(point: EvalPoint, params: ModeParams) -> float:
    return float(potential_on_grid(np.array([point.theta]), params, point.beta)[0])


def weighted_orders_on_grid(state: SeriesState, weights, thetas: np.ndarray) -> np.ndarray:
    """sum_n weights[n-1] W_n(theta) on an array of angles; a unit weight
    vector gives a single order."""
    s, c, _, _ = _half_angle(np.asarray(thetas, dtype=float))
    return _orders_at(*_weighted_tables(state, weights), s, c)


def w_on_grid(state: SeriesState, beta: float, thetas: np.ndarray) -> np.ndarray:
    """Truncated super-potential W(theta; beta) on an array of angles,
    from W_0 = -(1 + (m+1/2) cos)/sin up."""
    s, c, _, _ = _half_angle(np.asarray(thetas, dtype=float))
    w0 = -(1.0 + (state.params.m + 0.5) * c) / s
    return w0 + _orders_at(*_beta_tables(state, beta), s, c)


def eval_w(state: SeriesState, point: EvalPoint) -> float:
    return float(w_on_grid(state, point.beta, np.array([point.theta]))[0])


def w_derivative_on_grid(state: SeriesState, beta: float, thetas: np.ndarray) -> np.ndarray:
    """Analytic theta-derivative of the truncated super-potential.

    Uses d/dtheta[-(1 + (m+1/2) cos)/sin] = (m + 1/2 + cos)/sin^2 and, per
    k, d/dtheta[cos sin^(2k-1)] = (2k-1) x^(k-1) - 2k x^k and
    d/dtheta[sin^(2k-1)] = (2k-1) cos x^(k-1).
    """
    s, c, one_minus, one_plus = _half_angle(np.asarray(thetas, dtype=float))
    alpha, gamma = _beta_tables(state, beta)
    ka = np.arange(1, len(alpha) + 1)
    da = np.zeros(len(alpha) + 1)
    da[:-1] += (2 * ka - 1) * alpha
    da[1:] -= 2 * ka * alpha
    db = (2 * np.arange(1, len(gamma) + 1) - 1) * gamma
    x = s * s
    w0_prime = (state.params.m + 0.5 + c) / (one_minus * one_plus)
    return w0_prime + _horner(da, x) + c * _horner(db, x)


def eval_w_derivative(state: SeriesState, point: EvalPoint) -> float:
    return float(w_derivative_on_grid(state, point.beta, np.array([point.theta]))[0])


def eval_energy(state: SeriesState, beta: float, upto: int | None = None) -> float:
    """Partial sum of the eigenvalue series through order `upto`."""
    top = state.current_order if upto is None else upto
    if top > state.current_order:
        raise ValueError(f"requested order {top} exceeds computed order {state.current_order}")
    if top < 0:
        raise ValueError("upto must be >= 0")
    coeffs = [float(c) for c in state.energy.coeffs[: top + 1]]
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * beta + c
    return acc


def riccati_residual_on_grid(state: SeriesState, beta: float, thetas: np.ndarray) -> np.ndarray:
    """Defect W^2 - W' - V + E of the truncated series; decays one power of
    beta faster than the last retained order."""
    w = w_on_grid(state, beta, thetas)
    wp = w_derivative_on_grid(state, beta, thetas)
    v = potential_on_grid(thetas, state.params, beta)
    e = eval_energy(state, beta)
    return w * w - wp - v + e


def riccati_residual(state: SeriesState, point: EvalPoint) -> float:
    return float(riccati_residual_on_grid(state, point.beta, np.array([point.theta]))[0])


def wavefunction_on_grid(state: SeriesState, beta: float, thetas: np.ndarray):
    """Normalized ground eigenfunction on an array of interior angles.

    psi = norm (1 - cos) sin^(m-1/2) exp(-phase), where the phase is the
    antiderivative of W - W_0 whose odd-sine-power parts are the closed
    forms -cos/(2k) sum_j i_coeff(k-1, j) sin^(2k-2-2j).  Returns
    (psi, theta_big, norm_const) where the normalization makes the square
    of psi integrate to one over (0, pi).
    """
    alpha, gamma = _beta_tables(state, beta)
    # phase = sum_k alpha_k x^k / (2k) + c Q(x), both polynomials in x = sin^2
    plain = np.concatenate(([0.0], alpha / (2 * np.arange(1, len(alpha) + 1))))
    q = _odd_sine_antiderivative(gamma)
    m = state.params.m

    def unnormalized(th):
        s, c, one_minus, _ = _half_angle(th)
        x = s * s
        return one_minus * s ** (m - 0.5) * np.exp(-(_horner(plain, x) + c * _horner(q, x)))

    nodes, weights = gauss_legendre(0.0, math.pi, gauss_panels(m))
    norm = 1.0 / math.sqrt(float(weights @ unnormalized(nodes) ** 2))
    th = np.asarray(thetas, dtype=float)
    psi = norm * unnormalized(th)
    return psi, psi / np.sqrt(np.sin(th)), norm


def eval_ground_wavefunction(state: SeriesState, point: EvalPoint) -> WavefunctionSample:
    psi, theta_big, norm = wavefunction_on_grid(state, point.beta, np.array([point.theta]))
    return WavefunctionSample(psi=float(psi[0]), theta_big=float(theta_big[0]), norm_const=norm)


def uniform_interior_grid(points: int) -> np.ndarray:
    """Uniform grid of `points` interior angles, endpoints excluded; a
    single point lands on pi/2."""
    if points < 1:
        raise ValueError("need at least one grid point")
    h = math.pi / (points + 1)
    return h * np.arange(1, points + 1)
