"""Floating-point evaluation of the series.

Everything upstream is exact rational arithmetic; this module converts the
coefficient tables to binary floating point once per call batch and
evaluates the potential, the truncated super-potential and its analytic
derivative, the Riccati defect, eigenvalue partial sums, and the ground
eigenfunction.

Trigonometric bookkeeping: 1 -+ cos(theta) are always formed from
half-angle squares, which stays accurate near both endpoints where the
naive difference cancels catastrophically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ModeParams
from .recurrence import SeriesState, i_coeff

_NORM_POINTS = 4097  # composite-Simpson node count for eigenfunction normalization
_NORM_MARGIN = 1e-8  # endpoint inset; the integrand vanishes there for m >= 1


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


@dataclass(frozen=True)
class _FloatTables:
    """Coefficient tables of a series state converted to floats once."""

    m: int
    order: int
    a: tuple  # per order n: tuple of (k, coeff) over the nonzero entries
    b: tuple
    energy: tuple


def _float_entries(values: tuple) -> tuple:
    """(k, float) over the nonzero entries of a dense table over k = 1.."""
    return tuple((k, float(v)) for k, v in enumerate(values, start=1) if v)


def float_tables(state: SeriesState) -> _FloatTables:
    return _FloatTables(
        m=state.params.m,
        order=state.current_order,
        a=tuple(_float_entries(t.a) for t in state.orders),
        b=tuple(_float_entries(t.b) for t in state.orders),
        energy=tuple(float(c) for c in state.energy.coeffs),
    )


def _half_angle(theta):
    """Return (sin, cos, 1-cos, 1+cos) with the last two formed stably."""
    half = theta / 2.0
    one_minus = 2.0 * np.sin(half) ** 2
    one_plus = 2.0 * np.cos(half) ** 2
    return np.sin(theta), 1.0 - one_minus, one_minus, one_plus


def potential_on_grid(thetas: np.ndarray, params: ModeParams, beta: float) -> np.ndarray:
    """Potential of the transformed boundary-value problem on an array of
    interior angles (spin weight 1)."""
    s, c, one_minus, one_plus = _half_angle(np.asarray(thetas, dtype=float))
    m = params.m
    inv_sin2 = ((m + c) ** 2 - 0.25) / (one_minus * one_plus)
    return inv_sin2 - 1.25 - (beta * c) ** 2 + 2.0 * beta * c


def potential(point: EvalPoint, params: ModeParams) -> float:
    return float(potential_on_grid(np.array([point.theta]), params, point.beta)[0])


def _order_values(tabs: _FloatTables, s, c):
    """Yield W_n(theta) for n = 1..order; s, c may be scalars or arrays."""
    for an, bn in zip(tabs.a, tabs.b):
        acc_a = 0.0
        for k, v in an:
            acc_a = acc_a + v * s ** (2 * k - 1)
        acc_b = 0.0
        for k, v in bn:
            acc_b = acc_b + v * s ** (2 * k - 1)
        yield c * acc_a + acc_b


def order_term(state: SeriesState, n: int, theta) -> float:
    """Evaluate the single series order W_n at theta (no beta power)."""
    if not 1 <= n <= state.current_order:
        raise ValueError(f"order {n} not available (state holds 1..{state.current_order})")
    table = state.order_table(n)
    s = np.sin(theta)
    c = np.cos(theta)
    acc_a = sum(float(v) * s ** (2 * k - 1) for k, v in enumerate(table.a, start=1))
    acc_b = sum(float(v) * s ** (2 * k - 1) for k, v in enumerate(table.b, start=1))
    return c * acc_a + acc_b


def w_on_grid(state: SeriesState, beta: float, thetas: np.ndarray) -> np.ndarray:
    """Truncated super-potential W(theta; beta) on an array of angles,
    from W_0 = -(1 + (m+1/2) cos)/sin up."""
    tabs = float_tables(state)
    s, c, _, _ = _half_angle(np.asarray(thetas, dtype=float))
    w = -(1.0 + (tabs.m + 0.5) * c) / s
    bp = 1.0
    for term in _order_values(tabs, s, c):
        bp *= beta
        w = w + bp * term
    return w


def eval_w(state: SeriesState, point: EvalPoint) -> float:
    return float(w_on_grid(state, point.beta, np.array([point.theta]))[0])


def w_derivative_on_grid(state: SeriesState, beta: float, thetas: np.ndarray) -> np.ndarray:
    """Analytic theta-derivative of the truncated super-potential.

    Uses d/dtheta[-(1 + (m+1/2) cos)/sin] = (m + 1/2 + cos)/sin^2 and the
    term-wise derivatives of cos*sin^(2k-1) and sin^(2k-1).
    """
    tabs = float_tables(state)
    th = np.asarray(thetas, dtype=float)
    s, c, one_minus, one_plus = _half_angle(th)
    sin2 = one_minus * one_plus
    dw = (tabs.m + 0.5 + c) / sin2
    bp = 1.0
    for an, bn in zip(tabs.a, tabs.b):
        bp *= beta
        term = np.zeros_like(th)
        for k, v in an:
            # d/dtheta [cos * sin^(2k-1)] = (2k-1) sin^(2k-2) - 2k sin^(2k)
            term = term + v * ((2 * k - 1) * s ** (2 * k - 2) - 2 * k * s ** (2 * k))
        for k, v in bn:
            term = term + v * (2 * k - 1) * c * s ** (2 * k - 2)
        dw = dw + bp * term
    return dw


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


@lru_cache(maxsize=None)
def _p_row(k: int) -> tuple:
    """Float coefficients of the closed-form antiderivative of sin^(2k-1)."""
    return tuple(float(i_coeff(k - 1, j)) for j in range(k))


def p_antiderivative(k: int, theta) -> float:
    """Antiderivative of sin^(2k-1); finite on [0, pi], zero slope at the
    endpoints for k >= 2."""
    if k < 1:
        raise ValueError(f"p_antiderivative needs k >= 1, got {k}")
    th = np.asarray(theta, dtype=float)
    if np.any(th < 0.0) or np.any(th > math.pi):
        raise ValueError("theta must lie in [0, pi]")
    s = np.sin(th)
    acc = np.zeros_like(th)
    for j, coeff in enumerate(_p_row(k)):
        acc = acc + coeff * s ** (2 * k - 2 - 2 * j)
    out = -np.cos(th) / (2 * k) * acc
    return float(out) if np.isscalar(theta) or out.ndim == 0 else out


def _wavefunction_unnormalized(tabs: _FloatTables, beta: float, thetas: np.ndarray) -> np.ndarray:
    th = np.asarray(thetas, dtype=float)
    s, c, one_minus, _ = _half_angle(th)
    phase = np.zeros_like(th)
    bp = 1.0
    for an, bn in zip(tabs.a, tabs.b):
        bp *= beta
        term = np.zeros_like(th)
        for k, v in an:
            term = term + v * s ** (2 * k) / (2 * k)
        for k, v in bn:
            term = term + v * p_antiderivative(k, th)
        phase = phase + bp * term
    return one_minus * s ** (tabs.m - 0.5) * np.exp(-phase)


def _simpson_weights(npts: int, spacing: float) -> np.ndarray:
    if npts < 3 or npts % 2 == 0:
        raise ValueError("composite Simpson needs an odd point count >= 3")
    w = np.ones(npts)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (spacing / 3.0)


def _norm_const(tabs: _FloatTables, beta: float) -> float:
    grid = np.linspace(_NORM_MARGIN, math.pi - _NORM_MARGIN, _NORM_POINTS)
    values = _wavefunction_unnormalized(tabs, beta, grid)
    weights = _simpson_weights(_NORM_POINTS, grid[1] - grid[0])
    return 1.0 / math.sqrt(float(weights @ (values * values)))


def wavefunction_on_grid(state: SeriesState, beta: float, thetas: np.ndarray):
    """Normalized ground eigenfunction on an array of interior angles.

    Returns (psi, theta_big, norm_const) where the normalization makes the
    square of psi integrate to one over (0, pi).
    """
    tabs = float_tables(state)
    norm = _norm_const(tabs, beta)
    psi = norm * _wavefunction_unnormalized(tabs, beta, np.asarray(thetas, dtype=float))
    theta_big = psi / np.sqrt(np.sin(np.asarray(thetas, dtype=float)))
    return psi, theta_big, norm


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
