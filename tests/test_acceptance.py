"""Acceptance battery.

Each criterion runs at its stated tolerance and prints one pass/fail line
(visible under `pytest -s` or in the captured output of a failing run).

Criterion 5 holds the float Riccati defect W^2 - W' - V + E of the series
truncated at order N (m = 1, theta = pi/3, N = 1..4) to the exact tail
sum_n D_n beta^n, N < n <= 2N, that the construction leaves: it must match
that prediction to within a roundoff floor scaled to the terms that cancel,
at every beta of the sweep, and where the tail has a leading nonzero D_n
its log-log slope must sit at that order.  At N = 2 there is no slope to
fit: the order-2 table W_2 = (3/20) sin(theta) (cos(theta) - 1/2) vanishes
at pi/3, so D_3 = 2 W_1 W_2 and D_4 = W_2^2 are exactly zero and the
defect there is pure roundoff, which the prediction check judges.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from sws1.core import ModeParams
from sws1.evaluate import riccati_residual_on_grid, wavefunction_on_grid
from sws1.oracle import (
    FdGrid,
    _ground_states,
    an_closed_form,
    fd_ground_state,
    quadrature_an,
    spectral_eigenvalue,
)
from sws1.recurrence import (
    base_order1,
    base_order2,
    base_order3,
    compute_series,
    convolve_sources,
    rt_tables,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)


def at(table, i):
    """table[i] inside a dense table, exact zero outside it."""
    return table[i] if 0 <= i < len(table) else Fraction(0)


def closed_form_energy(m: int, n: int) -> Fraction:
    return {
        0: Fraction(m * m + m - 2),
        1: Fraction(-2, m + 1),
        2: Fraction(-(m**3 + 7 * m**2 + 11 * m + 3), (m + 1) ** 3 * (2 * m + 3)),
        3: Fraction(-4 * m * m * (m + 2), (m + 1) ** 5 * (2 * m + 3)),
    }[n]


def test_criterion_1_exact_closed_form_reproduction():
    t0 = time.monotonic()
    ok = True
    for m in range(1, 11):
        state = compute_series(ModeParams(m=m, N=3))
        for n in range(4):
            ok &= state.energy[n] == closed_form_energy(m, n)
        for builder, n in ((base_order1, 1), (base_order2, 2), (base_order3, 3)):
            ref, _ = builder(state.params)
            table = state.orders[n - 1]
            ok &= table.a == ref.a and table.b == ref.b
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    report("criterion 1: exact closed-form reproduction, m = 1..10", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_2_induction_as_assertion(states_n10):
    t0 = time.monotonic()
    ok = True
    for m in (1, 2, 3):
        state = states_n10[m]
        for n in range(3, 11):
            h, g, den = convolve_sources(state, n)
            R, T, Z, _ = rt_tables(h, g, den, state.params)
            R = tuple(Fraction(v, Z) for v in R)
            T = tuple(Fraction(v, Z) for v in T)
            # the four entries that could make the order blow up at the
            # boundaries, re-derived directly from the antiderivative tables
            x_m1 = 2 * at(R, 0) + 2 * at(T, 0)
            x_0 = 2 * at(R, 1) + 2 * at(T, 1) - at(R, 0) - 2 * at(T, 0)
            y_m1 = x_m1
            y_0 = 2 * at(R, 1) + 2 * at(T, 1) - at(T, 0)
            ok &= x_m1 == 0 and x_0 == 0 and y_m1 == 0 and y_0 == 0
            # parity truncation at the top of the support
            top = n // 2 + 1
            y_top = 2 * at(R, top + 1) + 2 * at(T, top + 1) - at(T, top)
            x_top = y_top - at(R, top) - at(T, top)
            if n % 2 == 0:
                ok &= x_top == 0 and y_top == 0
            else:
                ok &= y_top == 0
            table = state.orders[n - 1]
            ok &= len(table.a) == n // 2 and len(table.b) == (n + 1) // 2
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    report("criterion 2: divergence cancellations exact, m in {1,2,3}, N = 10", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_3_divergent_coefficient_cancellation(states_n10, divergent_coefficient):
    t0 = time.monotonic()
    ok = True
    for m in (1, 2, 3):
        state = states_n10[m]
        for n in range(3, 11):
            h, g, den = convolve_sources(state, n)
            ok &= divergent_coefficient(h, g, den, state.energy[n], state.params) == 0
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    report("criterion 3: divergent-term coefficient rebuilt to exact zero", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_4_series_vs_independent_eigensolver(states_n8):
    t0 = time.monotonic()
    ok = True
    worst = 0.0
    for m in (1, 2, 3):
        state = states_n8[m]
        for beta in (0.0, 0.05, 0.1):
            series = sum(float(state.energy[n]) * beta**n for n in range(9))
            estimate, per_grid, _, _ = _ground_states(state.params, beta)
            gap = abs(series - estimate)
            worst = max(worst, gap)
            ok &= gap <= 1e-6
            if beta == 0.0:
                single = per_grid[2047]
                ok &= abs(series - single) <= 5e-5
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    report(
        "criterion 4: N=8 series vs Richardson-extrapolated eigen-solver",
        ok,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok


def defect_coefficients_at_pi_over_3(state) -> dict:
    """Exact coefficients D_n, N < n <= 2N, of the truncated Riccati defect
    sum_n D_n beta^n at theta = pi/3.

    Orders 0..N of W^2 - W' - V + E vanish identically, so what is left is
    the part of W^2 that pairs two retained orders past N, plus the
    beta^2 cos^2(theta) term of -V when N = 1.  At pi/3, cos = 1/2 and
    sin^2 = 3/4, so W_k(pi/3) = sin(pi/3) q_k with q_k rational, and every
    D_n = (3/4) sum_k q_k q_(n-k) is an exact rational.
    """
    order = state.current_order
    cos, sin2 = Fraction(1, 2), Fraction(3, 4)
    q = [None] + [
        sum(cos * a * sin2 ** (k - 1) for k, a in enumerate(t.a, start=1))
        + sum(b * sin2 ** (k - 1) for k, b in enumerate(t.b, start=1))
        for t in state.orders
    ]
    coeffs = {
        n: sin2 * sum(q[k] * q[n - k] for k in range(n - order, order + 1))
        for n in range(order + 1, 2 * order + 1)
    }
    if order == 1:
        coeffs[2] += cos * cos
    return coeffs


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_criterion_5_riccati_residual_order(order, riccati_floor):
    t0 = time.monotonic()
    state = compute_series(ModeParams(m=1, N=order))
    theta = np.array([math.pi / 3])
    betas = np.logspace(-3, -1, 9)
    exact = defect_coefficients_at_pi_over_3(state)
    predicted = np.array([sum(float(d) * b**n for n, d in exact.items()) for b in betas])
    values = np.array([float(riccati_residual_on_grid(state, b, theta)[0]) for b in betas])
    floor = np.array([float(riccati_floor(state, b, theta)[0]) for b in betas])
    # (i) the float defect is the exact O(beta^(N+1)) tail, up to roundoff
    deviation = float(np.max(np.abs(values - predicted) / floor))
    ok = deviation <= 1.0
    detail = f"max |defect - sum D_n beta^n| = {deviation:.2f} roundoff floors (bound 1)"
    # (ii) the slope law, at the leading nonzero order of the tail
    leading = min((n for n, d in exact.items() if d != 0), default=None)
    if leading is None:
        detail += (
            f"; D_{order + 1}..D_{2 * order} are all exactly zero, "
            "so the defect is pure roundoff and has no slope"
        )
    else:
        resolved = np.abs(values) > floor
        n_resolved = int(resolved.sum())
        ok &= n_resolved >= 3
        if n_resolved >= 3:
            slope = float(np.polyfit(np.log(betas[resolved]), np.log(np.abs(values[resolved])), 1)[0])
            ok &= leading - 0.3 <= slope <= leading + 0.7
            detail += (
                f"; D_{leading} leads, slope {slope:.3f} in "
                f"[{leading - 0.3:.1f}, {leading + 0.7:.1f}] over {n_resolved} resolved betas"
            )
        else:
            detail += f"; only {n_resolved} betas resolved above the floor"
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report(f"criterion 5: Riccati defect at N={order}, theta=pi/3", ok, f"{detail}, {elapsed:.2f}s")
    assert ok


def test_criterion_6_wavefunction_agreement(state_m1_n8):
    t0 = time.monotonic()
    grid = FdGrid(4096)
    _, vec = fd_ground_state(state_m1_n8.params, 0.1, grid, spectral_eigenvalue(1, 0.1))
    psi, _, _ = wavefunction_on_grid(state_m1_n8, 0.1, grid.thetas)
    psi = psi / (math.sqrt(grid.h) * np.linalg.norm(psi))
    gap = float(np.max(np.abs(psi - vec)))
    elapsed = time.monotonic() - t0
    ok = gap <= 1e-3 and elapsed < 30.0
    report("criterion 6: eigenfunction vs discrete eigenvector, m=1 beta=0.1", ok, f"gap {gap:.2e}")
    assert ok


def test_criterion_7_antiderivative_path_equivalence(states_n8):
    t0 = time.monotonic()
    rng = random.Random(20260810)
    ok = True
    worst = 0.0
    for _ in range(20):
        m = rng.randint(1, 3)
        n = rng.randint(3, 8)
        theta = rng.uniform(0.2, math.pi - 0.2)
        state = states_n8[m]
        quad = quadrature_an(state, n, theta)
        closed = an_closed_form(state, n, theta)
        rel = abs(quad - closed) / abs(closed)
        worst = max(worst, rel)
        ok &= rel <= 1e-8
    elapsed = time.monotonic() - t0
    ok &= elapsed < 20.0
    report(
        "criterion 7: quadrature vs closed-form antiderivative, 20 samples",
        ok,
        f"worst rel {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok
