from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest

from sws1.core import ModeParams
from sws1.evaluate import _beta_tables, _half_angle, _powers, _riccati_terms
from sws1.recurrence import compute_series, i_coeff


def _divergent_coefficient(h, g, den, e_n, params):
    """Rebuild the coefficient of the boundary-divergent antiderivative in
    A_n from the source tables h, g (integer numerators over den, dense
    over p = 2..) for a candidate energy coefficient; exact zero iff e_n
    is the admissible choice."""
    m = params.m
    total = Fraction(2 * (m + 1), 2 * m + 1) * e_n
    for p, (hp, gp) in enumerate(zip_longest(h, g, fillvalue=0), start=2):
        hp, gp = Fraction(hp, den), Fraction(gp, den)
        total += (2 * m - 1) * (hp - gp) * Fraction(1, m + p - 1) * i_coeff(m + p - 2, p - 1)
        total += (2 * m - 1) * (2 * gp - hp) * Fraction(1, 2 * m + 2 * p) * i_coeff(m + p - 1, p)
    return total


@pytest.fixture(scope="session")
def state_m1_n8():
    return compute_series(ModeParams(m=1, N=8))


@pytest.fixture(scope="session")
def state_m2_n8():
    return compute_series(ModeParams(m=2, N=8))


@pytest.fixture(scope="session")
def state_m3_n8():
    return compute_series(ModeParams(m=3, N=8))


@pytest.fixture(scope="session")
def states_n8(state_m1_n8, state_m2_n8, state_m3_n8):
    return {1: state_m1_n8, 2: state_m2_n8, 3: state_m3_n8}


@pytest.fixture(scope="session")
def states_n10():
    return {m: compute_series(ModeParams(m=m, N=10)) for m in (1, 2, 3)}


@pytest.fixture(scope="session")
def divergent_coefficient():
    """Criterion 3's reference formula.  It equals -2m (R_0 + T_0) / Z of
    rt_tables, which solves E_n from R_0 + T_0 = 0, and the build checks
    X[-1] = 2 (R_0 + T_0) = 0 in xy_tables, so the build itself needs no
    separate copy of it."""
    return _divergent_coefficient


@pytest.fixture(scope="session")
def riccati_terms():
    """(W, W', V, E) of a series at beta on an array of angles, from the
    float path's own Riccati terms."""

    def terms(state, beta, thetas):
        trig = _half_angle(np.asarray(thetas, dtype=float))
        tables = _beta_tables(state, beta)
        return _riccati_terms(state, beta, tables, trig, _powers(trig[3], tables))

    return terms


@pytest.fixture(scope="session")
def riccati_floor(riccati_terms):
    """Roundoff floor of the float Riccati defect W^2 - W' - V + E.

    The four terms cancel to far below their own size, so what float64
    leaves of the defect is set by the terms, not by the defect: the floor
    is 16 machine epsilons times W^2 + |W'| + |V| + |E|, per angle.
    """

    def floor(state, beta, thetas):
        w, wp, v, e = riccati_terms(state, beta, thetas)
        return 16.0 * np.finfo(float).eps * (w * w + np.abs(wp) + np.abs(v) + abs(e))

    return floor
