"""Order-by-order construction of the super-potential and eigenvalue series.

Orders 1 and 2 carry bespoke source terms (a linear cosine forcing and a
cosine-squared forcing) that do not fit the quadratic-convolution shape of
the general machinery, so they are written down in closed form.  From
order 3 on the pipeline is

    convolve_sources -> energy_coeff -> rt_tables -> xy_tables

and at order 3 the closed form is computed as well and compared exactly,
as a seam test between the two paths.  Every cancellation that keeps the
eigenfunction finite at the boundaries is asserted at runtime in exact
rational arithmetic; a failure raises SeriesInconsistencyError naming the
offending order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from operator import mul

from .core import (
    EnergySeries,
    ModeParams,
    Rational,
    RTXYTables,
    SourceTables,
    W0Form,
    WnTable,
)

_ZERO = Fraction(0)


class SeriesInconsistencyError(RuntimeError):
    """An exact cancellation required for boundary finiteness failed."""


@cache
def i_coeff(mm: int, k: int) -> Rational:
    """Ratio of the k+1 descending even factors starting at 2*mm+2 to the
    k+1 descending odd factors starting at 2*mm+1.

    This is the coefficient family appearing in the closed-form
    antiderivatives of odd sine powers.  k < 0 returns exact zero; k > mm
    is outside the domain the series machinery ever touches and is
    rejected to guard against misuse.  Memoised across orders.
    """
    if k < 0:
        return _ZERO
    if mm < 0:
        raise ValueError(f"i_coeff needs mm >= 0, got {mm}")
    if k > mm:
        raise ValueError(f"i_coeff index k={k} exceeds mm={mm}")
    num = 1
    den = 1
    for i in range(k + 1):
        num *= 2 * mm + 2 - 2 * i
        den *= 2 * mm + 1 - 2 * i
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Closed-form base orders.
# ---------------------------------------------------------------------------


def base_order0(params: ModeParams) -> tuple[W0Form, Rational]:
    """Zeroth order: W_0 = -(1 + (m+1/2)cos)/sin and energy m^2 + m - 2."""
    m = params.m
    return W0Form.for_mode(m), Fraction(m * m + m - 2)


def base_order1(params: ModeParams) -> tuple[WnTable, Rational]:
    """First order: W_1 = -sin(theta)/(m+1), energy -2/(m+1)."""
    m = params.m
    return WnTable(1, {}, {1: Fraction(-1, m + 1)}), Fraction(-2, m + 1)


def base_order2(params: ModeParams) -> tuple[WnTable, Rational]:
    m = params.m
    a = {1: Fraction(m * (m + 2), (2 * m + 3) * (m + 1) ** 2)}
    b = {1: Fraction(-m * (m + 2), (2 * m + 3) * (m + 1) ** 3)}
    e2 = Fraction(-(m**3 + 7 * m**2 + 11 * m + 3), (m + 1) ** 3 * (2 * m + 3))
    return WnTable(2, a, b), e2


def base_order3(params: ModeParams) -> tuple[WnTable, Rational]:
    m = params.m
    a = {1: Fraction(-2 * m, (m + 1) ** 4 * (2 * m + 3))}
    b = {
        1: Fraction(2 * m, (m + 1) ** 5 * (2 * m + 3)),
        2: Fraction(-m, (m + 1) ** 3 * (2 * m + 3)),
    }
    e3 = Fraction(-4 * m * m * (m + 2), (m + 1) ** 5 * (2 * m + 3))
    return WnTable(3, a, b), e3


# ---------------------------------------------------------------------------
# General order n >= 3.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderAudit:
    """Measured facts of one order, recorded once every runtime assertion
    of that order has passed (a failed one raises instead)."""

    n: int
    path: str  # "closed-form", "recurrence", or "both"
    energy_num_digits: int  # decimal digits of |E_n|'s numerator
    energy_den_digits: int  # decimal digits of E_n's denominator
    nonzero_entries: int  # nonzero entries of the a and b tables together


@dataclass(frozen=True)
class SeriesState:
    """Truncated series: orders[k-1] holds W_k, energy[n] the n-th energy
    coefficient.  Immutable; advance() returns a new state."""

    params: ModeParams
    w0: W0Form
    orders: tuple[WnTable, ...]
    energy: EnergySeries
    audit: tuple[OrderAudit, ...]

    def __post_init__(self) -> None:
        if len(self.energy) != len(self.orders) + 1:
            raise ValueError("energy series and order tables are out of step")
        for idx, table in enumerate(self.orders, start=1):
            if table.n != idx:
                raise ValueError(f"order table at position {idx} claims n={table.n}")

    @property
    def current_order(self) -> int:
        return len(self.orders)

    def order_table(self, n: int) -> WnTable:
        return self.orders[n - 1]


def _poly_mul(x: tuple, y: tuple) -> list:
    """Coefficients of the product of two integer polynomials (index =
    power, counted from the lowest stored one)."""
    ry = y[::-1]
    top = len(y) - 1
    return [
        sum(map(mul, x[max(0, q - top) : q + 1], ry[max(0, top - q) :]))
        for q in range(len(x) + top)
    ]


def _poly_add(x, y) -> list:
    return [u + v for u, v in zip_longest(x, y, fillvalue=0)]


def convolve_sources(state: SeriesState, n: int) -> SourceTables:
    """Expand sum_{k=1}^{n-1} W_k W_{n-k} as a sine polynomial.

    With x = sin^2, cos^2 = 1 - x and A_k, B_k the polynomials
    sum_i a_k[i] x^(i-1), sum_i b_k[i] x^(i-1), W_k W_l contributes
    h = (1 - x) A_k A_l + B_k B_l and g = A_k B_l + B_k A_l.  These are
    formed on the integer numerators of the two orders and reduced to
    exact rationals once per pair, over the product of their denominators;
    the pair (n-k, k) repeats (k, n-k), so each is formed once, counted twice.
    """
    if n < 3:
        raise ValueError("orders below 3 carry bespoke sources; use the closed forms")
    if state.current_order < n - 1:
        raise ValueError(f"need orders 1..{n - 1} computed, have {state.current_order}")
    h: dict[int, Rational] = {}
    g: dict[int, Rational] = {}
    for k in range(1, n // 2 + 1):
        wk, wl = state.orders[k - 1], state.orders[n - k - 1]
        aa = _poly_mul(wk.a_num, wl.a_num)
        hk = _poly_add(_poly_add(aa, [0] + [-v for v in aa]), _poly_mul(wk.b_num, wl.b_num))
        gk = _poly_add(_poly_mul(wk.a_num, wl.b_num), _poly_mul(wk.b_num, wl.a_num))
        weight = 1 if 2 * k == n else 2
        for table, terms in ((h, hk), (g, gk)):
            for p, v in enumerate(terms, start=2):
                if v:
                    table[p] = table.get(p, _ZERO) + Fraction(weight * v, wk.den * wl.den)
    # SourceTables enforces the support bounds, in particular that the
    # cos-weighted part vanishes at p = n//2 + 1 for even n.
    return SourceTables(n, h, g)


def energy_coeff(sources: SourceTables, params: ModeParams) -> Rational:
    """The unique energy coefficient that removes the boundary-divergent
    antiderivative from A_n."""
    m = params.m
    total = _ZERO
    for p in range(2, sources.n // 2 + 2):
        hp, gp = sources.h_at(p), sources.g_at(p)
        total += (hp - gp) * Fraction(1, m + p - 1) * i_coeff(m + p - 2, p - 1)
        total += (2 * gp - hp) * Fraction(1, 2 * m + 2 * p) * i_coeff(m + p - 1, p)
    return Fraction(-(2 * m + 1) * (2 * m - 1), 2 * (m + 1)) * total


def divergent_coefficient(sources: SourceTables, e_n: Rational, params: ModeParams) -> Rational:
    """Rebuild the coefficient of the boundary-divergent antiderivative in
    A_n for a candidate energy coefficient; exact zero iff e_n is the
    admissible choice."""
    m = params.m
    total = Fraction(2 * (m + 1), 2 * m + 1) * e_n
    for p in range(2, sources.n // 2 + 2):
        hp, gp = sources.h_at(p), sources.g_at(p)
        total += (2 * m - 1) * (hp - gp) * Fraction(1, m + p - 1) * i_coeff(m + p - 2, p - 1)
        total += (2 * m - 1) * (2 * gp - hp) * Fraction(1, 2 * m + 2 * p) * i_coeff(m + p - 1, p)
    return total


def rt_tables(sources: SourceTables, e_n: Rational, params: ModeParams) -> RTXYTables:
    """Assemble the plain (R) and cos-weighted (T) expansion tables of the
    antiderivative A_n once the divergent term has been removed."""
    m = params.m
    n = sources.n

    R: dict[int, Rational] = {}
    R[0] = -e_n * Fraction(1, m)
    R[1] = (sources.g_at(2) - sources.h_at(2)) * Fraction(1, m + 1)
    for p in range(2, n // 2 + 2):
        R[p] = (
            2 * sources.g_at(p + 1) - 2 * sources.h_at(p + 1) - sources.g_at(p)
        ) * Fraction(1, 2 * m + 2 * p)

    # T[j] = [j == 0] e_n/(2m+1) + sum_p u[p] i_coeff(m+p-2, p-2-j)
    #                                  + v[p] i_coeff(m+p-1, p-1-j),
    # with the per-p weights u, v below.  Both i_coeff values are products
    # of r(x) = (2x+2)/(2x+1) over x = m+j .. m+p-2 (resp. m+p-1), so the
    # sums obey the Horner step T[j] = r(m+j) (u[j+2] + v[j+1] + T[j+1]),
    # taken from the top of the support down.
    ps = range(2, n // 2 + 2)
    u = {p: (sources.g_at(p) - sources.h_at(p)) / (m + p - 1) for p in ps}
    v = {p: (sources.h_at(p) - 2 * sources.g_at(p)) / (2 * m + 2 * p) for p in ps}
    T: dict[int, Rational] = {}
    t = _ZERO
    for j in range(n // 2, -1, -1):
        t = Fraction(2 * m + 2 * j + 2, 2 * m + 2 * j + 1) * (
            u.get(j + 2, _ZERO) + v.get(j + 1, _ZERO) + t
        )
        T[j] = t
    T[0] += e_n / (2 * m + 1)

    # RTXYTables enforces the support bounds of both tables.
    return RTXYTables(n, R, T)


def xy_tables(rt: RTXYTables) -> WnTable:
    """Convert the antiderivative tables to the sine-polynomial
    coefficients of W_n (X the plain table b, Y the cos-weighted table a),
    checking every cancellation that has to hold for W_n to stay finite at
    the boundaries:

      * the entries at index -1 and 0 of both X and Y must vanish exactly
        (otherwise W_n would blow up like inverse sine powers), and
      * the top-of-support entries must vanish according to the parity
        of n, which is what keeps the general table shape closed.
    """
    n = rt.n
    X: dict[int, Rational] = {}
    Y: dict[int, Rational] = {}
    for j in range(-1, n // 2 + 2):
        common = 2 * rt.r_at(j + 1) + 2 * rt.t_at(j + 1)
        X[j] = common - rt.r_at(j) - 2 * rt.t_at(j)
        Y[j] = common - rt.t_at(j)

    for j in (-1, 0):
        if X[j] != 0 or Y[j] != 0:
            raise SeriesInconsistencyError(
                f"order {n}: boundary-divergent term survives "
                f"(X[{j}]={X[j]}, Y[{j}]={Y[j]})"
            )

    top = n // 2 + 1
    if n % 2 == 0:
        if X[top] != 0 or Y[top] != 0:
            raise SeriesInconsistencyError(
                f"order {n}: parity truncation failed at even top index {top}"
            )
    else:
        if Y[top] != 0:
            raise SeriesInconsistencyError(
                f"order {n}: parity truncation failed, cos-weighted top "
                f"index {top} is {Y[top]}"
            )

    # WnTable drops the exact zeros and enforces the support bounds.
    return WnTable(n, {j: Y[j] for j in Y if j >= 1}, {j: X[j] for j in X if j >= 1})


def _general_order(state: SeriesState, n: int) -> tuple[WnTable, Rational]:
    sources = convolve_sources(state, n)
    e_n = energy_coeff(sources, state.params)
    b1 = divergent_coefficient(sources, e_n, state.params)
    if b1 != 0:
        raise SeriesInconsistencyError(
            f"order {n}: chosen energy coefficient leaves divergent coefficient {b1}"
        )
    rt = rt_tables(sources, e_n, state.params)
    return xy_tables(rt), e_n  # xy_tables raises on any failed cancellation


def advance(state: SeriesState) -> SeriesState:
    """Append the next order to the series.

    Orders 1 and 2 come from their closed forms; order 3 runs both the
    closed form and the general pipeline and requires exact agreement;
    orders >= 4 run the general pipeline alone.
    """
    n = state.current_order + 1
    if n == 1:
        (table, e_n), path = base_order1(state.params), "closed-form"
    elif n == 2:
        (table, e_n), path = base_order2(state.params), "closed-form"
    elif n == 3:
        table, e_n = _general_order(state, n)
        ref_table, ref_e = base_order3(state.params)
        if table.a != ref_table.a or table.b != ref_table.b or e_n != ref_e:
            raise SeriesInconsistencyError(
                "order 3: recurrence path disagrees with the closed form "
                f"(got a={table.a}, b={table.b}, e={e_n})"
            )
        path = "both"
    else:
        (table, e_n), path = _general_order(state, n), "recurrence"
    digits = (len(str(abs(e_n.numerator))), len(str(e_n.denominator)))
    audit = OrderAudit(n, path, *digits, len(table.a) + len(table.b))

    return SeriesState(
        params=state.params,
        w0=state.w0,
        orders=state.orders + (table,),
        energy=EnergySeries(state.energy.coeffs + (e_n,)),
        audit=state.audit + (audit,),
    )


def compute_series(params: ModeParams) -> SeriesState:
    """Run the recurrences from order 0 through params.N."""
    w0, e0 = base_order0(params)
    state = SeriesState(
        params=params,
        w0=w0,
        orders=(),
        energy=EnergySeries((e0,)),
        audit=(),
    )
    for _ in range(params.N):
        state = advance(state)
    return state
