"""Order-by-order construction of the super-potential and eigenvalue series.

Orders 1 and 2 carry bespoke source terms (a linear cosine forcing and a
cosine-squared forcing) that do not fit the quadratic-convolution shape of
the general machinery, so they are written down in closed form.  From
order 3 on the pipeline is

    convolve_sources -> energy_coeff -> rt_tables -> xy_tables

and at order 3 the closed form is computed as well and compared exactly,
as a seam test between the two paths.  Each general order stays in
Python integers from end to end: the sources, the R/T tables and the X/Y
tables are integer numerators over one denominator per table, W_n is
stored as its X/Y numerators over Z with their one common gcd cancelled
(WnTable), and only E_n becomes a Fraction.  The sources are formed on
packed integers: of each pair of orders only the higher is packed, held
as its value at a power of two 2^w wide enough for every entry of the
result, and it is multiplied by each integer entry of the lower order,
so the lower order brings no slot padding into the products.  w is
rounded up to whole 8-byte words, so runs of consecutive orders share one
w, and each table keeps its packed pair for the last w it was packed at:
an order is packed again only when w changes.  Every cancellation that
keeps the eigenfunction finite at the boundaries is asserted at runtime as an
exact integer zero test; a failure raises SeriesInconsistencyError
naming the offending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from operator import mul

from .core import ModeParams, Rational, WnTable, _numerators

_ZERO = Fraction(0)


class SeriesInconsistencyError(RuntimeError):
    """An exact cancellation required for boundary finiteness failed."""


@cache
def i_coeff(mm: int, k: int) -> Rational:
    """Ratio of the k+1 descending even factors starting at 2*mm+2 to the
    k+1 descending odd factors starting at 2*mm+1.

    This is the coefficient family appearing in the closed-form
    antiderivatives of odd sine powers, read at 0 <= k <= mm.  k < 0
    returns exact zero.  Memoised across orders.
    """
    if k < 0:
        return _ZERO
    num = 1
    den = 1
    for i in range(k + 1):
        num *= 2 * mm + 2 - 2 * i
        den *= 2 * mm + 1 - 2 * i
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Closed-form base orders.
# ---------------------------------------------------------------------------


def base_order0(params: ModeParams) -> Rational:
    """Zeroth-order energy m^2 + m - 2.  The zeroth order of the
    super-potential, W_0 = -(1 + (m+1/2)cos)/sin, has no table: the float
    evaluation forms it directly."""
    m = params.m
    return Fraction(m * m + m - 2)


def base_order1(params: ModeParams) -> tuple[WnTable, Rational]:
    """First order: W_1 = -sin(theta)/(m+1), energy -2/(m+1)."""
    m = params.m
    return WnTable(1, (), (-1,), m + 1), Fraction(-2, m + 1)


def base_order2(params: ModeParams) -> tuple[WnTable, Rational]:
    m = params.m
    den = (m + 1) ** 3 * (2 * m + 3)
    table = WnTable(2, (m * (m + 2) * (m + 1),), (-m * (m + 2),), den)
    return table, Fraction(-(m**3 + 7 * m**2 + 11 * m + 3), den)


def base_order3(params: ModeParams) -> tuple[WnTable, Rational]:
    m = params.m
    den = (m + 1) ** 5 * (2 * m + 3)
    table = WnTable(3, (-2 * m * (m + 1),), (2 * m, -m * (m + 1) ** 2), den)
    return table, Fraction(-4 * m * m * (m + 2), den)


# ---------------------------------------------------------------------------
# General order n >= 3.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesState:
    """Truncated series: orders[k-1] holds W_k, energy[n] the n-th energy
    coefficient, a Fraction.  Immutable; advance() returns a new state."""

    params: ModeParams
    orders: tuple[WnTable, ...]
    energy: tuple[Rational, ...]

    @property
    def current_order(self) -> int:
        return len(self.orders)

    @cached_property
    def floats(self) -> tuple:
        """The series rounded to float entry by entry, on first use and
        once per series: (a, b, energy), a and b read-only zero-padded
        matrices whose row n-1 holds W_n's table, energy a tuple.  Each
        entry is v / den, an int division, which Python rounds correctly:
        the float of the Fraction.  numpy loads here, so the exact layer
        loads none."""
        import numpy as np

        n = self.current_order
        a, b = np.zeros((n, n // 2)), np.zeros((n, (n + 1) // 2))
        for row, t in enumerate(self.orders):
            a[row, : len(t.a_num)] = [v / t.den for v in t.a_num]
            b[row, : len(t.b_num)] = [v / t.den for v in t.b_num]
        a.flags.writeable = b.flags.writeable = False
        return a, b, tuple(map(float, self.energy))


_WORD_BYTES = 8


def _slot_bytes(bound: int) -> int:
    """Bytes per slot of a packed table whose entries all lie within
    +-bound: room for bound and a sign bit, rounded up to whole 8-byte
    words."""
    return _WORD_BYTES * (bound.bit_length() // (8 * _WORD_BYTES) + 1)


def _unpack(packed: int, slots: int, nb: int) -> tuple:
    """Inverse of `core._pack` at w = 8 nb over `slots` slots, for entries
    below 2^(w-1) in size.  Adding 2^(w-1) to every slot makes each entry a
    w-bit digit in [0, 2^w) with no carry into the next, so the bytes of
    the biased value are the digits.  A packed value that reaches past
    the top slot, or is negative after the bias, makes to_bytes raise
    OverflowError rather than truncate."""
    half = 1 << (8 * nb - 1)
    bias = int.from_bytes((bytes(nb - 1) + b"\x80") * slots, "little")
    data = (packed + bias).to_bytes(slots * nb, "little")
    return tuple(
        int.from_bytes(data[i : i + nb], "little") - half for i in range(0, slots * nb, nb)
    )


def convolve_sources(state: SeriesState, n: int) -> tuple[tuple, tuple, int]:
    """Expand sum_{k=1}^{n-1} W_k W_{n-k} as a sine polynomial

        sum_p h[p] sin^(2p-2)(theta) + cos(theta) * sum_p g[p] sin^(2p-2)(theta)

    and return (h, g, L): integer numerators over the one denominator L,
    dense over p = 2..n//2+1 and p = 2..(n+1)//2 (the entry of p at
    index p - 2).

    With x = sin^2, cos^2 = 1 - x and A_k, B_k the polynomials
    sum_i a_k[i] x^(i-1), sum_i b_k[i] x^(i-1), W_k W_l contributes
    h = (1 - x) A_k A_l + B_k B_l and g = A_k B_l + B_k A_l
      = (A_k + B_k)(A_l + B_l) - A_k A_l - B_k B_l.  These are formed on
    the integer numerators of the two orders, the product scaled from
    den_k den_l up to L = lcm over the pairs of den_k den_l; the pair
    (n-k, k) repeats (k, n-k), so each is formed once, counted twice.

    The products are formed on packed integers, each polynomial held as its
    value at x = 2^w (Kronecker substitution; Harvey 2009, J. Symb.
    Comput. 44, 1502).  Of a pair (k, l), k <= l, only the higher order l
    is packed: its A_l and B_l, times the pair's scale once, and their sum.
    The lower order enters through its integer entries, A_k(2^w) =
    sum_i a_k[i] 2^(w i), so A_k A_l at x = 2^w is sum_i a_k[i] A_l(2^w)
    2^(w i).  Slot i sums, over the pairs, entry i of the lower order times
    the packed A_l, and likewise for B and A + B; Horner's rule in 2^w over
    the slot sums, from the top slot down, gives the packed sums over pairs
    of A_k A_l, B_k B_l and (A_k + B_k)(A_l + B_l).  The lower order's
    entries are only about k/n as wide as w, so packing them as well would
    multiply mostly zero padding.  The shift by x and the differences above
    are then integer additions and one shift.

    The packed value of a polynomial is exact whatever w and the size of
    its entries, so only the final h and g must fit their slots to be
    unpacked.  With M_k the largest numerator of order k in size
    (`WnTable.largest`, measured once per table) and t = (k+1)//2, the
    length of b_k, the most terms any product of the pair adds into one
    entry (k <= n-k), every entry of h is at most 3 S in size and every
    entry of g at most 2 S, S = sum over pairs of scale M_k M_(n-k) t.  w
    gives 3 S a sign bit and is rounded up to whole 8-byte words
    (`_slot_bytes`).  The rounding only widens the slots, so the 3 S bound
    alone decides whether an entry fits, and `_unpack` raises rather than
    truncate one that does not.  S grows by about a byte per order, so
    consecutive orders mostly share one w; each table keeps its packed
    pair for the last w (`WnTable._packed`) and is packed again only when
    w changes, which spares re-packing every higher order at every n.
    """
    if n < 3:
        raise ValueError("orders below 3 carry bespoke sources; use the closed forms")
    if state.current_order < n - 1:
        raise ValueError(f"need orders 1..{n - 1} computed, have {state.current_order}")
    pairs = [
        (state.orders[k - 1], state.orders[n - k - 1], 1 if 2 * k == n else 2)
        for k in range(1, n // 2 + 1)
    ]
    den = math.lcm(*(wk.den * wl.den for wk, wl, _ in pairs))
    scaled = [(wk, wl, weight * (den // (wk.den * wl.den))) for wk, wl, weight in pairs]
    bound = sum(scale * wk.largest * wl.largest * len(wk.b_num) for wk, wl, scale in scaled)
    nb = _slot_bytes(3 * bound)
    w = 8 * nb
    # per pair: the lower order's entries, a_k read as zero one past its
    # end (b_k is a_k's length or one longer), and the higher order's
    # packed A_l, B_l and A_l + B_l with the pair's scale folded in
    terms = []
    for wk, wl, scale in scaled:
        al, bl = wl._packed(w)
        al, bl = scale * al, scale * bl
        terms.append((wk.a_num + (0,), wk.b_num, al, bl, al + bl))
    # slot i sums over the pairs whose lower order has an entry i, those
    # with k >= 2i + 1, from index 2i on; Horner's rule in 2^w from the
    # top slot down shifts the slot sums into aa, bb and cross
    aa = bb = cross = 0
    for i in range(len(terms[-1][1]) - 1, -1, -1):
        sa = sb = sc = 0
        for a, b, al, bl, cl in terms[2 * i :]:
            x, y = a[i], b[i]
            sa += x * al
            sb += y * bl
            sc += (x + y) * cl
        aa = (aa << w) + sa
        bb = (bb << w) + sb
        cross = (cross << w) + sc
    # at even n the cross products of two odd orders reach one slot past
    # g's support, where -B_k B_l cancels them; _unpack raises otherwise
    h = _unpack(aa - (aa << w) + bb, n // 2, nb)
    g = _unpack(cross - aa - bb, (n + 1) // 2 - 1, nb)
    return h, g, den


def energy_coeff(h: tuple, g: tuple, den: int, params: ModeParams) -> Rational:
    """The unique energy coefficient that removes the boundary-divergent
    antiderivative from A_n, from the sources h, g over den: one integer
    dot product with the weights of _energy_weights, reduced once."""
    wh, wg, wden = _energy_weights(params.m, len(h) + 1)
    return Fraction(sum(map(mul, h, wh)) + sum(map(mul, g, wg)), den * wden)


@cache
def _energy_weights(m: int, top: int) -> tuple[tuple, tuple, int]:
    """Integer weights (wh, wg) over one denominator, dense over p = 2..top,
    with E_n = sum_p (h[p] wh[p] + g[p] wg[p]) / denominator and

        E_n = c sum_p (h[p] - g[p]) I(m+p-2, p-1) / (m+p-1)
                    + (2 g[p] - h[p]) I(m+p-1, p) / (2m+2p),

    c = -(2m+1)(2m-1) / (2(m+1)), I = i_coeff.  Memoised across orders.
    """
    c = Fraction(-(2 * m + 1) * (2 * m - 1), 2 * (m + 1))
    wh, wg = [], []
    for p in range(2, top + 1):
        alpha = c * i_coeff(m + p - 2, p - 1) / (m + p - 1)
        beta = c * i_coeff(m + p - 1, p) / (2 * m + 2 * p)
        wh.append(alpha - beta)
        wg.append(2 * beta - alpha)
    wden = math.lcm(*(w.denominator for w in wh + wg))
    return _numerators(wh, wden), _numerators(wg, wden), wden


def rt_tables(
    h: tuple, g: tuple, den: int, e_n: Rational, params: ModeParams
) -> tuple[tuple, tuple, int]:
    """Assemble the plain (R) and cos-weighted (T) expansion tables of the
    antiderivative A_n once the divergent term has been removed:

        A_n(theta) = sum_p R[p] sin^(2m+2p) + cos(theta) * sum_j T[j] sin^(2m+2j)

    from the sources h, g over den, and return (R, T, Z): integer
    numerators over one denominator Z, R dense over p = 0..(n+1)//2 and T
    over j = 0..n//2.  Z is lcm(den, denominator of e_n) times the lcm of
    m and every m+p-1 and 2m+2p, times the product of the 2m+2j+1 of the
    Horner step below, so that each division on the way is exact.
    """
    if not len(h) - 1 <= len(g) <= len(h):
        raise ValueError(
            f"g spans p = 2..{len(g) + 1}, outside the support allowed beside "
            f"h over p = 2..{len(h) + 1} (g ends at h's top or one below it)"
        )
    m = params.m
    top = len(h) + 1
    odd = math.prod(range(2 * m + 1, 2 * m + 2 * top, 2))  # 2m+2j+1, j = 0..top-1
    small = math.lcm(m, *range(m + 1, m + top), *range(2 * m + 4, 2 * m + 2 * top + 1, 2))
    Z = math.lcm(den, e_n.denominator) * small * odd
    zs = Z // den  # h, g over Z
    ze = Z // e_n.denominator * e_n.numerator  # e_n over Z
    hs = (0, 0, *h, 0)  # h[p] at index p, zero off 2..n//2+1
    gs = (0, 0, *g, 0, 0)  # g[p] at index p, zero off 2..(n+1)//2

    R = [-ze // m, (gs[2] - hs[2]) * (zs // (m + 1))]
    for p in range(2, len(g) + 2):
        R.append((2 * gs[p + 1] - 2 * hs[p + 1] - gs[p]) * (zs // (2 * m + 2 * p)))

    # T[j] = [j == 0] e_n/(2m+1) + sum_p u[p] i_coeff(m+p-2, p-2-j)
    #                                  + v[p] i_coeff(m+p-1, p-1-j),
    # with the per-p weights u, v below.  Both i_coeff values are products
    # of r(x) = (2x+2)/(2x+1) over x = m+j .. m+p-2 (resp. m+p-1), so the
    # sums obey the Horner step T[j] = r(m+j) (u[j+2] + v[j+1] + T[j+1]),
    # taken from the top of the support down.  Every numerator over Z is
    # a multiple of odd, so each division by 2m+2j+1 leaves no remainder.
    ps = range(2, top + 1)
    u = [0, 0, *((gs[p] - hs[p]) * (zs // (m + p - 1)) for p in ps), 0]
    v = [0, 0, *((hs[p] - 2 * gs[p]) * (zs // (2 * m + 2 * p)) for p in ps)]
    T = []
    t = 0
    for j in range(len(h), -1, -1):
        t = (2 * m + 2 * j + 2) * (u[j + 2] + v[j + 1] + t) // (2 * m + 2 * j + 1)
        T.append(t)
    T.reverse()
    T[0] += ze // (2 * m + 1)
    return tuple(R), tuple(T), Z


def xy_tables(n: int, R: tuple, T: tuple, Z: int) -> WnTable:
    """Convert the antiderivative tables of order n, integer numerators
    over Z, to the sine-polynomial coefficients of W_n (X the plain table
    b, Y the cos-weighted table a), checking the cancellation that has to
    hold for W_n to stay finite at the boundaries: the entries at index -1
    and 0 of both X and Y must vanish exactly (otherwise W_n would blow up
    like inverse sine powers).

    R and T are read as zero at index -1 and past their supports.  The
    parity truncation needs no check: `rt_tables` returns R over
    p = 0..(n+1)//2 and T over j = 0..n//2, so X past (n+1)//2 and Y past
    n//2 are formed from that zero padding alone.  The check is an integer
    zero test, and W_n is the X/Y numerators over Z, which WnTable cancels
    by their one common gcd.
    """
    rs = (0, *R, 0, 0)  # R[j] at index j + 1
    ts = (0, *T, 0, 0)
    X = {}
    Y = {}
    for j in range(-1, (n + 1) // 2 + 1):
        common = 2 * rs[j + 2] + 2 * ts[j + 2]
        X[j] = common - rs[j + 1] - 2 * ts[j + 1]
        Y[j] = common - ts[j + 1]

    for j in (-1, 0):
        if X[j] != 0 or Y[j] != 0:
            raise SeriesInconsistencyError(
                f"order {n}: boundary-divergent term survives "
                f"(X[{j}]={Fraction(X[j], Z)}, Y[{j}]={Fraction(Y[j], Z)})"
            )

    a = tuple(Y[j] for j in range(1, n // 2 + 1))
    b = tuple(X[j] for j in range(1, (n + 1) // 2 + 1))
    return WnTable(n, a, b, Z)


def advance(state: SeriesState) -> SeriesState:
    """Append the next order to the series.

    Orders 1 and 2 come from their closed forms; order 3 runs both the
    closed form and the general pipeline and requires exact agreement;
    orders >= 4 run the general pipeline alone.
    """
    n = state.current_order + 1
    if n == 1:
        table, e_n = base_order1(state.params)
    elif n == 2:
        table, e_n = base_order2(state.params)
    else:
        h, g, den = convolve_sources(state, n)
        e_n = energy_coeff(h, g, den, state.params)
        # xy_tables raises on any failed cancellation
        table = xy_tables(n, *rt_tables(h, g, den, e_n, state.params))
        if n == 3 and (table, e_n) != base_order3(state.params):
            raise SeriesInconsistencyError(
                "order 3: recurrence path disagrees with the closed form "
                f"(got a={table.a}, b={table.b}, e={e_n})"
            )
    return SeriesState(state.params, state.orders + (table,), state.energy + (e_n,))


def compute_series(params: ModeParams) -> SeriesState:
    """Run the recurrences from order 0 through params.N."""
    state = SeriesState(params, (), (base_order0(params),))
    for _ in range(params.N):
        state = advance(state)
    return state
