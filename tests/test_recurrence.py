import hashlib
import json
import math
from fractions import Fraction
from itertools import zip_longest
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sws1 import core, evaluate, recurrence
from sws1.core import ModeParams, WnTable, tables_to_text
from sws1.evaluate import _Grid, _odd_sine_antiderivative, _orders_at
from sws1.recurrence import (
    SeriesInconsistencyError,
    base_order0,
    base_order1,
    base_order2,
    base_order3,
    compute_series,
    convolve_sources,
    i_coeff,
    rt_tables,
    xy_tables,
)


def at(table, i):
    """table[i] inside a dense table, exact zero outside it."""
    return table[i] if 0 <= i < len(table) else Fraction(0)


def rationals(numerators, den):
    """A table of integer numerators over den, as exact rationals."""
    return tuple(Fraction(v, den) for v in numerators)


def schoolbook_mul(x, y) -> list:
    """Coefficients of the product of two integer polynomials (index =
    power, counted from the lowest stored one), term by term."""
    ry = y[::-1]
    top = len(y) - 1
    return [
        sum(map(mul, x[max(0, q - top) : q + 1], ry[max(0, top - q) :]))
        for q in range(len(x) + top)
    ]


def schoolbook_sources(state, n):
    """The sources of order n as convolve_sources returned them before the
    packed products: each product formed entry by entry on lists."""
    pairs = [
        (state.orders[k - 1], state.orders[n - k - 1], 1 if 2 * k == n else 2)
        for k in range(1, n // 2 + 1)
    ]
    den = math.lcm(*(wk.den * wl.den for wk, wl, _ in pairs))
    h = [0] * (n // 2)
    g = [0] * (n // 2)
    for wk, wl, weight in pairs:
        scale = weight * (den // (wk.den * wl.den))
        ak = [scale * v for v in wk.a_num]
        bk = [scale * v for v in wk.b_num]
        aa = schoolbook_mul(ak, wl.a_num)
        bb = schoolbook_mul(bk, wl.b_num)
        cross = schoolbook_mul(
            [u + v for u, v in zip_longest(ak, bk, fillvalue=0)],
            [u + v for u, v in zip_longest(wl.a_num, wl.b_num, fillvalue=0)],
        )
        for i, v in enumerate(aa):
            h[i] += v
            h[i + 1] -= v
            g[i] -= v
        for i, v in enumerate(bb):
            h[i] += v
            g[i] -= v
        for i, v in enumerate(cross):
            g[i] += v
    return tuple(h), tuple(g[: (n + 1) // 2 - 1]), den


def packed_product(x, y):
    """x times y through pack, one integer product and unpack, at the slot
    width of the bound max|x| max|y| min(len x, len y)."""
    top = max(map(abs, (*x, *y)), default=0)
    nb = recurrence._slot_bytes(top * top * min(len(x), len(y)))
    w = 8 * nb
    slots = max(len(x) + len(y) - 1, 0)
    return list(recurrence._unpack(core._pack(x, w) * core._pack(y, w), slots, nb))


# integer tables of one magnitude each, 2^0 up to 2^4096, signed, zeros and
# the empty table included
int_tables = st.integers(0, 4096).flatmap(
    lambda e: st.lists(st.integers(-(2**e), 2**e) | st.just(0), max_size=12)
)


def closed_form_energy(m: int, n: int) -> Fraction:
    """The first four energy coefficients as explicit rational functions of m."""
    if n == 0:
        return Fraction(m * m + m - 2)
    if n == 1:
        return Fraction(-2, m + 1)
    if n == 2:
        return Fraction(-(m**3 + 7 * m**2 + 11 * m + 3), (m + 1) ** 3 * (2 * m + 3))
    if n == 3:
        return Fraction(-4 * m * m * (m + 2), (m + 1) ** 5 * (2 * m + 3))
    raise ValueError(n)


class TestICoeff:
    def test_single_factor(self):
        assert i_coeff(1, 0) == Fraction(4, 3)

    def test_negative_index_is_zero(self):
        assert i_coeff(1, -2) == 0

    def test_two_factors(self):
        assert i_coeff(1, 1) == Fraction(8, 3)

    def test_callers_stay_in_the_domain(self, monkeypatch):
        # i_coeff has no guard for mm < 0 or k > mm: no caller asks for one
        calls = []

        def recording(mm, k):
            calls.append((mm, k))
            return i_coeff(mm, k)

        monkeypatch.setattr(recurrence, "i_coeff", recording)
        monkeypatch.setattr(evaluate, "i_coeff", recording)
        evaluate._i_coeff_rows.cache_clear()
        for m in (1, 2, 10, 91):
            compute_series(ModeParams(m=m, N=16))
        evaluate._i_coeff_rows(17)
        assert calls and all(mm >= 0 and k <= mm for mm, k in calls)

    def test_antiderivative_derivative_recovers_sine_power(self):
        # d/dtheta of the closed-form antiderivative of sin^3, cos Q(sin^2)
        # with Q the i_coeff map at gamma = (0, 1), must give sin^3; this
        # pins the i_coeff(1, k) values through an independent route.
        q = _odd_sine_antiderivative(np.array([0.0, 1.0]))

        def antiderivative(theta):
            return math.cos(theta) * (q[0] + q[1] * math.sin(theta) ** 2)

        h = 1e-6
        for theta in (0.3, 1.1, 2.2):
            fd = (antiderivative(theta + h) - antiderivative(theta - h)) / (2 * h)
            assert fd == pytest.approx(math.sin(theta) ** 3, rel=1e-8)


class TestBaseOrders:
    def test_order0_m1(self):
        assert base_order0(ModeParams(m=1, N=0)) == 0

    def test_order0_m2(self):
        assert base_order0(ModeParams(m=2, N=0)) == 4

    def test_order1(self):
        t, e1 = base_order1(ModeParams(m=1, N=1))
        assert e1 == -1 and t.b == (Fraction(-1, 2),) and t.a == ()
        _, e1_m3 = base_order1(ModeParams(m=3, N=1))
        assert e1_m3 == Fraction(-1, 2)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_order1_cos_weighted_table_always_empty(self, m):
        t, _ = base_order1(ModeParams(m=m, N=1))
        assert t.a == ()

    def test_order2_m1(self):
        t, e2 = base_order2(ModeParams(m=1, N=2))
        assert t.a == (Fraction(3, 20),)
        assert t.b == (Fraction(-3, 40),)
        assert e2 == Fraction(-11, 20)

    def test_order2_m2(self):
        _, e2 = base_order2(ModeParams(m=2, N=2))
        assert e2 == Fraction(-61, 189)

    def test_order3_m1(self):
        t, e3 = base_order3(ModeParams(m=1, N=3))
        assert t.a == (Fraction(-1, 40),)
        assert t.b == (Fraction(1, 80), Fraction(-1, 40))
        assert e3 == Fraction(-3, 40)

    def test_order3_m2(self):
        # -4*m^2*(m+2) / ((m+1)^5 (2m+3)) at m = 2; also pinned by the
        # eigen-solver comparison, which resolves this value to ~1e-9
        _, e3 = base_order3(ModeParams(m=2, N=3))
        assert e3 == Fraction(-64, 1701)


class TestGoldenClosedForms:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_first_orders_match_closed_forms_exactly(self, m):
        state = compute_series(ModeParams(m=m, N=3))
        for n in range(4):
            assert state.energy[n] == closed_form_energy(m, n)
        t1, _ = base_order1(state.params)
        t2, _ = base_order2(state.params)
        t3, _ = base_order3(state.params)
        assert state.orders == (t1, t2, t3)


class TestConvolution:
    def test_low_orders_rejected(self, state_m1_n8):
        with pytest.raises(ValueError):
            convolve_sources(state_m1_n8, 2)

    def test_missing_orders_rejected(self):
        state = compute_series(ModeParams(m=1, N=2))
        with pytest.raises(ValueError):
            convolve_sources(state, 5)

    def test_cos_weighted_support_n3(self, states_n8):
        # the cos-weighted part may not reach beyond (n+1)//2 = 2
        for state in states_n8.values():
            h, g, _ = convolve_sources(state, 3)
            assert len(h) == 1 and len(g) == 1

    def test_frozen_exact_values_n4_m1(self, state_m1_n8):
        # hand-convolved from the order 1..3 tables at m = 1
        h, g, den = convolve_sources(state_m1_n8, 4)
        assert rationals(h, den) == (Fraction(1, 64), Fraction(1, 400))  # p = 2, 3
        assert rationals(g, den) == (Fraction(1, 400),)  # p = 2

    def test_trig_polynomial_fit_recovers_sources_n4_m1(self, state_m1_n8):
        # Independent oracle: sample sum_k W_k W_{4-k} at 16 angles and fit
        # the sine-polynomial model; the fitted coefficients must match the
        # convolution output.
        h, g, den = convolve_sources(state_m1_n8, 4)
        thetas = np.linspace(0.2, math.pi - 0.2, 16)
        grid = _Grid(thetas)
        s, c = grid.trig[0], grid.trig[1]
        a, b, _ = state_m1_n8.floats
        powers = grid.powers(len(a))
        orders = [_orders_at(a[k - 1], b[k - 1], grid.trig, powers) for k in range(1, 4)]
        samples = sum(orders[k - 1] * orders[3 - k] for k in range(1, 4))
        design = np.column_stack([s**2, s**4, c * s**2, c * s**4])
        coef, *_ = np.linalg.lstsq(design, samples, rcond=None)
        fitted = dict(zip(["h2", "h3", "g2", "g3"], coef))
        assert fitted["h2"] == pytest.approx(h[0] / den, abs=1e-12)
        assert fitted["h3"] == pytest.approx(h[1] / den, abs=1e-12)
        assert fitted["g2"] == pytest.approx(g[0] / den, abs=1e-12)
        assert fitted["g3"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_symmetry_under_factor_exchange(self, state_m2_n8, n):
        # the assembly is invariant under k -> n-k; re-accumulate with the
        # loop reversed and demand identical exact tables, zero past the
        # dense supports (g stops at (n+1)//2, one short of h for even n)
        state = state_m2_n8
        src_h, src_g, den = convolve_sources(state, n)
        src_h, src_g = rationals(src_h, den), rationals(src_g, den)
        h = []
        g = []
        for p in range(2, n // 2 + 2):
            hp = Fraction(0)
            gp = Fraction(0)
            for k in reversed(range(1, n)):
                wk = state.orders[n - k - 1]  # swapped roles
                wnk = state.orders[k - 1]
                for j in range(1, p):
                    hp += (
                        at(wk.a, p - j - 1) * at(wnk.a, j - 1)
                        - at(wk.a, p - 2 - j) * at(wnk.a, j - 1)
                        + at(wk.b, p - j - 1) * at(wnk.b, j - 1)
                    )
                    gp += (
                        at(wk.a, p - j - 1) * at(wnk.b, j - 1)
                        + at(wk.b, p - j - 1) * at(wnk.a, j - 1)
                    )
            h.append(hp)
            g.append(gp)
        assert tuple(h) == src_h
        assert tuple(g[: len(src_g)]) == src_g and not any(g[len(src_g) :])


class TestPackedProducts:
    @given(int_tables, int_tables)
    def test_matches_schoolbook(self, x, y):
        assert packed_product(x, y) == schoolbook_mul(x, y)

    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(1, 2**4096) | st.sampled_from([1, 2**63 - 1, 2**64, 2**4096]),
        st.sampled_from([1, -1]),
        st.sampled_from([1, -1]),
    )
    def test_width_bound_worst_case(self, p, q, top, sx, sy):
        # every entry at the largest size with one sign per table: the
        # middle entries of the product reach the bound itself
        x, y = [sx * top] * p, [sy * top] * q
        product = packed_product(x, y)
        assert product == schoolbook_mul(x, y)
        assert max(map(abs, product)) == top * top * min(p, q)

    @pytest.mark.parametrize("lengths", [(1, 1), (1, 5), (5, 1), (0, 3), (0, 0)])
    def test_short_and_empty_tables(self, lengths):
        x = [(-3) ** i for i in range(lengths[0])]
        y = [7 - 2 * i for i in range(lengths[1])]
        assert packed_product(x, y) == schoolbook_mul(x, y)

    @pytest.mark.parametrize("top", [1, -1, 2**200, -(2**200)])
    def test_entry_past_the_slots_raises(self, top):
        # an entry one slot past the unpacked range is refused, never dropped
        nb = recurrence._slot_bytes(abs(top))
        packed = core._pack([5, -6, top], 8 * nb)
        assert recurrence._unpack(packed, 3, nb) == (5, -6, top)
        with pytest.raises(OverflowError):
            recurrence._unpack(packed, 2, nb)


class TestConvolutionReference:
    # the slot width crosses from one 8-byte word up to five at (2, 40) and
    # up to nine at (91, 24)
    @pytest.mark.parametrize("m,N", [(1, 48), (2, 40), (20, 32), (80, 16), (91, 24)])
    def test_every_order_matches_schoolbook_sources(self, m, N):
        state = compute_series(ModeParams(m=m, N=N))
        for n in range(3, N + 1):
            assert convolve_sources(state, n) == schoolbook_sources(state, n), n

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 500), st.integers(3, 14))
    def test_every_order_matches_schoolbook_at_any_m(self, m, N):
        state = compute_series(ModeParams(m=m, N=N))
        for n in range(3, N + 1):
            assert convolve_sources(state, n) == schoolbook_sources(state, n), n

    # polynomials packed per build: only the higher order of each pair is
    # packed, and again only when the slot width, in whole 8-byte words,
    # changes (448 / 258 / 268 when both orders of each pair were packed)
    PACKS = {(1, 48): 266, (2, 40): 164, (20, 32): 160}

    @pytest.mark.parametrize("m,N", sorted(PACKS))
    def test_packs_per_build_stay_pinned(self, monkeypatch, m, N):
        calls, pack = [], core._pack
        monkeypatch.setattr(core, "_pack", lambda values, w: calls.append(w) or pack(values, w))
        compute_series(ModeParams(m=m, N=N))
        assert len(calls) == self.PACKS[m, N]
        assert all(w % 64 == 0 for w in calls)


class TestEnergyAndDivergence:
    def test_order3_energy_from_recurrence(self, state_m1_n8):
        h, g, den = convolve_sources(state_m1_n8, 3)
        assert rt_tables(h, g, den, state_m1_n8.params)[3] == Fraction(-3, 40)

    def test_frozen_order4_energy_m1(self, state_m1_n8):
        # independently derived by running the convolution by hand
        assert state_m1_n8.energy[4] == Fraction(-561, 56000)

    @pytest.mark.parametrize("m", [1, 2, 3, 40, 91, 500])
    def test_divergent_coefficient_vanishes_for_chosen_energy(self, m, divergent_coefficient):
        # the closed form is a route to E_n independent of the Horner step
        # in rt_tables that the build solves it from
        state = compute_series(ModeParams(m=m, N=10))
        for n in range(3, 11):
            h, g, den = convolve_sources(state, n)
            assert divergent_coefficient(h, g, den, state.energy[n], state.params) == 0

    def test_divergent_coefficient_nonzero_off_the_choice(self, state_m1_n8, divergent_coefficient):
        h, g, den = convolve_sources(state_m1_n8, 4)
        wrong = state_m1_n8.energy[4] + Fraction(1, 7)
        assert divergent_coefficient(h, g, den, wrong, state_m1_n8.params) != 0


class TestRtXyTables:
    def test_r0_is_minus_energy_over_m(self, state_m1_n8):
        h, g, den = convolve_sources(state_m1_n8, 3)
        R, _, Z, _ = rt_tables(h, g, den, state_m1_n8.params)
        assert Fraction(R[0], Z) == Fraction(3, 40)

    def test_out_of_support_queries_are_zero(self, states_n10):
        # xy_tables reads R and T as zero past their supports
        for state in states_n10.values():
            for n in range(3, 11):
                h, g, den = convolve_sources(state, n)
                R, T, Z, _ = rt_tables(h, g, den, state.params)
                padded = ((*R, 0, 0), (*T, 0, 0))
                assert xy_tables(n, *padded, Z) == xy_tables(n, R, T, Z) == state.orders[n - 1]

    def test_tables_are_dense_over_their_supports(self, states_n10):
        for state in states_n10.values():
            for n in range(3, 11):
                h, g, den = convolve_sources(state, n)
                assert (len(h), len(g)) == (n // 2, (n + 1) // 2 - 1)  # p = 2..
                R, T, _, _ = rt_tables(h, g, den, state.params)
                assert (len(R), len(T)) == ((n + 1) // 2 + 1, n // 2 + 1)  # p, j = 0..
                table = state.orders[n - 1]
                assert (len(table.a), len(table.b)) == (n // 2, (n + 1) // 2)  # k = 1..

    def test_pipeline_reproduces_order3_closed_form(self, states_n8):
        for state in states_n8.values():
            h, g, den = convolve_sources(state, 3)
            R, T, Z, e3 = rt_tables(h, g, den, state.params)
            table = xy_tables(3, R, T, Z)
            ref, ref_e = base_order3(state.params)
            assert e3 == ref_e
            assert table.n == 3
            assert table.a == ref.a
            assert table.b == ref.b

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_t_table_matches_closed_form_sum(self, states_n10, m):
        # rt_tables builds T by a Horner recurrence; the closed form sums
        # the i_coeff antiderivative families term by term
        state = states_n10[m]
        for n in range(3, 11):
            h, g, den = convolve_sources(state, n)
            _, T, Z, _ = rt_tables(h, g, den, state.params)
            h, g, T = rationals(h, den), rationals(g, den), rationals(T, Z)
            for j in range(n // 2 + 1):
                t = state.energy[n] / (2 * m + 1) if j == 0 else Fraction(0)
                for p in range(2, n // 2 + 2):
                    hp, gp = at(h, p - 2), at(g, p - 2)
                    t += (gp - hp) / (m + p - 1) * i_coeff(m + p - 2, p - 2 - j)
                    t += (hp - 2 * gp) / (2 * m + 2 * p) * i_coeff(m + p - 1, p - 1 - j)
                assert T[j] == t

    def test_failed_cancellation_raises_naming_order(self, state_m1_n8):
        h, g, den = convolve_sources(state_m1_n8, 4)
        R, T, Z, _ = rt_tables(h, g, den, state_m1_n8.params)
        with pytest.raises(SeriesInconsistencyError, match="order 4: boundary-divergent"):
            xy_tables(4, (R[0] + Z, *R[1:]), T, Z)  # R_0 + 1

    def test_xy_tables_makes_no_fraction(self, state_m1_n8, monkeypatch):
        # W_n leaves the build as the X/Y numerators over Z; no entry is
        # reduced to a Fraction on the way
        state = state_m1_n8
        rtz = {}
        for n in range(3, 9):
            h, g, den = convolve_sources(state, n)
            rtz[n] = rt_tables(h, g, den, state.params)[:3]
        made = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        tables = [xy_tables(n, *rtz[n]) for n in range(3, 9)]
        monkeypatch.undo()
        assert made == []
        assert tuple(tables) == state.orders[2:]

    def test_order3_seam_disagreement_raises(self, monkeypatch):
        def shifted_closed_form(params):
            table, e3 = base_order3(params)
            b_num = (table.b_num[0] + table.den, table.b_num[1])  # b[0] + 1
            return WnTable(3, table.a_num, b_num, table.den), e3

        monkeypatch.setattr(recurrence, "base_order3", shifted_closed_form)
        with pytest.raises(SeriesInconsistencyError, match="order 3: recurrence path disagrees"):
            compute_series(ModeParams(m=1, N=3))


class TestSeriesState:
    def test_compute_series_m1(self):
        state = compute_series(ModeParams(m=1, N=3))
        assert [state.energy[n] for n in range(4)] == [
            Fraction(0),
            Fraction(-1),
            Fraction(-11, 20),
            Fraction(-3, 40),
        ]

    def test_compute_series_m2_n1(self):
        state = compute_series(ModeParams(m=2, N=1))
        assert state.energy == (Fraction(4), Fraction(-2, 3))

    def test_zeroth_order_only(self):
        state = compute_series(ModeParams(m=1, N=0))
        assert state.energy == (Fraction(0),)
        assert state.orders == ()

    def test_advance_to_order10_all_audits_pass(self, states_n10):
        # every runtime cancellation check passes through order 10, and no
        # order comes out as an empty table
        for state in states_n10.values():
            assert state.current_order == 10
            for table in state.orders:
                assert any(table.a + table.b)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_supports_obey_parity_truncation(self, states_n10, m):
        for table in states_n10[m].orders:
            n = table.n
            assert len(table.a) == n // 2 and len(table.b) == (n + 1) // 2


def _riccati_orders(state, sin, cos, energy):
    """Exact beta^n coefficients, n = 0..N, of W^2 - W' - V + E at one angle.

    Evaluated straight from the stored tables, with d sin = cos and
    d cos = -sin; nothing of the build is reused.
    """
    m = state.params.m
    c1 = -Fraction(2 * m + 1, 2)
    w = [(-1 + c1 * cos) / sin]
    dw = [(-c1 + cos) / sin**2]
    for t in state.orders:
        ks = range(1, t.n + 1)
        w.append(sum((cos * at(t.a, k - 1) + at(t.b, k - 1)) * sin ** (2 * k - 1) for k in ks))
        dw.append(
            sum(
                at(t.a, k - 1) * ((2 * k - 1) * cos**2 * sin ** (2 * k - 2) - sin ** (2 * k))
                + at(t.b, k - 1) * (2 * k - 1) * cos * sin ** (2 * k - 2)
                for k in ks
            )
        )
    v = [((m + cos) ** 2 - Fraction(1, 4)) / sin**2 - Fraction(5, 4), 2 * cos, -(cos**2)]
    v += [Fraction(0)] * len(w)
    return [
        sum(w[i] * w[n - i] for i in range(n + 1)) - dw[n] - v[n] + energy[n]
        for n in range(len(w))
    ]


PYTHAGOREAN_ANGLES = [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(-12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
]


class TestExactRiccatiIdentity:
    @pytest.mark.parametrize("m,N", [(1, 24), (2, 20), (20, 16)])
    def test_every_order_vanishes_exactly(self, m, N):
        state = compute_series(ModeParams(m=m, N=N))
        for sin, cos in PYTHAGOREAN_ANGLES:
            assert sin**2 + cos**2 == 1
            assert _riccati_orders(state, sin, cos, state.energy) == [0] * (N + 1)

    def test_perturbed_energy_shows_at_its_order_only(self, state_m2_n8):
        energy = list(state_m2_n8.energy)
        energy[5] += Fraction(1, 7)
        for sin, cos in PYTHAGOREAN_ANGLES:
            orders = _riccati_orders(state_m2_n8, sin, cos, energy)
            assert orders == [0] * 5 + [Fraction(1, 7)] + [0] * 3


def rayleigh_schroedinger_energy(m: int, N: int, diagonal_sign: int = 1) -> list:
    """E_0..E_N by Rayleigh-Schroedinger perturbation theory in Fraction.

    In the spin-weighted spherical-harmonic basis l = m..m+N+1 the operator
    is H_0 + 2 beta C - beta^2 C^2, with H_0 = diag(l(l+1) - 2) and C the
    matrix of cos(theta); a diagonal similarity makes C rational (C~ below).
    With intermediate normalization and r_k = 2 C~ psi_(k-1) - C~^2 psi_(k-2),
    E_k is the l = m entry of r_k, and psi_k is zero at l = m and elsewhere
    (sum_{j=1..k} E_j psi_(k-j) - r_k) / (l(l+1) - m(m+1)).  Nothing of the
    SUSY recurrence is used.
    """
    ls = range(m, m + N + 2)
    size = len(ls)
    lower = [
        Fraction(
            ((l + 1) ** 2 - m * m) * ((l + 1) ** 2 - 1), (2 * l + 1) * (2 * l + 3) * (l + 1) ** 2
        )
        for l in ls
    ]
    diag = [Fraction(-diagonal_sign * m, l * (l + 1)) for l in ls]

    def c_tilde(v):  # C~_ll = diag, C~_l,l+1 = 1, C~_l+1,l = lower
        return [
            diag[i] * v[i]
            + (v[i + 1] if i + 1 < size else 0)
            + (lower[i - 1] * v[i - 1] if i > 0 else 0)
            for i in range(size)
        ]

    h0 = [l * (l + 1) - 2 for l in ls]
    zero = [Fraction(0)] * size
    psi = [[Fraction(1)] + zero[1:]]
    energy = [Fraction(h0[0])]
    for k in range(1, N + 1):
        older = c_tilde(c_tilde(psi[k - 2])) if k >= 2 else zero
        rhs = [2 * u - v for u, v in zip(c_tilde(psi[k - 1]), older)]
        energy.append(rhs[0])
        psi.append(
            [Fraction(0)]
            + [
                (sum(energy[j] * psi[k - j][i] for j in range(1, k + 1)) - rhs[i]) / (h0[i] - h0[0])
                for i in range(1, size)
            ]
        )
    return energy


class TestRayleighSchroedingerEnergy:
    @pytest.mark.parametrize("m,N", [(1, 24), (2, 12), (7, 12), (40, 16)])
    def test_every_energy_coefficient_agrees_exactly(self, m, N):
        state = compute_series(ModeParams(m=m, N=N))
        assert rayleigh_schroedinger_energy(m, N) == list(state.energy)

    @pytest.mark.parametrize("m", [1, 2, 7, 40])
    def test_flipped_diagonal_breaks_first_order(self, m):
        assert rayleigh_schroedinger_energy(m, 1)[1] == Fraction(-2, m + 1)
        assert rayleigh_schroedinger_energy(m, 1, diagonal_sign=-1)[1] != Fraction(-2, m + 1)


class TestBitIdentity:
    REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    # sha256 of the coeffs text of four modes outside the benchmark's
    # three: two longer series at m = 1, a large m, and m = 80, near the
    # top of the m that verify accepts (m <= 91)
    PINNED = {
        (1, 64): "534043de542527c209cd9de4e04bacad9cc9c535b4e2a30bcfd278c55a2166a1",
        (1, 96): "c7d930b4bd6ade2076b9ca9ed0cb32232da08c2f304bad5a48ece2cc835b572a",
        (40, 24): "efe543fb704e2928576773e7663942d1acfbd95324eca020fb8fb581b1f2242b",
        (80, 32): "6dfc23965054c00f5ddf03531b6548071b883499026d80011b1f164f53b7f200",
    }

    @staticmethod
    def digest(m, N):
        state = compute_series(ModeParams(m=m, N=N))
        return hashlib.sha256(tables_to_text(m, state.energy, state.orders).encode()).hexdigest()

    @pytest.mark.parametrize("m,N", [(1, 48), (2, 40), (20, 32)])
    def test_table_text_matches_reference_digest(self, m, N):
        digests = json.loads(self.REFERENCE.read_text())["coeffs_sha256"]
        assert self.digest(m, N) == digests[f"m={m},N={N}"]

    @pytest.mark.parametrize("m,N", sorted(PINNED))
    def test_table_text_matches_pinned_digest(self, m, N):
        assert self.digest(m, N) == self.PINNED[(m, N)]
