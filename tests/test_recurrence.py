import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sws1 import recurrence
from sws1.core import ModeParams, WnTable, tables_to_text
from sws1.evaluate import _odd_sine_antiderivative, weighted_orders_on_grid
from sws1.recurrence import (
    SeriesInconsistencyError,
    SeriesState,
    base_order0,
    base_order1,
    base_order2,
    base_order3,
    compute_series,
    convolve_sources,
    energy_coeff,
    i_coeff,
    rt_tables,
    xy_tables,
)


def at(table, i):
    """table[i] inside a dense table, exact zero outside it."""
    return table[i] if 0 <= i < len(table) else Fraction(0)


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

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            i_coeff(1, 2)
        with pytest.raises(ValueError):
            i_coeff(-1, 0)

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
        assert state.order_table(1).a == t1.a and state.order_table(1).b == t1.b
        assert state.order_table(2).a == t2.a and state.order_table(2).b == t2.b
        assert state.order_table(3).a == t3.a and state.order_table(3).b == t3.b


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
            h, g = convolve_sources(state, 3)
            assert len(h) == 1 and len(g) == 1

    def test_frozen_exact_values_n4_m1(self, state_m1_n8):
        # hand-convolved from the order 1..3 tables at m = 1
        h, g = convolve_sources(state_m1_n8, 4)
        assert h == (Fraction(1, 64), Fraction(1, 400))  # p = 2, 3
        assert g == (Fraction(1, 400),)  # p = 2

    def test_trig_polynomial_fit_recovers_sources_n4_m1(self, state_m1_n8):
        # Independent oracle: sample sum_k W_k W_{4-k} at 16 angles and fit
        # the sine-polynomial model; the fitted coefficients must match the
        # convolution output.
        h, g = convolve_sources(state_m1_n8, 4)
        thetas = np.linspace(0.2, math.pi - 0.2, 16)
        unit = np.eye(state_m1_n8.current_order)
        orders = [weighted_orders_on_grid(state_m1_n8, unit[k - 1], thetas) for k in range(1, 4)]
        samples = sum(orders[k - 1] * orders[3 - k] for k in range(1, 4))
        s = np.sin(thetas)
        c = np.cos(thetas)
        design = np.column_stack([s**2, s**4, c * s**2, c * s**4])
        coef, *_ = np.linalg.lstsq(design, samples, rcond=None)
        fitted = dict(zip(["h2", "h3", "g2", "g3"], coef))
        assert fitted["h2"] == pytest.approx(float(h[0]), abs=1e-12)
        assert fitted["h3"] == pytest.approx(float(h[1]), abs=1e-12)
        assert fitted["g2"] == pytest.approx(float(g[0]), abs=1e-12)
        assert fitted["g3"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_symmetry_under_factor_exchange(self, state_m2_n8, n):
        # the assembly is invariant under k -> n-k; re-accumulate with the
        # loop reversed and demand identical exact tables, zero past the
        # dense supports (g stops at (n+1)//2, one short of h for even n)
        state = state_m2_n8
        src_h, src_g = convolve_sources(state, n)
        h = []
        g = []
        for p in range(2, n // 2 + 2):
            hp = Fraction(0)
            gp = Fraction(0)
            for k in reversed(range(1, n)):
                wk = state.order_table(n - k)  # swapped roles
                wnk = state.order_table(k)
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


class TestEnergyAndDivergence:
    def test_order3_energy_from_recurrence(self, state_m1_n8):
        h, g = convolve_sources(state_m1_n8, 3)
        assert energy_coeff(h, g, state_m1_n8.params) == Fraction(-3, 40)

    def test_frozen_order4_energy_m1(self, state_m1_n8):
        # independently derived by running the convolution by hand
        assert state_m1_n8.energy[4] == Fraction(-561, 56000)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_divergent_coefficient_vanishes_for_chosen_energy(
        self, states_n10, m, divergent_coefficient
    ):
        state = states_n10[m]
        for n in range(3, 11):
            h, g = convolve_sources(state, n)
            assert divergent_coefficient(h, g, state.energy[n], state.params) == 0

    def test_divergent_coefficient_nonzero_off_the_choice(self, state_m1_n8, divergent_coefficient):
        h, g = convolve_sources(state_m1_n8, 4)
        wrong = state_m1_n8.energy[4] + Fraction(1, 7)
        assert divergent_coefficient(h, g, wrong, state_m1_n8.params) != 0


class TestRtXyTables:
    def test_r0_is_minus_energy_over_m(self, state_m1_n8):
        h, g = convolve_sources(state_m1_n8, 3)
        R, _ = rt_tables(h, g, state_m1_n8.energy[3], state_m1_n8.params)
        assert R[0] == Fraction(3, 40)

    def test_out_of_support_queries_are_zero(self, states_n10):
        # xy_tables reads R and T as zero past their supports
        for state in states_n10.values():
            for n in range(3, 11):
                h, g = convolve_sources(state, n)
                R, T = rt_tables(h, g, state.energy[n], state.params)
                padded = ((*R, Fraction(0), Fraction(0)), (*T, Fraction(0), Fraction(0)))
                assert xy_tables(n, *padded) == xy_tables(n, R, T) == state.order_table(n)

    def test_tables_are_dense_over_their_supports(self, states_n10):
        for state in states_n10.values():
            for n in range(3, 11):
                h, g = convolve_sources(state, n)
                assert (len(h), len(g)) == (n // 2, (n + 1) // 2 - 1)  # p = 2..
                R, T = rt_tables(h, g, state.energy[n], state.params)
                assert (len(R), len(T)) == ((n + 1) // 2 + 1, n // 2 + 1)  # p, j = 0..
                table = state.order_table(n)
                assert (len(table.a), len(table.b)) == (n // 2, (n + 1) // 2)  # k = 1..

    def test_pipeline_reproduces_order3_closed_form(self, states_n8):
        for state in states_n8.values():
            h, g = convolve_sources(state, 3)
            e3 = energy_coeff(h, g, state.params)
            table = xy_tables(3, *rt_tables(h, g, e3, state.params))
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
            h, g = convolve_sources(state, n)
            _, T = rt_tables(h, g, state.energy[n], state.params)
            for j in range(n // 2 + 1):
                t = state.energy[n] / (2 * m + 1) if j == 0 else Fraction(0)
                for p in range(2, n // 2 + 2):
                    hp, gp = at(h, p - 2), at(g, p - 2)
                    t += (gp - hp) / (m + p - 1) * i_coeff(m + p - 2, p - 2 - j)
                    t += (hp - 2 * gp) / (2 * m + 2 * p) * i_coeff(m + p - 1, p - 1 - j)
                assert T[j] == t

    def test_failed_cancellation_raises_naming_order(self, state_m1_n8):
        h, g = convolve_sources(state_m1_n8, 4)
        R, T = rt_tables(h, g, state_m1_n8.energy[4], state_m1_n8.params)
        with pytest.raises(SeriesInconsistencyError, match="order 4: boundary-divergent"):
            xy_tables(4, (R[0] + 1, *R[1:]), T)

    @pytest.mark.parametrize("n", [4, 5])
    def test_spill_past_the_support_fails_parity_truncation(self, state_m1_n8, n):
        # an R or T entry one past its support reaches the top X/Y entries
        h, g = convolve_sources(state_m1_n8, n)
        R, T = rt_tables(h, g, state_m1_n8.energy[n], state_m1_n8.params)
        assert xy_tables(n, R, T) == state_m1_n8.order_table(n)
        for broken in ((R + (Fraction(1),), T), (R, T + (Fraction(1),))):
            with pytest.raises(SeriesInconsistencyError, match=f"order {n}: parity truncation"):
                xy_tables(n, *broken)

    def test_order3_seam_disagreement_raises(self, monkeypatch):
        def shifted_closed_form(params):
            table, e3 = base_order3(params)
            return WnTable(3, table.a, (table.b[0] + 1, table.b[1])), e3

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
        assert state.energy.coeffs == (Fraction(4), Fraction(-2, 3))

    def test_zeroth_order_only(self):
        state = compute_series(ModeParams(m=1, N=0))
        assert state.energy.coeffs == (Fraction(0),)
        assert state.orders == ()

    def test_advance_to_order10_all_audits_pass(self, states_n10):
        # one audit per order, each naming the path that built the order
        # and the sizes measured on the order it describes
        paths = {1: "closed-form", 2: "closed-form", 3: "both"}
        for state in states_n10.values():
            assert state.current_order == 10
            assert [audit.n for audit in state.audit] == list(range(1, 11))
            for audit, table in zip(state.audit, state.orders):
                e_n = state.energy[audit.n]
                assert audit.path == paths.get(audit.n, "recurrence")
                assert audit.energy_num_digits == len(str(abs(e_n.numerator)))
                assert audit.energy_den_digits == len(str(e_n.denominator))
                assert audit.nonzero_entries == sum(1 for v in table.a + table.b if v) > 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_supports_obey_parity_truncation(self, states_n10, m):
        for table in states_n10[m].orders:
            n = table.n
            assert len(table.a) == n // 2 and len(table.b) == (n + 1) // 2

    def test_inconsistent_state_rejected(self):
        state = compute_series(ModeParams(m=1, N=2))
        with pytest.raises(ValueError):
            SeriesState(
                params=state.params,
                orders=state.orders,
                energy=state.energy.__class__(state.energy.coeffs + (Fraction(1),)),
                audit=state.audit,
            )


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
            assert _riccati_orders(state, sin, cos, state.energy.coeffs) == [0] * (N + 1)

    def test_perturbed_energy_shows_at_its_order_only(self, state_m2_n8):
        energy = list(state_m2_n8.energy.coeffs)
        energy[5] += Fraction(1, 7)
        for sin, cos in PYTHAGOREAN_ANGLES:
            orders = _riccati_orders(state_m2_n8, sin, cos, energy)
            assert orders == [0] * 5 + [Fraction(1, 7)] + [0] * 3


class TestBitIdentity:
    REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

    @pytest.mark.parametrize("m,N", [(1, 48), (2, 40), (20, 32)])
    def test_table_text_matches_reference_digest(self, m, N):
        digests = json.loads(self.REFERENCE.read_text())["coeffs_sha256"]
        state = compute_series(ModeParams(m=m, N=N))
        text = tables_to_text(m, state.energy, state.orders)
        assert hashlib.sha256(text.encode()).hexdigest() == digests[f"m={m},N={N}"]
