import math
import re
import sys
import threading
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from sws1 import evaluate
from sws1.core import ModeParams
from sws1.evaluate import (
    _half_angle,
    _potential,
    eval_energy,
    eval_on_grid,
    gauss_legendre,
    _odd_sine_antiderivative,
    gauss_panels,
    riccati_residual_on_grid,
    uniform_interior_grid,
    w_on_grid,
    wavefunction_on_grid,
)
from sws1.recurrence import compute_series


def simpson(f, a, b, panels=4096):
    xs = np.linspace(a, b, panels + 1)
    ys = f(xs)
    h = (b - a) / panels
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


def exact_w_and_derivative(state, beta, theta):
    """W, W' and the sizes |W_0|, |W_0'| at the float inputs, summed order
    by order and term by term in exact rationals: W_0 = -(1 + (m+1/2) c)/s,
    W_0' = (m + 1/2 + c)/s^2, and order n adds
    beta^n (c sum_k a_k s^(2k-1) + sum_k b_k s^(2k-1)) and its derivative.
    s and c are the floats the float path takes at theta, `_half_angle`'s,
    so the sum differs from it by evaluation error alone."""
    m = state.params.m
    sin, cos = _half_angle(np.array([theta]))[:2]
    s, c = Fraction(float(sin[0])), Fraction(float(cos[0]))
    pw = [s**j for j in range(state.current_order + 3)]
    half = Fraction(2 * m + 1, 2)
    w, wp = -(1 + half * c) / s, (half + c) / pw[2]
    bn = Fraction(1)
    for table in state.orders:
        bn *= Fraction(beta)
        w_n = wp_n = Fraction(0)
        for k, v in enumerate(table.a, start=1):
            w_n += v * c * pw[2 * k - 1]
            wp_n += v * ((2 * k - 1) * pw[2 * k - 2] - 2 * k * pw[2 * k])
        for k, v in enumerate(table.b, start=1):
            w_n += v * pw[2 * k - 1]
            wp_n += v * (2 * k - 1) * c * pw[2 * k - 2]
        w += bn * w_n
        wp += bn * wp_n
    return w, wp, (1 + half * abs(c)) / s, (half + abs(c)) / pw[2]


class TestPotential:
    def test_midpoint_beta0(self):
        v = _potential(1, 0.0, _half_angle(np.array([math.pi / 2])))[0]
        assert v == pytest.approx(-0.5, abs=1e-14)

    def test_midpoint_beta_irrelevant(self):
        # both beta terms carry a cosine factor, which vanishes at pi/2
        v = _potential(1, 0.5, _half_angle(np.array([math.pi / 2])))[0]
        assert v == pytest.approx(-0.5, abs=1e-14)

    def test_consistent_with_original_variable_operator(self):
        # Substitution oracle: for a smooth test function F, the original
        # operator (with the first-derivative term and the unshifted
        # inverse-sine-squared coefficient) applied to F must equal the
        # transformed operator applied to sqrt(sin)*F, divided by
        # sqrt(sin).  Build both sides with central differences.
        m, beta, theta = 2, 0.1, math.pi / 3
        h = 1e-4

        def original_form(t):
            return math.sin(t) ** 2 * math.exp(math.cos(t))

        def transformed(t):
            return math.sqrt(math.sin(t)) * original_form(t)

        def second(f, t):
            return (f(t + h) - 2 * f(t) + f(t - h)) / h**2

        def first(f, t):
            return (f(t + h) - f(t - h)) / (2 * h)

        c, s = math.cos(theta), math.sin(theta)
        lhs = (
            second(original_form, theta)
            + (c / s) * first(original_form, theta)
            + (1 + beta**2 * c**2 - 2 * beta * c - (m + c) ** 2 / s**2)
            * original_form(theta)
        )
        v = _potential(m, beta, _half_angle(np.array([theta])))[0]
        rhs = second(transformed, theta) - v * transformed(theta)
        assert rhs / math.sqrt(s) == pytest.approx(lhs, rel=1e-6)


class TestSuperPotential:
    def test_first_order_at_midpoint(self):
        state = compute_series(ModeParams(m=1, N=1))
        for beta in (0.0, 0.3, 0.7):
            w = w_on_grid(state, beta, np.array([math.pi / 2]))[0]
            assert w == pytest.approx(-1.0 - 0.5 * beta, abs=1e-14)

    def test_second_order_contribution_at_midpoint(self):
        s1 = compute_series(ModeParams(m=1, N=1))
        s2 = compute_series(ModeParams(m=1, N=2))
        beta = 0.2
        mid = np.array([math.pi / 2])
        gap = w_on_grid(s2, beta, mid)[0] - w_on_grid(s1, beta, mid)[0]
        assert gap == pytest.approx(beta**2 * (-3.0 / 40.0), abs=1e-15)

    def test_beta_zero_reduces_to_zeroth_order(self, state_m1_n8):
        thetas = np.linspace(0.1, math.pi - 0.1, 50)
        w = w_on_grid(state_m1_n8, 0.0, thetas)
        w0 = (-1.0 - 1.5 * np.cos(thetas)) / np.sin(thetas)
        np.testing.assert_allclose(w, w0, rtol=1e-13, atol=1e-13)

    def test_zeroth_order_constants(self, riccati_terms):
        # W_0 = (c0 + c1 cos)/sin with c0 = -1 and c1 = -(m + 1/2), and
        # W_0' = -(c1 + c0 cos)/sin^2
        for m in (1, 2, 7):
            state = compute_series(ModeParams(m=m, N=0))
            c0, c1 = -1.0, -(m + 0.5)
            for theta, sin, cos in ((math.pi / 2, 1.0, 0.0), (math.pi / 3, 3**0.5 / 2, 0.5)):
                point = np.array([theta])
                w = w_on_grid(state, 0.3, point)[0]
                assert w == pytest.approx((c0 + c1 * cos) / sin, rel=1e-15)
                assert riccati_terms(state, 0.3, point)[1][0] == pytest.approx(
                    -(c1 + c0 * cos) / sin**2, rel=1e-15
                )


class TestDerivative:
    def test_zeroth_order_value_at_midpoint(self, riccati_terms):
        state = compute_series(ModeParams(m=1, N=0))
        d = riccati_terms(state, 0.0, np.array([math.pi / 2]))[1][0]
        assert d == pytest.approx(1.5, abs=1e-14)

    def test_first_order_term_flat_at_midpoint(self, riccati_terms):
        # the derivative of the order-1 term carries a cosine factor
        state = compute_series(ModeParams(m=1, N=1))
        d = riccati_terms(state, 0.4, np.array([math.pi / 2]))[1][0]
        assert d == pytest.approx(1.5, abs=1e-14)

    def test_matches_central_difference_at_reference_point(self, riccati_terms):
        state = compute_series(ModeParams(m=1, N=3))
        theta, beta, step = 1.0, 0.2, 1e-5
        exact = riccati_terms(state, beta, np.array([theta]))[1][0]
        fd = (
            w_on_grid(state, beta, np.array([theta + step]))[0]
            - w_on_grid(state, beta, np.array([theta - step]))[0]
        ) / (2 * step)
        assert fd == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("beta", [0.0, 0.05, 0.2])
    def test_matches_central_difference_at_random_points(self, m, beta, riccati_terms):
        rng = np.random.default_rng(1234 + m)
        thetas = rng.uniform(0.15, math.pi - 0.15, size=100)
        step = 1e-5
        for order in range(1, 7):
            state = compute_series(ModeParams(m=m, N=order))
            exact = riccati_terms(state, beta, thetas)[1]
            fd = (
                w_on_grid(state, beta, thetas + step) - w_on_grid(state, beta, thetas - step)
            ) / (2 * step)
            scale = np.maximum(np.abs(exact), 1.0)
            assert np.max(np.abs(fd - exact) / scale) < 1e-7


class TestExactRationalAccuracy:
    """The float path against exact_w_and_derivative at the same float
    inputs: W within 1e-14 |W_0| and W' within 1e-14 |W_0'|, near both
    endpoints and inside."""

    THETAS = np.array([0.01, 1.0, 2.0, math.pi - 0.01])

    def check(self, state, beta, riccati_terms):
        w, wp, _, _ = riccati_terms(state, beta, self.THETAS)
        for i, theta in enumerate(self.THETAS):
            w_exact, wp_exact, w_size, wp_size = exact_w_and_derivative(state, beta, theta)
            assert abs(Fraction(float(w[i])) - w_exact) <= Fraction(1e-14) * w_size, theta
            assert abs(Fraction(float(wp[i])) - wp_exact) <= Fraction(1e-14) * wp_size, theta

    @pytest.mark.parametrize("beta", [0.1, 0.45])
    def test_order_40(self, beta, riccati_terms):
        self.check(compute_series(ModeParams(m=1, N=40)), beta, riccati_terms)

    @pytest.mark.parametrize("m", [10, 91])
    def test_order_40_at_larger_m(self, m, riccati_terms):
        state = compute_series(ModeParams(m=m, N=40))
        for beta in (0.45, -1.0):
            self.check(state, beta, riccati_terms)

    @pytest.mark.parametrize("m", [1, 2, 10, 40, 91])
    @pytest.mark.parametrize("order", [16, 40])
    def test_float_envelope_grid(self, m, order, riccati_terms):
        # the float-evaluation envelope: m, N and beta over this grid, at
        # THETAS, near both endpoints and inside
        state = cached_series(m, order)
        for beta in (0.45, 1.0, -1.0):
            self.check(state, beta, riccati_terms)

    @pytest.mark.parametrize("order", [0, 1])
    def test_orders_without_a_table(self, order, riccati_terms):
        state = compute_series(ModeParams(m=1, N=order))
        for beta in (0.1, 0.45):
            self.check(state, beta, riccati_terms)


class TestRiccatiResidual:
    def test_zeroth_order_identity(self):
        rng = np.random.default_rng(7)
        for m in (1, 2, 3):
            state = compute_series(ModeParams(m=m, N=4))
            thetas = rng.uniform(0.2, math.pi - 0.2, size=20)
            r = riccati_residual_on_grid(state, 0.0, thetas)
            assert np.max(np.abs(r)) < 1e-12

    def test_scalar_wrapper(self, state_m1_n8):
        # a single-point grid stands in for the former scalar entry point
        r = riccati_residual_on_grid(state_m1_n8, 0.0, np.array([1.0]))
        assert r.shape == (1,)
        assert abs(float(r[0])) < 1e-12

    def test_low_order_slopes(self, riccati_floor):
        # the defect decays one beta power past the truncation order; checked
        # at an angle where no table entry happens to vanish
        theta = np.array([1.0])
        betas = np.logspace(-3, -1, 9)
        for order in (1, 2, 3):
            state = compute_series(ModeParams(m=1, N=order))
            vals = np.array([abs(float(riccati_residual_on_grid(state, b, theta)[0])) for b in betas])
            floor = np.array([float(riccati_floor(state, b, theta)[0]) for b in betas])
            keep = vals > floor
            assert keep.sum() >= 3, f"N={order}: only {keep.sum()} betas resolved above roundoff"
            slope = np.polyfit(np.log(betas[keep]), np.log(vals[keep]), 1)[0]
            assert order + 1 - 0.3 <= slope <= order + 1 + 0.7


class TestEnergyPartialSums:
    def test_beta_zero(self, state_m1_n8):
        for upto in range(9):
            assert eval_energy(state_m1_n8, 0.0, upto) == 0.0

    def test_partial_sum_m1(self, state_m1_n8):
        assert eval_energy(state_m1_n8, 0.1, 3) == pytest.approx(-0.105575, abs=1e-15)

    def test_partial_sum_m2(self, state_m2_n8):
        assert eval_energy(state_m2_n8, 0.1, 1) == pytest.approx(4 - 2.0 / 30.0, abs=1e-14)

    def test_out_of_range_rejected(self, state_m1_n8):
        with pytest.raises(ValueError):
            eval_energy(state_m1_n8, 0.1, 9)
        with pytest.raises(ValueError):
            eval_energy(state_m1_n8, 0.1, -1)


def sine_power_antiderivative(k, theta):
    """Antiderivative of sin^(2k-1) through the phase's Q map at a unit
    gamma vector: cos(theta) Q(sin^2 theta)."""
    q = _odd_sine_antiderivative(np.eye(k)[k - 1])
    return math.cos(theta) * np.polynomial.polynomial.polyval(math.sin(theta) ** 2, q)


class TestAntiderivative:
    def test_lowest_order_is_minus_cos(self):
        for theta in (0.0, 0.7, 2.0, math.pi):
            assert sine_power_antiderivative(1, theta) == pytest.approx(-math.cos(theta), abs=1e-15)

    def test_cubic_at_zero(self):
        assert sine_power_antiderivative(2, 0.0) == pytest.approx(-2.0 / 3.0, abs=1e-15)

    def test_cubic_at_midpoint(self):
        assert sine_power_antiderivative(2, math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_matches_quadrature(self, k):
        # independent route: integrate sin^(2k-1) numerically
        for theta in (0.8, 1.9, 2.9):
            quad = simpson(lambda x: np.sin(x) ** (2 * k - 1), 0.0, theta)
            diff = sine_power_antiderivative(k, theta) - sine_power_antiderivative(k, 0.0)
            assert diff == pytest.approx(quad, abs=1e-12)


class TestPhase:
    def test_phase_derivative_is_w_minus_w0(self):
        # psi = norm (1 - cos) sin^(m-1/2) exp(-phase), and the phase is an
        # antiderivative of W - W_0.  At N = 10 the b tables reach k = 5, so
        # the i_coeff rows of the phase are exercised up to k = 5.  The
        # identity holds at every beta; beta = 3 weights the top rows enough
        # (gamma_5 / gamma_1 ~ 4e-3) that an error in any of them shows.
        m, beta, step = 2, 3.0, 1e-5
        state = compute_series(ModeParams(m=m, N=10))

        def phase(thetas):
            psi, _, norm = wavefunction_on_grid(state, beta, thetas)
            return -np.log(psi / (norm * (1.0 - np.cos(thetas)) * np.sin(thetas) ** (m - 0.5)))

        thetas = np.array([0.4, 1.1, 1.9, 2.7])
        fd = (phase(thetas + step) - phase(thetas - step)) / (2 * step)
        w0 = -(1.0 + (m + 0.5) * np.cos(thetas)) / np.sin(thetas)
        np.testing.assert_allclose(fd, w_on_grid(state, beta, thetas) - w0, rtol=1e-8)


class TestGroundWavefunction:
    def test_zeroth_order_profile(self):
        # at beta = 0 the eigenfunction is (1-cos) sin^(m-1/2) up to the
        # normalization constant
        state = compute_series(ModeParams(m=1, N=4))
        thetas = np.linspace(0.2, math.pi - 0.2, 25)
        psi, _, norm = wavefunction_on_grid(state, 0.0, thetas)
        profile = (1 - np.cos(thetas)) * np.sin(thetas) ** 0.5
        np.testing.assert_allclose(psi, norm * profile, rtol=1e-13)

    def test_unnormalized_midpoint_value(self):
        state = compute_series(ModeParams(m=1, N=4))
        psi, _, norm = wavefunction_on_grid(state, 0.0, np.array([math.pi / 2]))
        assert psi[0] / norm == pytest.approx(1.0, abs=1e-14)

    def test_theta_big_relation(self, state_m1_n8):
        psi, theta_big, _ = wavefunction_on_grid(state_m1_n8, 0.1, np.array([1.1]))
        assert theta_big[0] == pytest.approx(psi[0] / math.sqrt(math.sin(1.1)), rel=1e-15)

    @pytest.mark.parametrize("m,beta", [(1, 0.0), (1, 0.1), (2, 0.1)])
    def test_normalization_self_consistency(self, m, beta):
        # independent quadrature on a different grid must give unit norm
        state = compute_series(ModeParams(m=m, N=4))

        def psi_squared(thetas):
            psi, _, _ = wavefunction_on_grid(state, beta, thetas)
            return psi**2

        total = simpson(psi_squared, 1e-10, math.pi - 1e-10, panels=8192)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("m", [1, 40, 400])
    def test_normalization_against_a_finer_rule(self, m):
        # the rule's panel count comes from m; four times its nodes must
        # confirm the unit norm to 1e-12
        state = compute_series(ModeParams(m=m, N=4))
        nodes, weights = gauss_legendre(0.0, math.pi, 4 * gauss_panels(m))
        psi, _, _ = wavefunction_on_grid(state, 0.3, nodes)
        assert float(weights @ psi**2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2])
    def test_boundary_decay_exponents(self, m):
        # geometric-grid ratio test: psi ~ theta^(m+3/2) at zero (the
        # 1-cos factor adds two powers) and ~ (pi-theta)^(m-1/2) at pi
        # (where 1-cos contributes none)
        state = compute_series(ModeParams(m=m, N=3))
        x = np.geomspace(1e-4, 1e-2, 9)

        psi0, _, _ = wavefunction_on_grid(state, 0.05, x)
        slope0 = np.polyfit(np.log(x), np.log(psi0), 1)[0]
        assert slope0 == pytest.approx(m + 1.5, abs=0.01)

        psi_pi, _, _ = wavefunction_on_grid(state, 0.05, math.pi - x)
        slope_pi = np.polyfit(np.log(x), np.log(psi_pi), 1)[0]
        assert slope_pi == pytest.approx(m - 0.5, abs=0.01)

        # decay toward zero at both endpoints (m >= 1)
        assert psi0[0] < 1e-5 and psi_pi[0] < 1e-1
        assert np.all(np.diff(psi0) > 0) and np.all(np.diff(psi_pi) > 0)


class TestFloatView:
    def test_warm_evaluation_rounds_no_fraction(self, monkeypatch):
        # a series' tables become floats once: after a warm-up, neither the
        # one pass of `sws1 eval` nor the four views on 4096 points round a
        # Fraction at all
        state = compute_series(ModeParams(m=1, N=32))
        thetas = uniform_interior_grid(4096)

        def evaluate(beta):
            eval_on_grid(state, beta, thetas)
            wavefunction_on_grid(state, beta, thetas)
            w_on_grid(state, beta, thetas)
            riccati_residual_on_grid(state, beta, thetas)
            eval_energy(state, beta)

        evaluate(0.1)
        rounded = []
        to_float = Fraction.__float__
        monkeypatch.setattr(Fraction, "__float__", lambda q: rounded.append(q) or to_float(q))
        evaluate(0.3)
        assert rounded == []
        assert float(Fraction(1, 4)) == 0.25 and rounded == [Fraction(1, 4)]  # the count counts


@cache
def cached_series(m, order):
    return compute_series(ModeParams(m=m, N=order))


def output_bytes(state, beta, thetas):
    """The bytes of (psi, theta_big, W, residual, E) from `eval_on_grid`, and
    the same from the views."""
    psi, theta_big, _ = wavefunction_on_grid(state, beta, thetas)
    w, residual = w_on_grid(state, beta, thetas), riccati_residual_on_grid(state, beta, thetas)
    views = (psi, theta_big, w, residual, eval_energy(state, beta))
    outputs = (eval_on_grid(state, beta, thetas), views)
    return [tuple(np.asarray(v).tobytes() for v in out) for out in outputs]


class TestOnePass:
    @pytest.mark.parametrize(
        "m,order,beta,points", [(1, 32, 0.1, 4096), (20, 16, 0.1, 181), (2, 40, -0.7, 777)]
    )
    def test_views_give_the_same_bytes(self, m, order, beta, points, monkeypatch):
        # the CLI's one pass and the views the benchmark calls must not
        # drift apart, at the modes whose eval output is pinned; nor may the
        # tables held across calls: a cold call, a warm one, one reading a
        # prefix of a longer power table and one back on the grid after
        # another grid give the same bytes
        state = cached_series(m, order)
        thetas = uniform_interior_grid(points)
        evaluate._normalization_rule.cache_clear()
        monkeypatch.setattr(evaluate, "_held_grid", None)
        one_pass, views = cold = output_bytes(state, beta, thetas)
        assert one_pass == views
        assert output_bytes(state, beta, thetas) == cold
        output_bytes(cached_series(1, 48), beta, thetas)
        assert output_bytes(state, beta, thetas) == cold
        output_bytes(state, beta, uniform_interior_grid(points + 1))
        assert output_bytes(state, beta, thetas) == cold

    def test_angles_changed_in_place_are_a_new_grid(self, monkeypatch):
        state = cached_series(1, 32)
        thetas = uniform_interior_grid(181)
        before = w_on_grid(state, 0.1, thetas)
        thetas *= 0.5
        after = w_on_grid(state, 0.1, thetas)
        monkeypatch.setattr(evaluate, "_held_grid", None)
        assert after.tobytes() == w_on_grid(state, 0.1, thetas.copy()).tobytes()
        assert not np.array_equal(before, after)

    def test_threads_alternating_two_grids_get_their_cold_bytes(self, monkeypatch):
        # each call reads the held grid once and replaces it whole, so
        # threads that keep swapping it still each read their own grid
        state = cached_series(1, 32)
        grids = (uniform_interior_grid(181), uniform_interior_grid(777))
        cold = []
        for thetas in grids:
            monkeypatch.setattr(evaluate, "_held_grid", None)
            cold.append(output_bytes(state, 0.1, thetas))
        rounds, matches = 40, []

        def alternate(first):
            for i in range(rounds):
                k = (first + i) % 2
                matches.append(output_bytes(state, 0.1, grids[k]) == cold[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=alternate, args=(k % 2,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert matches == [True] * (rounds * len(threads))

    @pytest.mark.parametrize(
        "view",
        [eval_on_grid, wavefunction_on_grid, w_on_grid, riccati_residual_on_grid],
        ids=lambda view: view.__name__,
    )
    @pytest.mark.parametrize(
        "thetas", [np.array(1.0), uniform_interior_grid(50).reshape(5, 10)], ids=["0-d", "2-d"]
    )
    def test_angles_not_one_dimensional_are_refused(self, view, thetas):
        # refused with the shape, before the held grid is read or replaced
        state = cached_series(1, 32)
        w_on_grid(state, 0.1, uniform_interior_grid(181))
        held = evaluate._held_grid
        rows = held._rows
        message = re.escape(f"one-dimensional array, not shape {thetas.shape}")
        with pytest.raises(ValueError, match=message):
            view(state, 0.1, thetas)
        assert evaluate._held_grid is held and held._rows is rows


class TestGrids:
    def test_single_point_is_midpoint(self):
        grid = uniform_interior_grid(1)
        assert grid.shape == (1,) and grid[0] == pytest.approx(math.pi / 2)

    def test_endpoints_excluded(self):
        grid = uniform_interior_grid(100)
        assert grid[0] > 0.0 and grid[-1] < math.pi

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            uniform_interior_grid(0)

    @pytest.mark.parametrize("points", [2.5, 3.0, "3", None])
    def test_non_integer_rejected(self, points):
        # 2.5 once gave three angles with h = pi/3.5, the last at 2.69
        with pytest.raises(ValueError, match="must be an integer"):
            uniform_interior_grid(points)

    def test_numpy_integer_accepted(self):
        assert uniform_interior_grid(np.int64(7)).tobytes() == uniform_interior_grid(7).tobytes()
