import dataclasses
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from sws1.core import EnergySeries, ModeParams
from sws1.evaluate import wavefunction_on_grid
from sws1.oracle import (
    FdGrid,
    OracleError,
    an_closed_form,
    fd_ground_eigenvalue,
    fd_ground_eigenvector,
    quadrature_an,
    richardson_eigenvalue,
    residual_slope,
    sturm_count_below,
    verify_all,
)
from sws1.recurrence import compute_series


class TestFdGrid:
    def test_spacing_and_nodes(self):
        g = FdGrid(127)
        assert g.h == pytest.approx(math.pi / 128)
        assert g.thetas[0] == pytest.approx(g.h)
        assert g.thetas[-1] == pytest.approx(math.pi - g.h)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            FdGrid(63)


class TestGroundEigenvalue:
    @pytest.mark.parametrize("m,expected", [(1, 0.0), (2, 4.0), (3, 10.0)])
    def test_spherical_limit(self, m, expected):
        e = fd_ground_eigenvalue(ModeParams(m=m, N=0), 0.0, FdGrid(4096))
        assert e == pytest.approx(expected, abs=5e-5)

    def test_sturm_count_brackets_ground_state(self):
        params = ModeParams(m=1, N=0)
        grid = FdGrid(1024)
        e = fd_ground_eigenvalue(params, 0.1, grid)
        assert sturm_count_below(params, 0.1, grid, e - 1e-6) == 0
        assert sturm_count_below(params, 0.1, grid, e + 1e-6) >= 1

    def test_convergence_is_second_order(self):
        # eigenvalue error against the extrapolated limit scales like h^2
        params = ModeParams(m=2, N=0)
        sizes = [512, 1024, 2048, 4096]
        values = {p: fd_ground_eigenvalue(params, 0.1, FdGrid(p)) for p in sizes}
        limit = (4 * values[4096] - values[2048]) / 3
        errs = np.array([abs(values[p] - limit) for p in sizes[:-1]])
        hs = np.array([math.pi / (p + 1) for p in sizes[:-1]])
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)


class TestGroundEigenvector:
    def test_spherical_limit_profile_m1(self):
        # the beta = 0 ground state is (1-cos) sqrt(sin) up to normalization
        grid = FdGrid(4096)
        vec = fd_ground_eigenvector(ModeParams(m=1, N=0), 0.0, grid)
        exact = (1 - np.cos(grid.thetas)) * np.sqrt(np.sin(grid.thetas))
        exact /= math.sqrt(grid.h) * np.linalg.norm(exact)
        assert np.max(np.abs(vec - exact)) < 1e-3

    def test_nodeless_and_positive(self):
        vec = fd_ground_eigenvector(ModeParams(m=2, N=0), 0.2, FdGrid(512))
        assert np.all(vec > 0.0)

    def test_unit_discrete_l2(self):
        grid = FdGrid(512)
        vec = fd_ground_eigenvector(ModeParams(m=1, N=0), 0.1, grid)
        assert grid.h * np.sum(vec**2) == pytest.approx(1.0, rel=1e-12)

    def test_matches_series_eigenfunction(self, state_m1_n8):
        # cross-implementation agreement at beta = 0.2
        grid = FdGrid(2048)
        vec = fd_ground_eigenvector(ModeParams(m=1, N=8), 0.2, grid)
        psi, _, _ = wavefunction_on_grid(state_m1_n8, 0.2, grid.thetas)
        psi = psi / (math.sqrt(grid.h) * np.linalg.norm(psi))
        assert np.max(np.abs(psi - vec)) < 5e-3

    def test_matches_series_eigenfunction_low_order(self):
        # the order-4 truncation already reproduces the discrete ground
        # state to 1e-3 at beta = 0.1 on a 2000-point grid
        state = compute_series(ModeParams(m=1, N=4))
        grid = FdGrid(2000)
        vec = fd_ground_eigenvector(state.params, 0.1, grid)
        psi, _, _ = wavefunction_on_grid(state, 0.1, grid.thetas)
        psi = psi / (math.sqrt(grid.h) * np.linalg.norm(psi))
        assert np.max(np.abs(psi - vec)) < 1e-3

    def test_excited_state_detected_as_nodal(self):
        # aiming inverse iteration at the second eigenvalue must trip the
        # nodeless check
        params = ModeParams(m=1, N=0)
        grid = FdGrid(256)
        e0 = fd_ground_eigenvalue(params, 0.0, grid)
        lo, hi = e0 + 1e-3, e0 + 50.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if sturm_count_below(params, 0.0, grid, mid) >= 2:
                hi = mid
            else:
                lo = mid
        with pytest.raises(OracleError, match="sign"):
            fd_ground_eigenvector(params, 0.0, grid, eigenvalue=0.5 * (lo + hi))


class TestRichardson:
    def test_estimate_consistency(self):
        params = ModeParams(m=3, N=0)
        estimate, per_grid = richardson_eigenvalue(params, 0.1)
        finest = per_grid[4096]
        coarsest = per_grid[1024]
        assert abs(estimate - finest) < abs(finest - coarsest)

    def test_bad_grid_progression_rejected(self):
        with pytest.raises(ValueError):
            richardson_eigenvalue(ModeParams(m=1, N=0), 0.0, grids=(512, 1024, 4096))


class TestQuadrature:
    def test_order3_matches_closed_form(self, state_m1_n8):
        theta = math.pi / 3
        quad = quadrature_an(state_m1_n8, 3, theta)
        closed = an_closed_form(state_m1_n8, 3, theta)
        assert quad == pytest.approx(closed, rel=1e-10)

    def test_order4_m2_at_midpoint(self, state_m2_n8):
        quad = quadrature_an(state_m2_n8, 4, math.pi / 2)
        closed = an_closed_form(state_m2_n8, 4, math.pi / 2)
        assert quad == pytest.approx(closed, rel=1e-9)

    def test_vanishing_integration_range(self, state_m1_n8):
        assert abs(quadrature_an(state_m1_n8, 3, 1e-6)) < 1e-20

    def test_low_orders_rejected(self, state_m1_n8):
        with pytest.raises(ValueError):
            quadrature_an(state_m1_n8, 2, 1.0)

    def test_uncomputed_order_rejected(self, state_m1_n8):
        with pytest.raises(ValueError):
            quadrature_an(state_m1_n8, 9, 1.0)

    @pytest.mark.parametrize("m,n", [(8, 3), (5, 8)])
    def test_late_theta_returns_and_agrees(self, m, n):
        # late in (0, pi), A_n is ~1e-14 next to its integrand; the rule runs
        # from the nearer endpoint, pi, and must return promptly
        state = compute_series(ModeParams(m=m, N=n))
        t0 = time.monotonic()
        quad = quadrature_an(state, n, 2.9)
        elapsed = time.monotonic() - t0
        closed = an_closed_form(state, n, 2.9)
        assert abs(quad - closed) <= 1e-8 * abs(closed)
        assert elapsed < 1.0

    @pytest.mark.parametrize("m,n", [(1, 3), (3, 5), (5, 8), (8, 8)])
    def test_perturbed_energy_shows_on_both_sides(self, m, n):
        # E_n raised by 1e-6 relative in the state, which both sides read:
        # int_0^pi f no longer vanishes, and the gap exceeds the 1e-8 bound
        # on either side of pi/2 (it is ~1e-14 with the true E_n)
        state = compute_series(ModeParams(m=m, N=n))
        coeffs = list(state.energy.coeffs)
        coeffs[n] *= 1 + Fraction(1, 10**6)
        bad = dataclasses.replace(state, energy=EnergySeries(tuple(coeffs)))
        for theta in (0.6, 1.2, 2.0, 2.9):
            closed = an_closed_form(bad, n, theta)
            assert abs(quadrature_an(bad, n, theta) - closed) > 1e-8 * abs(closed), theta

    def test_agreement_at_random_samples(self, states_n8):
        rng = random.Random(20260810)
        for _ in range(20):
            m = rng.randint(1, 3)
            n = rng.randint(3, 8)
            theta = rng.uniform(0.2, math.pi - 0.2)
            state = states_n8[m]
            quad = quadrature_an(state, n, theta)
            closed = an_closed_form(state, n, theta)
            assert abs(quad - closed) <= 1e-8 * abs(closed), (m, n, theta)


class TestVerifyAll:
    def test_spherical_case_all_pass(self):
        reports = verify_all(ModeParams(m=1, N=3), [0.0])
        (report,) = reports
        assert report.passed is True
        assert report.abs_gap < 5e-5
        assert report.checks["eigenvalue_gap_beta0_single_grid"]

    def test_gap_grows_with_beta_at_fixed_order(self):
        # truncation error dominates, so the series-vs-numeric gap must
        # grow monotonically along the beta list at low order
        reports = verify_all(ModeParams(m=1, N=3), [0.05, 0.1, 0.2])
        gaps = [r.abs_gap for r in reports]
        assert gaps[0] < gaps[1] < gaps[2]

    def test_report_fields_m3(self):
        (report,) = verify_all(ModeParams(m=3, N=8), [0.1])
        assert report.grid_sizes == (1024, 2048, 4096)
        finest = report.grid_eigenvalues[-1]
        coarsest = report.grid_eigenvalues[0]
        assert abs(report.richardson_estimate - finest) < abs(finest - coarsest)
        assert report.abs_gap == abs(report.series_value - report.numeric_value)
        assert report.passed is True

    def test_large_beta_reported_without_judgment(self):
        reports = verify_all(ModeParams(m=1, N=2), [1.5])
        assert reports[0].passed is None
        assert math.isfinite(reports[0].numeric_value)

    def test_tolerance_override(self):
        reports = verify_all(ModeParams(m=1, N=3), [0.1], tolerances={"eigenvalue": 1e-12})
        assert reports[0].passed is False

    def test_unmeasurable_slope_skipped_at_high_order(self, state_m1_n8):
        # at N = 8 the defect sits below the float noise floor over the
        # slope window, so the check must be skipped, not failed
        reports = verify_all(ModeParams(m=1, N=8), [0.0], state=state_m1_n8)
        assert "residual_slope" not in reports[0].checks
        assert reports[0].skipped == {
            "residual_slope": (
                "residual is above its roundoff floor 16 eps (W^2 + |W'| + |V| + |E|) "
                "at 0 of 9 betas; the fit needs 3"
            )
        }
        assert math.isnan(reports[0].residual_slope)
        assert reports[0].passed is True

    def test_large_m_slope_skipped_not_failed(self):
        # at m = 40 the cancelling terms W^2 and V are ~2e3; an absolute
        # 1e-13 floor let roundoff through and fitted a false slope of 0.05
        (report,) = verify_all(ModeParams(m=40, N=8), [0.0])
        assert "residual_slope" not in report.checks
        assert "roundoff floor" in report.skipped["residual_slope"]
        assert math.isnan(report.residual_slope)


class TestGapScaling:
    def test_order5_coefficient_resolved_by_eigensolver(self, state_m2_n8):
        # The gap between the order-4 partial sum and the extrapolated
        # eigenvalue scales like beta^5 with the order-5 coefficient in
        # front; the inferred coefficient must land on the exact rational
        # within the contamination budget of the next order.
        state = state_m2_n8
        exact = float(state.energy[5])
        from sws1.evaluate import eval_energy

        for beta in (0.15, 0.2):
            estimate, _ = richardson_eigenvalue(state.params, beta)
            inferred = (estimate - eval_energy(state, beta, 4)) / beta**5
            assert 0.8 <= inferred / exact <= 1.2


class TestResidualSlope:
    def test_matches_truncation_order(self, state_m3_n8):
        state = compute_series(ModeParams(m=3, N=2))
        slope = residual_slope(state)
        assert slope == pytest.approx(3.0, abs=0.3)

    def test_unmeasurable_raises(self, state_m1_n8):
        with pytest.raises(OracleError, match="at 0 of 9 betas"):
            residual_slope(state_m1_n8)

    @pytest.mark.parametrize("m", [1, 20, 40])
    def test_slope_at_order_3_for_large_m(self, m):
        # the scaled floor keeps the roundoff of the large terms out of the fit
        slope = residual_slope(compute_series(ModeParams(m=m, N=3)))
        assert slope == pytest.approx(4.0, abs=0.05)
