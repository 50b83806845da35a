import collections
import dataclasses
import hashlib
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from sws1 import evaluate, oracle
from sws1.core import ModeParams
from sws1.evaluate import wavefunction_on_grid
from sws1.oracle import (
    FdGrid,
    OracleError,
    _assemble_diagonal,
    _indicial_correction,
    _sturm_count,
    an_closed_form,
    fd_ground_eigenvalue,
    fd_ground_eigenvector,
    quadrature_an,
    richardson_eigenvalue,
    residual_slope,
    spectral_eigenvalue,
    verify_all,
)
from sws1.recurrence import compute_series


def dense_spectrum(params, beta, grid):
    """All eigenvalues of the oracle's tridiagonal operator by a dense
    LAPACK solve, a reference that shares nothing with the Sturm bisection.
    Only for small m: at m = 40 the diagonal reaches 3e17 and the dense
    solve loses the ground eigenvalue to O(1)."""
    off = np.full(grid.points - 1, -1.0 / grid.h**2)
    matrix = np.diag(_assemble_diagonal(params, beta, grid)) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(matrix)


def plain_bisection(params, beta, grid):
    """The bisection with no certified bounds and no guess: a Sturm sweep
    at every midpoint of the Gershgorin bracket, to the oracle's stopping
    rule."""
    diag = _assemble_diagonal(params, beta, grid).tolist()
    off = 1.0 / grid.h**2
    lo, hi = min(diag) - 2.0 * off, max(diag) + 2.0 * off
    while hi - lo > 1e-13 * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if _sturm_count(diag, off * off, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def pivots(diag, offsq, lam):
    """The LDL^T pivots of the Sturm sweep, before a zero one is replaced."""
    out, d = [], math.inf
    for t in diag:
        d = (t - lam) - offsq / d
        out.append(d)
        d = d or -1e-300
    return out


class TestFdGrid:
    def test_spacing_and_nodes(self):
        g = FdGrid(127)
        assert g.h == pytest.approx(math.pi / 128)
        assert g.thetas[0] == pytest.approx(g.h)
        assert g.thetas[-1] == pytest.approx(math.pi - g.h)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            FdGrid(63)

    def test_richardson_grids_are_nested(self):
        # every node of a grid is every other node of the next, bit for bit
        for coarse, fine in zip(oracle.RICHARDSON_GRIDS, oracle.RICHARDSON_GRIDS[1:]):
            assert fine == 2 * coarse + 1
            assert np.array_equal(oracle._GRIDS[coarse].thetas, oracle._GRIDS[fine].thetas[1::2])

    def test_cached_constants_are_read_only(self):
        # every caller shares them: the grids' half-angle values, the
        # indicial corrections and the normalization rule
        grid = FdGrid(1024)
        weights, nodes = evaluate._normalization_rule(1)
        for values in (*grid.trig, _indicial_correction(1, 1024, grid.h), weights, *nodes):
            assert not values.flags.writeable


class TestGroundEigenvalue:
    @pytest.mark.parametrize("m,expected", [(1, 0.0), (2, 4.0), (3, 10.0)])
    def test_spherical_limit(self, m, expected):
        e = fd_ground_eigenvalue(ModeParams(m=m, N=0), 0.0, FdGrid(4096))
        assert e == pytest.approx(expected, abs=5e-5)

    def test_sturm_count_brackets_ground_state(self):
        # the bisection lands on the lowest eigenvalue of the same matrix
        params = ModeParams(m=1, N=0)
        grid = FdGrid(1024)
        e = fd_ground_eigenvalue(params, 0.1, grid)
        assert e == pytest.approx(dense_spectrum(params, 0.1, grid)[0], rel=1e-9)

    @pytest.mark.parametrize("beta", [1e200, -1e200])
    def test_non_finite_potential_refused(self, beta):
        # beta^2 overflows, so the potential is -inf at every node
        with pytest.raises(ValueError, match="potential is not finite"):
            fd_ground_eigenvalue(ModeParams(m=2, N=0), beta, FdGrid(1024))

    @pytest.mark.parametrize("points,largest", [(1024, 100), (2048, 91), (4096, 83)])
    def test_indicial_overflow_refused_past_the_stated_m(self, points, largest):
        # (j+1)^(m+3/2) overflows at the far end of the grid; the potential
        # itself is finite
        grid = FdGrid(points)
        assert np.isfinite(_assemble_diagonal(ModeParams(m=largest, N=0), 0.0, grid)).all()
        message = (
            f"indicial correction overflows on the {points}-point grid at m={largest + 1}; "
            f"this grid supports m <= {largest}$"
        )
        with pytest.raises(ValueError, match=message):
            fd_ground_eigenvalue(ModeParams(m=largest + 1, N=0), 0.0, grid)

    @pytest.mark.parametrize("points", [64, 1024, 2048, 4096])
    def test_one_power_table_gives_the_three_power_bytes(self, points):
        # the reference forms (j+1)^alpha, j^alpha and (j-1)^alpha each on
        # its own; overflow starts at m = 84 on the 4096-point grid
        h = math.pi / (points + 1)
        j = np.arange(1, points + 1, dtype=float)
        for m in range(1, 84):
            corr = np.zeros(points)
            for from_left, alpha in ((True, m + 1.5), (False, m - 0.5)):
                disc = (j + 1.0) ** alpha - 2.0 * j**alpha + (j - 1.0) ** alpha
                adj = (disc / j**alpha - alpha * (alpha - 1.0) / j**2) / h**2
                corr += adj if from_left else adj[::-1]
            assert _indicial_correction(m, points, h).tobytes() == corr.tobytes(), m

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


class TestCertifiedBisection:
    def test_zero_pivot_counts_as_negative(self):
        # [[1, 1], [1, 1]] has eigenvalues 0 and 2; at lam = 0 the second
        # pivot is exactly zero and counts.  With a third row (eigenvalues
        # 1 - sqrt 2, 1, 1 + sqrt 2) the sweep goes on past it.
        assert _sturm_count([1.0, 1.0], 1.0, 0.0) == 1
        assert _sturm_count([1.0, 1.0], 1.0, -1e-9) == 0
        assert _sturm_count([1.0, 1.0, 1.0], 1.0, 0.0) == 1

    def test_newton_sweep_counts_as_sturm_count_on_small_systems(self):
        # small integer systems at integer and half-integer shifts hit exact
        # zero pivots often; the count must not depend on the sweep
        rng = random.Random(20261018)
        zero_pivots = 0
        for _ in range(10_000):
            diag = [float(rng.randint(-3, 3)) for _ in range(rng.randint(1, 6))]
            offsq = rng.choice((0.25, 1.0, 4.0))
            for lam in (rng.randint(-8, 8) / 2.0 for _ in range(6)):
                assert oracle._sturm_newton(diag, offsq, lam)[0] == _sturm_count(diag, offsq, lam)
                zero_pivots += 0.0 in pivots(diag, offsq, lam)
        assert zero_pivots > 1000

    @pytest.mark.parametrize("m", [1, 10, 40])
    def test_newton_sweep_counts_as_sturm_count_on_the_operator(self, m):
        # at every midpoint of the plain bisection, down to the float noise
        # around the eigenvalue, and across the whole Gershgorin bracket
        params, grid = ModeParams(m=m, N=0), FdGrid(1024)
        diag = _assemble_diagonal(params, 0.33, grid).tolist()
        off = 1.0 / grid.h**2
        lo, hi = min(diag) - 2.0 * off, max(diag) + 2.0 * off
        shifts = list(np.linspace(lo, hi, 64))
        while hi - lo > 1e-13 * max(1.0, abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            shifts.append(mid)
            lo, hi = (lo, mid) if _sturm_count(diag, off * off, mid) >= 1 else (mid, hi)
        shifts += [math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
        for lam in shifts:
            assert oracle._sturm_newton(diag, off * off, lam)[0] == _sturm_count(
                diag, off * off, lam
            )

    def test_newton_step_is_the_distance_to_a_lone_eigenvalue(self):
        # 1x1: det(T - lam) = t - lam, so one step lands on t from either side
        assert oracle._sturm_newton([3.0], 1.0, 1.0) == (0, 2.0)
        assert oracle._sturm_newton([3.0], 1.0, 5.0) == (1, -2.0)

    @pytest.mark.parametrize("m", [1, 2, 10, 40, 80])
    @pytest.mark.parametrize("beta", [0.0, 0.33, -0.7, 2.0])
    def test_same_float_as_plain_bisection_for_any_guess(self, m, beta):
        params = ModeParams(m=m, N=0)
        for points in (256, 1024):
            grid = FdGrid(points)
            exact = plain_bisection(params, beta, grid)
            diag = _assemble_diagonal(params, beta, grid)
            width = float(diag.max() - diag.min()) + 4.0 / grid.h**2
            # the spectral value (richardson_eigenvalue's seed), the true
            # value, one ulp off either way, 1e-3 off, 10x off, the wrong
            # side of 0, beyond the Gershgorin bracket either way, no number
            guesses = (
                spectral_eigenvalue(m, beta),
                exact,
                math.nextafter(exact, math.inf),
                math.nextafter(exact, -math.inf),
                exact * (1.0 + 1e-3),
                10.0 * exact,
                -exact,
                float(diag.max()) + width,
                float(diag.min()) - width,
                math.inf,
                -math.inf,
                math.nan,
            )
            for guess in guesses:
                assert fd_ground_eigenvalue(params, beta, grid, guess=guess) == exact, guess

    # rows swept per richardson_eigenvalue when the 1024-point grid was
    # seeded by a 256-point solve, a Newton sweep counted as two count
    # sweeps (about what it costs)
    PARENT_ROWS = {(1, 0.0): 125_440, (1, 0.33): 129_536, (40, 0.0): 135_168, (40, 0.33): 126_976}
    ROW_SHARE = {1: 0.9, 40: 0.55}

    @pytest.mark.parametrize("m", [1, 40])
    @pytest.mark.parametrize("beta", [0.0, 0.33])
    def test_seeded_grids_sweep_at_most_40_times(self, monkeypatch, m, beta):
        sweeps, rows = collections.Counter(), 0  # sweeps per grid size, weighted rows
        for name, weight in (("_sturm_count", 1), ("_sturm_newton", 2)):

            def counting(diag, offsq, lam, sweep=getattr(oracle, name), weight=weight):
                nonlocal rows
                sweeps[len(diag)] += 1
                rows += weight * len(diag)
                return sweep(diag, offsq, lam)

            monkeypatch.setattr(oracle, name, counting)
        richardson_eigenvalue(ModeParams(m=m, N=0), beta)
        assert sorted(sweeps) == list(oracle.RICHARDSON_GRIDS)  # no grid solved as a seed
        assert max(sweeps.values()) <= 40
        if m == 40:
            # a 256-point seed once sat 9.3 above the 1024-point value, out
            # of Newton's quadratic range: 38 count and 2 Newton sweeps
            # followed.  The 1023-point grid, seeded from the two before it,
            # takes 2 and 4 at beta = 0
            assert sweeps[1023] <= 12
        assert rows <= self.ROW_SHARE[m] * self.PARENT_ROWS[m, beta]

    # rows swept per richardson_eigenvalue at beta = 0, a Newton row counted
    # twice, on the three grids 1024/2048/4096 (29/7, 4/13 and 6/15 count/
    # Newton sweeps at m = 1, 40, 80).  The four nested grids take more
    # sweeps (34/12, 4/19 and 46/14) over fewer rows: 57,286, 31,190 and
    # 43,446 measured; 37,326 at m = 80 once Newton climbs from far below
    THREE_GRID_ROWS = {1: 107_520, 40: 60_416, 80: 77_824}

    @pytest.mark.parametrize("m", [1, 40, 80])
    def test_sweeps_per_solve_stay_pinned(self, monkeypatch, m):
        sweeps, rows = collections.Counter(), 0  # (name, grid size) -> sweeps
        for name, weight in (("_sturm_count", 1), ("_sturm_newton", 2)):

            def counting(diag, offsq, lam, name=name, weight=weight, sweep=getattr(oracle, name)):
                nonlocal rows
                sweeps[name, len(diag)] += 1
                rows += weight * len(diag)
                return sweep(diag, offsq, lam)

            monkeypatch.setattr(oracle, name, counting)
        richardson_eigenvalue(ModeParams(m=m, N=0), 0.0)
        assert rows <= 0.6 * self.THREE_GRID_ROWS[m]
        if m == 80:
            # the 1024-point value once lay 10.3 above the spectral seed, and
            # Newton steps that stopped quartering there left 37 count
            # sweeps; the 1023-point grid now takes none (the 255-point
            # grid: test_far_seed_keeps_newton_going_on_the_coarsest_grid)
            assert sweeps["_sturm_count", 1023] <= 12

    @pytest.mark.parametrize("m", [60, 80, 91])
    def test_far_seed_keeps_newton_going_on_the_coarsest_grid(self, monkeypatch, m):
        # at beta = 0 the 255-point value lies 52 to 281 above the spectral
        # seed; at m = 80 and 91 the seed is below the Gershgorin bracket.
        # Newton once stopped there after 0 or 2 steps, and 40 to 46 count
        # sweeps followed.  It now climbs from the seed or the bracket's floor
        params, grid = ModeParams(m=m, N=0), FdGrid(255)
        sweeps = collections.Counter()
        for name in ("_sturm_count", "_sturm_newton"):

            def counting(diag, offsq, lam, name=name, sweep=getattr(oracle, name)):
                sweeps[name] += 1
                return sweep(diag, offsq, lam)

            monkeypatch.setattr(oracle, name, counting)
        value = fd_ground_eigenvalue(params, 0.0, grid, guess=spectral_eigenvalue(m, 0.0))
        assert sweeps["_sturm_count"] <= 12 and sweeps["_sturm_newton"] >= 1
        assert value == plain_bisection(params, 0.0, grid)

    # rows swept per richardson_eigenvalue, a Newton row counted twice, over
    # verify-battery's modes, before Newton could climb from far below
    BATTERY_ROWS = {
        (1, 0.0): 57_286, (1, 0.1): 52_425, (1, 0.45): 49_866,
        (2, 0.0): 50_125, (2, 0.1): 40_149, (2, 0.45): 49_612,
        (5, 0.0): 37_083, (5, 0.1): 36_314, (5, 0.45): 36_568,
        (10, 0.0): 33_247, (10, 0.1): 37_338, (10, 0.45): 35_803,
        (20, 0.0): 38_357, (20, 0.1): 41_170, (20, 0.45): 37_334,
        (40, 0.0): 31_190, (40, 0.1): 34_774, (40, 0.45): 34_264,
    }

    @pytest.mark.parametrize("m, beta", sorted(BATTERY_ROWS))
    def test_battery_modes_sweep_no_more_rows(self, monkeypatch, m, beta):
        rows = 0
        for name, weight in (("_sturm_count", 1), ("_sturm_newton", 2)):

            def counting(diag, offsq, lam, weight=weight, sweep=getattr(oracle, name)):
                nonlocal rows
                rows += weight * len(diag)
                return sweep(diag, offsq, lam)

            monkeypatch.setattr(oracle, name, counting)
        richardson_eigenvalue(ModeParams(m=m, N=0), beta)
        assert rows <= self.BATTERY_ROWS[m, beta]


class TestGroundEigenvector:
    def test_spherical_limit_profile_m1(self):
        # the beta = 0 ground state is (1-cos) sqrt(sin) up to normalization
        params, grid = ModeParams(m=1, N=0), FdGrid(4096)
        vec = fd_ground_eigenvector(params, 0.0, grid, fd_ground_eigenvalue(params, 0.0, grid))
        exact = (1 - np.cos(grid.thetas)) * np.sqrt(np.sin(grid.thetas))
        exact /= math.sqrt(grid.h) * np.linalg.norm(exact)
        assert np.max(np.abs(vec - exact)) < 1e-3

    def test_nodeless_and_positive(self):
        params, grid = ModeParams(m=2, N=0), FdGrid(512)
        vec = fd_ground_eigenvector(params, 0.2, grid, fd_ground_eigenvalue(params, 0.2, grid))
        assert np.all(vec > 0.0)

    def test_unit_discrete_l2(self):
        params, grid = ModeParams(m=1, N=0), FdGrid(512)
        vec = fd_ground_eigenvector(params, 0.1, grid, fd_ground_eigenvalue(params, 0.1, grid))
        assert grid.h * np.sum(vec**2) == pytest.approx(1.0, rel=1e-12)

    def test_matches_series_eigenfunction(self, state_m1_n8):
        # cross-implementation agreement at beta = 0.2
        params, grid = ModeParams(m=1, N=8), FdGrid(2048)
        vec = fd_ground_eigenvector(params, 0.2, grid, fd_ground_eigenvalue(params, 0.2, grid))
        psi, _, _ = wavefunction_on_grid(state_m1_n8, 0.2, grid.thetas)
        psi = psi / (math.sqrt(grid.h) * np.linalg.norm(psi))
        assert np.max(np.abs(psi - vec)) < 5e-3

    def test_matches_series_eigenfunction_low_order(self):
        # the order-4 truncation already reproduces the discrete ground
        # state to 1e-3 at beta = 0.1 on a 2000-point grid
        state = compute_series(ModeParams(m=1, N=4))
        grid = FdGrid(2000)
        eigenvalue = fd_ground_eigenvalue(state.params, 0.1, grid)
        vec = fd_ground_eigenvector(state.params, 0.1, grid, eigenvalue)
        psi, _, _ = wavefunction_on_grid(state, 0.1, grid.thetas)
        psi = psi / (math.sqrt(grid.h) * np.linalg.norm(psi))
        assert np.max(np.abs(psi - vec)) < 1e-3

    @staticmethod
    def six_step_reference(params, beta, grid, eigenvalue):
        """Inverse iteration run to convergence, six steps: the Thomas
        factorization and each substitution in separate passes, the vector
        rescaled after each step."""
        off = -1.0 / grid.h**2
        pivots, mults, c = [], [], 0.0
        for t in (_assemble_diagonal(params, beta, grid) - eigenvalue).tolist():
            piv = t - off * c
            if abs(piv) < 1e-200:
                piv = math.copysign(1e-200, piv if piv != 0.0 else 1.0)
            c = off / piv
            pivots.append(piv)
            mults.append(c)
        x = np.ones(grid.points)
        for _ in range(6):
            x, y = x.tolist(), 0.0
            for i, piv in enumerate(pivots):
                y = x[i] = (x[i] - off * y) / piv
            for i in range(len(x) - 2, -1, -1):
                x[i] -= mults[i] * x[i + 1]
            x = np.array(x) / np.linalg.norm(x)
        x /= math.sqrt(grid.h) * np.linalg.norm(x)
        return x if x[int(np.argmax(np.abs(x)))] > 0.0 else -x

    @pytest.mark.parametrize("beta", [0.0, 0.45, -1.0])
    @pytest.mark.parametrize("m", [1, 10, 40, 83])
    def test_two_steps_reach_the_converged_vector(self, m, beta):
        # one step is 2e-13 to 3e-11 away from the converged vector here
        params, grid = ModeParams(m=m, N=0), FdGrid(4096)
        eigenvalue = fd_ground_eigenvalue(params, beta, grid, guess=spectral_eigenvalue(m, beta))
        vec = fd_ground_eigenvector(params, beta, grid, eigenvalue)
        reference = self.six_step_reference(params, beta, grid, eigenvalue)
        assert np.max(np.abs(vec - reference)) < 1e-13

    @staticmethod
    def loop_reference(params, beta, grid, eigenvalue):
        """The eigenvector's loops as first written: lists grown by append,
        an abs() pivot guard, and each back substitution reading x[i + 1]."""
        off = -1.0 / grid.h**2
        pivots, mults, x = [], [], []
        c = y = 0.0
        for t in (_assemble_diagonal(params, beta, grid) - eigenvalue).tolist():
            piv = t - off * c
            if abs(piv) < 1e-200:
                piv = math.copysign(1e-200, piv if piv != 0.0 else 1.0)
            c = off / piv
            y = (1.0 - off * y) / piv
            pivots.append(piv)
            mults.append(c)
            x.append(y)
        back = range(len(x) - 2, -1, -1)
        for i in back:
            x[i] -= mults[i] * x[i + 1]
        scale, y = 1.0 / math.hypot(*x), 0.0
        for i, piv in enumerate(pivots):
            y = x[i] = (x[i] * scale - off * y) / piv
        for i in back:
            x[i] -= mults[i] * x[i + 1]
        x = np.array(x)
        x /= math.sqrt(grid.h) * np.linalg.norm(x)
        return -x if x[int(np.argmax(np.abs(x)))] < 0.0 else x

    @pytest.mark.parametrize("beta", [0.0, 0.33, -0.4])
    @pytest.mark.parametrize("m", [1, 10, 40, 83])
    def test_same_bytes_as_the_loop_reference(self, m, beta):
        params = ModeParams(m=m, N=0)
        _, per_grid = richardson_eigenvalue(params, beta)
        for points in (1023, 2047):
            grid = FdGrid(points)
            vec = fd_ground_eigenvector(params, beta, grid, per_grid[points])
            reference = self.loop_reference(params, beta, grid, per_grid[points])
            assert vec.tobytes() == reference.tobytes(), points

    def test_excited_state_detected_as_nodal(self):
        # aiming inverse iteration at the second eigenvalue must trip the
        # nodeless check
        params = ModeParams(m=1, N=0)
        grid = FdGrid(256)
        e1 = dense_spectrum(params, 0.0, grid)[1]
        with pytest.raises(OracleError, match="sign"):
            fd_ground_eigenvector(params, 0.0, grid, eigenvalue=e1)


class TestRichardson:
    def test_estimate_consistency(self):
        params = ModeParams(m=3, N=0)
        estimate, per_grid = richardson_eigenvalue(params, 0.1)
        finest = per_grid[2047]
        coarsest = per_grid[255]
        assert abs(estimate - finest) < abs(finest - coarsest)

    def test_table_removes_even_powers_of_h(self):
        # values c0 + c1 h^2 + c2 h^4 + c3 h^6 at h = 1, 1/2, 1/4, 1/8, as
        # floats and as arrays: three levels leave c0, to rounding
        hs = 0.5 ** np.arange(4)
        coeffs = np.array([[3.0, -1.5], [5.0, 2.0], [-7.0, 0.25], [2.0, 4.0]])
        values = [coeffs[0] + coeffs[1] * h**2 + coeffs[2] * h**4 + coeffs[3] * h**6 for h in hs]
        assert np.max(np.abs(oracle._richardson(values) - coeffs[0])) < 1e-13
        assert abs(oracle._richardson([v[0] for v in values]) - 3.0) < 1e-13

    @pytest.mark.parametrize("m", [1, 5, 10, 20, 40, 60, 80, 83, 91])
    def test_estimate_agrees_with_spectral_value(self, m):
        # the three-grid, one-level estimate kept up to 3.4e-4 (m = 83) of
        # the FD error; the four-grid table keeps at most 1.3e-8 (m = 91)
        for beta in (0.0, 0.45, -0.45, 1.0, -1.0):
            estimate, _ = richardson_eigenvalue(ModeParams(m=m, N=0), beta)
            assert abs(estimate - spectral_eigenvalue(m, beta)) <= 1e-7, beta

    def test_floats_match_pinned_digest(self):
        # sha256 of the repr of every (estimate, per-grid) pair; a change of
        # seeds or of the bisection's probes must leave every float as it is
        text = "\n".join(
            repr(richardson_eigenvalue(ModeParams(m, 0), beta))
            for m in (1, 10, 40, 80)
            for beta in (0.0, 0.33, -0.4, 2.0)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "eb3521cf64bc370af72e893b12af52136da1ba553902834065c58a6469af2ae0"
        )


def spectral_reference(m, beta, size):
    """Smallest eigenvalue of the spin-weighted harmonic matrix truncated
    to `size` rows, its entries built one by one in Python floats, C^2 from
    one row more."""
    ls = range(m, m + size + 1)
    cos = np.zeros((size + 1, size + 1))
    for i, l in enumerate(ls):
        cos[i, i] = -m / (l * (l + 1))
        if i < size:
            k = l + 1
            cos[i, i + 1] = cos[i + 1, i] = (
                math.sqrt((k * k - m * m) * (k * k - 1) / ((2 * l + 1) * (2 * l + 3))) / k
            )
    square = (cos @ cos)[:size, :size]
    matrix = np.diag([l * (l + 1) - 2.0 for l in ls][:size])
    matrix += 2.0 * beta * cos[:size, :size] - beta * beta * square
    return float(np.linalg.eigvalsh(matrix)[0])


class TestSpectralEigenvalue:
    @pytest.mark.parametrize("m", [1, 10, 40, 83])
    def test_spherical_limit_is_exact(self, m):
        # at beta = 0 the matrix is diagonal: l(l+1) - 2 at l = m
        assert spectral_eigenvalue(m, 0.0) == m * m + m - 2

    @pytest.mark.parametrize("m", [1, 10, 40, 80])
    @pytest.mark.parametrize("beta", [0.0, 0.33, 1.0, 2.0])
    def test_forty_harmonics_agree_with_eighty(self, m, beta):
        reference = spectral_reference(m, beta, 80)
        assert abs(spectral_eigenvalue(m, beta) - reference) <= 1e-12 * max(1.0, abs(reference))

    @pytest.mark.parametrize("beta", [0.0, 0.33, -0.4, 1.0, 2.0])
    def test_agrees_with_fd_richardson_at_m1(self, beta):
        # the FD oracle's own error at m = 1 is ~1e-10
        estimate, _ = richardson_eigenvalue(ModeParams(m=1, N=0), beta)
        assert abs(spectral_eigenvalue(1, beta) - estimate) <= 1e-9

    @pytest.mark.parametrize("beta", [1e200, -1e200])
    def test_overflowing_beta_gives_nan_without_warning(self, beta):
        # beta^2 overflows; the FD grids then refuse the input with its cause
        assert math.isnan(spectral_eigenvalue(2, beta))


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
        coeffs = list(state.energy)
        coeffs[n] *= 1 + Fraction(1, 10**6)
        bad = dataclasses.replace(state, energy=tuple(coeffs))
        for theta in (0.6, 1.2, 2.0, 2.9):
            closed = an_closed_form(bad, n, theta)
            assert abs(quadrature_an(bad, n, theta) - closed) > 1e-8 * abs(closed), theta

    def test_floats_match_pinned_digest(self):
        # sha256 of the repr of A_n at m in {3, 8}, n in {3, 8}, theta in {0.3, 2.9}
        values = [
            quadrature_an(compute_series(ModeParams(m=m, N=8)), n, theta)
            for m in (3, 8)
            for n in (3, 8)
            for theta in (0.3, 2.9)
        ]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == (
            "3150deb8ac6955104743d8c1a61ae72e31c21c38e106a06c75c8d93757b9b083"
        )

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
        assert report.oracle_checks == {"eigenvalue_gap_beta0_single_grid": None}

    def test_gap_grows_with_beta_at_fixed_order(self):
        # truncation error dominates, so the series-vs-numeric gap must
        # grow monotonically along the beta list at low order
        reports = verify_all(ModeParams(m=1, N=3), [0.05, 0.1, 0.2])
        gaps = [r.abs_gap for r in reports]
        assert gaps[0] < gaps[1] < gaps[2]

    def test_report_fields_m3(self):
        (report,) = verify_all(ModeParams(m=3, N=8), [0.1])
        assert report.grid_sizes == (255, 511, 1023, 2047)
        finest = report.grid_eigenvalues[-1]
        coarsest = report.grid_eigenvalues[0]
        assert abs(report.richardson_estimate - finest) < abs(finest - coarsest)
        assert report.abs_gap == abs(report.series_value - report.numeric_value)
        assert report.passed is True

    def test_coarse_single_grid_judges_the_oracle_not_the_series(self):
        # at m = 10 the 2047-point grid lies 4.9e-4 from the exact E0, past
        # the 5e-5 bound; the series and the extrapolated value agree
        (report,) = verify_all(ModeParams(m=10, N=8), [0.0])
        assert report.oracle_checks == {
            "eigenvalue_gap_beta0_single_grid": (
                "the 2047-point grid is too coarse at m=10: it lies 0.000486 from E0, "
                "above 5e-05"
            )
        }
        assert "eigenvalue_gap_beta0_single_grid" not in report.checks
        assert report.checks["eigenvalue_gap"] and report.passed is True

    @pytest.mark.parametrize("m", [1, 5, 10, 20, 40, 60, 80, 83, 91])
    def test_beta0_wavefunction_gap_sees_the_series(self, m):
        # at beta = 0 psi is exact for every N: the extrapolated vector lies
        # within 2.5e-9 of it (m = 91); the finest vector alone lay up to
        # 1.6e-4 (m = 83) from it
        (report,) = verify_all(ModeParams(m=m, N=16), [0.0])
        assert report.wavefunction_gap < 1e-6

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

    def test_second_case_reuses_the_grid_constants(self, monkeypatch):
        # a new beta at the same m forms no indicial correction and no
        # half-angle values of a grid or of the normalization rule
        params = ModeParams(m=3, N=2)
        state = compute_series(params)
        verify_all(params, [0.1], state=state)
        misses = oracle._indicial_correction.cache_info().misses
        sizes = []
        for module in (oracle, evaluate):

            def counting(theta, half_angle=module._half_angle):
                sizes.append(np.size(theta))
                return half_angle(theta)

            monkeypatch.setattr(module, "_half_angle", counting)
        verify_all(params, [0.2], state=state)
        assert oracle._indicial_correction.cache_info().misses == misses
        assert sizes == [1]  # the residual slope's one angle

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

    def test_floats_match_pinned_digest(self):
        # sha256 of the repr of the slopes at every (m, N) measured here
        # whose fit has 3 betas above the roundoff floor
        slopes = [
            residual_slope(compute_series(ModeParams(m=m, N=n)))
            for m, n in ((1, 1), (1, 3), (1, 4), (40, 3))
        ]
        assert hashlib.sha256(repr(slopes).encode()).hexdigest() == (
            "bcb635b65caeb6b68945b9ab9751fe66814c5666215e53a7b1f1b70a1393e3f7"
        )
