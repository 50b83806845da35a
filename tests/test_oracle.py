import collections
import dataclasses
import hashlib
import math
import random
import re
import struct
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sws1 import SeriesInconsistencyError, cli, evaluate, oracle, recurrence
from sws1.core import DEFAULT_TOLERANCES, ModeParams
from sws1.evaluate import eval_energy, wavefunction_on_grid
from sws1.oracle import (
    FdGrid,
    OracleError,
    _ground_states,
    _indicial_correction,
    _sturm_count,
    an_closed_form,
    fd_ground_state,
    quadrature_an,
    riccati_defect,
    spectral_eigenvalue,
    verify_all,
)
from sws1.recurrence import compute_series


def oracle_reasons(report):
    """Each oracle check's name -> None if it held, else its reason."""
    return {c.name: c.reason for c in report.records if c.oracle}


def skip_reasons(report):
    """Each skipped check's name -> why it was not run."""
    return {c.name: c.reason for c in report.records if c.status == "skipped"}


def diagonal(params, beta, grid):
    """The operator's diagonal, 2/h^2 + `_weights`."""
    return 2.0 / grid.h**2 + oracle._weights(params, beta, grid)


def solve(params, beta, grid):
    """`fd_ground_state` seeded with the spectral value, as the coarsest
    grid is."""
    return fd_ground_state(params, beta, grid, spectral_eigenvalue(params.m, beta))


def dense_spectrum(params, beta, grid):
    """All eigenvalues of the oracle's tridiagonal operator by a dense
    LAPACK solve, a reference that shares nothing with the oracle's solver.
    Only for small m: at m = 40 the diagonal reaches 3e17 and the dense
    solve loses the ground eigenvalue to O(1)."""
    off = np.full(grid.points - 1, -1.0 / grid.h**2)
    matrix = np.diag(diagonal(params, beta, grid)) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(matrix)


def plain_bisection(params, beta, grid, k=1):
    """The k-th smallest eigenvalue by bisection with a Sturm sweep at
    every midpoint of the Gershgorin bracket, to a width of 1e-13
    relative."""
    diag = diagonal(params, beta, grid).tolist()
    off = 1.0 / grid.h**2
    lo, hi = min(diag) - 2.0 * off, max(diag) + 2.0 * off
    while hi - lo > 1e-13 * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if _sturm_count(diag, off * off, mid) >= k:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def extended_solver(diag, off, shift):
    """A solver of (T - shift) x = rhs for the float64 system with diagonal
    `diag` and off-diagonal `off`: one Thomas factorization, and each
    substitution, carried out in np.longdouble, a reference 11 bits finer
    than float64 that shares nothing with odd-even reduction."""
    assert np.finfo(np.longdouble).eps < 1e-18  # not float64 under another name
    off, c = np.longdouble(off), np.longdouble(0.0)
    pivots, mults = [], []
    for t in np.asarray(diag, dtype=np.longdouble) - np.longdouble(shift):
        piv = t - off * c
        c = off / piv
        pivots.append(piv)
        mults.append(c)

    def solve(rhs):
        x, y = list(np.asarray(rhs, dtype=np.longdouble)), np.longdouble(0.0)
        for i, piv in enumerate(pivots):
            y = x[i] = (x[i] - off * y) / piv
        for i in range(len(x) - 2, -1, -1):
            x[i] -= mults[i] * x[i + 1]
        return np.array(x, dtype=np.longdouble)

    return solve


def extended_steps(diag, off, shift, steps, h):
    """`steps` steps of inverse iteration at `shift` from all-ones by
    `extended_solver`, each vector scaled to unit norm, the last returned
    in float64 at unit discrete L2 (h-weighted), its largest entry
    positive."""
    solve, x = extended_solver(diag, off, shift), np.ones(len(diag), dtype=np.longdouble)
    for _ in range(steps):
        x = solve(x)
        x /= np.sqrt(np.sum(x * x))
    x = (x / np.sqrt(np.longdouble(h) * np.sum(x * x))).astype(float)
    return x if x[np.argmax(np.abs(x))] > 0.0 else -x


class SweepCounter:
    """Wraps the two Sturm sweeps and the inverse step of `oracle`: `sweeps`
    counts their calls per (name, grid size), `rows` sums the rows the Sturm
    sweeps swept, a Newton row counted twice (about what it costs), and
    `step_rows` the rows of the inverse steps.  `loop_rows` lists, step by
    step, the rows the step swept in Python: those it handed to
    `oracle._thomas`, or, where `oracle` has no such sweep, every row of
    the step, which then sweeps its whole grid itself."""

    def __init__(self, monkeypatch):
        self.sweeps, self.rows, self.step_rows = collections.Counter(), 0, 0
        self.loop_rows = []
        thomas = getattr(oracle, "_thomas", None)
        for name, tally, weight in (
            ("_sturm_count", "rows", 1),
            ("_sturm_newton", "rows", 2),
            ("_inverse_step", "step_rows", 1),
        ):

            def counting(
                diag, *args, name=name, tally=tally, weight=weight, run=getattr(oracle, name)
            ):
                self.sweeps[name, len(diag)] += 1
                setattr(self, tally, getattr(self, tally) + weight * len(diag))
                if name == "_inverse_step":
                    self.loop_rows.append(0 if thomas else len(diag))
                return run(diag, *args)

            monkeypatch.setattr(oracle, name, counting)
        if thomas:

            def sweeping(diag, *args):
                self.loop_rows[-1] += len(diag)
                return thomas(diag, *args)

            monkeypatch.setattr(oracle, "_thomas", sweeping)


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

    def test_richardson_grids_are_nested(self):
        # every node of a grid is every other node of the next, bit for bit
        for coarse, fine in zip(oracle.RICHARDSON_GRIDS, oracle.RICHARDSON_GRIDS[1:]):
            assert fine == 2 * coarse + 1
            assert np.array_equal(oracle._GRIDS[coarse].thetas, oracle._GRIDS[fine].thetas[1::2])

    def test_cached_constants_are_read_only(self):
        # every caller shares them: the grids' half-angle values, the
        # indicial corrections, the spectral matrix's parts and the
        # normalization rule
        grid = FdGrid(1024)
        weights, nodes = evaluate._normalization_rule(1)
        spectral = oracle._spectral_parts(1)
        for values in (*grid.trig, _indicial_correction(1, 1024), *spectral, weights, *nodes):
            assert not values.flags.writeable

    @pytest.mark.parametrize("m", [1, 10, 91])
    def test_cached_potential_gives_the_weights_of_one_expression(self, m):
        # the potential formed at each beta as the single expression it was
        # before its beta-free part was cached
        for grid in oracle._GRIDS.values():
            _, c, one_minus, _ = grid.trig
            one_plus = 2.0 * np.cos(grid.thetas / 2.0) ** 2
            corr = _indicial_correction(m, grid.points)
            for beta in (0.0, 0.33, -1.0, 50.0):
                inv_sin2 = ((m + c) ** 2 - 0.25) / (one_minus * one_plus)
                expected = (inv_sin2 - 1.25 - (beta * c) ** 2 + 2.0 * beta * c) + corr
                weights = oracle._weights(ModeParams(m=m, N=0), beta, grid)
                assert weights.tobytes() == expected.tobytes(), (grid.points, beta)


class TestGroundEigenvalue:
    @pytest.mark.parametrize("m,expected", [(1, 0.0), (2, 4.0), (3, 10.0)])
    def test_spherical_limit(self, m, expected):
        e, _ = solve(ModeParams(m=m, N=0), 0.0, FdGrid(4096))
        assert e == pytest.approx(expected, abs=5e-5)

    def test_sturm_count_brackets_ground_state(self):
        # the solver lands on the lowest eigenvalue of the same matrix
        params = ModeParams(m=1, N=0)
        grid = FdGrid(1024)
        e, _ = solve(params, 0.1, grid)
        assert e == pytest.approx(dense_spectrum(params, 0.1, grid)[0], rel=1e-9)

    @pytest.mark.parametrize("beta", [1e200, -1e200])
    def test_non_finite_potential_refused(self, beta):
        # beta^2 overflows, so the potential is -inf at every node
        with pytest.raises(ValueError, match="potential is not finite"):
            solve(ModeParams(m=2, N=0), beta, FdGrid(1024))

    @pytest.mark.parametrize("points,largest", [(1024, 100), (2048, 91), (4096, 83)])
    def test_indicial_overflow_refused_past_the_stated_m(self, points, largest):
        # (j+1)^(m+3/2) overflows at the far end of the grid; the potential
        # itself is finite
        grid = FdGrid(points)
        assert np.isfinite(diagonal(ModeParams(m=largest, N=0), 0.0, grid)).all()
        message = (
            f"indicial correction overflows on the {points}-point grid at m={largest + 1}; "
            f"this grid supports m <= {largest}$"
        )
        with pytest.raises(ValueError, match=message):
            solve(ModeParams(m=largest + 1, N=0), 0.0, grid)

    @pytest.mark.parametrize("points,largest", [(255, 126), (511, 112), (1023, 100), (2047, 91)])
    def test_each_richardson_grid_takes_m_up_to_its_largest(self, points, largest):
        grid = oracle._GRIDS[points]
        assert np.isfinite(oracle._weights(ModeParams(m=largest, N=0), 0.0, grid)).all()
        message = (
            f"^the indicial correction overflows on the {points}-point grid at "
            f"m={largest + 1}; this grid supports m <= {largest}$"
        )
        with pytest.raises(ValueError, match=message):
            oracle._weights(ModeParams(m=largest + 1, N=0), 0.0, grid)

    def test_indicial_correction_refuses_without_numpy_warnings(self):
        # the correction refuses the m itself, its overflow silenced
        message = (
            "^the indicial correction overflows on the 2047-point grid at m=92; "
            "this grid supports m <= 91$"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                _indicial_correction(92, 2047)

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
            assert _indicial_correction(m, points).tobytes() == corr.tobytes(), m

    @staticmethod
    def convergence_order(m, beta):
        """The log-log slope in h of the eigenvalue error on 512 ... 2048
        points against the h^2-extrapolated limit of 2048 and 4096."""
        params = ModeParams(m=m, N=0)
        sizes = [512, 1024, 2048, 4096]
        values = {p: solve(params, beta, FdGrid(p))[0] for p in sizes}
        limit = (4 * values[4096] - values[2048]) / 3
        errs = np.array([abs(values[p] - limit) for p in sizes[:-1]])
        hs = np.array([math.pi / (p + 1) for p in sizes[:-1]])
        return np.polyfit(np.log(hs), np.log(errs), 1)[0]

    def test_convergence_is_second_order(self):
        # eigenvalue error against the extrapolated limit scales like h^2
        assert self.convergence_order(2, 0.1) == pytest.approx(2.0, abs=0.2)

    def test_convergence_is_second_order_at_the_critical_coupling(self):
        # at m = 1 the far endpoint sits at the critical coupling -1/4, where
        # the nodal discretization keeps its h^2 order only through the
        # indicial correction
        assert self.convergence_order(1, 0.1) == pytest.approx(2.0, abs=0.2)


class TestEigenvalueCountsAndSweeps:
    """The FD solver's eigenvalue counts (the Sturm count, the Newton sweep
    and an inverse step's pivots agree), the value any seed reaches, and
    how many sweeps and rows a solve takes."""

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
        diag = diagonal(params, 0.33, grid).tolist()
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

    def test_step_count_is_the_sturm_count_on_small_systems(self):
        # small integer systems at integer and half-integer shifts hit exact
        # zero pivots often, and entries of +-1e-250 give pivots below the
        # step's 1e-200 guard.  off is a power of two, so both sweeps form
        # the same pivots.  The counts agree unless a pivot vanishes: the
        # guard then goes on with a positive pivot where the Sturm sweep
        # takes a negative one, and only whether the count is 0 agrees
        rng = random.Random(20261019)
        entries = (*map(float, range(-3, 4)), 1e-250, -1e-250)
        vanishing = tiny = 0
        for _ in range(10_000):
            diag = [rng.choice(entries) for _ in range(rng.randint(1, 6))]
            off = rng.choice((0.5, -1.0, 2.0))
            for lam in (rng.choice((0.0, rng.randint(-8, 8) / 2.0)) for _ in range(6)):
                _, below = oracle._inverse_step(diag, off, lam, [1.0] * len(diag))
                count, swept = _sturm_count(diag, off * off, lam), pivots(diag, off * off, lam)
                if 0.0 in swept:
                    vanishing += 1
                    assert (below == 0) == (count == 0), (diag, off, lam)
                else:
                    assert below == count, (diag, off, lam)
                tiny += any(0.0 < abs(d) < 1e-200 for d in swept)
        assert vanishing > 1000 and tiny > 1000

    @pytest.mark.parametrize("m", [1, 10, 40])
    @pytest.mark.parametrize("beta", [0.0, 0.33, -0.7])
    def test_step_count_is_the_sturm_count_on_the_operator(self, m, beta):
        # one ulp and delta/2 either side of the plain bisection's float, on
        # every Richardson grid.  The sweeps round off^2 / d each their own
        # way, so within the pivots' float noise of the eigenvalue the counts
        # could part; at these shifts they agree
        params = ModeParams(m=m, N=0)
        for points, grid in oracle._GRIDS.items():
            diag, off = diagonal(params, beta, grid).tolist(), -1.0 / grid.h**2
            exact = plain_bisection(params, beta, grid)
            half = 0.5e-9 * max(1.0, abs(exact))
            counts = []
            for lam in (
                math.nextafter(exact, -math.inf),
                math.nextafter(exact, math.inf),
                exact - half,
                exact + half,
            ):
                _, below = oracle._inverse_step(diag, off, lam, [1.0] * points)
                assert below == _sturm_count(diag, off * off, lam), (points, lam)
                counts.append(below)
            assert counts[2:] == [0, 1], points

    @pytest.mark.parametrize("m", [1, 2, 10, 40, 80])
    @pytest.mark.parametrize("beta", [0.0, 0.33, -0.7, 2.0])
    def test_any_seed_lands_within_delta_of_plain_bisection(self, m, beta):
        # any seed gives a value within delta = 1e-9 max(1, |lam|) of the
        # plain bisection's float
        params = ModeParams(m=m, N=0)
        for points in (256, 1024):
            grid = FdGrid(points)
            exact, second = plain_bisection(params, beta, grid), plain_bisection(params, beta, grid, 2)
            diag = diagonal(params, beta, grid)
            width = float(diag.max() - diag.min()) + 4.0 / grid.h**2
            # the spectral value, the true value, one ulp off either way,
            # 1e-3 off, 10x off, the wrong side of 0, 1e3 below it, between
            # the two lowest eigenvalues, above the second, beyond the
            # Gershgorin bracket either way, no number
            seeds = (
                spectral_eigenvalue(m, beta),
                exact,
                math.nextafter(exact, math.inf),
                math.nextafter(exact, -math.inf),
                exact * (1.0 + 1e-3),
                10.0 * exact,
                -exact,
                exact - 1e3,
                0.5 * (exact + second),
                2.0 * second - exact,
                float(diag.max()) + width,
                float(diag.min()) - width,
                math.inf,
                -math.inf,
                math.nan,
            )
            for seed in seeds:
                value, _ = fd_ground_state(params, beta, grid, seed)
                assert abs(value - exact) <= 1e-9 * max(1.0, abs(exact)), (points, seed)

    # rows swept per solve of the four grids when the 1024-point grid was
    # seeded by a 256-point solve
    PARENT_ROWS = {(1, 0.0): 125_440, (1, 0.33): 129_536, (40, 0.0): 135_168, (40, 0.33): 126_976}
    ROW_SHARE = {1: 0.9, 40: 0.55}

    @pytest.mark.parametrize("m", [1, 40])
    @pytest.mark.parametrize("beta", [0.0, 0.33])
    def test_seeded_grids_sweep_at_most_40_times(self, monkeypatch, m, beta):
        counter = SweepCounter(monkeypatch)
        _ground_states(ModeParams(m=m, N=0), beta)
        sweeps = collections.Counter()  # per grid size
        for (_, points), count in counter.sweeps.items():
            sweeps[points] += count
        # every grid takes its own inverse steps, and no other grid size is
        # swept or stepped: no grid solved as a seed
        assert sorted(sweeps) == list(oracle.RICHARDSON_GRIDS)
        assert max(sweeps.values()) <= 40
        if m == 40:
            # a 256-point seed once sat 9.3 above the 1024-point value, out
            # of Newton's quadratic range: 38 count and 2 Newton sweeps
            # followed
            assert sweeps[1023] <= 12
        assert counter.rows <= self.ROW_SHARE[m] * self.PARENT_ROWS[m, beta]

    # rows per solve of the four grids at beta = 0, Sturm rows (the
    # 255-point grid's Newton sweeps, and on a grid that its last step does
    # not certify the one count that does) and inverse-step rows
    PINNED_ROWS = {1: (1_020, 4_091), 40: (3_571, 4_602), 80: (6_124, 5_625)}

    @pytest.mark.parametrize("m", [1, 40, 80])
    def test_sweeps_per_solve_stay_pinned(self, monkeypatch, m):
        counter = SweepCounter(monkeypatch)
        _ground_states(ModeParams(m=m, N=0), 0.0)
        sturm_rows, step_rows = self.PINNED_ROWS[m]
        assert counter.rows <= sturm_rows and counter.step_rows <= step_rows
        for points in oracle.RICHARDSON_GRIDS:
            assert counter.sweeps["_sturm_count", points] <= 1, points
        for points in oracle.RICHARDSON_GRIDS[1:]:
            assert not counter.sweeps["_sturm_newton", points], points

    @pytest.mark.parametrize("m", [60, 80, 91])
    def test_far_seed_keeps_newton_going_on_the_coarsest_grid(self, monkeypatch, m):
        # at beta = 0 the 255-point value lies 52 to 281 above the spectral
        # seed; at m = 80 and 91 the seed is below the Gershgorin floor.
        # Newton once stopped there after 0 or 2 steps, and 40 to 46 count
        # sweeps followed.  It now climbs from the seed or the floor, two
        # inverse steps follow, and the last step's pivots certify the
        # Rayleigh quotient (a count once followed at m = 60 and 91)
        params, grid = ModeParams(m=m, N=0), FdGrid(255)
        counter = SweepCounter(monkeypatch)
        value, _ = solve(params, 0.0, grid)
        assert counter.sweeps["_sturm_count", 255] <= 1 and counter.sweeps["_sturm_newton", 255] >= 1
        assert counter.sweeps["_inverse_step", 255] == 2
        assert abs(value - plain_bisection(params, 0.0, grid)) <= 1e-9 * value

    def test_hard_shifts_give_nodeless_certified_states(self, monkeypatch):
        # at |beta| >= 10 the spectral seed may lie between the two lowest
        # eigenvalues with its Newton step pointing up (m = 1, beta = -10),
        # or below the Gershgorin floor (m = 91); both restart at the floor.
        # One inverse step from all-ones at the eigenvalue leaves a node at
        # m = 4, 5, 10 and beta = -30 or -50, so the start takes a second
        grid, floored = oracle._COARSEST, set()
        newton = oracle._sturm_newton

        def recording(diag, offsq, lam):
            if lam == min(diag) - 2.0 / grid.h**2:
                floored.add(case)
            return newton(diag, offsq, lam)

        monkeypatch.setattr(oracle, "_sturm_newton", recording)
        for m in (1, 2, 3, 4, 5, 10, 40, 91):
            params = ModeParams(m=m, N=0)
            for beta in (10.0, -10.0, 30.0, -30.0, 50.0, -50.0):
                case = m, beta
                _, per_grid, vectors, _ = _ground_states(params, beta)
                for vector in vectors:
                    significant = vector[np.abs(vector) > 1e-12 * vector.max()]
                    assert np.all(significant > 0.0), case
                exact = plain_bisection(params, beta, grid)
                assert abs(per_grid[255] - exact) <= 1e-9 * max(1.0, abs(exact)), case
        assert {(1, -10.0), (91, 10.0)} <= floored
        lowest = dense_spectrum(ModeParams(m=1, N=0), -10.0, grid)
        assert lowest[0] < spectral_eigenvalue(1, -10.0) < lowest[1]
        for m, beta in ((4, -30.0), (5, -30.0), (5, -50.0), (10, -50.0)):
            params = ModeParams(m=m, N=0)
            diag = diagonal(params, beta, grid).tolist()
            exact = plain_bisection(params, beta, grid)
            one_step, _ = oracle._inverse_step(diag, -1.0 / grid.h**2, exact, [1.0] * grid.points)
            with pytest.raises(OracleError, match="sign"):
                oracle._ground_vector(one_step, grid.h)

    # Sturm rows and inverse-step rows per solve of the four grids over
    # verify-battery's modes
    BATTERY_ROWS = {
        (1, 0.0): (1_020, 4_091), (1, 0.1): (1_020, 4_091), (1, 0.45): (1_020, 4_091),
        (2, 0.0): (1_530, 4_091), (2, 0.1): (1_530, 4_091), (2, 0.45): (1_530, 4_091),
        (5, 0.0): (1_530, 4_091), (5, 0.1): (1_530, 4_091), (5, 0.45): (1_530, 4_091),
        (10, 0.0): (1_530, 4_602), (10, 0.1): (2_041, 4_602), (10, 0.45): (1_530, 4_602),
        (20, 0.0): (2_551, 4_602), (20, 0.1): (2_040, 4_602), (20, 0.45): (2_551, 4_602),
        (40, 0.0): (3_571, 4_602), (40, 0.1): (3_571, 4_602), (40, 0.45): (3_060, 4_602),
    }

    @pytest.mark.parametrize("m, beta", sorted(BATTERY_ROWS))
    def test_battery_modes_sweep_no_more_rows(self, monkeypatch, m, beta):
        counter = SweepCounter(monkeypatch)
        _ground_states(ModeParams(m=m, N=0), beta)
        sturm_rows, step_rows = self.BATTERY_ROWS[m, beta]
        assert counter.rows <= sturm_rows and counter.step_rows <= step_rows

    @pytest.mark.parametrize("m, beta", sorted(BATTERY_ROWS))
    def test_two_finest_grids_are_certified_by_one_step_from_their_h4_seed(
        self, monkeypatch, m, beta
    ):
        # the shift, delta/2 below the value predicted to h^4, lies below the
        # eigenvalue and within delta of rho, and the h^2-corrected start
        # needs no second step.  Seeded to h^2 from the grid before alone, up
        # to m = 20 and m = 40 each took a second step and a Sturm count; a
        # margin of max(|B|/64, delta/8) left a second 1023-point step at
        # m = 40
        counter = SweepCounter(monkeypatch)
        _ground_states(ModeParams(m=m, N=0), beta)
        for points in (1023, 2047):
            assert counter.sweeps["_inverse_step", points] == 1, points
            assert not counter.sweeps["_sturm_count", points], points

    def test_coarsest_grid_is_certified_by_its_last_step(self, monkeypatch):
        # Newton stops once its step is within delta/2, and the shift it
        # leaves delta/4 below that iterate lies below the eigenvalue by
        # more than the pivots' noise, so the last step certifies the
        # 255-point grid.  Newton once chased that noise: 85 sweeps over
        # these modes, after which 11 of their grids took a Sturm count
        counter = SweepCounter(monkeypatch)
        for m, beta in self.BATTERY_ROWS:
            _ground_states(ModeParams(m=m, N=0), beta)
            assert not counter.sweeps["_sturm_count", 255], (m, beta)
        assert counter.sweeps["_sturm_newton", 255] <= 63

    def test_no_step_sweeps_more_than_255_rows_in_python(self, monkeypatch):
        # odd-even reduction hands the Python sweep at most 255 unknowns;
        # the steps once swept every row of their grid, 2047 at most
        counter = SweepCounter(monkeypatch)
        for m, beta in self.BATTERY_ROWS:
            _ground_states(ModeParams(m=m, N=0), beta)
        steps = sum(n for (name, _), n in counter.sweeps.items() if name == "_inverse_step")
        assert len(counter.loop_rows) == steps
        assert 0 < min(counter.loop_rows) and max(counter.loop_rows) <= 255


class TestOddEvenReduction:
    """`_inverse_step`, which reduces a system to at most 255 unknowns in
    numpy, against solves that share nothing with it."""

    @staticmethod
    def systems(size):
        """Three float64 systems (diag, off) on `size` unknowns: the discrete
        Laplacian plus a random potential of 0.2 to 1 times 2/h^2 (positive
        definite, condition below 15), a strictly diagonally dominant one
        with random signs and a positive coupling (indefinite, condition
        below 6), and a diagonal one with random signs."""
        rng, h = np.random.default_rng(size), math.pi / (size + 1)
        return (
            (2.0 / h**2 * (1.0 + rng.uniform(0.2, 1.0, size)), -1.0 / h**2),
            (rng.choice((-1.0, 1.0), size) * rng.uniform(3.0, 4.0, size), 1.0),
            (rng.choice((-1.0, 1.0), size) * rng.uniform(1.0, 2.0, size), 0.0),
        )

    @pytest.mark.parametrize("size", [1, 2, 254, 255, 256, 257, 1024, 2047, 4096])
    def test_solution_and_count_of_a_reduced_system(self, size):
        # odd and even sizes, nested (2047 reduces to 1023, 511 and 255
        # unknowns without padding) and not.  The dense matrix of 4096
        # unknowns takes 128 MiB, so that size is held to the
        # extended-precision Thomas solve instead
        for diag, off in self.systems(size):
            rhs = np.random.default_rng(size + 1).standard_normal(size)
            x, below = oracle._inverse_step(diag, off, 0.0, rhs)
            if size < 4096:
                band = np.full(size - 1, off)
                expected = np.linalg.solve(np.diag(diag) + np.diag(band, 1) + np.diag(band, -1), rhs)
            else:
                expected = extended_solver(diag, off, 0.0)(rhs).astype(float)
            assert np.max(np.abs(x - expected)) <= 1e-14 * np.max(np.abs(expected)), off
            assert below == _sturm_count(diag.tolist(), off * off, 0.0), off

    @pytest.mark.parametrize("m", [1, 40, 91])
    def test_pivot_count_is_the_sturm_count_between_eigenvalues(self, m):
        # the pivots of every level and of the Python sweep count the
        # eigenvalues below the shift (Haynsworth's inertia additivity):
        # at the midpoint of each gap between the six lowest eigenvalues and
        # 1e-3 of the gap from either end, on the three reduced grids
        params = ModeParams(m=m, N=0)
        for points in (511, 1023, 2047):
            grid = oracle._GRIDS[points]
            diag, off = diagonal(params, 0.3, grid), -1.0 / grid.h**2
            lams = [plain_bisection(params, 0.3, grid, k) for k in range(1, 7)]
            for k, (lo, hi) in enumerate(zip(lams, lams[1:]), start=1):
                for lam in (lo + 1e-3 * (hi - lo), 0.5 * (lo + hi), hi - 1e-3 * (hi - lo)):
                    _, below = oracle._inverse_step(diag, off, lam, np.ones(points))
                    assert below == _sturm_count(diag.tolist(), off * off, lam) == k, (points, lam)


class TestGroundEigenvector:
    def test_spherical_limit_profile_m1(self):
        # the beta = 0 ground state is (1-cos) sqrt(sin) up to normalization
        params, grid = ModeParams(m=1, N=0), FdGrid(4096)
        _, vec = solve(params, 0.0, grid)
        exact = (1 - np.cos(grid.thetas)) * np.sqrt(np.sin(grid.thetas))
        exact /= math.sqrt(grid.h) * np.linalg.norm(exact)
        assert np.max(np.abs(vec - exact)) < 1e-3

    def test_nodeless_and_positive(self):
        _, vec = solve(ModeParams(m=2, N=0), 0.2, FdGrid(512))
        assert np.all(vec > 0.0)
        # on every Richardson grid every entry above 1e-12 of the largest
        # is positive.  A single step at a shift above the eigenvalue flips
        # the sign, and the prolonged start leaves tails of either sign
        # near 1e-120 at m = 91, beta = 2
        for m in (1, 10, 40, 91):
            params = ModeParams(m=m, N=0)
            for beta in (0.0, 0.45, -1.0, 2.0):
                _, _, vectors, _ = _ground_states(params, beta)
                for points, vec in zip(oracle.RICHARDSON_GRIDS, vectors):
                    largest = vec.max()
                    assert largest > 0.0 and vec.min() >= -1e-12 * largest, (m, beta, points)

    def test_unit_discrete_l2(self):
        grid = FdGrid(512)
        _, vec = solve(ModeParams(m=1, N=0), 0.1, grid)
        assert grid.h * np.sum(vec**2) == pytest.approx(1.0, rel=1e-12)

    def test_matches_series_eigenfunction(self, state_m1_n8):
        # cross-implementation agreement at beta = 0.2
        params, grid = ModeParams(m=1, N=8), FdGrid(2048)
        _, vec = solve(params, 0.2, grid)
        psi, _, _ = wavefunction_on_grid(state_m1_n8, 0.2, grid.thetas)
        psi = psi / (math.sqrt(grid.h) * np.linalg.norm(psi))
        assert np.max(np.abs(psi - vec)) < 5e-3

    def test_matches_series_eigenfunction_low_order(self):
        # the order-4 truncation already reproduces the discrete ground
        # state to 1e-3 at beta = 0.1 on a 2000-point grid
        state = compute_series(ModeParams(m=1, N=4))
        grid = FdGrid(2000)
        _, vec = solve(state.params, 0.1, grid)
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
        for t in (diagonal(params, beta, grid) - eigenvalue).tolist():
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

    @staticmethod
    def two_steps_at_4096_points(monkeypatch, m, beta):
        """The solver's vector on 4096 points seeded without a start, the
        shift of its two steps (the first from all-ones), and the system."""
        params, grid, shifts = ModeParams(m=m, N=0), FdGrid(4096), []
        step = oracle._inverse_step
        monkeypatch.setattr(oracle, "_inverse_step", lambda *args: shifts.append(args[2]) or step(*args))
        _, vec = solve(params, beta, grid)
        assert len(shifts) == 2 and shifts[0] == shifts[1]
        return vec, shifts[0], diagonal(params, beta, grid), -1.0 / grid.h**2, grid.h

    @pytest.mark.parametrize("beta", [0.0, 0.45, -1.0])
    @pytest.mark.parametrize("m", [1, 10, 40, 83])
    def test_two_steps_reach_the_converged_vector(self, monkeypatch, m, beta):
        # seeded without a start, the solver takes two steps at the shift
        # Newton leaves; six of the same steps reach convergence
        vec, shift, diag, off, h = self.two_steps_at_4096_points(monkeypatch, m, beta)
        x = np.ones(len(diag))
        for _ in range(6):
            x, _ = oracle._inverse_step(diag, off, shift, x)
            x = np.divide(x, np.linalg.norm(x))
        assert np.max(np.abs(vec - oracle._ground_vector(x, h))) < 1e-13

    @pytest.mark.parametrize("beta", [0.0, 0.45, -1.0])
    @pytest.mark.parametrize("m", [1, 10, 40, 83])
    def test_two_steps_reach_the_extended_precision_vector(self, monkeypatch, m, beta):
        # the same two steps against six in np.longdouble: a Thomas sweep
        # of every row, in float64, lay up to 9.2e-13 away (m = 1)
        vec, shift, diag, off, h = self.two_steps_at_4096_points(monkeypatch, m, beta)
        assert np.max(np.abs(vec - extended_steps(diag, off, shift, 6, h))) < 5e-13

    @pytest.mark.parametrize("beta", [0.0, 0.33, -0.4])
    @pytest.mark.parametrize("m", [1, 10, 40, 83])
    def test_two_steps_agree_with_the_extended_precision_loop(self, m, beta):
        # `_inverse_step` and `_ground_vector`, two steps from all-ones at
        # each finer grid's eigenvalue, against the same two steps in
        # np.longdouble: a Thomas sweep of every row, in float64, lay up
        # to 3.2e-13 away
        params = ModeParams(m=m, N=0)
        _, per_grid, _, _ = _ground_states(params, beta)
        for points in (1023, 2047):
            grid, shift = FdGrid(points), per_grid[points]
            diag, off = diagonal(params, beta, grid), -1.0 / grid.h**2
            x, _ = oracle._inverse_step(diag, off, shift, np.ones(points))
            x, _ = oracle._inverse_step(diag, off, shift, np.divide(x, np.linalg.norm(x)))
            reference = extended_steps(diag, off, shift, 2, grid.h)
            assert np.max(np.abs(oracle._ground_vector(x, grid.h) - reference)) < 1.5e-13, points

    @pytest.mark.parametrize("m, beta", [(1, 0.1), (40, 0.45), (91, -1.0)])
    def test_ground_vector_keeps_the_bytes_of_its_norm_form(self, m, beta):
        # the np.linalg.norm scaling, on one more step at each grid's
        # eigenvalue from its ground vector
        params = ModeParams(m=m, N=0)
        _, per_grid, vectors, _ = _ground_states(params, beta)
        for grid, vector in zip(oracle._GRIDS.values(), vectors):
            diag, off = diagonal(params, beta, grid).tolist(), -1.0 / grid.h**2
            x, _ = oracle._inverse_step(diag, off, per_grid[grid.points], vector.tolist())
            expected = np.array(x)
            peak = float(expected[np.argmax(np.abs(expected))])
            expected = np.ldexp(expected, -math.frexp(peak)[1])
            expected /= math.copysign(math.sqrt(grid.h) * np.linalg.norm(expected), peak)
            assert oracle._ground_vector(x, grid.h).tobytes() == expected.tobytes(), grid.points

    def test_vanishing_pivot_leaves_a_unit_vector(self, monkeypatch):
        # at this beta the 255-point grid's bisected eigenvalue makes a
        # pivot vanish, and the guarded step returns entries near 1e202:
        # their norm overflowed, and the vector came back all zeros
        params, grid, beta = ModeParams(m=1, N=0), oracle._COARSEST, 0.14237699852137253
        largest, step = [], oracle._inverse_step

        def recording(diag, off, shift, rhs):
            x, below = step(diag, off, shift, rhs)
            largest.append(max(map(abs, x)))
            return x, below

        monkeypatch.setattr(oracle, "_inverse_step", recording)
        shift = plain_bisection(params, beta, grid)
        _, vec = fd_ground_state(params, beta, grid, shift, np.ones(grid.points))
        assert largest[0] > 1e150
        assert grid.h * np.sum(vec**2) == pytest.approx(1.0, rel=1e-12) and np.all(vec > 0.0)
        with pytest.raises(OracleError, match="overflowed"):
            oracle._ground_vector([1.0, math.inf], grid.h)

    def test_excited_state_detected_as_nodal(self):
        # aiming inverse iteration at the second eigenvalue must trip the
        # nodeless check
        params = ModeParams(m=1, N=0)
        grid = FdGrid(256)
        e1 = dense_spectrum(params, 0.0, grid)[1]
        with pytest.raises(OracleError, match="sign"):
            fd_ground_state(params, 0.0, grid, e1, np.ones(grid.points))


class TestRefinedGrids:
    def test_prolongation(self):
        # fine node 2i+1 is coarse node i, an even node the mean of its
        # neighbours, the Dirichlet ends zero
        fine = oracle._prolong(np.array([2.0, 4.0, 8.0]))
        assert fine.tolist() == [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 4.0]

    def test_cubic_prolongation(self):
        # (-a + 9b + 9c - d)/16 at each even node, the vector continued
        # past each zero end by odd reflection; exact for a cubic inside
        fine = oracle._cubic_prolong(np.array([2.0, 4.0, 8.0]))
        assert fine.tolist() == [1.0, 2.0, 2.875, 4.0, 6.625, 8.0, 4.75]
        x = np.arange(1, 32) / 32.0
        cubic = lambda x: 3.0 * x**3 - x**2 + 0.5 * x - 2.0
        fine = oracle._cubic_prolong(cubic(x))
        inner = np.arange(3, 60)
        assert np.max(np.abs(fine[inner] - cubic((inner + 1) / 64.0))) < 1e-14

    def test_next_start_predicts_the_h4_value_and_the_h2_vector(self):
        # values s + a h^2 + b h^4 at h = 1, 1/2 give B = b/16 and the next
        # value s + a/16 + b/256, less delta/2.  Vectors
        # f + c h^2, f cubic and c linear, give f + c h^2/16 inside
        s, a, b = 1.5, -3.0, 2.0
        f = lambda x: 3.0 * x**3 - x**2 + 0.5 * x - 2.0
        c = lambda x: 4.0 * x - 1.0
        grids = [np.arange(1, n + 1) / (n + 1.0) for n in (15, 31, 63)]
        vectors = [f(x) + c(x) * h**2 for x, h in zip(grids, (1.0, 0.5))]
        shift, start = oracle._next_start(s, [s + a + b, s + a / 4 + b / 16], vectors)
        guess = s + a / 16 + b / 256
        assert shift == pytest.approx(guess - 1e-9 * guess / 2, abs=1e-15)
        inner = slice(5, -5)
        expected = f(grids[2]) + c(grids[2]) / 16.0
        assert np.max(np.abs(start[inner] - expected[inner])) < 1e-13
        # after one grid: the h^2 seed and the linear prolongation
        shift, start = oracle._next_start(s, [s + a], vectors[:1])
        assert shift == s + a / 4 and start.tobytes() == oracle._prolong(vectors[0]).tobytes()

    def test_rayleigh_quotient_is_the_operator_form(self):
        # v^T T v / v^T v on a small grid, T formed densely
        params, grid = ModeParams(m=2, N=0), FdGrid(63)
        weights = oracle._weights(params, 0.3, grid)
        vector = np.sin(np.arange(1, 64) * math.pi / 64) ** 3
        off = np.full(62, -1.0 / grid.h**2)
        dense = np.diag(diagonal(params, 0.3, grid)) + np.diag(off, 1) + np.diag(off, -1)
        expected = vector @ dense @ vector / (vector @ vector)
        value = oracle._rayleigh_quotient(vector, weights, grid.h)
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.45, -0.45, 1.0, -1.0])
    @pytest.mark.parametrize("m", [1, 10, 40, 91])
    def test_rayleigh_quotient_certified_within_delta_of_bisection(self, m, beta):
        # on every grid rho sits within delta of the bisected eigenvalue,
        # and no eigenvalue lies below rho - delta
        params = ModeParams(m=m, N=0)
        _, per_grid, _, _ = _ground_states(params, beta)
        for points, grid in oracle._GRIDS.items():
            rho = per_grid[points]
            delta = 1e-9 * max(1.0, abs(rho))
            assert abs(rho - plain_bisection(params, beta, grid)) <= delta, points
            diag = diagonal(params, beta, grid).tolist()
            assert _sturm_count(diag, (1.0 / grid.h**2) ** 2, rho - delta) == 0, points

    @pytest.mark.parametrize("beta", [0.0, 0.45, -0.45, 1.0, -1.0])
    @pytest.mark.parametrize("m", [1, 2, 5, 10, 20, 40, 91])
    def test_refined_vectors_are_the_converged_vectors(self, m, beta):
        # inverse iteration run to convergence at each grid's own rho;
        # measured at most 3.35e-13 away over |beta| <= 1 (m = 1,
        # beta = 0.45, the 2047-point grid)
        params = ModeParams(m=m, N=0)
        _, per_grid, vectors, _ = _ground_states(params, beta)
        for points, vec in zip(oracle.RICHARDSON_GRIDS, vectors):
            grid = oracle._GRIDS[points]
            reference = TestGroundEigenvector.six_step_reference(
                params, beta, grid, per_grid[points]
            )
            assert np.max(np.abs(vec - reference)) < 5e-13, points

    @pytest.mark.parametrize("beta", [10.0, -10.0, 30.0, -30.0, 50.0, -50.0])
    @pytest.mark.parametrize("m", [1, 2, 5, 10, 20, 40, 91])
    def test_vectors_and_estimate_past_the_judged_range(self, m, beta):
        # the two lowest eigenvalues can draw together at |beta| >= 10, so
        # one step at a shift within delta of rho leaves the vector short
        # of convergence, and the grid errors stop falling like h^2
        params = ModeParams(m=m, N=0)
        estimate, per_grid, vectors, spectral = _ground_states(params, beta)
        assert abs(estimate - spectral) <= 1e-4
        for points, vec in zip(oracle.RICHARDSON_GRIDS, vectors):
            grid = oracle._GRIDS[points]
            reference = TestGroundEigenvector.six_step_reference(
                params, beta, grid, per_grid[points]
            )
            assert np.max(np.abs(vec - reference)) < 1e-4, points

    @pytest.mark.parametrize("m, beta", [(1, 0.1), (40, 0.45), (91, -1.0)])
    def test_rayleigh_quotient_keeps_the_bytes_of_its_numpy_form(self, m, beta):
        # np.diff with zero ends and np.sum, whose pairwise sums a BLAS dot
        # does not reproduce, on every grid's ground vector
        params = ModeParams(m=m, N=0)
        _, _, vectors, _ = _ground_states(params, beta)
        for grid, vector in zip(oracle._GRIDS.values(), vectors):
            weights = oracle._weights(params, beta, grid)
            diff = np.diff(vector, prepend=0.0, append=0.0)
            square = vector * vector
            top = np.sum(diff * diff) / grid.h**2 + np.sum(weights * square)
            expected = float(top / np.sum(square))
            assert oracle._rayleigh_quotient(vector, weights, grid.h) == expected, grid.points

    def test_uncertified_quotient_raises(self, monkeypatch):
        # a count above 0 at rho - delta refuses the grid; at m = 20,
        # beta = 0 the 511-point grid's second step does not certify it,
        # and the grid takes a count
        monkeypatch.setattr(oracle, "_sturm_count", lambda diag, offsq, lam: 1)
        with pytest.raises(OracleError, match="not certified"):
            _ground_states(ModeParams(m=20, N=0), 0.0)

    def test_last_step_certifies_only_inside_its_bracket(self, monkeypatch):
        # a grid skips its Sturm count just when its last step's shift tau
        # had no pivot <= 0 and lies in [rho - delta, rho + delta].  The
        # 511-point grid's second step, at its first rho, can have no such
        # pivot and still lie above the second rho (m = 40, beta = 0.45)
        counter, last, step = SweepCounter(monkeypatch), {}, oracle._inverse_step

        def recording(diag, off, shift, rhs):
            x, below = step(diag, off, shift, rhs)
            last[len(diag)] = shift, below
            return x, below

        monkeypatch.setattr(oracle, "_inverse_step", recording)
        kinds = collections.Counter()
        for m, beta in ((1, 0.1), (10, 0.1), (20, 0.0), (40, 0.45)):
            counter.sweeps.clear()
            _, per_grid, _, _ = _ground_states(ModeParams(m=m, N=0), beta)
            for points, rho in per_grid.items():
                (shift, below), delta = last[points], 1e-9 * max(1.0, abs(rho))
                inside = rho - delta <= shift <= rho + delta
                kinds[below, inside, shift > rho] += 1
                swept = counter.sweeps["_sturm_count", points]
                assert swept == (0 if not below and inside else 1), (m, beta, points)
        assert kinds[0, True, False] and kinds[0, True, True] and kinds[1, True, False]

    def test_step_certificate_implies_a_zero_count(self, monkeypatch):
        # wherever the last step certifies a grid, tau above rho included,
        # the Sturm count at rho - delta finds no eigenvalue below it either
        last, step = {}, oracle._inverse_step

        def recording(diag, off, shift, rhs):
            x, below = step(diag, off, shift, rhs)
            last[len(diag)] = diag, off, shift, below
            return x, below

        monkeypatch.setattr(oracle, "_inverse_step", recording)
        certified = above = 0
        for m in (1, 2, 5, 10, 20, 40, 80, 91):
            for beta in (0.0, 0.1, 0.45, -0.45, 1.0, -1.0):
                _, per_grid, _, _ = _ground_states(ModeParams(m=m, N=0), beta)
                for points, rho in per_grid.items():
                    (diag, off, shift, below), delta = last[points], 1e-9 * max(1.0, abs(rho))
                    if below or not rho - delta <= shift <= rho + delta:
                        continue
                    certified += 1
                    above += shift > rho
                    assert _sturm_count(diag, off * off, rho - delta) == 0, (m, beta, points)
        assert (certified, above) == (159, 8)

    def test_step_count_above_zero_takes_one_sturm_count(self, monkeypatch):
        # at m = 2, beta = 0 the last step certifies every grid.
        # Made to report a pivot <= 0, each grid takes exactly one Sturm
        # count, which certifies the same values and vectors
        params, counter = ModeParams(m=2, N=0), SweepCounter(monkeypatch)
        estimate, per_grid, vectors, _ = _ground_states(params, 0.0)
        assert [counter.sweeps["_sturm_count", p] for p in oracle.RICHARDSON_GRIDS] == [0, 0, 0, 0]
        step = oracle._inverse_step
        monkeypatch.setattr(oracle, "_inverse_step", lambda *args: (step(*args)[0], 1))
        counter.sweeps.clear()
        forced = _ground_states(params, 0.0)
        assert [counter.sweeps["_sturm_count", p] for p in oracle.RICHARDSON_GRIDS] == [1, 1, 1, 1]
        assert forced[:2] == (estimate, per_grid)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(forced[2], vectors))

    def test_both_counts_above_zero_raise(self, monkeypatch):
        # the 1023-point grid at m = 2, beta = 0 is certified by its last
        # step alone, even with every Sturm count made 1; with the step's
        # count made 1 too, it is refused
        params, grid = ModeParams(m=2, N=0), oracle._GRIDS[1023]
        _, per_grid, vectors, spectral = _ground_states(params, 0.0)
        shift, start = oracle._next_start(spectral, [per_grid[255], per_grid[511]], vectors[:2])
        monkeypatch.setattr(oracle, "_sturm_count", lambda diag, offsq, lam: 1)
        assert fd_ground_state(params, 0.0, grid, shift, start)[0] == per_grid[1023]
        step = oracle._inverse_step
        monkeypatch.setattr(oracle, "_inverse_step", lambda *args: (step(*args)[0], 1))
        with pytest.raises(OracleError, match="not certified: 1 eigenvalue"):
            fd_ground_state(params, 0.0, grid, shift, start)

    def test_quotient_far_above_the_last_shift_is_not_certified_by_the_step(self, monkeypatch):
        # at m = 40, beta = 0.45 the 511-point grid takes two steps, and the
        # second, at the first rho, certifies the second rho.  Made to
        # report that rho 3 delta too high, the shift falls below rho -
        # delta: the step's pivots no longer bracket it, and the Sturm count
        # finds the eigenvalue below rho - delta
        params, grid = ModeParams(m=40, N=0), oracle._GRIDS[511]
        _, per_grid, vectors, spectral = _ground_states(params, 0.45)
        shift, start = oracle._next_start(spectral, [per_grid[255]], vectors[:1])
        counter = SweepCounter(monkeypatch)
        assert fd_ground_state(params, 0.45, grid, shift, start)[0] == per_grid[511]
        assert counter.sweeps["_inverse_step", 511] == 2
        assert not counter.sweeps["_sturm_count", 511]
        quotient, calls = oracle._rayleigh_quotient, []

        def raised(*args):
            calls.append(quotient(*args))
            return calls[-1] * (1.0 + 3e-9) if len(calls) == 2 else calls[-1]

        monkeypatch.setattr(oracle, "_rayleigh_quotient", raised)
        with pytest.raises(OracleError, match="not certified: 1 eigenvalue"):
            fd_ground_state(params, 0.45, grid, shift, start)

    def test_quotient_far_below_the_last_shift_takes_the_sturm_count(self, monkeypatch):
        # the same grid, its second rho made 3 delta too low: the shift then
        # lies above rho + delta, outside the step's bracket, and the grid
        # takes one Sturm count
        params, grid = ModeParams(m=40, N=0), oracle._GRIDS[511]
        _, per_grid, vectors, spectral = _ground_states(params, 0.45)
        shift, start = oracle._next_start(spectral, [per_grid[255]], vectors[:1])
        quotient, calls = oracle._rayleigh_quotient, []

        def lowered(*args):
            calls.append(quotient(*args))
            return calls[-1] * (1.0 - 3e-9) if len(calls) == 2 else calls[-1]

        monkeypatch.setattr(oracle, "_rayleigh_quotient", lowered)
        counter = SweepCounter(monkeypatch)
        assert fd_ground_state(params, 0.45, grid, shift, start)[0] == calls[1] * (1.0 - 3e-9)
        assert counter.sweeps["_inverse_step", 511] == 2
        assert counter.sweeps["_sturm_count", 511] == 1

    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_beta0_estimate_within_5e_12_of_e0(self, m):
        # bisected to 1e-13 inside the Sturm count's noise, the finer grids
        # left the estimate up to 5.6e-11 from the exact E0 (m = 2)
        estimate, _, _, _ = _ground_states(ModeParams(m=m, N=0), 0.0)
        assert abs(estimate - (m * m + m - 2)) <= 5e-12


class TestRichardson:
    def test_estimate_consistency(self):
        params = ModeParams(m=3, N=0)
        estimate, per_grid, _, _ = _ground_states(params, 0.1)
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
            estimate, _, _, _ = _ground_states(ModeParams(m=m, N=0), beta)
            assert abs(estimate - spectral_eigenvalue(m, beta)) <= 1e-7, beta

    def test_floats_match_pinned_digest(self):
        # sha256 of the repr of every (estimate, per-grid) pair
        text = "\n".join(
            repr(_ground_states(ModeParams(m, 0), beta)[:2])
            for m in (1, 10, 40, 80)
            for beta in (0.0, 0.33, -0.4, 2.0)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "11bd708acfbffd98668cfadece81232620073f43d89169e12b669e628f958092"
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

    # |beta| = 50 as well, past the judged range, where the spectral value
    # still seeds the grids: there 35 harmonics already miss the bound
    @pytest.mark.parametrize(
        "beta,m",
        [(beta, m) for beta in (0.0, 0.33, 1.0, 2.0) for m in (1, 10, 40, 80)]
        + [(beta, m) for beta in (50.0, -50.0) for m in (1, 2)],
    )
    def test_forty_harmonics_agree_with_eighty(self, m, beta):
        reference = spectral_reference(m, beta, 80)
        assert abs(spectral_eigenvalue(m, beta) - reference) <= 1e-12 * max(1.0, abs(reference))

    @pytest.mark.parametrize("beta", [0.0, 0.33, -0.4, 1.0, 2.0])
    def test_agrees_with_fd_richardson_at_m1(self, beta):
        # the FD oracle's own error at m = 1 is ~1e-10
        estimate, _, _, _ = _ground_states(ModeParams(m=1, N=0), beta)
        assert abs(spectral_eigenvalue(1, beta) - estimate) <= 1e-9

    def test_floats_match_pinned_hex(self):
        # sha256 of float.hex of each value, as when every call rebuilt the
        # beta-independent parts: caching them moves no bit
        text = " ".join(
            spectral_eigenvalue(m, beta).hex()
            for m in (1, 10, 40, 91)
            for beta in (0.0, 0.45, -0.45, 1.0, -1.0, 2.0)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ecc6b409e7364c14f9534cd82d8498c10bbc1f336ae1bc816b6aae9e9b84bb11"
        )

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
            "1be84ff34cf35b4759c10ed8659b4413329b80071437a46228949097f1dfaa67"
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

    def test_agreement_at_random_late_samples(self):
        # past pi/2, where the integral from 0 would leave A_n as the small
        # remainder of a cancellation; the distance from pi is drawn
        # log-uniformly down to 0.01, since A_n shrinks like a power of it
        states = {m: compute_series(ModeParams(m=m, N=8)) for m in range(1, 9)}
        rng = random.Random(20261021)
        for _ in range(20):
            m = rng.randint(1, 8)
            n = rng.randint(3, 8)
            theta = math.pi - math.exp(rng.uniform(math.log(0.01), math.log(math.pi / 2)))
            quad = quadrature_an(states[m], n, theta)
            closed = an_closed_form(states[m], n, theta)
            assert abs(quad - closed) <= 1e-8 * abs(closed), (m, n, theta)


class TestVerifyAll:
    def test_spherical_case_all_pass(self):
        reports = verify_all(ModeParams(m=1, N=3), [0.0])
        (report,) = reports
        assert report.passed is True
        assert report.abs_gap < 5e-5
        assert oracle_reasons(report) == {"eigenvalue_gap_fd_spectral": None}

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
        assert abs(report.numeric_value - finest) < abs(finest - coarsest)
        assert report.abs_gap == abs(report.series_value - report.numeric_value)
        assert report.passed is True

    def test_beta0_oracle_check_holds_the_estimate_to_e0(self):
        # at m = 10 the 2047-point grid alone lies 4.9e-4 from the exact E0;
        # the extrapolated value lies within 1e-6 of the spectral value,
        # which is E0 exactly at beta = 0
        (report,) = verify_all(ModeParams(m=10, N=8), [0.0])
        assert abs(report.grid_eigenvalues[-1] - 108.0) > 4e-4
        assert oracle_reasons(report) == {"eigenvalue_gap_fd_spectral": None}
        assert "eigenvalue_gap_fd_spectral" not in report.checks
        assert report.checks["eigenvalue_gap"] and report.passed is True

    @pytest.mark.parametrize("m", [1, 2, 10, 40, 91])
    def test_fd_spectral_check_passes_over_the_judged_range(self, m):
        # the estimate lies at most 1.3e-8 (m = 91) from the spectral value
        # at |beta| <= 1, against the 1e-6 bound
        for report in verify_all(ModeParams(m=m, N=4), [0.0, 0.45, -0.45, 1.0, -1.0]):
            assert report.error is None
            assert oracle_reasons(report) == {"eigenvalue_gap_fd_spectral": None}, report.beta

    @pytest.mark.parametrize("m", [1, 10, 40])
    def test_shifted_spectral_value_fails_the_oracle_check_only(self, m, monkeypatch):
        # a spectral value 2e-6 off fails the oracle check with its measured
        # gap and bound; the series' verdict does not read it
        def shifted(m, beta):
            return spectral_eigenvalue(m, beta) + 2e-6

        monkeypatch.setattr(oracle, "spectral_eigenvalue", shifted)
        (report,) = verify_all(ModeParams(m=m, N=8), [0.05])
        gap = abs(report.numeric_value - shifted(m, 0.05))
        assert 1.9e-6 < gap < 2.1e-6
        assert oracle_reasons(report) == {
            "eigenvalue_gap_fd_spectral": (
                f"the FD estimate lies {gap:.3g} from the spectral value, above 1e-06"
            )
        }
        assert report.passed is True

    def test_spectral_value_is_formed_once_per_case(self, monkeypatch):
        calls = []

        def counted(m, beta):
            calls.append(beta)
            return spectral_eigenvalue(m, beta)

        monkeypatch.setattr(oracle, "spectral_eigenvalue", counted)
        verify_all(ModeParams(m=2, N=4), [0.0, 0.1, -0.45])
        assert calls == [0.0, 0.1, -0.45]

    # one case per key in which the check reading it passes at its default
    # and fails with that key alone set to 0
    TOLERANCE_CASES = {
        "eigenvalue": (1, 8, "eigenvalue_gap"),
        "wavefunction": (1, 8, "wavefunction_gap"),
    }

    def test_every_tolerance_key_is_read_by_a_check(self):
        assert set(self.TOLERANCE_CASES) == set(DEFAULT_TOLERANCES)
        for key, (m, order, check) in self.TOLERANCE_CASES.items():
            params = ModeParams(m=m, N=order)
            (report,) = verify_all(params, [0.05])
            assert report.checks[check] and report.passed is True, key
            (report,) = verify_all(params, [0.05], tolerances={key: 0.0})
            assert not report.checks[check] and report.passed is False, key

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

    def test_state_of_other_params_refused(self, state_m1_n8):
        # the grids would solve one mode while the series describes another
        for params in (ModeParams(m=2, N=8), ModeParams(m=1, N=6)):
            message = f"the state was built for ModeParams(m=1, N=8), not for {params!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                verify_all(params, [0.1], state=state_m1_n8)

    def test_state_of_the_same_params_gives_the_reports_of_none(self, state_m1_n8):
        params = ModeParams(m=1, N=8)
        given = verify_all(params, [0.0, 0.1], state=state_m1_n8)
        assert repr(given) == repr(verify_all(params, [0.0, 0.1]))

    def test_second_case_reuses_the_grid_constants(self, monkeypatch):
        # a new beta at the same m forms no indicial correction and no
        # half-angle values of a grid or of the normalization rule
        params = ModeParams(m=3, N=2)
        state = compute_series(params)
        verify_all(params, [0.1], state=state)
        cached = (oracle._indicial_correction,)
        misses = [f.cache_info().misses for f in cached]
        sizes = []
        for module in (oracle, evaluate):

            def counting(theta, half_angle=module._half_angle):
                sizes.append(np.size(theta))
                return half_angle(theta)

            monkeypatch.setattr(module, "_half_angle", counting)
        verify_all(params, [0.2], state=state)
        assert [f.cache_info().misses for f in cached] == misses
        assert sizes == []

    def test_battery_floats_match_pinned_digest(self):
        # sha256 of the repr of every measured field of the reports over
        # the benchmark's verify-battery modes, so a change of speed that
        # moves any float or verdict shows
        views = (
            lambda r: r.series_value,
            lambda r: r.grid_eigenvalues,
            lambda r: r.wavefunction_gap,
            lambda r: r.checks,
            skip_reasons,
            oracle_reasons,
        )
        rows = [
            tuple(view(report) for view in views)
            for m in (1, 2, 5, 10, 20, 40)
            for beta in (0.0, 0.1, 0.45)
            for report in verify_all(ModeParams(m, 8), [beta])
        ]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "41e679b03bb4fc72380d9fcc162703084be62da3c168d10685186e48d06ff033"
        )

    @pytest.mark.parametrize("m", [1, 10, 91])
    @pytest.mark.parametrize("order", [0, 1, 2, 8])
    def test_every_check_is_judged_or_skipped(self, m, order):
        # each check of the series lands in `checks` or is skipped with its
        # reason; the exact Riccati check is judged at every N
        for report in verify_all(ModeParams(m, order), [0.0, 0.05, -0.45, 1.5, 10.0]):
            assert report.error is None, report.beta
            for name in ("eigenvalue_gap", "wavefunction_gap", "riccati_defect"):
                skipped = name in skip_reasons(report)
                assert (name in report.checks) != skipped, (name, report.beta)
            assert report.checks["riccati_defect"] is True, report.beta

    @pytest.mark.parametrize("m", [1, 2, 10, 40, 91])
    def test_oracle_error_fails_no_report(self, m):
        # far past the judged range the FD oracle fails at some betas at
        # every m; such a report keeps its series checks, names the error in
        # its oracle check, and is FAIL only if a series check failed
        sizes = (10, 30, 100, 150, 300, 1e3, 1e6, 1e150)
        betas = [sign * size for size in sizes for sign in (1, -1)]
        reports = verify_all(ModeParams(m, 8), betas)
        assert any(r.error is not None for r in reports)
        for r in reports:
            assert r.passed is not False or not all(r.checks.values()), r.beta
            assert r.checks["riccati_defect"] is True, r.beta
            if r.error is not None:
                (spectral,) = (c for c in r.records if c.oracle)
                assert (spectral.status, spectral.reason) == ("error", r.error), r.beta
                assert set(skip_reasons(r)) == {"eigenvalue_gap", "wavefunction_gap"}, r.beta

    def test_oracle_error_keeps_the_series_value(self):
        # the FD oracle fails at m = 2, beta = -100; the report keeps the
        # series' E(beta), and what the oracle would have measured stays NaN
        params = ModeParams(2, 8)
        (report,) = verify_all(params, [-100.0])
        assert report.error is not None
        assert report.series_value == eval_energy(compute_series(params), -100.0)
        assert 7.3e10 < report.series_value < 7.32e10
        assert all(math.isnan(v) for v in (report.numeric_value, report.abs_gap, report.rel_gap))

    def test_readme_check_list_names_the_checks_verify_all_forms(self):
        # README's check list, one `name` (series|oracle) per bullet, read
        # against the records of a report, so that the list cannot drift
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n### Checks\n", 1)[1].split("\n## ", 1)[0]
        listed = re.findall(r"^- `(\w+)` \((series|oracle)\)", section, re.M)
        judged, failed = verify_all(ModeParams(2, 4), [0.1, -100.0])
        assert judged.error is None and failed.error is not None
        for report in (judged, failed):
            assert listed == [(c.name, "oracle" if c.oracle else "series") for c in report.records]

    # the verdict grid's FAILs, (m, N, beta): series truncation, each on
    # the eigenvalue gap alone
    VERDICT_FAILS = {(1, 4, 0.45), (1, 4, 1.0), (1, 8, 1.0), (5, 4, 0.45), (5, 4, 1.0), (10, 4, 1.0)}

    def test_verdict_grid_keeps_66_passes_and_6_truncation_fails(self):
        reports = [
            report
            for m in (1, 5, 10, 20, 40, 80)
            for order in (4, 8, 16)
            for report in verify_all(ModeParams(m, order), [0.0, 0.05, 0.45, 1.0])
        ]
        assert len(reports) == 72 and all(report.error is None for report in reports)
        fails = {(r.m, r.order, r.beta) for r in reports if r.passed is False}
        assert fails == self.VERDICT_FAILS
        assert sum(report.passed is True for report in reports) == 66
        for r in reports:
            failed = {name for name, ok in r.checks.items() if not ok}
            assert failed == ({"eigenvalue_gap"} if (r.m, r.order, r.beta) in fails else set())
            assert oracle_reasons(r) == {"eigenvalue_gap_fd_spectral": None}, (r.m, r.order, r.beta)
        assert all(report.checks["riccati_defect"] for report in reports)

    def test_verdict_grid_verdicts_derive_from_the_records(self):
        # over the verdict grid's 72 reports: each check name occurs once,
        # `passed` is whether every series record that ran passed (None
        # past |beta| = 1), no oracle record moves it, and `checks`, which
        # perfbench's tracer reads, is the map the reports kept before
        # they held records, key for key and in order
        reports = [
            report
            for m in (1, 5, 10, 20, 40, 80)
            for order in (4, 8, 16)
            for report in verify_all(ModeParams(m, order), [0.0, 0.05, 0.45, 1.0])
        ]
        for r in reports:
            names = [c.name for c in r.records]
            assert len(names) == len(set(names)) == 4, names
            ran = [c.status for c in r.records if not c.oracle and c.status != "skipped"]
            assert r.passed is all(status == "pass" for status in ran)
            assert dataclasses.replace(r, beta=-1.5).passed is None
            flipped = tuple(
                c._replace(status="pass" if c.status == "fail" else "fail") if c.oracle else c
                for c in r.records
            )
            assert dataclasses.replace(r, records=flipped).passed is r.passed
        rows = [list(r.checks.items()) for r in reports]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "ad1c671f0582216e0c3bf3a0f179bc77c451bff103c8e217c3d3c2a6e4d08fa0"
        )


def report_fields(report):
    """Each field of a report, floats (also those in tuples and records) as
    their bytes, so that equal fields mean equal bits, NaN included."""

    def bits(value):
        if isinstance(value, float):
            return struct.pack("<d", value)
        if isinstance(value, tuple):
            return tuple(bits(item) for item in value)
        return value

    return {f.name: bits(getattr(report, f.name)) for f in dataclasses.fields(report)}


class TestSeriesCache:
    """`verify_all` given no state keeps the series it builds, with its
    floats and Riccati verdict (`oracle._series`); nothing else is kept."""

    @staticmethod
    def count_builds(monkeypatch) -> list:
        """The orders `recurrence.advance` builds from now on."""
        built, advance = [], recurrence.advance
        monkeypatch.setattr(recurrence, "advance", lambda s: built.append(s) or advance(s))
        return built

    @pytest.mark.parametrize("m", [1, 2, 5, 10, 20, 40])
    def test_cold_warm_and_given_state_give_the_same_reports(self, m, monkeypatch):
        params, betas = ModeParams(m, 8), [0.0, 0.1, 0.45]
        built = self.count_builds(monkeypatch)
        oracle._series.cache_clear()
        cold = verify_all(params, betas)
        assert len(built) == 8
        warm = verify_all(params, betas)
        assert len(built) == 8  # the kept series, not a second build
        given = verify_all(params, betas, state=compute_series(params))
        for reports in (warm, given):
            assert [report_fields(r) for r in reports] == [report_fields(r) for r in cold]
            assert [r.records for r in reports] == [r.records for r in cold]
        assert all(r.passed is True for r in cold)

    def test_given_state_is_judged_when_its_mode_is_kept(self, nudged_entry):
        # the kept series of (40, 8) passes; a state for the same params with
        # one part in 10^12 of W_5's b_1 moved still fails on riccati_defect
        params = ModeParams(40, 8)
        (kept,) = verify_all(params, [0.05])
        assert kept.passed is True and kept.checks["riccati_defect"] is True
        bad = nudged_entry(compute_series(params), 5, "b", 0)
        (report,) = verify_all(params, [0.05], state=bad)
        (riccati,) = (c for c in report.records if c.name == "riccati_defect")
        assert (riccati.value, riccati.status, report.passed) == (5, "fail", False)
        (again,) = verify_all(params, [0.05])
        assert report_fields(again) == report_fields(kept)

    def test_a_build_that_raises_is_not_kept(self, monkeypatch):
        params = ModeParams(3, 5)
        oracle._series.cache_clear()

        def broken(state):
            raise SeriesInconsistencyError("order 1: a failed build")

        monkeypatch.setattr(recurrence, "advance", broken)
        with pytest.raises(SeriesInconsistencyError, match="a failed build"):
            verify_all(params, [0.1])
        monkeypatch.undo()
        (report,) = verify_all(params, [0.1])
        assert report.passed is True

    def test_compute_series_and_coeffs_build_every_time(self, monkeypatch, capsys):
        params = ModeParams(2, 8)
        built = self.count_builds(monkeypatch)
        assert compute_series(params) == compute_series(params)
        assert len(built) == 16
        outputs = []
        for _ in range(2):
            assert cli.main(["coeffs", "--m", "2", "--order", "8"]) == 0
            outputs.append(capsys.readouterr().out)
        assert len(built) == 32 and outputs[0] == outputs[1]

    def test_the_cache_is_bounded(self):
        oracle._series.cache_clear()
        for m in range(1, 2 * oracle._SERIES_CACHED + 1):
            oracle._series(ModeParams(m, 0))
        info = oracle._series.cache_info()
        assert info.maxsize == info.currsize == oracle._SERIES_CACHED < math.inf


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
            estimate, _, _, _ = _ground_states(state.params, beta)
            inferred = (estimate - eval_energy(state, beta, 4)) / beta**5
            assert 0.8 <= inferred / exact <= 1.2


class TestRiccatiDefect:
    @pytest.mark.parametrize("m", [1, 2, 10, 40, 91])
    @pytest.mark.parametrize("order", [0, 1, 2, 8, 16])
    def test_every_order_vanishes(self, m, order):
        assert riccati_defect(compute_series(ModeParams(m, order))) is None

    @pytest.mark.parametrize("m", [1, 40])
    def test_nudged_entry_gives_its_order(self, m, nudged_entry):
        # every a/b entry of W_1 .. W_8 and every E_0 .. E_8, one at a time
        state = compute_series(ModeParams(m, 8))
        nudges = [(n, None, 0) for n in range(9)]
        for n, t in enumerate(state.orders, start=1):
            nudges += [(n, "a", i) for i in range(len(t.a_num))]
            nudges += [(n, "b", i) for i in range(len(t.b_num))]
        assert len(nudges) == 45
        for n, table, i in nudges:
            assert riccati_defect(nudged_entry(state, n, table, i)) == n, (n, table, i)
