"""The three benchmark workloads and the checks on their outputs.

Each workload draws its inputs from a `random.Random` seeded with the
workload name and the run seed, hands the program only those inputs, and
splits the work into passes: a pass is a fixed, seeded list of operations
whose mix is the same every time, so that medians over whole passes do
not depend on where a run happens to stop.

Every operation has a check, run outside its timing.  A check returns
"ok", "not-judged", or "fail: <reason>"; an operation that raises or
overruns its deadline fails too.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from sws1 import cli, core, evaluate, oracle, recurrence
from sws1.core import ModeParams

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


@dataclass
class Op:
    """One operation: `run` is timed, `check` judges its output."""

    label: str  # names this operation in the report
    case: str  # the class of operations the reference facts are keyed by
    inputs: tuple  # the seeded inputs, for the record and the tests
    run: Callable[[], object]
    check: Callable[[object], str]
    deadline_s: float | None = None


def _fail(reason: str) -> str:
    return f"fail: {reason}"


class CoeffsExport:
    """`sws1 coeffs` in-process for three modes, each file re-parsed.

    The modes vary both the number of orders and the size of the numbers,
    so a representation that wins on many small orders but loses on large
    integers shows here.  The tables must stay bit-identical: each file's
    sha256 must equal the digest recorded in reference.json.
    """

    name = "coeffs-export"
    trace_passes = 1
    MODES = ((1, 48), (2, 40), (20, 32))

    def __init__(self, seed: int, workdir: Path, modes=MODES, digests=None) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = Path(workdir)
        self.modes = tuple(modes)
        self.digests = REFERENCE["coeffs_sha256"] if digests is None else digests

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def next_pass(self) -> list[Op]:
        order = list(self.modes)
        self.rng.shuffle(order)
        return [self._op(m, n_order) for m, n_order in order]

    def _op(self, m: int, n_order: int) -> Op:
        key = f"m={m},N={n_order}"
        path = self.workdir / f"coeffs-m{m}-N{n_order}.txt"

        def run():
            code = cli.main(["coeffs", "--m", str(m), "--order", str(n_order), "--out", str(path)])
            data = path.read_bytes()
            return code, data, core.tables_from_text(data.decode())

        def check(out) -> str:
            code, data, (params, energy, orders) = out
            if code != 0:
                return _fail(f"exit status {code}")
            expected = self.digests.get(key)
            if expected is None:
                return _fail(f"no reference digest for {key}")
            if hashlib.sha256(data).hexdigest() != expected:
                return _fail("sha256 differs from the reference digest")
            if (params.m, params.N, len(orders)) != (m, n_order, n_order):
                return _fail("re-parsed tables do not match the requested mode")
            return "ok"

        return Op(f"coeffs {key}", f"coeffs {key}", (m, n_order), run, check)


class _ExactSeries:
    """The series of one mode in exact rationals, read from the coefficient
    table text, to recompute W and E without the float code."""

    def __init__(self, text: str) -> None:
        doc = json.loads(text)
        self.m = doc["m"]
        self.energy = [Fraction(e) for e in doc["energy"]]
        self.a = [{int(k): Fraction(v) for k, v in o["a"].items()} for o in doc["orders"]]
        self.b = [{int(k): Fraction(v) for k, v in o["b"].items()} for o in doc["orders"]]

    def energy_at(self, beta: float) -> tuple[Fraction, Fraction]:
        """E(beta) and the sum of the magnitudes of its terms."""
        b = Fraction(beta)
        terms = [e * b**n for n, e in enumerate(self.energy)]
        return sum(terms), sum(abs(t) for t in terms)

    def w_at(self, beta: float, theta: float) -> tuple[Fraction, Fraction]:
        """W(theta; beta) at the float inputs, and the magnitude of W_0.

        W_0 = -(1 + (m + 1/2) cos)/sin, and order n adds
        beta^n (cos * sum_k a_k sin^(2k-1) + sum_k b_k sin^(2k-1)).
        """
        b = Fraction(beta)
        s = Fraction(math.sin(theta))
        c = Fraction(math.cos(theta))
        w0_scale = (1 + Fraction(2 * self.m + 1, 2) * abs(c)) / s
        total = -(1 + Fraction(2 * self.m + 1, 2) * c) / s
        bn = Fraction(1)
        for a_n, b_n in zip(self.a, self.b):
            bn *= b
            acc_a = sum(v * s ** (2 * k - 1) for k, v in a_n.items())
            acc_b = sum(v * s ** (2 * k - 1) for k, v in b_n.items())
            total += bn * (c * acc_a + acc_b)
        return total, w0_scale


class EvalSweep:
    """What `sws1 eval` computes on the 4096-point grid, one seeded beta per
    operation, for two modes whose series are built during set-up.

    Two of the three operations in a pass use (1, 32), so the median
    latency falls inside one mode.  W is recomputed at seeded grid angles
    by an exact-rational sum over the coefficient tables; float outputs are
    not digest-checked because their last bits may legitimately change.
    """

    name = "eval-sweep"
    trace_passes = 20
    MODES = ((1, 32), (1, 32), (20, 16))
    GRID_POINTS = 4096
    CHECK_ANGLES = 3
    W_TOL = 1e-12  # |W_float - W_exact| / (|W_0| at the same angle)
    E_TOL = 1e-13  # |E_float - E_exact| / sum of |E_n beta^n|
    NORM_TOL = 1e-5  # |h * sum(psi^2) - 1| on the interior grid

    def __init__(self, seed: int, workdir: Path | None = None, modes=MODES) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.modes = tuple(modes)
        self.states: dict = {}
        self.exact: dict = {}

    def prepare(self) -> None:
        for mode in self.modes:
            if mode not in self.states:
                self.states[mode] = recurrence.compute_series(ModeParams(*mode))

    def next_pass(self) -> list[Op]:
        ops = []
        for mode in self.modes:
            beta = 0.5 * (1.0 - self.rng.random())  # in (0, 0.5]
            angles = tuple(sorted(self.rng.sample(range(self.GRID_POINTS), self.CHECK_ANGLES)))
            ops.append(self._op(mode, beta, angles))
        return ops

    def _exact(self, mode) -> _ExactSeries:
        if mode not in self.exact:
            state = self.states[mode]
            self.exact[mode] = _ExactSeries(core.tables_to_text(mode[0], state.energy, state.orders))
        return self.exact[mode]

    def _op(self, mode, beta: float, angles: tuple) -> Op:
        m, n_order = mode

        def run():
            state = self.states[mode]
            thetas = evaluate.uniform_interior_grid(self.GRID_POINTS)
            psi, theta_big, _ = evaluate.wavefunction_on_grid(state, beta, thetas)
            w = evaluate.w_on_grid(state, beta, thetas)
            residual = evaluate.riccati_residual_on_grid(state, beta, thetas)
            e0 = evaluate.eval_energy(state, beta)
            return thetas, psi, theta_big, w, residual, e0

        def check(out) -> str:
            thetas, psi, theta_big, w, residual, e0 = out
            arrays = (thetas, psi, theta_big, w, residual)
            if any(len(x) != self.GRID_POINTS or not np.all(np.isfinite(x)) for x in arrays):
                return _fail("an output array has the wrong length or a non-finite entry")
            if not np.all(psi > 0.0):
                return _fail("the ground eigenfunction is not positive on the grid")
            norm = float(np.sum(psi * psi)) * math.pi / (self.GRID_POINTS + 1)
            if abs(norm - 1.0) > self.NORM_TOL:
                return _fail(f"psi is not normalized: integral {norm!r}")
            exact = self._exact(mode)
            e_exact, e_scale = exact.energy_at(beta)
            if abs(Fraction(e0) - e_exact) > self.E_TOL * e_scale:
                return _fail(f"E0 {e0!r} differs from the exact partial sum")
            for i in angles:
                w_exact, scale = exact.w_at(beta, float(thetas[i]))
                if abs(Fraction(float(w[i])) - w_exact) > self.W_TOL * scale:
                    return _fail(f"W at grid index {i} differs from the exact sum")
            return "ok"

        label = f"eval m={m} N={n_order} beta={beta!r}"
        return Op(label, f"eval m={m} N={n_order}", (m, n_order, beta, angles), run, check)


class VerifyBattery:
    """`verify_all` at N = 8 over six modes, one case per operation, plus
    one seeded quadrature-vs-closed-form sample per pass.

    At these beta the series truncation |E_9| beta^9 is at most 4e-8, far
    below the 1e-6 tolerance, so the true verdict of every case is PASS and
    every FAIL is a wrong answer.  NOT-JUDGED is not a failure.  The wrong
    answers recorded in reference.json lower `ok_share`; any other one also
    counts in `failed`.
    """

    name = "verify-battery"
    trace_passes = 8
    MODES = (1, 2, 5, 10, 20, 40)
    ORDER = 8
    SEEDED_BETAS = 2  # per mode and pass, besides beta = 0
    QUAD_MODES = range(3, 9)
    QUAD_ORDERS = range(3, 9)
    QUAD_THETA = (0.2, math.pi - 0.2)
    # theta is drawn from equal strata of QUAD_THETA, each once in a seeded
    # order per QUAD_STRATA passes, so that the share of samples late in
    # (0, pi) is nearly the same in every run.
    QUAD_STRATA = 8
    QUAD_RTOL = 1e-8  # the bound of the acceptance test on the same comparison
    # quadrature_an can recurse without end late in (0, pi) (theta above
    # about 2.65); such a sample fails when it overruns this deadline.
    QUAD_DEADLINE_S = 3.0

    def __init__(self, seed: int, workdir: Path | None = None) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.quad_states: dict = {}
        self.quad_strata: list[int] = []

    def prepare(self) -> None:
        for m in self.QUAD_MODES:
            self.quad_states[m] = recurrence.compute_series(ModeParams(m, self.ORDER))

    def next_pass(self) -> list[Op]:
        ops = []
        for m in self.MODES:
            betas = [0.0] + [0.5 * (1.0 - self.rng.random()) for _ in range(self.SEEDED_BETAS)]
            ops.extend(self._case(m, beta) for beta in betas)
        if not self.quad_strata:
            self.quad_strata = list(range(self.QUAD_STRATA))
            self.rng.shuffle(self.quad_strata)
        lo, hi = self.QUAD_THETA
        theta = lo + (self.quad_strata.pop() + self.rng.random()) * (hi - lo) / self.QUAD_STRATA
        m = self.rng.choice(self.QUAD_MODES)
        n = self.rng.choice(self.QUAD_ORDERS)
        ops.append(self._quadrature(m, n, theta))
        return ops

    def _case(self, m: int, beta: float) -> Op:
        def run():
            return oracle.verify_all(ModeParams(m, self.ORDER), [beta])

        def check(reports) -> str:
            (report,) = reports
            if report.error is not None:
                return _fail(f"error {report.error}")
            if report.passed is None:
                return "not-judged"
            if report.passed:
                return "ok"
            return _fail("FAIL " + ",".join(sorted(k for k, ok in report.checks.items() if not ok)))

        case = f"verify m={m} beta{'=0' if beta == 0.0 else '>0'}"
        return Op(f"verify m={m} beta={beta!r}", case, (m, beta), run, check)

    def _quadrature(self, m: int, n: int, theta: float) -> Op:
        def run():
            state = self.quad_states[m]
            return oracle.quadrature_an(state, n, theta), oracle.an_closed_form(state, n, theta)

        def check(out) -> str:
            quad, closed = out
            rel = abs(quad - closed) / abs(closed)
            return "ok" if rel <= self.QUAD_RTOL else _fail(f"relative gap {rel:.3e}")

        label = f"quadrature m={m} n={n} theta={theta!r}"
        return Op(label, "quadrature", (m, n, theta), run, check, deadline_s=self.QUAD_DEADLINE_S)


WORKLOADS = {w.name: w for w in (CoeffsExport, EvalSweep, VerifyBattery)}


def is_known(case: str, outcome: str) -> bool:
    """Whether a failure is one recorded in reference.json for this case:
    the failed checks must be among the recorded ones."""
    known = REFERENCE["known_failures"].get(case)
    if known is None or not outcome.startswith("fail: "):
        return False
    reason = outcome[len("fail: "):]
    if reason.startswith("FAIL "):
        return set(reason[len("FAIL "):].split(",")) <= set(known)
    return reason.split(" ")[0] in known
