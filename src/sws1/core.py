"""Exact-rational coefficient tables shared by all series orders.

Once the azimuthal index m is fixed, every coefficient produced by the
recurrences (energy coefficients, the sine-polynomial tables of each
super-potential order, convolution sources, antiderivative tables) is a
rational number, so the whole data model is exact.  Floating point enters
only at evaluation time.

Every table is a dense tuple over its whole support, indexed from the
bottom of that support; exact zeros inside the support are kept.  They
are dropped only in the table document written here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

_ZERO = Fraction(0)


def format_rational(value: Rational) -> str:
    """Serialize as "num/den" with a decimal-integer numerator and positive
    decimal-integer denominator (never floating point)."""
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Rational:
    """Inverse of :func:`format_rational`; exact round trip, in lowest
    terms with a positive denominator (a zero denominator raises
    ZeroDivisionError)."""
    num, sep, den = text.partition("/")
    if not sep:
        raise ValueError(f"rational must look like 'num/den', got {text!r}")
    return Fraction(int(num), int(den))


@dataclass(frozen=True)
class ModeParams:
    """Problem instance of spin weight 1: azimuthal index m and series
    truncation order N.

    m >= 1 is required: the recurrence denominators m, m+1, 2m+1, 2m+3,
    m+p-1, 2m+2p, 2m+2j are then all positive.  The spheroidicity
    parameter is supplied at evaluation time, not stored here.
    """

    m: int
    N: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 1:
            raise ValueError(f"m must be an integer >= 1, got {self.m!r}")
        if not isinstance(self.N, int) or isinstance(self.N, bool) or self.N < 0:
            raise ValueError(f"truncation order N must be an integer >= 0, got {self.N!r}")


# Tolerances of the verification battery.  The oracle judges by them and
# the CLI parser names their keys, so they live here, where reading them
# loads no numpy.
DEFAULT_TOLERANCES = {
    "eigenvalue": 1e-6,  # series partial sum vs Richardson-extrapolated value
    "eigenvalue_beta0": 5e-5,  # finest grid alone vs the exact E0 at beta = 0: an oracle check
    "wavefunction": 1e-3,  # max-norm vs the extrapolated eigenvector on the shared nodes
    "residual_slope_below": 0.3,  # slope may undershoot N+1 by this much
    "residual_slope_above": 0.7,  # and overshoot by this much
}

# Above this |beta| series truncation dominates every tolerance: the
# oracle reports its gaps there without a pass/fail verdict, and the CLI
# warns that it does.
JUDGED_BETA_LIMIT = 1.0


def _numerators(values: tuple, den: int) -> tuple:
    """den * v for every entry, as integers (den is a common denominator)."""
    return tuple(v.numerator * (den // v.denominator) for v in values)


@dataclass(frozen=True)
class WnTable:
    """Sine-polynomial table of one super-potential order n >= 1:

        W_n(theta) = cos(theta) * sum_k a[k-1] sin^(2k-1)(theta)
                     + sum_k b[k-1] sin^(2k-1)(theta)

    with a dense over k = 1..n//2 and b over k = 1..(n+1)//2.

    The order is stored once, fraction-free: a_num[k-1] / den and
    b_num[k-1] / den are the entries.  Construction puts the table in
    lowest terms, den > 0 and gcd(den, *a_num, *b_num) = 1, so den is the
    least common denominator of the entries and two tables of the same
    order are equal exactly when their entries are.  `a` and `b` are
    Fraction views of the entries, computed on access.
    """

    n: int
    a_num: tuple
    b_num: tuple
    den: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"order must be >= 1, got {self.n}")
        if self.den == 0:
            raise ZeroDivisionError(f"order {self.n} has denominator zero")
        g = math.gcd(self.den, *self.a_num, *self.b_num)
        g = -g if self.den < 0 else g
        object.__setattr__(self, "den", self.den // g)
        object.__setattr__(self, "a_num", tuple(v // g for v in self.a_num))
        object.__setattr__(self, "b_num", tuple(v // g for v in self.b_num))

    @property
    def a(self) -> tuple:
        return tuple(Fraction(v, self.den) for v in self.a_num)

    @property
    def b(self) -> tuple:
        return tuple(Fraction(v, self.den) for v in self.b_num)


# ---------------------------------------------------------------------------
# Coefficient-table file format (consumed and produced by the CLI).
#
# A structured text document with fields m, N, an "energy" array of
# "num/den" strings, and one object per order {n, a: {k: "num/den"},
# b: {k: "num/den"}}.  Rationals are never serialized as floating point.
# ---------------------------------------------------------------------------


def tables_to_text(m: int, energy: tuple, orders) -> str:
    """The document of a series: energy[n] the n-th energy coefficient,
    orders the tables W_1 .. W_N."""
    doc = {
        "m": m,
        "N": len(energy) - 1,
        "energy": [format_rational(c) for c in energy],
        "orders": [
            {
                "n": t.n,
                "a": {str(k): format_rational(v) for k, v in enumerate(t.a, start=1) if v},
                "b": {str(k): format_rational(v) for k, v in enumerate(t.b, start=1) if v},
            }
            for t in orders
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _dense_entries(entries: dict, top: int, what: str) -> tuple:
    """Dense table over k = 1..top from a document's {k: "num/den"} map;
    absent keys are exact zero, keys outside 1..top are rejected."""
    values = [_ZERO] * top
    for key, text in entries.items():
        k = int(key)
        if not 1 <= k <= top:
            raise ValueError(f"{what}[{k}] lies outside the support 1..{top}")
        values[k - 1] = parse_rational(text)
    return tuple(values)


def _order_from_entry(entry: dict) -> WnTable:
    """One order of a document, lifted over the lcm of its denominators."""
    n = entry["n"]
    a = _dense_entries(entry["a"], n // 2, "a")
    b = _dense_entries(entry["b"], (n + 1) // 2, "b")
    den = math.lcm(*(v.denominator for v in a + b))
    return WnTable(n, _numerators(a, den), _numerators(b, den), den)


def tables_from_text(text: str):
    """Parse the coefficient-table format; returns (params, energy, orders),
    energy a tuple of Fractions.  A document whose energy list does not
    run over orders 0..N, or whose tables are not W_1 .. W_N in order, is
    refused."""
    doc = json.loads(text)
    params = ModeParams(m=doc["m"], N=doc["N"])
    energy = tuple(parse_rational(c) for c in doc["energy"])
    orders = [_order_from_entry(entry) for entry in doc["orders"]]
    if len(energy) != params.N + 1 or [t.n for t in orders] != list(range(1, params.N + 1)):
        raise ValueError("table document is inconsistent: N does not match contents")
    return params, energy, orders
