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
from dataclasses import dataclass, field
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


def _numerators(values: tuple, den: int) -> tuple:
    """den * v for every entry, as integers (den is a common denominator)."""
    return tuple(v.numerator * (den // v.denominator) for v in values)


@dataclass(frozen=True)
class WnTable:
    """Sine-polynomial table of one super-potential order n >= 1:

        W_n(theta) = cos(theta) * sum_k a[k-1] sin^(2k-1)(theta)
                     + sum_k b[k-1] sin^(2k-1)(theta)

    with a dense over k = 1..n//2 and b over k = 1..(n+1)//2.

    The same order is also held fraction-free, derived once here: `den` is
    the least common denominator of all entries, and `a_num`/`b_num` hold
    den * a[k-1] and den * b[k-1] at the same indices.
    """

    n: int
    a: tuple
    b: tuple
    den: int = field(init=False, repr=False, compare=False)
    a_num: tuple = field(init=False, repr=False, compare=False)
    b_num: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"order must be >= 1, got {self.n}")
        den = math.lcm(*(v.denominator for v in (*self.a, *self.b)))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "a_num", _numerators(self.a, den))
        object.__setattr__(self, "b_num", _numerators(self.b, den))


@dataclass(frozen=True)
class EnergySeries:
    """Ground-eigenvalue series coefficients; index = power of the
    spheroidicity parameter."""

    coeffs: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("energy series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Rational:
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)


# ---------------------------------------------------------------------------
# Coefficient-table file format (consumed and produced by the CLI).
#
# A structured text document with fields m, N, an "energy" array of
# "num/den" strings, and one object per order {n, a: {k: "num/den"},
# b: {k: "num/den"}}.  Rationals are never serialized as floating point.
# ---------------------------------------------------------------------------


def tables_to_text(m: int, energy: EnergySeries, orders) -> str:
    doc = {
        "m": m,
        "N": energy.order,
        "energy": [format_rational(c) for c in energy.coeffs],
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


def tables_from_text(text: str):
    """Parse the coefficient-table format; returns (params, energy, orders)."""
    doc = json.loads(text)
    params = ModeParams(m=doc["m"], N=doc["N"])
    energy = EnergySeries(tuple(parse_rational(c) for c in doc["energy"]))
    orders = [
        WnTable(
            n=entry["n"],
            a=_dense_entries(entry["a"], entry["n"] // 2, "a"),
            b=_dense_entries(entry["b"], (entry["n"] + 1) // 2, "b"),
        )
        for entry in doc["orders"]
    ]
    if energy.order != params.N or len(orders) != params.N:
        raise ValueError("table document is inconsistent: N does not match contents")
    return params, energy, orders
