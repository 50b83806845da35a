"""Exact-rational coefficient tables shared by all series orders.

Once the azimuthal index m is fixed, every coefficient produced by the
recurrences (energy coefficients, the sine-polynomial tables of each
super-potential order, convolution sources, antiderivative tables) is a
rational number, so the whole data model is exact.  Floating point enters
only at evaluation time.

All table indices are stored sparsely; lookups outside the stored support
return exact zero, which lets the recurrences reference out-of-range
indices freely.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

Rational = Fraction

_ZERO = Fraction(0)


def normalize_rational(num: int, den: int) -> Rational:
    """Exact rational num/den in lowest terms with positive denominator.

    Raises ZeroDivisionError when den == 0; a zero denominator is never
    turned into a silent value.
    """
    return Fraction(num, den)


def format_rational(value: Rational) -> str:
    """Serialize as "num/den" with a decimal-integer numerator and positive
    decimal-integer denominator (never floating point)."""
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Rational:
    """Inverse of :func:`format_rational`; exact round trip."""
    num, sep, den = text.partition("/")
    if not sep:
        raise ValueError(f"rational must look like 'num/den', got {text!r}")
    return Fraction(int(num), int(den))


@dataclass(frozen=True)
class ModeParams:
    """Problem instance: azimuthal index m, spin weight (fixed at 1) and
    series truncation order N.

    m >= 1 is required: the recurrence denominators m, m+1, 2m+1, 2m+3,
    m+p-1, 2m+2p, 2m+2j are then all positive.  The spheroidicity
    parameter is supplied at evaluation time, not stored here.
    """

    m: int
    N: int
    s: int = 1

    def __post_init__(self) -> None:
        if self.s != 1:
            raise ValueError(f"spin weight is fixed at 1, got s={self.s}")
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 1:
            raise ValueError(f"m must be an integer >= 1, got {self.m!r}")
        if not isinstance(self.N, int) or isinstance(self.N, bool) or self.N < 0:
            raise ValueError(f"truncation order N must be an integer >= 0, got {self.N!r}")


@dataclass(frozen=True)
class W0Form:
    """Zeroth-order super-potential (c_const + c_cos*cos(theta))/sin(theta)."""

    c_const: Rational
    c_cos: Rational

    def __post_init__(self) -> None:
        if self.c_const != Fraction(-1):
            raise ValueError("the constant part of the zeroth order is always -1")

    @classmethod
    def for_mode(cls, m: int) -> "W0Form":
        return cls(Fraction(-1), Fraction(-(2 * m + 1), 2))


def _frozen_table(mapping: Mapping[int, Rational], lo: int, hi: int, what: str) -> dict:
    """Copy a sparse coefficient map, dropping exact zeros and rejecting
    nonzero entries outside lo..hi."""
    out = {}
    for k in sorted(mapping):
        v = Fraction(mapping[k])
        if v == 0:
            continue
        if k < lo or k > hi:
            raise ValueError(f"{what}[{k}] = {v} lies outside the support {lo}..{hi}")
        out[k] = v
    return out


def _dense_numerators(table: Mapping[int, Rational], top: int, den: int) -> tuple:
    """den * table[k] for k = 1..top, as integers."""
    return tuple(int(table.get(k, 0) * den) for k in range(1, top + 1))


@dataclass(frozen=True)
class WnTable:
    """Sine-polynomial table of one super-potential order n >= 1:

        W_n(theta) = cos(theta) * sum_k a[k] sin^(2k-1)(theta)
                     + sum_k b[k] sin^(2k-1)(theta)

    with a supported on 1..n//2 and b on 1..(n+1)//2.  Lookups outside the
    stored keys return exact zero.

    The same order is also held fraction-free, derived once here: `den` is
    the least common denominator of all entries, and the dense integer
    tuples `a_num`/`b_num` hold den * a[k] and den * b[k] at index k - 1
    over the whole support.
    """

    n: int
    a: Mapping[int, Rational]
    b: Mapping[int, Rational]
    den: int = field(init=False, repr=False, compare=False)
    a_num: tuple = field(init=False, repr=False, compare=False)
    b_num: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"order must be >= 1, got {self.n}")
        a = _frozen_table(self.a, 1, self.n // 2, "a")
        b = _frozen_table(self.b, 1, (self.n + 1) // 2, "b")
        den = math.lcm(*(v.denominator for v in (*a.values(), *b.values())))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "a_num", _dense_numerators(a, self.n // 2, den))
        object.__setattr__(self, "b_num", _dense_numerators(b, (self.n + 1) // 2, den))

    def a_at(self, k: int) -> Rational:
        return self.a.get(k, _ZERO)

    def b_at(self, k: int) -> Rational:
        return self.b.get(k, _ZERO)


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


@dataclass(frozen=True)
class SourceTables:
    """Convolution coefficients of sum_{k=1}^{n-1} W_k W_{n-k} written as

        sum_p h[p] sin^(2p-2)(theta) + cos(theta) * sum_p g[p] sin^(2p-2)(theta)

    h is supported on 2..n//2+1 and g on 2..(n+1)//2.
    """

    n: int
    h: Mapping[int, Rational]
    g: Mapping[int, Rational]

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("source tables exist for orders n >= 3 only")
        object.__setattr__(self, "h", _frozen_table(self.h, 2, self.n // 2 + 1, "h"))
        object.__setattr__(self, "g", _frozen_table(self.g, 2, (self.n + 1) // 2, "g"))

    def h_at(self, p: int) -> Rational:
        return self.h.get(p, _ZERO)

    def g_at(self, p: int) -> Rational:
        return self.g.get(p, _ZERO)


@dataclass(frozen=True)
class RTXYTables:
    """Expansion tables of the antiderivative for one order n:

        A_n(theta) = R_n(theta) + cos(theta) * T_n(theta)

    with R[p] multiplying sin^(2m+2p) and T[j] multiplying sin^(2m+2j).
    """

    n: int
    R: Mapping[int, Rational]
    T: Mapping[int, Rational]

    def __post_init__(self) -> None:
        object.__setattr__(self, "R", _frozen_table(self.R, 0, (self.n + 1) // 2, "R"))
        object.__setattr__(self, "T", _frozen_table(self.T, 0, self.n // 2, "T"))

    def r_at(self, p: int) -> Rational:
        return self.R.get(p, _ZERO)

    def t_at(self, j: int) -> Rational:
        return self.T.get(j, _ZERO)


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
                "a": {str(k): format_rational(v) for k, v in sorted(t.a.items())},
                "b": {str(k): format_rational(v) for k, v in sorted(t.b.items())},
            }
            for t in orders
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def tables_from_text(text: str):
    """Parse the coefficient-table format; returns (params, energy, orders)."""
    doc = json.loads(text)
    params = ModeParams(m=doc["m"], N=doc["N"])
    energy = EnergySeries(tuple(parse_rational(c) for c in doc["energy"]))
    orders = [
        WnTable(
            n=entry["n"],
            a={int(k): parse_rational(v) for k, v in entry["a"].items()},
            b={int(k): parse_rational(v) for k, v in entry["b"].items()},
        )
        for entry in doc["orders"]
    ]
    if energy.order != params.N or len(orders) != params.N:
        raise ValueError("table document is inconsistent: N does not match contents")
    return params, energy, orders
