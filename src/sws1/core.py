"""Exact-rational coefficient tables shared by all series orders.

Once the azimuthal index m is fixed, every coefficient produced by the
recurrences (energy coefficients, the sine-polynomial tables of each
super-potential order, convolution sources, antiderivative tables) is a
rational number, so the whole data model is exact.  Floating point enters
only at evaluation time.

Every table is a dense tuple over its whole support, indexed from the
bottom of that support; exact zeros inside the support are kept.  They
are dropped only in the table document written here.  The document is
written and read in integers, straight from and into a table's
numerators over its one denominator: no Fraction is built per entry,
and the text keeps the layout of json.dumps(indent=2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction


def format_rational(value: Fraction) -> str:
    """Serialize as "num/den" with a decimal-integer numerator and positive
    decimal-integer denominator (never floating point)."""
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational`; exact round trip, in lowest
    terms with a positive denominator (a zero denominator raises
    ZeroDivisionError)."""
    return Fraction(*_split_rational(text))


def _split_rational(text: str) -> tuple[int, int]:
    """The two integers of a "num/den" string, as written, unreduced."""
    num, sep, den = text.partition("/")
    if not sep:
        raise ValueError(f"rational must look like 'num/den', got {text!r}")
    return int(num), int(den)


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
    "eigenvalue": 1e-6,  # Richardson-extrapolated value vs the series, and vs the spectral value
    "wavefunction": 1e-3,  # max-norm vs the extrapolated eigenvector on the shared nodes
}

# Above this |beta| series truncation dominates every tolerance: the
# oracle reports its gaps there without a pass/fail verdict, and the CLI
# warns that it does.
JUDGED_BETA_LIMIT = 1.0


def _pack(values, w: int) -> int:
    """The integer sum_i values[i] 2^(w i), by Horner's rule."""
    packed = 0
    for v in reversed(values):
        packed = (packed << w) + v
    return packed


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

    @cached_property
    def largest(self) -> int:
        """The largest numerator in size, measured on first use and kept on
        the table; it is no field, so equality, hash and repr ignore it."""
        return max(map(abs, self.a_num + self.b_num))

    def _packed(self, w: int) -> tuple[int, int]:
        """a_num and b_num packed at slot width w (`_pack`), for the exact
        build's products, in which this table is the higher order of a pair
        and the lower order enters by its integer entries.  Kept on the
        table like `largest`, for one w at a time: a new w packs both again
        and replaces the old pair."""
        held = self.__dict__.get("_packs")
        if held is None or held[0] != w:
            held = self.__dict__["_packs"] = (w, _pack(self.a_num, w), _pack(self.b_num, w))
        return held[1:]


# ---------------------------------------------------------------------------
# Coefficient-table file format: the CLI writes it (`tables_to_text`);
# library callers read it back (`tables_from_text`).
#
# A structured text document with fields m, N, an "energy" array of
# "num/den" strings, and one object per order {n, a: {k: "num/den"},
# b: {k: "num/den"}}.  Rationals are never serialized as floating point.
# ---------------------------------------------------------------------------


def _layout(items: list, depth: int, brackets: str) -> str:
    """A list or object of already formatted items at nesting depth
    `depth`, laid out as json.dumps(indent=2) lays it out."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def _entries(nums: tuple, den: int) -> list:
    """'"k": "num/den"' for every nonzero numerator over den, in lowest
    terms with den > 0."""
    out = []
    for k, v in enumerate(nums, start=1):
        if v:
            g = math.gcd(v, den)
            out.append(f'"{k}": "{v // g}/{den // g}"')
    return out


def tables_to_text(m: int, energy: tuple, orders) -> str:
    """The document of a series: energy[n] the n-th energy coefficient,
    orders the tables W_1 .. W_N.  Each table entry is formatted from the
    table's integers, reduced by one gcd, with no Fraction built; the text
    is byte for byte json.dumps(doc, indent=2) + "\n" of the document."""
    tables = []
    for t in orders:
        a, b = (_layout(_entries(nums, t.den), 3, "{}") for nums in (t.a_num, t.b_num))
        tables.append(_layout([f'"n": {t.n}', f'"a": {a}', f'"b": {b}'], 2, "{}"))
    energies = [f'"{format_rational(c)}"' for c in energy]
    fields = [
        f'"m": {m}',
        f'"N": {len(energy) - 1}',
        f'"energy": {_layout(energies, 1, "[]")}',
        f'"orders": {_layout(tables, 1, "[]")}',
    ]
    return _layout(fields, 0, "{}") + "\n"


def _dense_pairs(entries: dict, top: int, what: str) -> list:
    """(num, den) as written for k = 1..top, from a document's
    {k: "num/den"} map; absent keys are exact zero, (0, 1), and keys
    outside 1..top are rejected."""
    pairs = [(0, 1)] * top
    for key, text in entries.items():
        k = int(key)
        if not 1 <= k <= top:
            raise ValueError(f"{what}[{k}] lies outside the support 1..{top}")
        pairs[k - 1] = _split_rational(text)
    return pairs


def _order_from_entry(entry: dict) -> WnTable:
    """One order of a document, its entries lifted over the lcm of their
    denominators as written; WnTable reduces the lifted table once."""
    n = entry["n"]
    a = _dense_pairs(entry["a"], n // 2, "a")
    b = _dense_pairs(entry["b"], (n + 1) // 2, "b")
    den = math.lcm(*(d for _, d in a + b))
    if den == 0:
        raise ZeroDivisionError(f"order {n} has an entry with denominator zero")
    a_num, b_num = (tuple(v * (den // d) for v, d in pairs) for pairs in (a, b))
    return WnTable(n, a_num, b_num, den)


def tables_from_text(text: str):
    """Parse the coefficient-table format; returns (params, energy, orders),
    energy a tuple of Fractions.  Table entries are read as integer pairs
    and each order is reduced once, by WnTable, so no Fraction is built per
    entry.  A document whose energy list does not run over orders 0..N, or
    whose tables are not W_1 .. W_N in order, is refused."""
    doc = json.loads(text)
    params = ModeParams(m=doc["m"], N=doc["N"])
    energy = tuple(parse_rational(c) for c in doc["energy"])
    orders = [_order_from_entry(entry) for entry in doc["orders"]]
    if len(energy) != params.N + 1 or [t.n for t in orders] != list(range(1, params.N + 1)):
        raise ValueError("table document is inconsistent: N does not match contents")
    return params, energy, orders
