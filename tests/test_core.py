from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sws1.core import (
    EnergySeries,
    ModeParams,
    RTXYTables,
    SourceTables,
    W0Form,
    WnTable,
    format_rational,
    normalize_rational,
    parse_rational,
    tables_from_text,
    tables_to_text,
)
from sws1.recurrence import compute_series

rationals = st.builds(
    Fraction,
    st.integers(min_value=-(10**12), max_value=10**12),
    st.integers(min_value=1, max_value=10**12),
)


class TestNormalizeRational:
    def test_gcd_reduction(self):
        assert normalize_rational(2, 4) == Fraction(1, 2)

    def test_sign_normalization(self):
        q = normalize_rational(3, -6)
        assert q == Fraction(-1, 2)
        assert q.denominator == 2

    def test_zero(self):
        q = normalize_rational(0, 7)
        assert q == 0
        assert q.denominator == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            normalize_rational(1, 0)


class TestExactness:
    @given(rationals, rationals)
    def test_add_then_subtract(self, x, y):
        assert (x + y) - y == x

    @given(rationals, rationals)
    def test_multiply_then_divide(self, x, y):
        if y != 0:
            assert (x * y) / y == x

    @given(rationals)
    def test_serialization_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x

    def test_format_always_carries_denominator(self):
        assert format_rational(Fraction(0)) == "0/1"
        assert format_rational(Fraction(-1)) == "-1/1"

    def test_parse_rejects_bare_integer(self):
        with pytest.raises(ValueError):
            parse_rational("3")


class TestModeParams:
    def test_valid(self):
        p = ModeParams(m=3, N=5)
        assert p.s == 1

    @pytest.mark.parametrize("m", [0, -1, -3])
    def test_m_below_one_rejected(self, m):
        with pytest.raises(ValueError, match=">= 1"):
            ModeParams(m=m, N=2)

    def test_wrong_spin_rejected(self):
        with pytest.raises(ValueError, match="spin"):
            ModeParams(m=1, N=2, s=2)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            ModeParams(m=1, N=-1)

    def test_non_integer_m_rejected(self):
        with pytest.raises(ValueError):
            ModeParams(m=1.5, N=2)


class TestW0Form:
    def test_for_mode(self):
        w0 = W0Form.for_mode(1)
        assert w0.c_const == -1
        assert w0.c_cos == Fraction(-3, 2)

    def test_constant_part_fixed(self):
        with pytest.raises(ValueError):
            W0Form(Fraction(-2), Fraction(-3, 2))


class TestTables:
    def test_zero_extension(self):
        t = WnTable(3, {1: Fraction(1, 2)}, {2: Fraction(1, 3)})
        assert t.a_at(1) == Fraction(1, 2)
        assert t.a_at(7) == 0
        assert t.b_at(-1) == 0

    def test_integer_form_over_common_denominator(self):
        t = WnTable(4, {2: Fraction(-1, 4)}, {1: Fraction(1, 6), 2: Fraction(3, 10)})
        assert t.den == 60
        assert t.a_num == (0, -15)
        assert t.b_num == (10, 18)
        empty = WnTable(1, {}, {})
        assert (empty.den, empty.a_num, empty.b_num) == (1, (), (0,))

    def test_zero_entries_dropped(self):
        t = WnTable(3, {1: Fraction(0)}, {1: Fraction(1, 3)})
        assert 1 not in t.a

    def test_support_enforced(self):
        # a is supported on 1..n//2, so k=2 is out of range at n=3
        with pytest.raises(ValueError, match="support"):
            WnTable(3, {2: Fraction(1)}, {})
        with pytest.raises(ValueError, match="support"):
            WnTable(2, {}, {2: Fraction(1)})

    def test_source_support_enforced(self):
        with pytest.raises(ValueError, match="support"):
            SourceTables(4, {}, {3: Fraction(1)})  # g top is (n+1)//2 = 2

    def test_rt_support_enforced(self):
        with pytest.raises(ValueError, match="support"):
            RTXYTables(4, {3: Fraction(1)}, {})  # R top is (n+1)//2 = 2

    def test_energy_series_needs_constant_term(self):
        with pytest.raises(ValueError):
            EnergySeries(())


class TestTableDocument:
    def test_round_trip(self):
        state = compute_series(ModeParams(m=2, N=5))
        text = tables_to_text(2, state.energy, state.orders)
        params, energy, orders = tables_from_text(text)
        assert params.m == 2 and params.N == 5
        assert energy.coeffs == state.energy.coeffs
        assert [(t.n, t.a, t.b) for t in orders] == [
            (t.n, t.a, t.b) for t in state.orders
        ]

    def test_round_trip_is_exact_not_float(self):
        text = tables_to_text(1, EnergySeries((Fraction(1, 3),)), [])
        assert "0.333" not in text
        _, energy, _ = tables_from_text(text)
        assert energy[0] == Fraction(1, 3)

    def test_inconsistent_document_rejected(self):
        state = compute_series(ModeParams(m=1, N=2))
        text = tables_to_text(1, state.energy, state.orders[:1])
        with pytest.raises(ValueError, match="inconsistent"):
            tables_from_text(text)
