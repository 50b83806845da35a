import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sws1
from sws1 import cli
from sws1.core import (
    EnergySeries,
    ModeParams,
    WnTable,
    format_rational,
    parse_rational,
    tables_from_text,
    tables_to_text,
)
from sws1.recurrence import (
    SeriesInconsistencyError,
    compute_series,
    convolve_sources,
    energy_coeff,
    rt_tables,
    xy_tables,
)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-(10**12), max_value=10**12),
    st.integers(min_value=1, max_value=10**12),
)


class TestNormalizeRational:
    # rationals enter the program from text; parse_rational normalizes them
    def test_gcd_reduction(self):
        assert parse_rational("2/4") == Fraction(1, 2)

    def test_sign_normalization(self):
        q = parse_rational("3/-6")
        assert q == Fraction(-1, 2)
        assert q.denominator == 2

    def test_zero(self):
        q = parse_rational("0/7")
        assert q == 0
        assert q.denominator == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("1/0")


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
        assert (p.m, p.N) == (3, 5)

    @pytest.mark.parametrize("m", [0, -1, -3])
    def test_m_below_one_rejected(self, m):
        with pytest.raises(ValueError, match=">= 1"):
            ModeParams(m=m, N=2)

    def test_wrong_spin_rejected(self):
        # the spin weight is 1 by construction; no other can be requested
        with pytest.raises(TypeError, match="'s'"):
            ModeParams(m=1, N=2, s=2)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            ModeParams(m=1, N=-1)

    def test_non_integer_m_rejected(self):
        with pytest.raises(ValueError):
            ModeParams(m=1.5, N=2)


def document(n, a, b):
    """A valid table document for m = 1 through order n, with the a and b
    maps of its last order replaced."""
    state = compute_series(ModeParams(m=1, N=n))
    doc = json.loads(tables_to_text(1, state.energy, state.orders))
    doc["orders"][-1].update(a=a, b=b)
    return json.dumps(doc)


class TestTables:
    def test_zero_extension(self):
        # keys a document leaves out are exact zeros of the dense table
        _, _, orders = tables_from_text(document(4, {"2": "1/2"}, {"1": "1/3"}))
        assert orders[-1].a == (0, Fraction(1, 2))
        assert orders[-1].b == (Fraction(1, 3), 0)

    def test_integer_form_over_common_denominator(self):
        t = WnTable(4, (Fraction(0), Fraction(-1, 4)), (Fraction(1, 6), Fraction(3, 10)))
        assert t.den == 60
        assert t.a_num == (0, -15)
        assert t.b_num == (10, 18)
        empty = WnTable(1, (), (Fraction(0),))
        assert (empty.den, empty.a_num, empty.b_num) == (1, (), (0,))

    def test_zero_entries_dropped(self):
        # exact zeros inside the support stay in the table, not in the text
        t = WnTable(3, (Fraction(0),), (Fraction(1, 3), Fraction(0)))
        (entry,) = json.loads(tables_to_text(1, EnergySeries((0, 0, 0, 0)), [t]))["orders"]
        assert entry == {"n": 3, "a": {}, "b": {"1": "1/3"}}

    def test_support_enforced(self):
        # a is supported on 1..n//2 and b on 1..(n+1)//2
        with pytest.raises(ValueError, match=r"a\[2\] lies outside the support 1..1"):
            tables_from_text(document(3, {"2": "1/1"}, {}))
        with pytest.raises(ValueError, match=r"b\[2\] lies outside the support 1..1"):
            tables_from_text(document(2, {}, {"2": "1/1"}))
        with pytest.raises(ValueError, match=r"a\[0\] lies outside the support 1..2"):
            tables_from_text(document(4, {"0": "1/1"}, {}))

    def test_source_support_enforced(self, state_m1_n8):
        # g is supported on p = 2..(n+1)//2
        h, g = convolve_sources(state_m1_n8, 3)
        with pytest.raises(ValueError, match="support"):
            rt_tables(h, (*g, Fraction(1)), state_m1_n8.energy[3], state_m1_n8.params)
        h, g = convolve_sources(state_m1_n8, 4)
        assert len(g) == 1  # g top is (n+1)//2 = 2
        g = (*g, Fraction(1))
        R, T = rt_tables(h, g, energy_coeff(h, g, state_m1_n8.params), state_m1_n8.params)
        with pytest.raises(SeriesInconsistencyError, match="order 4: parity truncation"):
            xy_tables(4, R, T)

    def test_rt_support_enforced(self, state_m1_n8):
        h, g = convolve_sources(state_m1_n8, 4)
        R, T = rt_tables(h, g, state_m1_n8.energy[4], state_m1_n8.params)
        assert len(R) == 3  # R top is (n+1)//2 = 2
        with pytest.raises(SeriesInconsistencyError, match="order 4: parity truncation"):
            xy_tables(4, (*R, Fraction(1)), T)

    def test_entry_must_be_num_den(self):
        with pytest.raises(ValueError, match="num/den"):
            tables_from_text(document(3, {}, {"1": "0.5"}))
        with pytest.raises(ValueError, match="num/den"):
            tables_from_text(document(3, {"1": "2"}, {}))

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


REMOVED_NAMES = (
    "SourceTables",
    "RTXYTables",
    "W0Form",
    "normalize_rational",
    "divergent_coefficient",
    "_frozen_table",
    "_dense_numerators",
    "_FloatTables",
    "_float_entries",
    "float_tables",
    "_order_values",
    "order_term",
    "_p_row",
    "p_antiderivative",
    "_wavefunction_unnormalized",
    "_simpson_weights",
    "_NORM_POINTS",
    "_NORM_MARGIN",
    "_adaptive_simpson",
    "w_order",
)


class TestPackageExports:
    def test_every_exported_name_resolves(self):
        assert len(set(sws1.__all__)) == len(sws1.__all__)
        for name in sws1.__all__:
            assert getattr(sws1, name) is not None, name

    def test_removed_names_are_gone(self):
        modules = (sws1, sws1.core, sws1.recurrence, sws1.evaluate, sws1.oracle, cli)
        for name in REMOVED_NAMES:
            assert name not in sws1.__all__
            assert not any(hasattr(module, name) for module in modules), name
        for accessor in ("a_at", "b_at", "h_at", "g_at", "r_at", "t_at"):
            assert not hasattr(sws1.WnTable, accessor)
        assert "s" not in sws1.ModeParams.__dataclass_fields__
        assert "w0" not in sws1.SeriesState.__dataclass_fields__

    def test_no_corrupt_energy_option(self, capsys):
        argv = ["verify", "--m", "1", "--order", "1", "--beta", "0", "--corrupt-energy", "0"]
        assert cli.main(argv) == 1
        assert "unrecognized arguments: --corrupt-energy" in capsys.readouterr().err
