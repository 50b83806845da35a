import ast
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import sws1
from sws1 import cli, evaluate, oracle
from sws1.core import (
    ModeParams,
    WnTable,
    format_rational,
    parse_rational,
    tables_from_text,
    tables_to_text,
)
from sws1.recurrence import (
    SeriesState,
    compute_series,
    convolve_sources,
    rt_tables,
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
        t = WnTable(4, (0, -15), (10, 18), 60)
        assert t.a == (0, Fraction(-1, 4))
        assert t.b == (Fraction(1, 6), Fraction(3, 10))
        # construction cancels the common gcd and keeps the denominator positive
        assert WnTable(4, (0, -90), (60, 108), 360) == t == WnTable(4, (0, 15), (-10, -18), -60)
        assert (t.n, t.a_num, t.b_num, t.den) == (4, (0, -15), (10, 18), 60)
        empty = WnTable(1, (), (0,), 7)
        assert (empty.den, empty.a_num, empty.b_num) == (1, (), (0,))
        # only the integer form is stored; a and b are views
        assert [f.name for f in dataclasses.fields(WnTable)] == ["n", "a_num", "b_num", "den"]
        assert vars(t).keys() == {"n", "a_num", "b_num", "den"}

    def test_cached_largest_numerator_is_no_field(self):
        t, u = WnTable(4, (0, -15), (10, 18), 60), WnTable(4, (0, -15), (10, 18), 60)
        assert t.largest == 18 and "largest" in vars(t) and "largest" not in vars(u)
        assert t._packed(64) == (-15 << 64, (18 << 64) + 10) and "_packs" not in vars(u)
        # measured and packed on one table only, it leaves equality, hash
        # and repr alone
        assert t == u and hash(t) == hash(u) and repr(t) == repr(u)
        assert len({t, u}) == 1 and "largest" not in repr(t) and "_packs" not in repr(t)
        assert WnTable(3, (-7,), (2, 5), 9).largest == 7
        # one width at a time: packing at a new width replaces the old pair
        assert t._packed(128) == (-15 << 128, (18 << 128) + 10)
        assert vars(t)["_packs"] == (128, -15 << 128, (18 << 128) + 10)
        assert t == u and hash(t) == hash(u) and repr(t) == repr(u)

    def test_bad_table_rejected(self):
        with pytest.raises(ZeroDivisionError, match="denominator zero"):
            WnTable(1, (), (1,), 0)
        with pytest.raises(ValueError, match="order must be >= 1"):
            WnTable(0, (), (), 1)

    def test_float_view_rounds_each_entry_once(self):
        huge = Fraction(10**400, 3**800)
        # entries 0, -1/3 and 1/7, huge over their lcm 7 * 3^800
        last = WnTable(4, (0, -7 * 3**799), (3**800, 7 * 10**400), 7 * 3**800)
        lower = compute_series(ModeParams(m=1, N=3))
        state = SeriesState(lower.params, (*lower.orders, last), (*lower.energy, huge))
        a, b, energy = state.floats
        # correctly rounded, though 10^400 and 3^800 overflow a float
        assert a[3].tolist() == [0.0, -1 / 3]
        assert b[3].tolist() == [1 / 7, 2.0090753457532982e18]
        assert energy[4] == 2.0090753457532982e18
        # row n-1 holds W_n, zero-padded past its support: W_1 = -sin/2 at m = 1
        assert a.shape == b.shape == (4, 2)
        assert a[0].tolist() == [0.0, 0.0] and b[0].tolist() == [-0.5, 0.0]
        assert not np.signbit(a[0]).any()
        assert state.floats is state.floats
        assert not (a.flags.writeable or b.flags.writeable)
        assert state == SeriesState(state.params, state.orders, state.energy)

    @pytest.mark.parametrize("N, a_shape, b_shape", [(0, (0, 0), (0, 0)), (1, (1, 0), (1, 1))])
    def test_float_view_of_empty_tables(self, N, a_shape, b_shape):
        a, b, energy = compute_series(ModeParams(m=1, N=N)).floats
        assert (a.shape, b.shape, len(energy)) == (a_shape, b_shape, N + 1)

    def test_zero_entries_dropped(self):
        # exact zeros inside the support stay in the table, not in the text
        t = WnTable(3, (0,), (1, 0), 3)
        (entry,) = json.loads(tables_to_text(1, (Fraction(0),) * 4, [t]))["orders"]
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
        # (the sources are integer numerators over den: den is the value 1)
        h, g, den = convolve_sources(state_m1_n8, 3)
        with pytest.raises(ValueError, match="support"):
            rt_tables(h, (*g, den), den, state_m1_n8.params)

    def test_entry_must_be_num_den(self):
        with pytest.raises(ValueError, match="num/den"):
            tables_from_text(document(3, {}, {"1": "0.5"}))
        with pytest.raises(ValueError, match="num/den"):
            tables_from_text(document(3, {"1": "2"}, {}))

    def test_document_without_energy_refused(self):
        # the energy list runs from order 0, so it is never empty
        text = json.dumps({"m": 1, "N": 0, "energy": [], "orders": []})
        with pytest.raises(ValueError, match="inconsistent"):
            tables_from_text(text)

    def test_misnumbered_order_refused(self):
        doc = json.loads(document(3, {}, {"1": "1/3"}))
        doc["orders"][0]["n"] = 5  # W_5's support holds W_1's one b entry
        with pytest.raises(ValueError, match="inconsistent"):
            tables_from_text(json.dumps(doc))


def reference_text(m, energy, orders):
    """The document as json.dumps(indent=2) writes it, built from the
    Fraction views of the tables."""
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


def order_tables(top):
    """Dense integer tables W_1 .. W_N, N <= top, each over a random
    nonzero denominator of either sign."""
    ints = st.integers(min_value=-(10**30), max_value=10**30)
    dens = st.integers(min_value=-(10**20), max_value=10**20).filter(bool)

    def part(size):
        return st.lists(ints, min_size=size, max_size=size).map(tuple)

    def order(n):
        return st.builds(WnTable, st.just(n), part(n // 2), part((n + 1) // 2), dens)

    return st.integers(min_value=0, max_value=top).flatmap(
        lambda N: st.tuples(*(order(n) for n in range(1, N + 1)))
    )


class TestTableDocument:
    @pytest.mark.parametrize("m", [1, 2, 20, 91])
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 8, 20])
    def test_writer_matches_json_dumps(self, m, N):
        state = compute_series(ModeParams(m=m, N=N))
        text = tables_to_text(m, state.energy, state.orders)
        assert text == reference_text(m, state.energy, state.orders)
        # the empty list and the empty object keep json's "[]" and "{}"
        assert ('"orders": []' in text) == (N == 0)
        assert ('"a": {}' in text) == (N >= 1)

    @given(order_tables(6), st.data())
    def test_round_trip_of_random_tables(self, orders, data):
        size = len(orders) + 1
        energy = tuple(data.draw(st.lists(rationals, min_size=size, max_size=size)))
        text = tables_to_text(3, energy, orders)
        assert text == reference_text(3, energy, orders)
        params, energy_back, orders_back = tables_from_text(text)
        assert (params.m, params.N) == (3, len(orders))
        assert energy_back == energy and tuple(orders_back) == orders

    @given(st.lists(rationals, min_size=4, max_size=4), st.integers(-(10**9), 10**9).filter(bool))
    def test_unreduced_entries_read_as_their_lowest_terms(self, values, scale):
        # "2/4", "1/-2" and the like: each entry scaled by its own factor
        def written(factors):
            text = [f"{v.numerator * c}/{v.denominator * c}" for v, c in zip(values, factors)]
            return document(4, {"1": text[0], "2": text[1]}, {"1": text[2], "2": text[3]})

        reduced = tables_from_text(written((1, 1, 1, 1)))
        assert tables_from_text(written((scale, -scale, 7, -1))) == reduced

    def test_signed_and_unreduced_zeros_and_halves(self):
        written = document(4, {"1": "-0/3", "2": "2/4"}, {"1": "1/-2", "2": "-6/-9"})
        reduced = document(4, {"2": "1/2"}, {"1": "-1/2", "2": "2/3"})
        assert tables_from_text(written) == tables_from_text(reduced)
        t = tables_from_text(written)[2][-1]
        assert (t.a_num, t.b_num, t.den) == ((0, 3), (-3, 4), 6)

    @pytest.mark.parametrize("a, b", [({}, {"1": "1/0"}), ({"1": "0/0"}, {})])
    def test_zero_denominator_entry_refused(self, a, b):
        # as parse_rational refuses "1/0"; "0.5", "2" and keys outside the
        # support keep their ValueError (test_entry_must_be_num_den,
        # test_support_enforced)
        with pytest.raises(ZeroDivisionError):
            tables_from_text(document(4, a, b))

    def test_round_trip(self):
        state = compute_series(ModeParams(m=2, N=5))
        text = tables_to_text(2, state.energy, state.orders)
        params, energy, orders = tables_from_text(text)
        assert params.m == 2 and params.N == 5
        assert energy == state.energy
        assert tuple(orders) == state.orders

    def test_round_trip_is_exact_not_float(self):
        text = tables_to_text(1, (Fraction(1, 3),), [])
        assert "0.333" not in text
        _, energy, _ = tables_from_text(text)
        assert energy[0] == Fraction(1, 3)

    def test_inconsistent_document_rejected(self):
        state = compute_series(ModeParams(m=1, N=2))
        text = tables_to_text(1, state.energy, state.orders[:1])
        with pytest.raises(ValueError, match="inconsistent"):
            tables_from_text(text)


class TestOneStoredForm:
    @pytest.mark.parametrize("m, N", [(1, 24), (20, 16), (80, 16)])
    def test_every_order_in_lowest_terms(self, m, N):
        state = compute_series(ModeParams(m=m, N=N))
        for t in state.orders:
            assert t.den > 0 and math.gcd(t.den, *t.a_num, *t.b_num) == 1
            assert t.den == math.lcm(*(v.denominator for v in t.a + t.b))
            six = [tuple(6 * v for v in part) for part in (t.a_num, t.b_num)]
            assert WnTable(t.n, *six, 6 * t.den) == t
        _, energy, orders = tables_from_text(tables_to_text(m, state.energy, state.orders))
        assert energy == state.energy
        assert tuple(orders) == state.orders


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
    "EvalPoint",
    "WavefunctionSample",
    "potential",
    "eval_w",
    "eval_w_derivative",
    "riccati_residual",
    "eval_ground_wavefunction",
    "sturm_count_below",
    "OrderAudit",
    "SEED_GRID",
    "weighted_orders_on_grid",
    "_weighted_tables",
    "EnergySeries",
    "order_table",
    "_factor_tridiagonal",
    "_substitute",
    "w_derivative_on_grid",
    "potential_on_grid",
    "energy_coeff",
    "_energy_weights",
    "_numerators",
    "Rational",
)


class TestPackageExports:
    def test_every_exported_name_resolves(self):
        assert len(set(sws1.__all__)) == len(sws1.__all__)
        for name in sws1.__all__:
            assert getattr(sws1, name) is not None, name

    def test_removed_names_are_gone(self):
        modules = (sws1, sws1.core, sws1.recurrence, evaluate, oracle, cli)
        modules += (sws1.SeriesState, sws1.WnTable)
        for name in REMOVED_NAMES:
            assert name not in sws1.__all__
            assert not any(hasattr(module, name) for module in modules), name
        for accessor in ("a_at", "b_at", "h_at", "g_at", "r_at", "t_at"):
            assert not hasattr(sws1.WnTable, accessor)
        assert "s" not in sws1.ModeParams.__dataclass_fields__
        assert "w0" not in sws1.SeriesState.__dataclass_fields__
        assert "audit" not in sws1.SeriesState.__dataclass_fields__

    @staticmethod
    def fresh_interpreter(code: str) -> str:
        """stdout of `code` run in a fresh interpreter (this one has numpy
        loaded already) that imports sws1 from the package under test."""
        src = str(Path(sws1.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_exact_core_imports_no_numpy(self):
        code = "import sys, sws1, sws1.recurrence; print('numpy' in sys.modules)"
        assert self.fresh_interpreter(code) == "False"

    def test_coeffs_command_imports_no_numpy(self, tmp_path):
        # the CLI loads the float layer and the oracle for eval and verify only
        out = tmp_path / "tables.json"
        argv = ["coeffs", "--m", "2", "--order", "6", "--out", str(out)]
        code = f"import sys, sws1.cli; print(sws1.cli.main({argv!r}), 'numpy' in sys.modules)"
        assert self.fresh_interpreter(code) == "0 False"
        assert tables_from_text(out.read_text())[0] == ModeParams(m=2, N=6)

    def test_readme_library_snippet_runs(self):
        # the first python block under "## Library" is the documented API
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        library = readme.split("\n## Library\n", 1)[1]
        snippet = library.split("```python\n", 1)[1].split("\n```", 1)[0]
        exec(compile(snippet, "README.md", "exec"), {})

    def test_readme_export_list_matches_package(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        prose = readme.split("The package root exports the exact core only (", 1)[1]
        listed = prose.split(")", 1)[0].replace("\n", " ").split(", ")
        assert sorted(name.strip("`") for name in listed) == sorted(sws1.__all__)

    def test_readme_envelope_rows_name_existing_tests(self):
        # every row of the accuracy envelope has its four cells, and its
        # last names the tests that hold it, each `path::Class::test`
        # defined in that file
        root = Path(__file__).resolve().parents[1]
        section = (root / "README.md").read_text().split("\n## Accuracy envelope\n", 1)[1]
        rows = [line for line in section.split("\n## ", 1)[0].splitlines() if line.startswith("|")]
        assert len(rows) > 2
        for row in rows[2:]:  # past the header and its rule
            cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", row.strip()[1:-1])]
            assert len(cells) == 4 and all(cells), row
            held_by = re.findall(r"`(tests/\w+\.py)::(\w+)::(\w+)`", cells[3])
            assert held_by, row
            for path, name, test in held_by:
                tree = ast.parse((root / path).read_text())
                tests = {
                    node.name
                    for cls in tree.body
                    if isinstance(cls, ast.ClassDef) and cls.name == name
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef)
                }
                assert test in tests, f"{path}::{name}::{test}"

    def test_no_corrupt_energy_option(self, capsys):
        argv = ["verify", "--m", "1", "--order", "1", "--beta", "0", "--corrupt-energy", "0"]
        assert cli.main(argv) == 1
        assert "unrecognized arguments: --corrupt-energy" in capsys.readouterr().err
