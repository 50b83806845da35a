import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from sws1 import cli, evaluate, oracle
from sws1.cli import main
from sws1.core import tables_from_text
from sws1.oracle import Check, OracleError, OracleReport
from sws1.recurrence import compute_series


CAUTION = (
    "caution: |beta| > 1 lies outside the small-parameter regime; "
    "series truncation dominates all tolerances\n"
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_m1_order3_energy_array(self, capsys, tmp_path):
        out_file = tmp_path / "tables.json"
        code, _, _ = run(["coeffs", "--m", "1", "--order", "3", "--out", str(out_file)], capsys)
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["energy"] == ["0/1", "-1/1", "-11/20", "-3/40"]
        params, energy, orders = tables_from_text(out_file.read_text())
        assert params.m == 1 and len(orders) == 3

    def test_order_zero(self, capsys):
        code, out, _ = run(["coeffs", "--m", "1", "--order", "0"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["energy"] == ["0/1"] and doc["orders"] == []

    def test_invalid_m_exits_1(self, capsys):
        code, _, err = run(["coeffs", "--m", "0", "--order", "2"], capsys)
        assert code == 1
        assert ">= 1" in err

    def test_csv_format_rejected(self, capsys):
        code, _, err = run(["coeffs", "--m", "1", "--order", "1", "--format", "csv"], capsys)
        assert code == 1

    def test_format_flag_unrecognized(self, capsys):
        argv = ["coeffs", "--m", "1", "--order", "1", "--format", "structured-text"]
        code, out, err = run(argv, capsys)
        assert code == 1 and out == "" and "unrecognized arguments: --format" in err

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(["coeffs", "--m", "2", "--order", "6"], capsys)
        code2, out2, _ = run(["coeffs", "--m", "2", "--order", "6"], capsys)
        assert code1 == code2 == 0 and out1 == out2


class TestEval:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run(
            ["eval", "--m", "1", "--order", "3", "--beta", "0.1", "--theta-points", "181"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# m=1 N=3 beta=0.1")
        assert "E0=-0.105575" in lines[0]
        assert lines[1] == "theta,psi,theta_big,w,residual"
        assert len(lines) == 2 + 181

    def test_single_point_is_midpoint(self, capsys):
        code, out, _ = run(
            ["eval", "--m", "1", "--order", "2", "--beta", "0", "--theta-points", "1"],
            capsys,
        )
        assert code == 0
        row = out.strip().split("\n")[-1].split(",")
        assert float(row[0]) == pytest.approx(math.pi / 2)

    def test_beta_zero_profile(self, capsys):
        # psi column proportional to (1-cos) sin^(1/2) at m = 1
        code, out, _ = run(
            ["eval", "--m", "1", "--order", "3", "--beta", "0", "--theta-points", "5"],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[2:]]
        ratios = [
            float(r[1]) / ((1 - math.cos(float(r[0]))) * math.sin(float(r[0])) ** 0.5)
            for r in rows
        ]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-12)

    def test_beta_list_rejected(self, capsys):
        code, _, err = run(
            ["eval", "--m", "1", "--order", "1", "--beta", "0.1,0.2"], capsys
        )
        assert code == 1 and "single beta" in err

    def test_structured_text_rejected(self, capsys):
        code, _, _ = run(
            ["eval", "--m", "1", "--order", "1", "--beta", "0.1", "--format", "structured-text"],
            capsys,
        )
        assert code == 1

    def test_format_flag_unrecognized(self, capsys):
        argv = ["eval", "--m", "1", "--order", "1", "--beta", "0.1", "--format", "csv"]
        code, out, err = run(argv, capsys)
        assert code == 1 and out == "" and "unrecognized arguments: --format" in err

    def test_non_finite_result_exits_1(self, capsys):
        # E_n beta^n overflows at beta = 1e200 and every column turns NaN;
        # numpy's overflow warnings stay silent, the refusal says it once
        argv = ["eval", "--m", "1", "--order", "8", "--beta", "1e200", "--theta-points", "3"]
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err == CAUTION + (
            "error: the series is not finite at beta=9.9999999999999997e+199 (E0=-inf)\n"
        )

    @pytest.mark.parametrize("beta", ["nan", "inf", "1e400"])
    def test_non_finite_beta_exits_1(self, capsys, beta):
        code, out, err = run(["eval", "--m", "1", "--order", "2", "--beta", beta], capsys)
        assert code == 1 and out == ""
        assert "beta must be finite, got" in err

    def test_large_beta_caution(self, capsys):
        code, _, err = run(
            ["eval", "--m", "1", "--order", "1", "--beta", "2.0", "--theta-points", "1"],
            capsys,
        )
        assert code == 0 and "caution" in err

    def test_deterministic_output(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["eval", "--m", "2", "--order", "4", "--beta", "0.05", "--theta-points", "50"]
        assert main(argv + ["--out", str(f1)]) == 0
        assert main(argv + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_row_format_prints_as_fmt(self):
        # the one-printf row must give the bytes of five `_fmt` cells
        values = (-0.0, 5e-324, 1e308, 0.1, 1 / 3)
        assert cli._EVAL_ROW % values == ",".join(map(cli._fmt, values))
        assert cli._EVAL_ROW % values == (
            "-0,4.9406564584124654e-324,1e+308,0.10000000000000001,0.33333333333333331"
        )

    # sha256 of the eval text: every float of W, W', the phase, the
    # normalization and E prints at 17 digits, so these pin the float path
    PINNED = {
        ("1", "32", "0.1", "4096"): "4780a68fd9c07e30b54efb86129b1c235e3f6094113f5a5a1dd473a2e29425e7",
        ("20", "16", "0.1", "181"): "cc0f3a99f577bda0248c8595a13b04edc484eafe4e230709155394f9218daa41",
        ("2", "40", "-0.7", "777"): "eaa694923a5b5021a5c791659fe314ca5c3417cade0a3b61b01e0fe46fc006de",
    }

    @pytest.mark.parametrize("m,order,beta,points", sorted(PINNED))
    def test_output_bytes_match_pinned_digest(self, capsys, m, order, beta, points):
        argv = ["eval", "--m", m, "--order", order, "--beta", beta, "--theta-points", points]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[(m, order, beta, points)]

    def test_one_evaluation_pass(self, capsys, monkeypatch):
        # one beta weighting, and two half-angle passes: the Gauss nodes of
        # the normalization and the grid; a second eval in the process
        # reuses the nodes' values and makes one.  Each call builds one
        # power table per set of angles, the grid's and the nodes', which
        # every sine polynomial on those angles reads
        evaluate._normalization_rule.cache_clear()
        calls = {"_beta_tables": 0, "_half_angle": 0, "_powers": 0}
        for name in calls:
            original = getattr(evaluate, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(evaluate, name, counted)
        argv = ["eval", "--m", "1", "--order", "32", "--beta", "0.1", "--theta-points", "4096"]
        code, _, _ = run(argv, capsys)
        assert code == 0 and calls == {"_beta_tables": 1, "_half_angle": 2, "_powers": 2}
        code, _, _ = run(argv, capsys)
        assert code == 0 and calls == {"_beta_tables": 2, "_half_angle": 3, "_powers": 4}

    def test_output_bytes_do_not_depend_on_blas_threads(self):
        # the sine polynomials are BLAS matrix products: a one- and a
        # two-thread child must print the same bytes
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "sws1.cli", "eval", "--m", "1", "--order", "40"]
        argv += ["--beta", "0.45", "--theta-points", "4096"]
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(argv, capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == 2 + 4096

    def test_unwritable_path_exits_2(self, capsys):
        code, _, err = run(
            [
                "eval",
                "--m",
                "1",
                "--order",
                "1",
                "--beta",
                "0.1",
                "--out",
                "/nonexistent-dir/out.csv",
            ],
            capsys,
        )
        assert code == 2 and "i/o error" in err


class TestVerify:
    def test_passing_run_exits_0(self, capsys):
        code, out, _ = run(["verify", "--m", "1", "--order", "3", "--beta", "0,0.05"], capsys)
        assert code == 0
        assert out.count("status = PASS") == 2

    def test_corrupted_coefficient_exits_3(self, capsys, monkeypatch):
        # damage E_0 by 1/1000 in the series the command builds
        def corrupted_series(params):
            state = compute_series(params)
            energy = (state.energy[0] + Fraction(1, 1000),) + state.energy[1:]
            return replace(state, energy=energy)

        monkeypatch.setattr(cli, "compute_series", corrupted_series)
        code, out, err = run(["verify", "--m", "1", "--order", "3", "--beta", "0"], capsys)
        assert code == 3
        assert "status = FAIL" in out
        assert "verification failed at m=1" in err

    def test_nudged_table_entry_fails_the_riccati_check(self, capsys, monkeypatch, nudged_entry):
        # one part in 10^12 of b_1 of W_5 leaves every gap within its
        # tolerance; the exact check finds D_5 != 0
        def nudged_series(params):
            return nudged_entry(compute_series(params), 5, "b", 0)

        monkeypatch.setattr(cli, "compute_series", nudged_series)
        code, out, err = run(["verify", "--m", "40", "--order", "8", "--beta", "0.05"], capsys)
        assert code == 3
        checks = [line for line in out.splitlines() if line.startswith("  check ")]
        assert checks == [
            "  check eigenvalue_gap: pass",
            "  check riccati_defect: FAIL",
            "  check wavefunction_gap: pass",
        ]
        assert err == "verification failed at m=40 beta=0.050000000000000003: riccati_defect\n"

    def test_tolerance_override_can_force_failure(self, capsys):
        code, _, err = run(
            ["verify", "--m", "1", "--order", "3", "--beta", "0.1", "--tol", "eigenvalue=1e-12"],
            capsys,
        )
        assert code == 3 and "eigenvalue_gap" in err

    def test_unknown_tolerance_key_exits_1(self, capsys):
        code, _, err = run(
            ["verify", "--m", "1", "--order", "3", "--beta", "0.1", "--tol", "nope=1"], capsys
        )
        assert code == 1 and "nope" in err

    @pytest.mark.parametrize("tol", ["eigenvalue=nan", "eigenvalue=inf", "wavefunction=-0.001"])
    def test_tolerance_that_fakes_a_verdict_exits_1(self, capsys, tol):
        # NaN forced a FAIL, inf a PASS with no evidence behind it, and a
        # negative bound a FAIL that no gap could pass
        argv = ["verify", "--m", "1", "--order", "4", "--beta", "0.1", "--tol", tol]
        code, out, err = run(argv, capsys)
        key, _, val = tol.partition("=")
        assert code == 1 and out == ""
        assert err == f"error: tolerance {key} must be finite and >= 0, got {val}\n"

    def test_non_finite_beta_in_list_exits_1(self, capsys):
        code, out, err = run(["verify", "--m", "1", "--order", "2", "--beta", "0,nan"], capsys)
        assert code == 1 and out == ""
        assert "beta must be finite, got nan" in err

    def test_overflowing_beta_exits_1(self, capsys):
        # beta^2 overflows: the potential is -inf on the grid, and the oracle
        # refuses it instead of bisecting on [-inf, -inf]
        argv = ["verify", "--m", "2", "--order", "8", "--beta", "0.1,1e200"]
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err == CAUTION + (
            "error: the potential is not finite on the 255-point grid at beta=1e+200\n"
        )

    def test_m_past_the_indicial_range_exits_1(self, capsys):
        # the potential is finite at m = 92; (j+1)^(m+3/2) of the endpoint
        # correction overflows on the 2047-point grid
        code, out, err = run(["verify", "--m", "92", "--order", "4", "--beta", "0"], capsys)
        assert code == 1 and out == ""
        assert err == (
            "error: the indicial correction overflows on the 2047-point grid at m=92; "
            "this grid supports m <= 91\n"
        )

    def test_largest_supported_m_gives_a_verdict(self, capsys):
        code, out, err = run(["verify", "--m", "91", "--order", "8", "--beta", "0,0.1"], capsys)
        assert code == 0 and err == ""
        assert out.count("status = PASS") == 2

    def test_indicial_range_edge_keeps_its_bytes(self, capsys):
        # m = 92 is refused with one error line and exit status 1; m = 91,
        # the largest m of the 2047-point grid, keeps its report bytes
        code, out, err = run(["verify", "--m", "92", "--order", "8", "--beta", "0.1"], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "error: the indicial correction overflows on the 2047-point grid at m=92; "
            "this grid supports m <= 91\n"
        )
        code, out, err = run(["verify", "--m", "91", "--order", "8", "--beta", "0.1"], capsys)
        assert (code, err) == (0, "")
        digest = "e2ec1623e74e60169880ba96030f121d0ecfc10190237435e97c07973871ee14"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_no_false_fail_at_m40(self, capsys):
        # the one-level extrapolation over un-nested grids kept 2.4e-5 of
        # the FD error at m = 40, and every beta failed eigenvalue_gap
        argv = ["verify", "--m", "40", "--order", "8", "--beta", "0,0.05,0.45"]
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        assert out.count("status = PASS") == 3

    def test_spectral_oracle_check_is_reported_at_beta0(self, capsys):
        # the 2047-point grid alone misses the exact E0 by 4.9e-4 at m = 10;
        # the extrapolated value meets the spectral value, E0 exactly here
        code, out, err = run(["verify", "--m", "10", "--order", "8", "--beta", "0"], capsys)
        assert code == 0 and err == ""
        assert "  oracle check eigenvalue_gap_fd_spectral: pass\n  status = PASS\n" in out
        assert "FAIL" not in out

    def test_single_grid_tolerance_key_is_gone(self, capsys):
        argv = ["verify", "--m", "1", "--order", "3", "--beta", "0"]
        argv += ["--tol", "eigenvalue_beta0=1e-3"]
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err == (
            "error: bad tolerance override 'eigenvalue_beta0=1e-3'; known keys: eigenvalue, "
            "wavefunction\n"
        )

    @pytest.mark.parametrize("tol", ["residual_slope_below=0.3", "residual_slope_above=0.7"])
    def test_slope_tolerance_keys_are_gone(self, capsys, tol):
        # the exact Riccati check reads no tolerance
        argv = ["verify", "--m", "1", "--order", "3", "--beta", "0", "--tol", tol]
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        known = "known keys: eigenvalue, wavefunction"
        assert err == f"error: bad tolerance override {tol!r}; {known}\n"

    # sha256 of the verify text and its exit status; every eigenvalue and
    # eigenvector gap prints at 17 digits, so these pin the oracle's floats.
    # The third entry is the digest of the same text without its
    # `wavefunction_gap =` lines: a change that moves only the eigenvector
    # moves the second entry and keeps the third.
    PINNED = {
        ("1", "0,0.05,0.1"): (
            0,
            "976649a16c78b2c8348e4a0ca457d7a20cec72c3c2fba46e6b091a5b8e3dc05d",
            "2dd76d255b39c2c13418055667ae4842063ea92a313ab3bc5e3f8002a6521282",
        ),
        ("40", "0,0.05,0.45"): (
            0,
            "37a50d88933936483b66b48cdf0230424087dcc22f46ab9293a228c4069de7fe",
            "79ded4da70d0737f77b4c05e2b8f74c56b6f5f47377caf67eb81ae63abbf9d20",
        ),
    }

    @pytest.mark.parametrize("m,betas", sorted(PINNED))
    def test_report_bytes_match_pinned_digest(self, capsys, m, betas):
        code, out, _ = run(["verify", "--m", m, "--order", "8", "--beta", betas], capsys)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == self.PINNED[(m, betas)][:2]

    @pytest.mark.parametrize("m,betas", sorted(PINNED))
    def test_report_without_eigenvector_gap_matches_pinned_digest(self, capsys, m, betas):
        code, out, _ = run(["verify", "--m", m, "--order", "8", "--beta", betas], capsys)
        lines = out.splitlines(keepends=True)
        kept = "".join(line for line in lines if not line.startswith("  wavefunction_gap "))
        assert len(kept) < len(out)
        expected = self.PINNED[(m, betas)]
        assert (code, hashlib.sha256(kept.encode()).hexdigest()) == (expected[0], expected[2])

    def test_report_bytes_do_not_depend_on_blas_threads(self):
        # the oracle's sums must not take their order from the BLAS thread
        # count: the same report from a one- and a two-thread child
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "sws1.cli", "verify", "--m", "1", "--order", "8"]
        argv += ["--beta", "0,0.05,0.1"]
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(argv, capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] and b"status = PASS" in outputs[0]

    def test_large_beta_reports_nan_gap_without_numpy_warnings(self, capsys):
        # exp overflows in the series eigenfunction at these betas: the gap
        # is NaN and its check is skipped, not failed, the report is not
        # judged, and stderr holds the caution line alone
        for beta in ("10", "50", "-10"):
            code, out, err = run(["verify", "--m", "1", "--order", "8", "--beta", beta], capsys)
            assert code == 0 and err == CAUTION
            assert "  wavefunction_gap    = nan\n" in out
            skip = "  check wavefunction_gap: skipped (exp of the series phase overflows)\n"
            assert skip in out and "status = NOT-JUDGED" in out
            assert "wavefunction_gap: FAIL" not in out

    def test_csv_format(self, capsys):
        code, out, _ = run(
            ["verify", "--m", "1", "--order", "3", "--beta", "0", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("m,beta,order,series_value")
        assert len(lines) == 2 and lines[1].endswith("pass")

    def test_unknown_format_exits_1(self, capsys):
        argv = ["verify", "--m", "1", "--order", "3", "--beta", "0", "--format", "json"]
        code, out, err = run(argv, capsys)
        assert code == 1 and out == "" and "invalid choice: 'json'" in err

    def test_skipped_check_says_why(self, capsys):
        # At beta = 10 exp of the series phase overflows, so the
        # wavefunction gap is NaN: its check is skipped with that reason,
        # while the eigenvalue gap and the exact Riccati check are judged.
        code, out, err = run(["verify", "--m", "1", "--order", "8", "--beta", "10"], capsys)
        assert "  wavefunction_gap    = nan\n" in out
        checks = [line for line in out.splitlines() if line.startswith("  check ")]
        assert checks == [
            "  check eigenvalue_gap: FAIL",
            "  check riccati_defect: pass",
            "  check wavefunction_gap: skipped (exp of the series phase overflows)",
        ]
        # |beta| > 1 is reported, not judged: the failed gap sets no exit code
        assert code == 0 and err == CAUTION and "status = NOT-JUDGED" in out

    @pytest.mark.parametrize(
        "m, beta, why",
        [
            ("2", "-100", "ground eigenvector changes sign; the smallest eigenvalue does not "),
            ("40", "142", "the Rayleigh quotient -8974.941861230554 on the 511-point grid "),
        ],
    )
    def test_oracle_error_is_not_a_series_fail(self, capsys, m, beta, why):
        # the FD oracle fails at these betas: its check says why, the series
        # checks it measures are skipped, the exact check is still judged,
        # and the report is not judged, so no exit code is set
        code, out, err = run(["verify", "--m", m, "--order", "8", f"--beta={beta}"], capsys)
        assert code == 0 and err == CAUTION
        checks = [line for line in out.splitlines() if "check " in line]
        assert checks[:3] == [
            "  check riccati_defect: pass",
            "  check eigenvalue_gap: skipped (the FD oracle failed)",
            "  check wavefunction_gap: skipped (the FD oracle failed)",
        ]
        assert checks[3].startswith(f"  oracle check eigenvalue_gap_fd_spectral: error ({why}")
        assert out.endswith("  status = NOT-JUDGED\n")

    def test_oracle_error_report_prints_the_series_value(self, capsys):
        code, out, _ = run(["verify", "--m", "2", "--order", "8", "--beta=-100"], capsys)
        assert code == 0 and "error (ground eigenvector changes sign" in out
        assert "  series_value        = 73115617111.845413\n" in out
        assert "  numeric_value       = nan\n" in out and "  rel_gap             = nan\n" in out

    def test_series_defect_fails_a_report_whose_oracle_failed(self, capsys, monkeypatch):
        # inside the judged range an oracle error leaves the report without a
        # verdict, unless the exact check finds a defect: that still exits 3
        def failing(params, beta):
            raise OracleError("the grids did not converge")

        monkeypatch.setattr(oracle, "_ground_states", failing)
        argv = ["verify", "--m", "1", "--order", "3", "--beta", "0.1"]
        code, out, err = run(argv, capsys)
        assert code == 0 and err == "" and "status = NOT-JUDGED" in out
        assert "error (the grids did not converge)" in out
        def corrupted_series(params):
            state = compute_series(params)
            return replace(state, energy=(state.energy[0] + Fraction(1, 1000),) + state.energy[1:])

        monkeypatch.setattr(cli, "compute_series", corrupted_series)
        code, out, err = run(argv, capsys)
        assert code == 3 and "  check riccati_defect: FAIL\n" in out and "status = FAIL" in out
        assert err == "verification failed at m=1 beta=0.10000000000000001: riccati_defect\n"


class TestParser:
    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run(["coeffs", "--m", "1", "--order", "1", "--what"], capsys)
        assert code == 1

    def test_missing_command_exits_1(self, capsys):
        code, _, _ = run([], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "before, after",
        [
            (["--tol", "eigenvalue=1e-3"], []),
            (["--format", "csv"], []),
            (["--out", "{path}"], []),
            (["--format", "csv", "--out", "{path}"], ["--format", "csv"]),
        ],
    )
    def test_consecutive_calls_share_no_state(self, capsys, tmp_path, before, after):
        # the parser is built once per process; a call after another one
        # gives the bytes it gives as the process's first call
        def verify(extra):
            argv = ["verify", "--m", "1", "--order", "3", "--beta", "0,0.3", *extra]
            return run([a.format(path=tmp_path / "report") for a in argv], capsys)

        cli.build_parser.cache_clear()
        first = verify(after)
        cli.build_parser.cache_clear()
        parser = cli.build_parser()
        verify(before)
        assert verify(after) == first
        assert cli.build_parser() is parser

    def test_negative_beta_parses_in_the_equals_form(self, capsys):
        # argparse reads a separate "-0.1,0.1" or "-1e-3" as an option, so
        # such a beta is written --beta=-0.1,0.1
        for beta in ("-0.1,0.1", "-1e-3"):
            code, _, err = run(["verify", "--m", "1", "--order", "4", "--beta", beta], capsys)
            assert code == 1 and "argument --beta: expected one argument" in err
        code, out, _ = run(["verify", "--m", "1", "--order", "4", "--beta=-0.1,0.1"], capsys)
        assert code == 0
        assert "report m=1 order=4 beta=-0.10000000000000001\n" in out
        assert "report m=1 order=4 beta=0.10000000000000001\n" in out
        code, out, _ = run(["eval", "--m", "1", "--order", "4", "--beta=-1e-3"], capsys)
        assert code == 0 and out.startswith("# m=1 N=4 beta=-0.001 ")

    def test_console_script_installed(self):
        # the child process imports the same sws1 as this one, installed or not
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "sws1.cli", "coeffs", "--m", "2", "--order", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["m"] == 2


class TestBlasThreads:
    def test_in_process_main_adds_no_key(self, capsys, monkeypatch):
        # numpy is loaded in this process, so a cap would come too late
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert "numpy" in sys.modules
        before = dict(os.environ)
        code, _, _ = run(["eval", "--m", "1", "--order", "2", "--beta", "0.1"], capsys)
        assert code == 0 and dict(os.environ) == before

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
    def test_fresh_process_caps_the_pool_unless_the_user_set_it(self, preset, expected):
        # a child that runs main before numpy loads sees one OpenBLAS thread,
        # or the count its caller set
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        script = (
            "import os, sys\n"
            "from sws1.cli import main\n"
            "assert 'numpy' not in sys.modules\n"
            "code = main(['eval', '--m', '1', '--order', '2', '--beta', '0.1'])\n"
            "assert code == 0 and 'numpy' in sys.modules\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == expected + "\n"


def _pinned_reports():
    """Five hand-built reports, one of each verdict, a passing one whose
    oracle check failed and one whose oracle failed but which keeps its
    series value, with fixed values."""
    nan = float("nan")
    overflow = "exp of the series phase overflows"
    spectral = "eigenvalue_gap_fd_spectral"
    exact = Check("riccati_defect", None, 0, "pass")
    common = dict(grid_sizes=(255, 511, 1023, 2047))
    return [
        OracleReport(
            m=1, beta=0.0, order=3, series_value=0.0, numeric_value=-2.5e-7,
            abs_gap=2.5e-7, rel_gap=math.inf,
            grid_eigenvalues=(-1.6e-5, -4e-6, -1e-6, -2.5e-7), wavefunction_gap=1.5e-5,
            records=(
                Check("eigenvalue_gap", 2.5e-7, 1e-6, "pass"),
                Check("wavefunction_gap", 1.5e-5, 1e-3, "pass"),
                exact,
                Check(spectral, 2.5e-7, 1e-6, "pass", oracle=True),
            ),
            **common,
        ),
        OracleReport(
            m=10, beta=0.0, order=8, series_value=108.0, numeric_value=108.0, abs_gap=0.0,
            rel_gap=0.0, grid_eigenvalues=(108.25, 108.0625, 108.015625, 108.00390625),
            wavefunction_gap=1e-13,
            records=(
                Check("eigenvalue_gap", 0.0, 1e-6, "pass"),
                Check("wavefunction_gap", 1e-13, 1e-3, "pass"),
                exact,
                Check(
                    spectral, 2e-6, 1e-6, "fail",
                    "the FD estimate lies 2e-06 from the spectral value", oracle=True,
                ),
            ),
            **common,
        ),
        OracleReport(
            m=10, beta=0.05, order=8, series_value=110.125, numeric_value=110.0,
            abs_gap=0.125, rel_gap=0.125 / 110.125,
            grid_eigenvalues=(108.0, 109.5, 109.875, 110.0), wavefunction_gap=2e-4,
            records=(
                Check("eigenvalue_gap", 0.125, 1e-6, "fail"),
                Check("wavefunction_gap", 2e-4, 1e-3, "pass"),
                Check("riccati_defect", 5, 0, "fail"),
            ),
            **common,
        ),
        OracleReport(
            m=2, beta=1e200, order=8, series_value=math.inf, numeric_value=nan, abs_gap=nan,
            rel_gap=nan, grid_eigenvalues=(), wavefunction_gap=nan,
            records=(
                Check("eigenvalue_gap", nan, 1e-6, "skipped", "the FD oracle failed"),
                Check("wavefunction_gap", nan, 1e-3, "skipped", "the FD oracle failed"),
                exact,
                Check(spectral, nan, 1e-6, "error", "bisection did not converge", oracle=True),
            ),
            error="bisection did not converge", **common,
        ),
        OracleReport(
            m=40, beta=-1.5, order=4, series_value=1638.0, numeric_value=1639.0, abs_gap=1.0,
            rel_gap=1.0 / 1638.0, grid_eigenvalues=(1626.0, 1636.0, 1638.5, 1639.0),
            wavefunction_gap=nan,
            records=(
                Check("eigenvalue_gap", 1.0, 1e-6, "fail"),
                Check("wavefunction_gap", nan, 1e-3, "skipped", overflow),
                exact,
            ),
            **common,
        ),
    ]


PINNED_TEXT = """\
report m=1 order=3 beta=0
  series_value        = 0
  numeric_value       = -2.4999999999999999e-07
  abs_gap             = 2.4999999999999999e-07
  rel_gap             = inf
  grid_sizes          = 255,511,1023,2047
  grid_eigenvalues    = -1.5999999999999999e-05,-3.9999999999999998e-06,-9.9999999999999995e-07,-2.4999999999999999e-07
  wavefunction_gap    = 1.5e-05
  check eigenvalue_gap: pass
  check riccati_defect: pass
  check wavefunction_gap: pass
  oracle check eigenvalue_gap_fd_spectral: pass
  status = PASS
report m=10 order=8 beta=0
  series_value        = 108
  numeric_value       = 108
  abs_gap             = 0
  rel_gap             = 0
  grid_sizes          = 255,511,1023,2047
  grid_eigenvalues    = 108.25,108.0625,108.015625,108.00390625
  wavefunction_gap    = 1e-13
  check eigenvalue_gap: pass
  check riccati_defect: pass
  check wavefunction_gap: pass
  oracle check eigenvalue_gap_fd_spectral: FAIL (the FD estimate lies 2e-06 from the spectral value)
  status = PASS
report m=10 order=8 beta=0.050000000000000003
  series_value        = 110.125
  numeric_value       = 110
  abs_gap             = 0.125
  rel_gap             = 0.0011350737797956867
  grid_sizes          = 255,511,1023,2047
  grid_eigenvalues    = 108,109.5,109.875,110
  wavefunction_gap    = 0.00020000000000000001
  check eigenvalue_gap: FAIL
  check riccati_defect: FAIL
  check wavefunction_gap: pass
  status = FAIL
report m=2 order=8 beta=9.9999999999999997e+199
  series_value        = inf
  numeric_value       = nan
  abs_gap             = nan
  rel_gap             = nan
  grid_sizes          = 255,511,1023,2047
  grid_eigenvalues    = 
  wavefunction_gap    = nan
  check riccati_defect: pass
  check eigenvalue_gap: skipped (the FD oracle failed)
  check wavefunction_gap: skipped (the FD oracle failed)
  oracle check eigenvalue_gap_fd_spectral: error (bisection did not converge)
  status = NOT-JUDGED
report m=40 order=4 beta=-1.5
  series_value        = 1638
  numeric_value       = 1639
  abs_gap             = 1
  rel_gap             = 0.0006105006105006105
  grid_sizes          = 255,511,1023,2047
  grid_eigenvalues    = 1626,1636,1638.5,1639
  wavefunction_gap    = nan
  check eigenvalue_gap: FAIL
  check riccati_defect: pass
  check wavefunction_gap: skipped (exp of the series phase overflows)
  status = NOT-JUDGED
"""

PINNED_CSV = """\
m,beta,order,series_value,numeric_value,abs_gap,rel_gap,wavefunction_gap,status
1,0,3,0,-2.4999999999999999e-07,2.4999999999999999e-07,inf,1.5e-05,pass
10,0,8,108,108,0,0,1e-13,pass
10,0.050000000000000003,8,110.125,110,0.125,0.0011350737797956867,0.00020000000000000001,fail
2,9.9999999999999997e+199,8,inf,nan,nan,nan,nan,not-judged
40,-1.5,4,1638,1639,1,0.0006105006105006105,nan,not-judged
"""


class TestReportLayout:
    """The whole text and CSV layout of verify reports, pinned byte for byte
    on hand-built reports (no finite-difference solve runs)."""

    def test_text_layout(self):
        assert cli._render_reports_text(_pinned_reports()) == PINNED_TEXT

    def test_csv_layout(self):
        assert cli._render_reports_csv(_pinned_reports()) == PINNED_CSV
