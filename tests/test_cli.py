import json
import math
import subprocess
import sys

import pytest

from sws1.cli import main
from sws1.core import tables_from_text


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

    def test_corrupted_coefficient_exits_3(self, capsys):
        code, out, err = run(
            ["verify", "--m", "1", "--order", "3", "--beta", "0", "--corrupt-energy", "0"],
            capsys,
        )
        assert code == 3
        assert "status = FAIL" in out
        assert "verification failed at m=1" in err

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

    def test_csv_format(self, capsys):
        code, out, _ = run(
            ["verify", "--m", "1", "--order", "3", "--beta", "0", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("m,beta,order,series_value")
        assert len(lines) == 2 and lines[1].endswith("pass")

    def test_skipped_slope_check_says_why(self, capsys):
        # At N = 2 and theta = pi/3 the truncated defect is exactly zero
        # (W_2 vanishes there for m = 1), so the slope fit has no signal.
        code, out, err = run(["verify", "--m", "1", "--order", "2", "--beta", "0.05"], capsys)
        assert "  residual_slope      = nan" in out
        assert (
            "  check residual_slope: skipped "
            "(residual is below the noise floor over the whole sweep)" in out
        )
        # The verdict is the eigenvalue gap's: |E_3| beta^3 ~ 9e-6 exceeds
        # the 1e-6 tolerance, and a skipped check neither passes nor fails.
        assert code == 3 and "eigenvalue_gap" in err and "residual_slope" not in err


class TestParser:
    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run(["coeffs", "--m", "1", "--order", "1", "--what"], capsys)
        assert code == 1

    def test_missing_command_exits_1(self, capsys):
        code, _, _ = run([], capsys)
        assert code == 1

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sws1.cli", "coeffs", "--m", "2", "--order", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["m"] == 2
