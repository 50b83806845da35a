"""Command-line front end.

Three subcommands: `coeffs` exports the exact coefficient tables, `eval`
writes a CSV of the eigenfunction/super-potential/residual over a theta
grid, and `verify` runs the independent finite-difference comparison
battery.

Exit status contract: 0 success, 1 invalid parameters, 2 I/O failure,
3 verification failure.  Output is deterministic: floats print at 17
significant digits and row order is fixed, so identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import cache
from typing import TYPE_CHECKING

from .core import DEFAULT_TOLERANCES, JUDGED_BETA_LIMIT, ModeParams, tables_to_text
from .recurrence import compute_series

if TYPE_CHECKING:
    from .oracle import OracleReport


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# one `eval` CSV row: five floats as `_fmt` prints them, in one printf
_EVAL_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g"


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors surface as exceptions so the
    exit-status contract stays in our hands."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    later call in the process: parsing reads it and leaves it as it was,
    and each call gets a fresh namespace."""
    parser = _Parser(prog="sws1", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_beta):
        p.add_argument("--m", type=int, required=True, help="azimuthal index, integer >= 1")
        p.add_argument("--order", type=int, required=True, help="series truncation order N >= 0")
        if with_beta:
            p.add_argument(
                "--beta",
                type=str,
                required=True,
                help="spheroidicity parameter (verify: a comma-separated list); write "
                "--beta=-1e-3 or --beta=-0.1,0.1, since argparse reads a separate "
                "-1e-3 or -0.1,0.1 as an option",
            )
        p.add_argument("--out", type=str, default=None, help="output path (default: stdout)")

    p_coeffs = sub.add_parser("coeffs", help="export the exact coefficient tables")
    common(p_coeffs, with_beta=False)

    p_eval = sub.add_parser("eval", help="evaluate over a theta grid, CSV output")
    common(p_eval, with_beta=True)
    p_eval.add_argument(
        "--theta-points",
        type=int,
        default=181,
        help="number of uniform interior grid points (endpoints excluded)",
    )

    p_verify = sub.add_parser("verify", help="run the independent verification battery")
    common(p_verify, with_beta=True)
    p_verify.add_argument(
        "--format",
        dest="output_format",
        choices=("structured-text", "csv"),
        default="structured-text",
        help="report format",
    )
    p_verify.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="KEY=VAL",
        help=f"tolerance override, keys: {', '.join(sorted(DEFAULT_TOLERANCES))}",
    )
    return parser


def _parse_betas(text: str, allow_list: bool) -> list[float]:
    parts = [p for p in text.split(",") if p != ""]
    if not parts:
        raise ValueError("empty beta list")
    if len(parts) > 1 and not allow_list:
        raise ValueError("this command takes a single beta")
    betas = [float(p) for p in parts]
    for beta in betas:
        if not math.isfinite(beta):
            raise ValueError(f"beta must be finite, got {beta}")
    return betas


def _parse_tolerances(items) -> dict:
    out = {}
    for item in items:
        key, sep, val = item.partition("=")
        if not sep or key not in DEFAULT_TOLERANCES:
            raise ValueError(
                f"bad tolerance override {item!r}; known keys: "
                f"{', '.join(sorted(DEFAULT_TOLERANCES))}"
            )
        value = float(val)
        # a NaN fails every check, an infinity passes every one, and a
        # negative slope margin empties the slope window: none is a tolerance
        if not 0.0 <= value < math.inf:
            raise ValueError(f"tolerance {key} must be finite and >= 0, got {val}")
        out[key] = value
    return out


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _beta_caution(betas) -> None:
    if any(abs(b) > JUDGED_BETA_LIMIT for b in betas):
        print(
            f"caution: |beta| > {JUDGED_BETA_LIMIT:g} lies outside the small-parameter regime; "
            "series truncation dominates all tolerances",
            file=sys.stderr,
        )


def cmd_coeffs(args) -> int:
    params = ModeParams(m=args.m, N=args.order)
    state = compute_series(params)
    _write_output(tables_to_text(params.m, state.energy, state.orders), args.out)
    return 0


def cmd_eval(args) -> int:
    # numpy and the float layer load here, not at import: `coeffs` and
    # `--help` need neither
    import numpy as np

    from .evaluate import eval_on_grid, uniform_interior_grid

    if args.theta_points < 1:
        raise ValueError("--theta-points must be >= 1")
    beta = _parse_betas(args.beta, allow_list=False)[0]
    _beta_caution([beta])
    params = ModeParams(m=args.m, N=args.order)
    state = compute_series(params)

    thetas = uniform_interior_grid(args.theta_points)
    # a beta whose powers overflow leaves inf and NaN here, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        psi, theta_big, w, residual, e0 = eval_on_grid(state, beta, thetas)
    columns = (thetas, psi, theta_big, w, residual)
    if not (math.isfinite(e0) and np.isfinite(columns).all()):
        raise ValueError(f"the series is not finite at beta={_fmt(beta)} (E0={_fmt(e0)})")

    lines = [
        f"# m={params.m} N={params.N} beta={_fmt(beta)} E0={_fmt(e0)}",
        "theta,psi,theta_big,w,residual",
    ]
    lines += [_EVAL_ROW % row for row in zip(*(column.tolist() for column in columns))]
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


# The measured values of an OracleReport in print order, each with whether
# the CSV view has a column for it (the per-grid tuples have none).
_REPORT_FIELDS = (
    ("series_value", True),
    ("numeric_value", True),
    ("abs_gap", True),
    ("rel_gap", True),
    ("grid_sizes", False),
    ("grid_eigenvalues", False),
    ("richardson_estimate", True),
    ("wavefunction_gap", True),
    ("residual_slope", True),
)
_CSV_FIELDS = tuple(name for name, in_csv in _REPORT_FIELDS if in_csv)
_NAME_WIDTH = max(len(name) for name, _ in _REPORT_FIELDS)


def _cell(value) -> str:
    return ",".join(map(_fmt, value)) if isinstance(value, tuple) else _fmt(value)


def _status(r: OracleReport) -> str:
    return "NOT-JUDGED" if r.passed is None else ("PASS" if r.passed else "FAIL")


def _render_reports_text(reports: list[OracleReport]) -> str:
    lines = []
    for r in reports:
        lines.append(f"report m={r.m} order={r.order} beta={_fmt(r.beta)}")
        for name, _ in _REPORT_FIELDS:
            lines.append(f"  {name:<{_NAME_WIDTH}} = {_cell(getattr(r, name))}")
        for name in sorted(r.checks):
            lines.append(f"  check {name}: {'pass' if r.checks[name] else 'FAIL'}")
        for name in sorted(r.skipped):
            lines.append(f"  check {name}: skipped ({r.skipped[name]})")
        for name in sorted(r.oracle_checks):
            why = r.oracle_checks[name]
            lines.append(f"  oracle check {name}: {'pass' if why is None else f'FAIL ({why})'}")
        if r.error is not None:
            lines.append(f"  error = {r.error}")
        lines.append(f"  status = {_status(r)}")
    return "\n".join(lines) + "\n"


def _render_reports_csv(reports: list[OracleReport]) -> str:
    rows = [",".join(("m", "beta", "order") + _CSV_FIELDS + ("status",))]
    for r in reports:
        cells = [_fmt(v) for v in (r.m, r.beta, r.order)]
        cells += [_cell(getattr(r, name)) for name in _CSV_FIELDS]
        rows.append(",".join(cells + [_status(r).lower()]))
    return "\n".join(rows) + "\n"


def cmd_verify(args) -> int:
    from .oracle import verify_all

    betas = _parse_betas(args.beta, allow_list=True)
    _beta_caution(betas)
    tolerances = _parse_tolerances(args.tol)
    params = ModeParams(m=args.m, N=args.order)
    state = compute_series(params)
    reports = verify_all(params, betas, tolerances=tolerances, state=state)
    text = (
        _render_reports_csv(reports)
        if args.output_format == "csv"
        else _render_reports_text(reports)
    )
    _write_output(text, args.out)

    failing = [r for r in reports if r.passed is False]
    if failing:
        first = failing[0]
        bad = [name for name, ok in first.checks.items() if not ok]
        detail = first.error if first.error else ", ".join(bad)
        print(
            f"verification failed at m={first.m} beta={_fmt(first.beta)}: {detail}",
            file=sys.stderr,
        )
        return 3
    return 0


_DISPATCH = {"coeffs": cmd_coeffs, "eval": cmd_eval, "verify": cmd_verify}


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        # every BLAS call here is small; OpenBLAS starts its thread pool when
        # numpy loads, and one thread starts faster.  A value the user set
        # stays, and a caller that already loaded numpy is left as it is
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
