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
import sys

from .core import ModeParams, tables_to_text
from .evaluate import (
    eval_energy,
    riccati_residual_on_grid,
    uniform_interior_grid,
    w_on_grid,
    wavefunction_on_grid,
)
from .oracle import DEFAULT_TOLERANCES, OracleReport, verify_all
from .recurrence import compute_series


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors surface as exceptions so the
    exit-status contract stays in our hands."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sws1", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_beta):
        p.add_argument("--m", type=int, required=True, help="azimuthal index, integer >= 1")
        p.add_argument("--order", type=int, required=True, help="series truncation order N >= 0")
        if with_beta:
            p.add_argument("--beta", type=str, required=True, help="spheroidicity parameter")
        p.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
        p.add_argument(
            "--format",
            dest="output_format",
            choices=("csv", "structured-text"),
            default=None,
            help="output format (commands accept the formats that fit their payload)",
        )

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
        out[key] = float(val)
    return out


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _beta_caution(betas) -> None:
    if any(abs(b) > 1.0 for b in betas):
        print(
            "caution: |beta| > 1 lies outside the small-parameter regime; "
            "series truncation dominates all tolerances",
            file=sys.stderr,
        )


def cmd_coeffs(args) -> int:
    if args.output_format not in (None, "structured-text"):
        raise ValueError("coeffs emits the structured coefficient-table format only")
    params = ModeParams(m=args.m, N=args.order)
    state = compute_series(params)
    _write_output(tables_to_text(params.m, state.energy, state.orders), args.out)
    return 0


def cmd_eval(args) -> int:
    if args.output_format not in (None, "csv"):
        raise ValueError("eval emits CSV only")
    if args.theta_points < 1:
        raise ValueError("--theta-points must be >= 1")
    beta = _parse_betas(args.beta, allow_list=False)[0]
    _beta_caution([beta])
    params = ModeParams(m=args.m, N=args.order)
    state = compute_series(params)

    thetas = uniform_interior_grid(args.theta_points)
    psi, theta_big, _ = wavefunction_on_grid(state, beta, thetas)
    w = w_on_grid(state, beta, thetas)
    residual = riccati_residual_on_grid(state, beta, thetas)
    e0 = eval_energy(state, beta)

    lines = [
        f"# m={params.m} N={params.N} beta={_fmt(beta)} E0={_fmt(e0)}",
        "theta,psi,theta_big,w,residual",
    ]
    for i in range(args.theta_points):
        lines.append(
            ",".join(_fmt(v) for v in (thetas[i], psi[i], theta_big[i], w[i], residual[i]))
        )
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _render_reports_text(reports: list[OracleReport]) -> str:
    lines = []
    for r in reports:
        lines.append(f"report m={r.m} order={r.order} beta={_fmt(r.beta)}")
        lines.append(f"  series_value        = {_fmt(r.series_value)}")
        lines.append(f"  numeric_value       = {_fmt(r.numeric_value)}")
        lines.append(f"  abs_gap             = {_fmt(r.abs_gap)}")
        lines.append(f"  rel_gap             = {_fmt(r.rel_gap)}")
        lines.append(f"  grid_sizes          = {','.join(str(p) for p in r.grid_sizes)}")
        lines.append(
            "  grid_eigenvalues    = " + ",".join(_fmt(v) for v in r.grid_eigenvalues)
        )
        lines.append(f"  richardson_estimate = {_fmt(r.richardson_estimate)}")
        lines.append(f"  wavefunction_gap    = {_fmt(r.wavefunction_gap)}")
        lines.append(f"  residual_slope      = {_fmt(r.residual_slope)}")
        for name in sorted(r.checks):
            lines.append(f"  check {name}: {'pass' if r.checks[name] else 'FAIL'}")
        for name in sorted(r.skipped):
            lines.append(f"  check {name}: skipped ({r.skipped[name]})")
        if r.error is not None:
            lines.append(f"  error = {r.error}")
        status = "NOT-JUDGED" if r.passed is None else ("PASS" if r.passed else "FAIL")
        lines.append(f"  status = {status}")
    return "\n".join(lines) + "\n"


def _render_reports_csv(reports: list[OracleReport]) -> str:
    header = (
        "m,beta,order,series_value,numeric_value,abs_gap,rel_gap,"
        "richardson_estimate,wavefunction_gap,residual_slope,status"
    )
    rows = [header]
    for r in reports:
        status = "not-judged" if r.passed is None else ("pass" if r.passed else "fail")
        rows.append(
            ",".join(
                [
                    str(r.m),
                    _fmt(r.beta),
                    str(r.order),
                    _fmt(r.series_value),
                    _fmt(r.numeric_value),
                    _fmt(r.abs_gap),
                    _fmt(r.rel_gap),
                    _fmt(r.richardson_estimate),
                    _fmt(r.wavefunction_gap),
                    _fmt(r.residual_slope),
                    status,
                ]
            )
        )
    return "\n".join(rows) + "\n"


def cmd_verify(args) -> int:
    if args.output_format not in (None, "structured-text", "csv"):
        raise ValueError("verify emits structured-text or csv")
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
