"""In-memory span tracer for the sws1 package, installed from outside.

`Tracer` replaces public functions of the sws1 modules by wrappers that
record one span per call (span id, parent span, operation id, name,
start, end) and keep, per function, the call count, the busy time and the
self time.  Self time is busy time minus the time covered by child spans.

`oracle`, `cli` and the package `__init__` bind names from `evaluate` and
`recurrence` at import, so a wrapper is written into every sws1 module
namespace that holds the original function; patching only the defining
module would miss those calls.  `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# Functions that get a span, by module.
TIMED = {
    "cli": ("main",),
    "core": ("tables_to_text", "tables_from_text"),
    "recurrence": (
        "compute_series",
        "advance",
        "convolve_sources",
        "energy_coeff",
        "divergent_coefficient",
        "rt_tables",
        "xy_tables",
    ),
    "evaluate": (
        "float_tables",
        "w_on_grid",
        "w_derivative_on_grid",
        "potential_on_grid",
        "riccati_residual_on_grid",
        "wavefunction_on_grid",
        "p_antiderivative",
        "eval_energy",
    ),
    "oracle": (
        "verify_all",
        "richardson_eigenvalue",
        "fd_ground_eigenvalue",
        "fd_ground_eigenvector",
        "residual_slope",
        "quadrature_an",
        "an_closed_form",
    ),
}

# Functions that are only counted: i_coeff runs thousands of times per
# order, so a span per call would cost more than the call.
COUNTED = {"recurrence": ("i_coeff",)}

# Counters filled by the observers below, with their units.
COUNTERS = {
    "core.table_bytes": "bytes",
    "evaluate.points": "count",
    "oracle.fd_points": "count",
    "oracle.verdict_pass": "count",
    "oracle.verdict_fail": "count",
    "oracle.verdict_not_judged": "count",
    "oracle.verdict_error": "count",
    "oracle.checks_skipped": "count",
}


def per_layer_spec() -> list[dict]:
    """Every per-layer metric a traced run reports, in BENCHMARK.json form."""
    spec = []
    for module, names in TIMED.items():
        for fn in names:
            spec.append({"name": f"{module}.{fn}.calls", "unit": "count", "better": "lower"})
            spec.append({"name": f"{module}.{fn}.busy_s", "unit": "s", "better": "lower"})
            spec.append({"name": f"{module}.{fn}.self_s", "unit": "s", "better": "lower"})
    for module, names in COUNTED.items():
        for fn in names:
            spec.append({"name": f"{module}.{fn}.calls", "unit": "count", "better": "lower"})
    for name, unit in COUNTERS.items():
        better = "higher" if name == "oracle.verdict_pass" else "lower"
        spec.append({"name": name, "unit": unit, "better": better})
    spec.append({"name": "oracle.judged_ratio", "unit": "ratio", "better": "higher"})
    spec.append({"name": "trace.overhead_s", "unit": "s", "better": "lower"})
    spec.append({"name": "trace.overhead_share", "unit": "ratio", "better": "lower"})
    return spec


def _arguments(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _observe_grid(tracer, fn, args, kwargs, result, seconds):
    thetas = _arguments(fn, args, kwargs).get("thetas")
    if thetas is not None:
        tracer.counters["evaluate.points"] += len(thetas)


def _observe_fd(tracer, fn, args, kwargs, result, seconds):
    grid = _arguments(fn, args, kwargs).get("grid")
    tracer.counters["oracle.fd_points"] += getattr(grid, "points", 0)


def _observe_to_text(tracer, fn, args, kwargs, result, seconds):
    tracer.counters["core.table_bytes"] += len(result)


def _observe_from_text(tracer, fn, args, kwargs, result, seconds):
    tracer.counters["core.table_bytes"] += len(_arguments(fn, args, kwargs).get("text", ""))


def _observe_verify(tracer, fn, args, kwargs, result, seconds):
    for report in result:
        if report.error is not None:
            tracer.counters["oracle.verdict_error"] += 1
        elif report.passed is None:
            tracer.counters["oracle.verdict_not_judged"] += 1
        elif report.passed:
            tracer.counters["oracle.verdict_pass"] += 1
        else:
            tracer.counters["oracle.verdict_fail"] += 1
        if report.error is None:
            expected = {"eigenvalue_gap", "wavefunction_gap"}
            if report.beta == 0.0:
                expected.add("eigenvalue_gap_beta0_single_grid")
            if report.order >= 1:
                expected.add("residual_slope")
            tracer.counters["oracle.checks_skipped"] += len(expected - set(report.checks))


def _observe_advance(tracer, fn, args, kwargs, result, seconds):
    state = _arguments(fn, args, kwargs)["state"]
    key = (state.params.m, state.params.N, state.current_order + 1)
    tracer.advance_seconds[key].append(seconds)


def _observe_series(tracer, fn, args, kwargs, result, seconds):
    """Per-order size facts of the first build of each mode."""
    params = result.params
    if (params.m, params.N) in tracer.order_sizes:
        return
    # Read the state by duck typing, so that a new table representation
    # still yields the facts it can.
    energy = getattr(result.energy, "coeffs", result.energy)
    orders = getattr(result, "orders", ())
    rows = []
    for n, e_n in enumerate(energy):
        e_n = Fraction(e_n)
        row = {
            "n": n,
            "energy_num_digits": len(str(abs(e_n.numerator))),
            "energy_den_digits": len(str(e_n.denominator)),
        }
        if 1 <= n <= len(orders):
            row["nonzero_entries"] = _nonzero_entries(orders[n - 1])
        rows.append(row)
    tracer.order_sizes[(params.m, params.N)] = rows


def _nonzero_entries(table) -> int:
    count = 0
    for part in (getattr(table, "a", ()), getattr(table, "b", ())):
        values = part.values() if hasattr(part, "values") else part
        count += sum(1 for v in values if v)
    return count


_OBSERVERS = {
    "core.tables_to_text": _observe_to_text,
    "core.tables_from_text": _observe_from_text,
    "evaluate.w_on_grid": _observe_grid,
    "evaluate.w_derivative_on_grid": _observe_grid,
    "evaluate.potential_on_grid": _observe_grid,
    "evaluate.wavefunction_on_grid": _observe_grid,
    "oracle.fd_ground_eigenvalue": _observe_fd,
    "oracle.verify_all": _observe_verify,
    "recurrence.advance": _observe_advance,
    "recurrence.compute_series": _observe_series,
}


class Tracer:
    """Span recorder; use as a context manager around the traced work.

    Spans stay in memory (`spans`) until the caller writes them out.
    `op_id` is set by the caller to tag the spans of one operation.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.advance_seconds: dict[tuple, list] = defaultdict(list)
        self.order_sizes: dict[tuple, list] = {}
        self.op_id: int | None = None
        self._stack: list[list] = []
        self._next_span = 0
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "sws1" or name.startswith("sws1."))
        ]
        targets = [(m, f, True) for m, fs in TIMED.items() for f in fs]
        targets += [(m, f, False) for m, fs in COUNTED.items() for f in fs]
        for module, fn_name, timed in targets:
            original = getattr(sys.modules.get(f"sws1.{module}"), fn_name, None)
            if original is None:
                continue  # a later version may have removed the function
            name = f"{module}.{fn_name}"
            wrapper = self._span_wrapper(name, original) if timed else self._count_wrapper(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            ns, attr, original = self._patched.pop()
            setattr(ns, attr, original)

    def _count_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name, fn):
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_span
            tracer._next_span += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                seconds = end - start
                if stack:
                    stack[-1][1] += seconds
                tracer.calls[name] += 1
                tracer.busy[name] += seconds
                tracer.self_time[name] += seconds - frame[1]
                tracer.spans.append((span_id, parent, tracer.op_id, name, start, end))
            if observe is not None:
                observe(tracer, fn, args, kwargs, result, seconds)
            return result

        return traced

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric except the tracing overhead, as name ->
        (value, unit); functions never called report zero."""
        out = {}
        for item in per_layer_spec():
            name, unit = item["name"], item["unit"]
            if name.startswith("trace.") or name == "oracle.judged_ratio":
                continue
            fn_name, _, kind = name.rpartition(".")
            if kind == "calls":
                value = self.calls[fn_name]
            elif kind == "busy_s":
                value = self.busy[fn_name]
            elif kind == "self_s":
                value = self.self_time[fn_name]
            else:
                value = self.counters[name]
            out[name] = (value, unit)
        judged = self.counters["oracle.verdict_pass"] + self.counters["oracle.verdict_fail"]
        cases = judged + self.counters["oracle.verdict_not_judged"] + self.counters["oracle.verdict_error"]
        out["oracle.judged_ratio"] = (judged / cases if cases else 0.0, "ratio")
        return out

    def order_facts(self) -> list[dict]:
        """Per mode built: time per advance call and size of each order."""
        modes = sorted({(m, N) for m, N, _ in self.advance_seconds} | set(self.order_sizes))
        facts = []
        for m, N in modes:
            sizes = {row["n"]: row for row in self.order_sizes.get((m, N), [])}
            orders = []
            for n in range(0, N + 1):
                row = dict(sizes.get(n, {"n": n}))
                times = self.advance_seconds.get((m, N, n))
                if times:
                    row["advance_ms"] = statistics.median(times) * 1e3
                    row["advance_calls"] = len(times)
                orders.append(row)
            facts.append({"m": m, "N": N, "orders": orders})
        return facts
