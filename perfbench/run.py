"""sws1 benchmark: one workload, one seed, one single-threaded process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/` of
that checkout and nowhere else.  With `--trace 0` the run times whole
passes of seeded operations for about S seconds and reports the
end-to-end metrics; with `--trace 1` it runs a fixed number of passes,
each once untraced and once under the span tracer, and reports the
per-layer metrics and the tracing overhead.  Set-up time is measured in
fresh processes that import sws1 and do the workload's preparation.
Timed end-to-end metrics are scaled to a reference host speed by a
calibration kernel run between operations; the raw times are in the
report.  `failed` counts the failures that reference.json does not record
as the program's known wrong answers; `ok_share` counts all of them.

The last line of stdout is the result object; the line before it is a
report with the machine facts, the per-case outcomes and, when traced,
the per-order facts.  Spans of a traced run are written to
`.perfbench/` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


class DeadlineExceeded(Exception):
    """An operation ran past its deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


# The calibration kernel's time at the reference host speed.  Timed
# metrics are scaled to this speed: each operation's latency is multiplied
# by this over the kernel's local time (HostSpeed.scale).
CALIBRATION_REFERENCE_S = 0.004
_BIG = Fraction(3**200, 7**180)


def calibration_kernel() -> float:
    """Seconds taken by a fixed kernel of exact-rational sums, one over
    small terms and one over terms of a hundred digits and more, as in
    the recurrence.  Its time follows the host's speed more closely, for
    all three workloads, than a kernel with a numpy pass does."""
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction((-1) ** k, k * k + 1)
    total = Fraction(0)
    for k in range(1, 60):
        total += _BIG / (k * k + 1)
    return perf_counter() - start


class HostSpeed:
    """Calibration samples taken in the gaps between timed operations and,
    every `interval_s` of CPU time, inside them.

    The host's speed drifts by up to about 1.9x over seconds to minutes;
    the kernel, run right before, during and right after an operation,
    slows down with it, so the ratio of the two cancels most of the drift.
    """

    def __init__(self, per_gap: int, interval_s: float = 0.25) -> None:
        self.per_gap = per_gap
        self.interval_s = interval_s
        self.gaps: list[list[float]] = []
        self.inner: list[list[float]] = []

    def gap(self) -> list[float]:
        samples = [calibration_kernel() for _ in range(self.per_gap)]
        self.gaps.append(samples)
        return samples

    @contextmanager
    def during_op(self):
        """Run the kernel from a SIGPROF handler while an operation runs.
        Yields the list of the samples taken; their sum is the time the
        handler took, which the caller leaves out of the latency."""
        samples: list[float] = []

        def on_prof(signum, frame):
            samples.append(calibration_kernel())

        previous = signal.signal(signal.SIGPROF, on_prof)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
            self.inner.append(samples)

    def scale(self, op_index: int) -> float:
        """Reference speed over the local speed of operation `op_index`.

        An operation with at least four samples inside is sampled all
        along, and its time sums the host's slowness over it, so the mean
        of those samples is used: a median would ignore a spell that
        covers less than half of it.  A shorter one has its neighbours
        only, the gap before it, any samples inside and the gap after,
        and their median, which a kernel run cut by preemption cannot
        move."""
        inner = self.inner[op_index]
        if len(inner) >= 4:
            local = statistics.fmean(inner)
        else:
            local = statistics.median(self.gaps[op_index] + inner + self.gaps[op_index + 1])
        return CALIBRATION_REFERENCE_S / local

    def all_samples(self) -> list[float]:
        return [t for samples in self.gaps + self.inner for t in samples]


def run_op(op, tracer=None, host: HostSpeed | None = None) -> tuple[float, str]:
    """Run one operation, under the tracer if one is given, and return its
    latency and its outcome.  The check runs untraced and untimed.  With
    `host`, calibration samples are taken inside the operation, and their
    time is left out of its latency."""
    previous = None
    if tracer is not None:
        tracer.install()
    if op.deadline_s is not None:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
    out = outcome = None
    try:
        with host.during_op() if host is not None else nullcontext([]) as inner:
            start = perf_counter()
            try:
                out = op.run()
            except DeadlineExceeded:
                outcome = f"fail: deadline {op.deadline_s} s exceeded"
            except Exception as exc:  # an operation that raises is a failed operation
                outcome = f"fail: raised {type(exc).__name__}: {exc}"
            finally:
                seconds = perf_counter() - start - sum(inner)
                if previous is not None:
                    signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        if previous is not None:
            signal.signal(signal.SIGALRM, previous)
        if tracer is not None:
            tracer.uninstall()
    if outcome is None:
        try:
            outcome = op.check(out)
        except Exception as exc:  # output too malformed to check
            outcome = f"fail: check raised {type(exc).__name__}: {exc}"
    return seconds, outcome


def run_pass(ops, records: list, tracer=None, host: HostSpeed | None = None) -> float:
    """Run a pass of operations, append one record per operation, and
    return the pass's wall time (the sum of its operation latencies).
    With `host`, a calibration gap is taken before each operation."""
    wall = 0.0
    for op in ops:
        if tracer is not None:
            tracer.op_id = len(records)
        if host is not None:
            host.gap()
        seconds, outcome = run_op(op, tracer, host)
        wall += seconds
        records.append({"label": op.label, "case": op.case, "seconds": seconds, "outcome": outcome})
    return wall


def tail(passes: list[list[float]]) -> tuple[float, float | None, int]:
    """The highest percentile of the samples of all passes with at least
    ten samples beyond it, as (value, percentile, samples beyond).  Below
    twenty samples that percentile would not reach the median, and the
    maximum would be a single sample, so the median over passes of each
    pass's slowest sample is returned, with no percentile."""
    ordered = sorted(x for samples in passes for x in samples)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return statistics.median(max(samples) for samples in passes), None, 0


def quartiles(samples, scale: float = 1.0) -> dict:
    """Quartiles and mean of `samples`, each multiplied by `scale`."""
    if len(samples) < 2:
        q1 = q2 = q3 = samples[0]
    else:
        q1, q2, q3 = statistics.quantiles(samples, n=4)
    mean = statistics.fmean(samples)
    return {"q1": q1 * scale, "median": q2 * scale, "q3": q3 * scale, "mean": mean * scale,
            "n": len(samples)}


def calibration_s() -> float:
    """Median time of five runs of the calibration kernel: a host-speed fact."""
    return statistics.median(calibration_kernel() for _ in range(5))


def machine_facts(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sws1").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def setup_probe(args, workdir: Path) -> float:
    """Wall time of a fresh process that imports sws1 and prepares the
    workload, from spawn to exit."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
        "--setup-probe", str(workdir / "probe"),
    ]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=150)
    seconds = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return seconds


def summarize(records: list) -> dict:
    """Outcome counts per case, failures named, and the failure share."""
    from workloads import REFERENCE, is_known  # imports sws1, which main() puts on the path

    by_case = defaultdict(list)
    for rec in records:
        by_case[rec["case"]].append(rec)
    cases = {}
    failures = []
    for case, recs in sorted(by_case.items()):
        outcomes = Counter(r["outcome"] for r in recs)
        cases[case] = {
            "latency_ms": quartiles([r["seconds"] for r in recs], 1e3),
            "outcomes": dict(outcomes),
        }
        if "scaled_seconds" in recs[0]:
            cases[case]["scaled_latency_ms"] = quartiles([r["scaled_seconds"] for r in recs], 1e3)
        expected = REFERENCE["verify_verdicts"].get(case)
        if expected is not None:
            seen = sorted({"PASS" if o == "ok" else "NOT-JUDGED" if o == "not-judged" else "FAIL"
                           for o in outcomes})
            cases[case]["reference_verdict"] = expected
            cases[case]["matches_reference"] = seen == [expected]
        for outcome, count in outcomes.items():
            if outcome.startswith("fail"):
                failures.append({"case": case, "outcome": outcome, "count": count,
                                 "known": is_known(case, outcome)})
    attempted = len(records)
    wrong = sum(f["count"] for f in failures)
    return {
        "attempted": attempted,
        "fail_share": wrong / attempted if attempted else 0.0,
        "not_judged": sum(1 for r in records if r["outcome"] == "not-judged"),
        "known_failures": sum(f["count"] for f in failures if f["known"]),
        "unknown_failures": sum(f["count"] for f in failures if not f["known"]),
        "failures": failures,
        "cases": cases,
    }


SETUP_PROBES = 7


def timed_phase(workload, seconds: float, probe, host: HostSpeed) -> tuple[list, list, list]:
    """Whole passes, started until `seconds` of passes have gone by, with a
    calibration gap before every operation and after the last.  The
    SETUP_PROBES set-up probes run before the first pass, at even steps of
    the run and after the last pass.  Returns the records, the index range
    of each pass's records, and the probes."""
    records, passes = [], []
    probes = [probe()]
    busy = 0.0
    while busy < seconds:
        start = perf_counter()
        first = len(records)
        run_pass(workload.next_pass(), records, host=host)
        passes.append((first, len(records)))
        busy += perf_counter() - start
        if busy < seconds and busy >= seconds * len(probes) / (SETUP_PROBES - 1):
            probes.append(probe())
    host.gap()
    while len(probes) < SETUP_PROBES:
        probes.append(probe())
    return records, passes, probes


def scaled_probe(probe, host: HostSpeed) -> dict:
    """One set-up probe between two calibration gaps, raw and scaled to
    the reference host speed."""
    before = host.gap()
    seconds = probe()
    local = statistics.median(before + host.gap())
    return {"raw_s": seconds, "scaled_s": seconds * CALIBRATION_REFERENCE_S / local}


def traced_phase(workload, tracer) -> tuple[list, list, list]:
    """Each pass runs untraced and traced, in alternating order."""
    records, untraced, traced = [], [], []
    for k in range(workload.trace_passes):
        ops = workload.next_pass()
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                traced.append(run_pass(ops, records, tracer))
            else:
                untraced.append(run_pass(ops, records))
    return records, untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sws1" / "__init__.py").is_file():
        print(f"error: no sws1 package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import sws1
    from workloads import WORKLOADS

    if Path(sws1.__file__).resolve().parent != (src / "sws1").resolve():
        print(f"error: imported sws1 from {sws1.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, Path(args.setup_probe)).prepare()
        return 0

    workdir = OUT_DIR / f"run-{os.getpid()}"
    try:
        return _run(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload_cls, workdir: Path) -> int:
    from tracer import Tracer

    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts(args.seed), "calibration_s": {"start": calibration_s(), "reference": CALIBRATION_REFERENCE_S}}
    workload = workload_cls(args.seed, workdir / "main")
    tracer = Tracer() if args.trace else None
    start = perf_counter()
    if tracer is not None:
        with tracer:
            workload.prepare()
    else:
        workload.prepare()
    report["main_prepare_s"] = perf_counter() - start

    if tracer is None:
        host = HostSpeed(2)
        probe_host = HostSpeed(8)
        records, passes, probes = timed_phase(
            workload, args.seconds,
            lambda: scaled_probe(lambda: setup_probe(args, workdir), probe_host), host)
        for i, rec in enumerate(records):
            rec["scaled_seconds"] = rec["seconds"] * host.scale(i)
        report["setup_probe_s"] = probes
        report["passes"] = len(passes)
        report["calibration_s"]["between_ops"] = quartiles(host.all_samples())
        report["calibration_s"]["around_probes"] = quartiles(probe_host.all_samples())
        timings = {}
        for key, kind in (("seconds", "raw"), ("scaled_seconds", "scaled")):
            latencies = [r[key] for r in records]
            per_pass = [[r[key] for r in records[a:b]] for a, b in passes]
            walls = [sum(samples) for samples in per_pass]
            tail_value, tail_pct, beyond = tail(per_pass)
            report[f"{kind}_pass_wall_s"] = quartiles(walls)
            report[f"{kind}_op_latency_ms"] = {
                **quartiles(latencies, 1e3),
                "tail": tail_value * 1e3, "tail_percentile": tail_pct,
                "tail_samples_beyond": beyond,
            }
            timings[kind] = {
                "setup_s": statistics.median(p[f"{kind}_s"] for p in probes),
                "wall_s": statistics.median(walls),
                "op_p50_ms": statistics.median(latencies) * 1e3,
                "op_tail_ms": tail_value * 1e3,
            }
        report["raw"] = timings["raw"]
        summary = summarize(records)
        units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
        metrics = {name: (value, units[name]) for name, value in timings["scaled"].items()}
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["ok_share"] = (1.0 - summary["fail_share"], "share")
    else:
        records, untraced, traced = traced_phase(workload, tracer)
        summary = summarize(records)
        overhead = statistics.median(traced) - statistics.median(untraced)
        report["pass_wall_s"] = {"untraced": quartiles(untraced), "traced": quartiles(traced)}
        report["order_facts"] = tracer.order_facts()
        metrics = dict(tracer.layer_metrics())
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_share"] = (overhead / statistics.median(untraced), "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["span", "parent", "op", "name", "start", "end"], "spans": tracer.spans}))
        report["spans_file"] = str(spans_path.relative_to(ROOT))

    report["calibration_s"]["end"] = calibration_s()
    report.update(summary)
    print(json.dumps(report))
    print(json.dumps({
        "correct": summary["unknown_failures"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["unknown_failures"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
