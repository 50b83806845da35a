"""Tests of the benchmark itself: seeded inputs, failure accounting, metric
names and the tracer's clean-up.  They use small modes and stand-ins for
the oracle so that they run in well under a second."""

from __future__ import annotations

import hashlib
import json
import re
import signal
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import sws1  # noqa: E402
from sws1 import cli, evaluate, oracle, recurrence  # noqa: E402
from sws1.core import ModeParams  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import CoeffsExport, EvalSweep, VerifyBattery  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _inputs(workload, passes=2):
    return [op.inputs for _ in range(passes) for op in workload.next_pass()]


def test_same_seed_same_inputs(tmp_path):
    for cls in (CoeffsExport, EvalSweep, VerifyBattery):
        assert _inputs(cls(7, tmp_path)) == _inputs(cls(7, tmp_path))


def test_different_seeds_give_different_beta_and_theta(tmp_path):
    eval_a, eval_b = _inputs(EvalSweep(1, tmp_path)), _inputs(EvalSweep(2, tmp_path))
    assert [i[2] for i in eval_a] != [i[2] for i in eval_b]  # beta
    assert [i[3] for i in eval_a] != [i[3] for i in eval_b]  # checked grid angles
    verify_a, verify_b = _inputs(VerifyBattery(1, tmp_path)), _inputs(VerifyBattery(2, tmp_path))
    assert [i[1] for i in verify_a if len(i) == 2] != [i[1] for i in verify_b if len(i) == 2]
    assert [i[2] for i in verify_a if len(i) == 3] != [i[2] for i in verify_b if len(i) == 3]


def _run_passes(workload, passes=1):
    records = []
    for _ in range(passes):
        run.run_pass(workload.next_pass(), records)
    return run.summarize(records)


def test_tampered_digest_raises_fail_share(tmp_path):
    reference = tmp_path / "reference.txt"
    assert cli.main(["coeffs", "--m", "1", "--order", "4", "--out", str(reference)]) == 0
    digest = hashlib.sha256(reference.read_bytes()).hexdigest()

    good = CoeffsExport(1, tmp_path / "good", modes=((1, 4),), digests={"m=1,N=4": digest})
    good.prepare()
    assert _run_passes(good)["fail_share"] == 0.0

    bad = CoeffsExport(1, tmp_path / "bad", modes=((1, 4),), digests={"m=1,N=4": "0" * 64})
    bad.prepare()
    summary = _run_passes(bad)
    assert summary["fail_share"] == 1.0
    assert summary["unknown_failures"] == 1


def test_wrong_float_output_fails_the_exact_check(tmp_path):
    workload = EvalSweep(3, tmp_path, modes=((1, 6),))
    workload.prepare()
    (op,) = workload.next_pass()
    out = op.run()
    assert op.check(out) == "ok"
    w = out[3].copy()
    w[op.inputs[3][0]] *= 1.0 + 1e-9
    assert op.check(out[:3] + (w,) + out[4:]).startswith("fail: W at grid index")


def _fake_oracle(monkeypatch, failing_m):
    def verify_all(params, betas, **kwargs):
        ok = params.m != failing_m
        return [SimpleNamespace(error=None, passed=ok, checks={"eigenvalue_gap": ok}) for _ in betas]

    monkeypatch.setattr(oracle, "verify_all", verify_all)
    monkeypatch.setattr(oracle, "quadrature_an", lambda state, n, theta: 1.0)
    monkeypatch.setattr(oracle, "an_closed_form", lambda state, n, theta: 1.0)


def test_injected_fail_verdict_raises_fail_share(monkeypatch, tmp_path):
    workload = VerifyBattery(1, tmp_path)
    workload.prepare()
    _fake_oracle(monkeypatch, failing_m=None)
    assert _run_passes(workload)["fail_share"] == 0.0

    _fake_oracle(monkeypatch, failing_m=2)
    summary = _run_passes(workload)
    cases = 1 + VerifyBattery.SEEDED_BETAS
    assert summary["fail_share"] == cases / summary["attempted"]
    assert summary["unknown_failures"] == cases


def test_known_false_fail_raises_fail_share_but_not_unknown_failures(monkeypatch, tmp_path):
    workload = VerifyBattery(1, tmp_path)
    workload.prepare()
    _fake_oracle(monkeypatch, failing_m=20)  # reference.json records m = 20 as a false FAIL
    summary = _run_passes(workload)
    cases = 1 + VerifyBattery.SEEDED_BETAS
    assert summary["fail_share"] == cases / summary["attempted"]
    assert summary["known_failures"] == cases
    assert summary["unknown_failures"] == 0


def test_host_speed_scales_by_the_gaps_next_to_an_operation():
    host = run.HostSpeed(per_gap=2)
    host.gaps = [[1.0, 1.0], [2.0, 2.0], [4.0, 4.0], [8.0, 8.0]]
    host.inner = [[], [3.0, 3.0, 3.0], [1.0, 1.0, 1.0, 5.0]]
    ref = run.CALIBRATION_REFERENCE_S
    assert host.scale(0) == ref / 1.5  # median of the gaps
    assert host.scale(1) == ref / 3.0  # median of gaps and inside samples
    assert host.scale(2) == ref / 2.0  # mean of the inside samples


def test_samples_inside_an_operation_are_left_out_of_its_latency():
    host = run.HostSpeed(per_gap=1, interval_s=0.01)
    op = SimpleNamespace(run=lambda: sum(i * i for i in range(3_000_000)),
                         check=lambda out: "ok", deadline_s=None)
    handler = signal.getsignal(signal.SIGPROF)
    host.gap()
    start = perf_counter()
    seconds, outcome = run.run_op(op, host=host)
    elapsed = perf_counter() - start
    host.gap()
    assert outcome == "ok"
    assert len(host.inner) == 1 and host.inner[0]
    assert seconds < elapsed - sum(host.inner[0]) + 1e-3
    assert host.scale(0) > 0.0
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is handler


def test_metric_names():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert bench["per_layer"] == tracer.per_layer_spec()
    reported = set(tracer.Tracer().layer_metrics()) | {"trace.overhead_s", "trace.overhead_share"}
    assert reported == {m["name"] for m in bench["per_layer"]}


def _namespaces():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "sws1" or name.startswith("sws1.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_wrappers_are_removed_after_a_traced_run():
    before = _namespaces()
    with tracer.Tracer() as tr:
        assert oracle.compute_series is not before[("sws1.oracle", "compute_series")]
        assert sws1.compute_series is not before[("sws1", "compute_series")]
        state = recurrence.compute_series(ModeParams(1, 5))
        try:
            evaluate.eval_energy(state, 0.1, upto=99)
        except ValueError:
            pass
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tr.calls["recurrence.advance"] == 5
    assert tr.calls["evaluate.eval_energy"] == 1
    assert tr.counters["evaluate.points"] == 0
    assert 0.0 <= tr.self_time["recurrence.compute_series"] <= tr.busy["recurrence.compute_series"]
    assert [row["n"] for row in tr.order_facts()[0]["orders"]] == list(range(6))
