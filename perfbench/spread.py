"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 --seconds S [--trace 0|1]

Runs `perfbench/run.py` once per seed, one after another, and prints for
every metric the median and the quartile spread (q3 - q1) / median over
the seeds, as `statistics.quantiles(values, n=4)` gives the quartiles.
The report and result lines of all runs are appended to --out when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
               str(seed), "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"seed": seed, "report": json.loads(lines[-2]), **result}) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        summary = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {summary}", flush=True)

    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{name:40s} median {med:.6g}  spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
