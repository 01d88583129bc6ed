"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workload NAME [--seeds 1-10]

Runs benchmarks/run.py once per seed, one run at a time, with the run
length from BENCHMARK.json.  For every metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4) and the quartile
distance as a share of the median, next to the metric's bound.  The
individual results go to
benchmarks/results/spread-<workload>-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="range, e.g. 1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in _seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(dict(result, seed=seed))
        values = " ".join(f"{k}={v['value']:.4g}"
                          for k, v in result["metrics"].items()
                          if k in bounds)
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']} {values}",
              flush=True)
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}")
    out = os.path.join(HERE, "results",
                       f"spread-{args.workload}-{runs[0]['seed']}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(runs, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
