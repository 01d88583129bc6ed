"""Benchmark of the ypqwave pipeline, end to end and per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  The
full record (every set-up and operation time, the input make-up and,
when traced, the spans) goes to benchmarks/results/.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy loads: the machine has two
# cores and is shared, and one thread keeps timings steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The eigenmode cache lives in the run's scratch directory: an inherited
# cache directory would turn every cold set-up into cache hits.
os.environ.pop("YPQWAVE_CACHE_DIR", None)

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import ypqwave from this checkout's src/, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "ypqwave", "__init__.py")):
        raise SystemExit(f"error: no ypqwave package under {SRC}")
    sys.path.insert(0, SRC)
    import ypqwave
    if not os.path.abspath(ypqwave.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: ypqwave imported from {ypqwave.__file__}")


class Phase:
    """Root span of one set-up or timed operation (when tracing)."""

    def __init__(self, tracer, phase: str):
        self.tracer, self.phase = tracer, phase

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.phase = self.phase
            self.span = self.tracer.begin(f"bench.{self.phase}")
        return self

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.end(self.span)
            self.tracer.phase = "idle"
        return False


# The machine's speed drifts by up to 2x over seconds to minutes (other
# tenants of the host share its cores and caches), and the same code's
# wall times drift with it.  A fixed reference kernel, timed right before
# and after every timed set-up and operation, measures that speed; each
# timed interval is rescaled to the speed at which the kernel takes
# REFERENCE_S, its median time on the 2-core Xeon machine of the
# README's figures.  The kernel is half interpreter work and half numpy
# (matrix products and small-array calls), the two kinds of work the
# workloads do, and it calls nothing in ypqwave.
REFERENCE_S = 0.035


def reference_s() -> float:
    """Wall time of one run of the reference kernel."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((200, 200))
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(100_000):
        acc += (i * 0.5) % 3.0
        table[i & 255] = acc
    x = a
    for _ in range(20):
        x = np.tanh(a @ x * 0.01)
    for _ in range(500):
        np.sum(a[:10] * 2.0)
    return time.perf_counter() - t0


def measure(wl, seconds: float, tracer=None) -> dict:
    """A warm-up set-up and operation, then whole rounds until `seconds`
    have passed.  A round is wl.setups_per_round timed set-ups, whose
    mean is one set-up sample, followed by one timed run of each
    operation, so set-up and operation times are both sampled across the
    whole run.  The warm-up set-up is timed on its own (`cold_setup_s`)
    and stays out of the set-up samples.  Every set-up sample and
    operation time is kept raw (wall seconds) and rescaled by the mean
    of the reference times taken just before and just after it; the
    mean rescaled operation time of each round is one `round_op_s`
    sample."""
    import checks

    with Phase(tracer, "warmup"):
        t0 = time.perf_counter()
        wl.setup()
        cold_setup_s = time.perf_counter() - t0
        try:
            out = wl.ops()[0]()
            wl.check_setup()
            wl.check(0, out)
        except Exception:  # the timed rounds count this failure again
            print(f"warm-up failed: {traceback.format_exc()}", file=sys.stderr)
    refs = [reference_s()]

    def rescale(wall: float) -> float:
        refs.append(reference_s())
        return wall * REFERENCE_S / statistics.fmean(refs[-2:])

    setup_s, setup_wall_s, setup_errors = [], [], []
    op_s, op_wall_s, round_op_s, errors = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        group = []
        for _ in range(wl.setups_per_round):
            gc.collect()
            with Phase(tracer, "setup"):
                t0 = time.perf_counter()
                wl.setup()
                group.append(time.perf_counter() - t0)
            try:
                wl.check_setup()
            except checks.CheckFailed as exc:
                setup_errors.append(str(exc))
        setup_wall_s.append(statistics.fmean(group))
        setup_s.append(rescale(setup_wall_s[-1]))
        round_s = []
        for index, op in enumerate(wl.ops()):
            gc.collect()
            attempted += 1
            failure = None
            with Phase(tracer, "op"):
                t0 = time.perf_counter()
                try:
                    out = op()
                except Exception:  # an operation that raises counts as failed
                    failure = traceback.format_exc()
                dt = time.perf_counter() - t0
            scaled = rescale(dt)
            if failure is None:
                try:
                    wl.check(index, out)
                except checks.CheckFailed as exc:
                    failure = str(exc)
                except Exception:
                    failure = traceback.format_exc()
            if failure is not None:
                errors.append(f"op {index}: {failure}")
                continue
            op_wall_s.append(dt)
            op_s.append(scaled)
            round_s.append(scaled)
        if round_s:
            round_op_s.append(statistics.fmean(round_s))
        if time.perf_counter() - start >= seconds:
            break
    return {"cold_setup_s": cold_setup_s, "setup_s": setup_s,
            "setup_wall_s": setup_wall_s, "op_s": op_s,
            "op_wall_s": op_wall_s, "round_op_s": round_op_s,
            "reference_s": refs,
            "attempted": attempted,
            "errors": errors, "setup_errors": setup_errors,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv=None) -> int:
    args = _parse(argv)
    t0 = time.perf_counter()
    _import_program()
    sys.path.insert(0, HERE)
    import spans
    import workloads
    import_s = time.perf_counter() - t0

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    results = os.path.join(HERE, "results")
    os.makedirs(workdir)
    os.makedirs(results, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        if tracer is not None:
            spans.instrument(tracer)
        try:
            rec = measure(wl, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    for err in rec["setup_errors"] + rec["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    if not rec["op_s"]:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    run_s = statistics.median(rec["round_op_s"])
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(rec["setup_s"]),
                        "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MiB"},
        }
    else:
        layers = spans.layer_metrics(tracer.spans)
        metrics = {name: {"value": layers[name],
                          "unit": spans.metric_unit(name)}
                   for name in spans.metric_names()}
    result = {"correct": not rec["setup_errors"],
              "attempted": rec["attempted"], "failed": len(rec["errors"]),
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, import_s=import_s,
                  inputs=wl.describe(), cold_setup_s=rec["cold_setup_s"],
                  setup_s=rec["setup_s"], op_s=rec["op_s"], run_s=run_s,
                  setup_wall_s=rec["setup_wall_s"],
                  op_wall_s=rec["op_wall_s"],
                  round_op_s=rec["round_op_s"],
                  reference_s=rec["reference_s"],
                  errors=rec["setup_errors"] + rec["errors"])
    if tracer is not None:
        record["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
