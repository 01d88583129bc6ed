"""Spans for the traced benchmark run, and the per-layer metrics derived
from them.

`instrument` wraps the public functions of each ypqwave layer at the
names the program calls them by, so the program itself is unchanged.
Each call records one span (name, start, end, parent span, phase) in
memory; counts are attributes of the span in which they happen.  The
runner opens one root span per set-up and per timed operation, and
`layer_metrics` turns the spans into the per-layer figures.
"""

from __future__ import annotations

import functools
import os
import time
import weakref

# (metric, span name) pairs; each value is the self time of those spans:
# duration minus the time covered by their child spans.
SELF_TIMES = (
    ("cli.self_s", "cli.run"),
    ("cache.get_s", "cache.get"),
    ("spectrum.build_modes_s", "spectrum.build_modes"),
    ("radial.solve_s", "radial.solve"),
    ("shooting.oracle_s", "shooting.oracle"),
    ("ads.block_s", "ads.block"),
    ("ads.project_s", "ads.project"),
    ("ads.synthesize_s", "ads.synthesize"),
    ("propagator.init_s", "propagator.init"),
    ("propagator.evolve_s", "propagator.evolve"),
    ("propagator.duhamel_s", "propagator.duhamel"),
)

# counts summed over spans
COUNTS = (
    "cli.output_bytes", "cli.rows",
    "cache.hits", "cache.misses", "cache.recoveries",
    "spectrum.modes", "radial.solves",
    "shooting.oracle_calls", "shooting.matcher_calls",
    "ads.blocks", "propagator.keys",
)

# sizes: the largest value seen in any span
SIZES = ("ads.grid_bytes", "ads.betas", "ads.sectors")

UNITS = {"cli.output_bytes": "bytes", "ads.grid_bytes": "bytes"}


def metric_names() -> list[str]:
    return [m for m, _ in SELF_TIMES] + list(COUNTS) + list(SIZES)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return UNITS.get(name, "count")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "prepare"
        self._stack: list[dict] = []
        self._patches: list[tuple] = []

    def begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "phase": self.phase, "start": time.perf_counter(),
                "end": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def add(self, key: str, n: int = 1, span: dict | None = None) -> None:
        """Add n to a count on `span`, by default the innermost open one."""
        target = span if span is not None else self._stack[-1]
        target["attrs"][key] = target["attrs"].get(key, 0) + n

    def replace(self, owner, attr: str, wrapper) -> None:
        """Set owner.attr to wrapper until restore()."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a wrapper that records span `name`;
        after(span, args, result) runs once the call has returned."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(span, args, result)
            return result

        self.replace(owner, attr, wrapper)

    def patch_counter(self, owner, attr: str, key: str) -> None:
        """Count calls of owner.attr on the enclosing span, with no span
        of their own (for functions called many times per span)."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if self._stack:
                self.add(key)
            return orig(*args, **kwargs)

        self.replace(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


def _grid_bytes(fields: dict) -> int:
    return int(sum(arr.nbytes for arr in fields.values()))


def instrument(tracer: Tracer) -> None:
    """Wrap the public calls between ypqwave's layers."""
    from ypqwave import (ads, cli, config, propagator, radial, shooting,
                         spectrum)

    # cli: the whole `ypqwave ...` invocation; output size is measured
    # after the span has closed, so it does not count as cli time
    def cli_after(span, args, result):
        argv = list(args[0])
        if "propagate" not in argv or "--config" not in argv:
            return
        cfg = config.load_config(argv[argv.index("--config") + 1])
        for name in os.listdir(cfg.out_dir):
            path = os.path.join(cfg.out_dir, name)
            tracer.add("cli.output_bytes", os.path.getsize(path), span)
            with open(path, "rb") as fh:
                tracer.add("cli.rows", fh.read().count(b"\n") - 1, span)

    tracer.patch(cli, "run", "cli.run", after=cli_after)

    # cache: a hit never calls `solve`; a miss calls it with no entry on
    # disk; a recovery calls it although an entry existed (corrupt/short)
    cache_get = cli.cache_get_or_solve

    @functools.wraps(cache_get)
    def cache_wrapper(key, solve, cache_dir, *args, **kwargs):
        existed = os.path.exists(os.path.join(cache_dir, key.filename()))
        solved = []

        def counted_solve():
            solved.append(True)
            return solve()

        span = tracer.begin("cache.get")
        try:
            return cache_get(key, counted_solve, cache_dir, *args, **kwargs)
        finally:
            tracer.end(span)
            tracer.add("cache.hits" if not solved else
                       "cache.recoveries" if existed else "cache.misses",
                       1, span)

    tracer.replace(cli, "cache_get_or_solve", cache_wrapper)

    tracer.patch(propagator, "build_modes", "spectrum.build_modes",
                 after=lambda span, a, res: tracer.add(
                     "spectrum.modes", len(res), span))
    for owner in (radial, spectrum, cli):
        tracer.patch(owner, "solve_radial", "radial.solve",
                     after=lambda span, a, res: tracer.add(
                         "radial.solves", 1, span))
    tracer.patch(shooting, "shooting_oracle", "shooting.oracle",
                 after=lambda span, a, res: tracer.add(
                     "shooting.oracle_calls", 1, span))
    tracer.patch_counter(shooting, "shooting_matcher",
                         "shooting.matcher_calls")

    # ModeTable.block caches its result per beta: only the first call
    # for a beta on a table builds, so only that call gets a span
    block = ads.ModeTable.block
    built: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @functools.wraps(block)
    def block_wrapper(table, beta):
        seen = built.setdefault(table, set())
        if beta in seen:
            return block(table, beta)
        span = tracer.begin("ads.block")
        try:
            result = block(table, beta)
        finally:
            tracer.end(span)
        seen.add(beta)
        tracer.add("ads.blocks", 1, span)
        return result

    tracer.replace(ads.ModeTable, "block", block_wrapper)

    def sizes(span, fields: dict, n_betas: int):
        for key, val in (("ads.grid_bytes", _grid_bytes(fields)),
                         ("ads.betas", n_betas), ("ads.sectors", len(fields))):
            span["attrs"][key] = max(span["attrs"].get(key, 0), val)

    tracer.patch(propagator, "project_cauchy", "ads.project",
                 after=lambda span, a, res: sizes(span, a[0], len(a[1])))
    for owner in (propagator, ads):
        tracer.patch(owner, "synthesize", "ads.synthesize",
                     after=lambda span, a, res: sizes(
                         span, res, len({beta for beta, _ in a[0].entries})))

    kg = propagator.KGPropagator
    tracer.patch(kg, "__init__", "propagator.init")
    tracer.patch(kg, "evolve", "propagator.evolve")

    def duhamel_after(span, a, res):
        keys = set()
        for sl in a[2].slices:
            keys.update(getattr(sl, "entries", ()))
        tracer.add("propagator.keys", len(keys), span)

    tracer.patch(kg, "evolve_inhomogeneous", "propagator.duhamel",
                 after=duhamel_after)


def self_times(spans: list[dict]) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures for one set-up plus one timed operation.

    A layer's total within the set-up phase is divided by the number of
    set-ups, its total within the timed phase by the number of timed
    operations, and the two are added.  Sizes are the largest seen.
    """
    roots = {"setup": 0, "op": 0}
    for s in spans:
        if s["name"] == f"bench.{s['phase']}" and s["phase"] in roots:
            roots[s["phase"]] += 1
    selfs = self_times(spans)
    out = {name: 0.0 for name, _ in SELF_TIMES}
    out.update({name: 0.0 for name in COUNTS})
    out.update({name: 0 for name in SIZES})
    by_span = {span: metric for metric, span in SELF_TIMES}
    for s, self_s in zip(spans, selfs):
        n = roots.get(s["phase"], 0)
        if n == 0:
            continue
        metric = by_span.get(s["name"])
        if metric is not None:
            out[metric] += self_s / n
        for key, val in s["attrs"].items():
            if key in SIZES:
                out[key] = max(out[key], val)
            elif key in out:
                out[key] += val / n
    return out
