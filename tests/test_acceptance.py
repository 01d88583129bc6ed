"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its measured figure and runtime.

Criteria 1-7 run the rows of `ypqwave.selftest.CHECKS` assigned to them,
exactly as `selftest` runs them, so each invariant and its problem sizes
are written once; criterion 8 runs `selftest` itself.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

from ypqwave.cli import run
from ypqwave.selftest import CHECKS


def _report(name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s over budget {budget}s"


def _run_criterion(criterion: int, name: str, budget: float):
    """Run the CHECKS rows of one criterion and report them together."""
    t0 = time.time()
    results = [check() for c, _, check in CHECKS if c == criterion]
    _report(f"criterion {criterion} ({name})", all(ok for ok, _ in results),
            "; ".join(detail for _, detail in results),
            time.time() - t0, budget)


def test_criterion_1_geometry():
    _run_criterion(1, "geometry lattice", 1.0)


def test_criterion_2_angular():
    _run_criterion(2, "angular basis", 10.0)


def test_criterion_3_radial_vs_oracle():
    _run_criterion(3, "radial vs shooting", 120.0)


def test_criterion_4_endpoint_exponents():
    _run_criterion(4, "endpoint exponents", 30.0)


def test_criterion_5_spectrum():
    _run_criterion(5, "spectrum assembly", 120.0)


def test_criterion_6_ads_modes():
    _run_criterion(6, "ads modes", 20.0)


def test_criterion_7_propagator():
    _run_criterion(7, "propagator diagnostics", 30.0)


def test_criterion_8_selftest(capsys):
    t0 = time.time()
    code = run(["selftest"])
    out = capsys.readouterr().out
    elapsed = time.time() - t0
    with capsys.disabled():
        _report("criterion 8 (selftest)", code == 0,
                f"exit {code}, {out.count('PASS')} checks", elapsed, 300.0)
