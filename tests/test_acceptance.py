"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its measured figure and runtime.

Criteria 1-7 run the `selftest` invariant checks at larger sizes, so each
invariant is written once; criterion 8 runs `selftest` itself.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

from ypqwave.angular import angular_eigenvalue
from ypqwave.cli import run
from ypqwave.selftest import (CHECKS, check_ads, check_angular, check_cache,
                              check_config, check_geometry,
                              check_jacobi_norms, check_profiles,
                              check_propagator, check_quadrature,
                              check_radial_kernel, check_radial_oracle,
                              check_radial_slopes, check_serialization,
                              check_spectrum)


def _report(name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s over budget {budget}s"


def _run_checks(name: str, budget: float, *checks):
    """Run each (check, sizes) pair and report them as one criterion."""
    t0 = time.time()
    results = [check(**sizes) for check, sizes in checks]
    _report(name, all(ok for ok, _ in results),
            "; ".join(detail for _, detail in results),
            time.time() - t0, budget)


def test_criterion_1_geometry():
    _run_checks("criterion 1 (geometry lattice)", 1.0,
                (check_geometry, {"p_top": 6}),
                (check_profiles, {}),
                (check_serialization, {}))


def test_criterion_2_angular():
    pairs = [(n, m) for n in range(-3, 4) for m in range(-3, 4)]
    _run_checks("criterion 2 (angular basis)", 10.0,
                (check_angular, {"pairs": pairs, "j_max": 10}),
                (check_quadrature, {}),
                (check_jacobi_norms, {}))


def test_criterion_3_radial_vs_oracle():
    problems = [(m, l, lam) for (m, l) in ((0, 0), (1, 0), (0, 1), (2, -1))
                for lam in (0.0, angular_eigenvalue(1, 0, 1))]
    _run_checks("criterion 3 (radial vs shooting)", 120.0,
                (check_radial_oracle, {"labels": ((2, 3), (3, 4)),
                                       "problems": problems, "k_max": 4}),
                # endpoint exponents 367.5 and 157.5
                (check_radial_oracle, {"labels": ((5, 7),),
                                       "problems": ((0, 1, 0.0), (0, -1, 0.0)),
                                       "k_max": 2}),
                (check_radial_kernel, {"n_basis": 12}),
                (check_cache, {}))


def test_criterion_4_endpoint_exponents():
    cases = [(2, 3, 0, 1, 0), (2, 3, 1, 0, 1), (2, 3, 2, -1, 0),
             (2, 3, 1, 1, 2), (3, 4, 0, 1, 0), (3, 4, 2, -1, 1)]
    _run_checks("criterion 4 (endpoint exponents)", 30.0,
                (check_radial_slopes, {"cases": cases, "n_basis": 26}))


def test_criterion_5_spectrum():
    _run_checks("criterion 5 (spectrum assembly)", 120.0,
                (check_spectrum, {"bounds": (1, 1, 1, 1, 1), "n_basis": 36,
                                  "n_modes": 20, "n_points": 20}))


def test_criterion_6_ads_modes():
    _run_checks("criterion 6 (ads modes)", 20.0,
                (check_ads, {"beta1s": (0, 1, 3), "cs": (2.0, 2.7, 5.0, 100.0),
                             "i_max": 12, "s1_max": 4}))


def test_criterion_7_propagator():
    _run_checks("criterion 7 (propagator diagnostics)", 30.0,
                (check_propagator, {"beta_step": 4}),
                (check_config, {}))


def test_criterion_8_selftest(capsys):
    t0 = time.time()
    code = run(["selftest"])
    out = capsys.readouterr().out
    elapsed = time.time() - t0
    with capsys.disabled():
        _report("criterion 8 (selftest)", code == 0,
                f"exit {code}, {out.count('PASS')} checks", elapsed, 300.0)


def test_every_selftest_check_is_in_a_criterion():
    criteria = [test_criterion_1_geometry, test_criterion_2_angular,
                test_criterion_3_radial_vs_oracle,
                test_criterion_4_endpoint_exponents,
                test_criterion_5_spectrum, test_criterion_6_ads_modes,
                test_criterion_7_propagator]
    used = {name for fn in criteria for name in fn.__code__.co_names}
    missing = [name for name, check, _, _ in CHECKS
               if check.__name__ not in used]
    assert not missing, f"selftest checks no criterion runs: {missing}"
