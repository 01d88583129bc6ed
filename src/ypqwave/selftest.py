"""Invariant suite behind the `selftest` subcommand and the acceptance
tests.

Each check re-derives its expected values from an independent route
(closed forms, exact moments, shooting, trig identities) and returns
(ok, detail).  Each check has one set of problem sizes, written in the
check itself; CHECKS assigns every check to one acceptance criterion,
and the acceptance suite runs each criterion's rows exactly as
`selftest` does.  `selftest` prints one pass/fail line per check; exit
status 0 only if everything passes.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
import warnings
from fractions import Fraction

import numpy as np

from .angular import angular_eigenvalue, angular_gram, angular_mode
from .ads import (SpectralCoefficients, ads_gram, ads_operator_residual,
                  s3_laplace_residual)
from .cache import CacheKey, cache_get_or_solve
from .config import parse_config
from .errors import ConfigError
from .geometry import eval_profiles, profile_h, solve_geometry
from .propagator import CauchyData, KGPropagator, SourceTerm, TruncationSpec
from .radial import radial_problem, solve_radial
from .shooting import oracle_bracket, shooting_oracle
from .specfun import (gauss_jacobi, jacobi_log_norm, jacobi_norm_integral,
                      jacobi_poly_all, rule_on_interval)
from .spectrum import (TruncationPolicy, build_modes, enumerate_modes,
                       basis_gram, laplacian_residual, random_points)

__all__ = ["CHECKS", "run_selftest"]


def check_geometry():
    """Quantization, cubic-root and h-identity residuals, root ordering
    and the tau/sigma invariants over the label lattice 2 <= p <= 6."""
    labels = [(p, q) for p in range(2, 7) for q in range(p + 1, 2 * p)
              if math.gcd(p, q) == 1]
    worst = 0.0
    for (p, q) in labels:
        gp = solve_geometry(p, q)
        if not (0.0 < gp.a < 1.0 and gp.y_minus < 0.0 < gp.y_plus < 1.0):
            return False, f"ordering broken for ({p}, {q})"
        if gp.tau <= 0.0 or gp.sigma % 2:
            return False, f"tau/sigma invariants broken for ({p}, {q})"
        hm, hp = profile_h(gp.y_minus, gp.a), profile_h(gp.y_plus, gp.a)
        worst = max(worst, abs((hm - hp) / (2.0 * hm) - p / q))
        for y in (gp.y_minus, gp.y_plus):
            worst = max(worst, abs(gp.a - 3.0 * y * y + 2.0 * y ** 3))
            worst = max(worst, abs(profile_h(y, gp.a) - (y - 1.0) / (6.0 * y)))
    return worst < 1e-12, f"max residual {worst:.2e} over {len(labels)} labels"


def check_profiles():
    gp = solve_geometry(2, 3)
    pv = eval_profiles(gp, 0.0)
    if abs(pv.w - 2.0 * gp.a) > 1e-14 or abs(pv.r - 1.0) > 1e-14:
        return False, "midpoint profile values off"
    worst = 0.0
    for y in np.linspace(gp.y_minus + 0.05, gp.y_plus - 0.05, 7):
        h = 1e-6
        fd = (eval_profiles(gp, y + h).r - eval_profiles(gp, y - h).r) / (2 * h)
        a = gp.a
        num, den = a - 3 * y * y + 2 * y ** 3, a - y * y
        exact = (6 * y * y - 6 * y) / den + 2 * y * num / den ** 2
        worst = max(worst, abs(fd - exact))
    return worst < 1e-8, f"max profile derivative mismatch {worst:.2e}"


def check_quadrature():
    worst = 0.0
    # the second rule's outer weights are many orders below its peak
    for a, b, n in ((1, 2, 8), (300, 21, 40)):
        rule = gauss_jacobi(a, b, n)
        for k in range(2 * n):
            exact = float(_jacobi_moment(a, b, k))
            worst = max(worst, abs(rule.integrate(rule.nodes ** k) - exact)
                        / abs(exact))
    # its orthonormal polynomials are largest where those weights are least
    rows = (jacobi_poly_all(a, b, n - 1, rule.nodes)
            * np.exp(-0.5 * jacobi_log_norm(a, b, np.arange(n)))[:, None])
    worst = max(worst, np.abs((rows * rule.weights) @ rows.T
                              - np.eye(n)).max())
    two = gauss_jacobi(0.0, 0.0, 2)
    worst = max(worst, abs(two.nodes[1] - 1.0 / math.sqrt(3.0)),
                abs(two.weights[0] - 1.0))
    return worst < 1e-12, f"max moment/Gram error {worst:.2e}"


def _jacobi_moment(alpha: int, beta: int, k: int) -> Fraction:
    """int_-1^1 (1-x)^alpha (1+x)^beta x^k dx, exact (binomial expansion
    of x = (1+x) - 1 into Beta-function pieces)."""
    total = Fraction(0)
    for i in range(k + 1):
        bpart = Fraction(math.factorial(alpha) * math.factorial(beta + i),
                         math.factorial(alpha + beta + i + 1))
        total += (math.comb(k, i) * (-1) ** (k - i)
                  * Fraction(2) ** (alpha + beta + i + 1) * bpart)
    return total


def check_jacobi_norms():
    worst = 0.0
    for (a, b, j) in [(0, 0, 0), (1, 1, 0), (2, 3, 4), (5, 2, 7)]:
        z, w = rule_on_interval(0.0, 1.0, a, b, j + 6)
        pj = jacobi_poly_all(a, b, j, 1.0 - 2.0 * z)[j]
        quad = float(np.dot(w, pj ** 2))
        closed = jacobi_norm_integral(a, b, j)
        worst = max(worst, abs(quad - closed) / closed)
    return worst < 1e-12, f"max relative norm error {worst:.2e}"


def check_angular():
    """Gram of v_{nm0..10} and the ODE residual of every one of them,
    for each |n|, |m| <= 3."""
    th = np.pi * (1.0 + np.cos(np.pi * (2 * np.arange(40) + 1) / 80.0)) / 2.0
    j_max = 10
    worst_gram = 0.0
    worst_res = 0.0
    for (n, m) in [(n, m) for n in range(-3, 4) for m in range(-3, 4)]:
        g = angular_gram(n, m, j_max)
        worst_gram = max(worst_gram, np.abs(g - np.eye(j_max + 1)).max())
        for j in range(j_max + 1):
            md = angular_mode(n, m, j)
            worst_res = max(worst_res, np.abs(md.operator_residual(th)).max())
    ok = worst_gram < 1e-11 and worst_res < 1e-7
    return ok, f"gram dev {worst_gram:.2e}, ODE residual {worst_res:.2e}"


def check_radial_kernel():
    """The constant mode of Y^{2,3} at (m, l, Lambda) = 0, at two sizes."""
    gp = solve_geometry(2, 3)
    ell = tail = 0.0
    for n_basis in (12, 16):
        md = solve_radial(radial_problem(gp, 0, 0, 0.0), 0, n_basis)[0]
        ell, tail = max(ell, md.ell), max(tail, np.abs(md.coeffs[1:]).max())
    ok = ell < 1e-9 and tail < 1e-9
    return ok, f"kernel ell {ell:.1e}, nonconstant part {tail:.1e}"


def check_radial_oracle():
    """Galerkin eigenvalues 0..k_max against the shooting oracle on a
    (p, q) x (m, l) x Lambda matrix and at the endpoint exponents 367.5
    and 157.5 of Y^{5,7}; a zero eigenvalue is checked absolutely, the
    others relative to the oracle's value."""
    cases = [(p, q, m, l, lam, 4) for (p, q) in ((2, 3), (3, 4))
             for (m, l) in ((0, 0), (1, 0), (0, 1), (2, -1))
             for lam in (0.0, angular_eigenvalue(1, 0, 1))]
    cases += [(5, 7, 0, l, 0.0, 2) for l in (1, -1)]
    worst = 0.0
    for (p, q, m, l, lam, k_max) in cases:
        prob = radial_problem(solve_geometry(p, q), m, l, lam)
        for md in (modes := solve_radial(prob, k_max, 28)):
            if md.ell == 0.0:
                ell = shooting_oracle(prob, (-1e-6, 1e-6), 0)
                worst = max(worst, abs(ell))
                continue
            ell = shooting_oracle(prob, oracle_bracket(
                [mode.ell for mode in modes], md.k), md.k)
            worst = max(worst, abs(md.ell - ell) / abs(ell))
    return worst < 1e-6, (f"max rel disagreement {worst:.2e} "
                          f"over {len(cases)} problems")


def check_radial_slopes():
    """Fitted log-log slopes of g_k at both endpoints against the
    characteristic exponents, for each (p, q, m, l, k, n_basis) case."""
    cases = [(2, 3, 0, 1, 0, 24)] + [
        (*case, 26) for case in ((2, 3, 0, 1, 0), (2, 3, 1, 0, 1),
                                 (2, 3, 2, -1, 0), (2, 3, 1, 1, 2),
                                 (3, 4, 0, 1, 0), (3, 4, 2, -1, 1))]
    worst = 0.0
    for (p, q, m, l, k, n_basis) in cases:
        gp = solve_geometry(p, q)
        prob = radial_problem(gp, m, l, 0.0)
        md = solve_radial(prob, k, n_basis)[k]
        d = np.logspace(-4, -3, 12) * (gp.y_plus - gp.y_minus)
        for nu, ys in ((prob.nu_minus, gp.y_minus + d),
                       (prob.nu_plus, gp.y_plus - d)):
            slope = np.polyfit(np.log(d), np.log(np.abs(md.value(ys))), 1)[0]
            worst = max(worst, abs(slope - nu))
    return worst < 0.05, (f"max slope deviation {worst:.3f} "
                          f"over {2 * len(cases)} fits")


def check_spectrum():
    """Gram of the n_modes lowest modes of Y^{2,3} with every (n, m, l,
    k, j) label at most 1, and the Laplacian residual of each at n_points
    random points, for each (n_basis, n_modes, n_points)."""
    gp = solve_geometry(2, 3)
    indices = enumerate_modes(gp, TruncationPolicy(1, 1, 1, 1, 1))
    dev = res = 0.0
    for n_basis, n_modes, n_points in ((28, 12, 12), (36, 20, 20)):
        modes = build_modes(gp, indices, n_basis)[:n_modes]
        dev = max(dev, np.abs(basis_gram(modes) - np.eye(len(modes))).max())
        rng = np.random.default_rng(12)
        res = max(res, *(laplacian_residual(
            md, random_points(gp, n_points, rng)).max() for md in modes))
    ok = dev < 1e-9 and res < 1e-6
    return ok, f"gram dev {dev:.2e}, laplacian residual {res:.2e}"


def check_ads():
    """AdS radial Gram, operator residual (absolute) and exact eigenvalue
    spacing for beta1 <= 3, six values of c and i <= 12, and the S^3
    Laplace residual of every harmonic with s1 <= 4."""
    beta1s, cs = (0, 1, 2, 3), (2.0, 2.5, 2.7, 3.4, 5.0, 100.0)
    i_max, s1_max = 12, 4
    worst_gram = 0.0
    worst_res = 0.0
    xs = np.linspace(0.1, 1.47, 40)
    for b1 in beta1s:
        for c in cs:
            worst_gram = max(worst_gram, np.abs(
                ads_gram(b1, c, i_max) - np.eye(i_max + 1)).max())
            worst_res = max(worst_res, np.abs(ads_operator_residual(
                b1, c, i_max, xs, M=0.5, kappa=1.0)).max())
    # spacing identity, exact in rational arithmetic
    ok_sp = all(
        (2 * (i + 1) + b1 + c + 2) ** 2 - (2 * i + b1 + c + 2) ** 2
        == 4 * (2 * i + b1 + c + 3)
        for b1 in beta1s for c in map(Fraction, cs) for i in range(i_max))
    rng = np.random.default_rng(4)
    pts = [(rng.uniform(0.3, 2.8), rng.uniform(0.3, 2.8), rng.uniform(0, 6.2))
           for _ in range(20)]
    s3res = max(s3_laplace_residual(s1, s2, s3, pts).max()
                for s1 in range(s1_max + 1) for s2 in range(s1 + 1)
                for s3 in range(-s2, s2 + 1))
    ok = worst_gram < 1e-10 and worst_res < 1e-6 and ok_sp and s3res < 1e-6
    return ok, (f"gram dev {worst_gram:.2e}, L-residual {worst_res:.2e}, "
                f"S3 residual {s3res:.2e}, spacing exact {ok_sp}")


def check_propagator():
    """Energy conservation, time reflection, composition, a zero source
    and a constant-source Duhamel closed form, with random coefficients
    on every fourth mode."""
    gp = solve_geometry(2, 3)
    # spectral data only: the quadrature grid is never built
    trunc = TruncationSpec(s1_max=1, n_max=1, m_max=0, l_max=0, k_max=1,
                           j_max=1, i_max=3, n_basis=20)
    prop = KGPropagator(gp, M=1.0, kappa=1.0, trunc=trunc)
    rng = np.random.default_rng(17)
    a0, a1 = SpectralCoefficients(), SpectralCoefficients()
    for beta in prop.betas[::4]:
        for i in (0, 1, 3):
            a0[(beta, i)] = complex(rng.normal(), rng.normal())
            a1[(beta, i)] = complex(rng.normal(), rng.normal())
    data = CauchyData(a0, a1)
    e0 = prop.mode_energy(data)
    worst_e = 0.0
    for t in range(11):
        st = prop.evolve(data, float(t), synthesize_values=False)
        et = prop.mode_energy(CauchyData(st.coefficients, st.velocity))
        worst_e = max(worst_e, max(abs(et[k] - e0[k]) / e0[k]
                                   for k in e0 if e0[k] > 0.0))
    refl = prop.check_reflection(data, 3.1)
    s1 = prop.evolve(data, 1.9, synthesize_values=False)
    s12 = prop.evolve(CauchyData(s1.coefficients, s1.velocity), 2.6,
                      synthesize_values=False)
    sdir = prop.evolve(data, 4.5, synthesize_values=False)
    comp = max(abs(s12.coefficients[k] - sdir.coefficients[k])
               for k in sdir.coefficients.entries)
    zero_src = SourceTerm(np.linspace(0.0, 5.0, 6),
                          [SpectralCoefficients()] * 6)
    si = prop.evolve_inhomogeneous(data, zero_src, 4.0,
                                   synthesize_values=False)
    sh = prop.evolve(data, 4.0, synthesize_values=False)
    zsrc = max(abs(si.coefficients[k] - sh.coefficients[k])
               for k in sh.coefficients.entries)
    beta = prop.betas[0]
    one = SpectralCoefficients()
    one[(beta, 0)] = 1.0
    const_src = SourceTerm(np.linspace(0.0, 5.0, 9), [one] * 9)
    zero_data = CauchyData(SpectralCoefficients(), SpectralCoefficients())
    om = prop.omega((beta, 0))
    tt = 3.7
    sc = prop.evolve_inhomogeneous(zero_data, const_src, tt,
                                   synthesize_values=False)
    duh = abs(sc.coefficients[(beta, 0)]
              - (1.0 - math.cos(tt * math.sqrt(om))) / om)
    ok = (worst_e < 1e-12 and refl < 1e-12 and comp < 1e-12
          and zsrc < 1e-14 and duh < 1e-10)
    return ok, (f"energy {worst_e:.1e}, reflection {refl:.1e}, "
                f"composition {comp:.1e}, zero-source {zsrc:.1e}, "
                f"duhamel {duh:.1e}")


def check_cache():
    gp = solve_geometry(2, 3)
    prob = radial_problem(gp, 1, 0, 2.0)
    calls = {"n": 0}

    def solve():
        calls["n"] += 1
        return solve_radial(prob, 1, 16)

    with tempfile.TemporaryDirectory() as tmp:
        key = CacheKey(p=2, q=3, m=1, l=0, lambda_cap=2.0, n_basis=16)
        first = cache_get_or_solve(key, solve, tmp, min_modes=2)
        second = cache_get_or_solve(key, solve, tmp, min_modes=2)
        if calls["n"] != 1:
            return False, f"solver invoked {calls['n']} times, expected 1"
        if any(abs(a.ell - b.ell) > 0.0 for a, b in zip(first, second)):
            return False, "cache round trip not bitwise"
        path = os.path.join(tmp, key.filename())
        with open(path, "r+", encoding="utf-8") as fh:
            entry = json.load(fh)
            entry["payload"]["modes"][0]["ell"] += 1e-3
            fh.seek(0)
            json.dump(entry, fh)
            fh.truncate()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            third = cache_get_or_solve(key, solve, tmp, min_modes=2)
        if calls["n"] != 2:
            return False, "corrupted entry was not re-solved"
        if abs(third[0].ell - first[0].ell) > 0.0:
            return False, "recovered entry differs from fresh solve"
    return True, "hit, bitwise round trip, corruption recovery"


def check_config():
    good = parse_config(
        "schema_version = 1\np = 2\nq = 3\n"
        "phi0_coef = 0 0 0 0 0 0 0 0 0 : 1.0 : 0.0\n")
    if good.p != 2 or len(good.phi0_coefs) != 1:
        return False, "parse result wrong"
    try:
        parse_config("schema_version = 1\np = 2\nq = 3\nbogus = 1\n"
                     "phi0_coef = 0 0 0 0 0 0 0 0 0 : 1 : 0\n")
        return False, "unknown key accepted"
    except ConfigError as exc:
        if "line 4" not in str(exc):
            return False, f"wrong line number in: {exc}"
    return True, "parse and line-precise errors"


def check_serialization():
    gp = solve_geometry(3, 4)
    for val in (gp.a, gp.tau, gp.y_minus, math.pi, 1.0 / 3.0):
        if float(format(val, ".17g")) != val:
            return False, f"17g round trip failed for {val!r}"
    return True, "17-digit decimal round trip exact"


# (acceptance criterion, name, check)
CHECKS = [
    (1, "geometry lattice", check_geometry),
    (1, "profile functions", check_profiles),
    (2, "gauss-jacobi exactness", check_quadrature),
    (2, "jacobi norm integrals", check_jacobi_norms),
    (2, "angular basis", check_angular),
    (3, "radial kernel", check_radial_kernel),
    (3, "radial vs shooting", check_radial_oracle),
    (4, "radial endpoint slopes", check_radial_slopes),
    (5, "spectrum assembly", check_spectrum),
    (6, "ads modes", check_ads),
    (7, "propagator diagnostics", check_propagator),
    (3, "eigenmode cache", check_cache),
    (7, "run config", check_config),
    (1, "serialization", check_serialization),
]


def run_selftest() -> int:
    failures = 0
    t_start = time.time()
    for _, name, check in CHECKS:
        t0 = time.time()
        try:
            ok, detail = check()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}  {name:<24} {detail}  [{time.time() - t0:.1f}s]")
    total = time.time() - t_start
    print(f"{'OK' if failures == 0 else 'FAILED'}: "
          f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed "
          f"in {total:.1f}s")
    return 0 if failures == 0 else 1
