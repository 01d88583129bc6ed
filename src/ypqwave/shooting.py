"""Independent shooting verification for the radial eigenproblem.

Clearing denominators turns the radial eigenvalue equation into an ODE
with polynomial coefficients,

    P u'' + Q u' + R u = 0,
    P = 72 A2 C3^2,   Q = 72 A2 C3 C3',
    R = 36 ell (1-y) A2 C3 - 216 Lambda A2 C3 - 18 mu^2 (1-y)^2 C3
        - 9 (1-y) pol^2,

with A2 = a - y^2, C3 = a - 3y^2 + 2y^3, mu = sigma l / tau and
pol = 12 m A2 + mu (a - 2y + y^2).  P, Q and R = R0 + ell R1 are kept as
plain ascending coefficient arrays and evaluated by Horner.  Both
interval endpoints are regular singular points (C3 has simple zeros
there), so power series u = dist^nu * sum a_k dist^k launched from each
endpoint converge on a neighbourhood; the series recursion below uses
the exact shifted polynomial coefficients and truncates when terms drop
below 1e-16 relative.  The series are launched a distance d0 inside
each endpoint, the same distance from the midpoint, so both local
solutions are carried to it in one state (u_L, u_L', u_R, u_R') over a
common parameter s, y = y_minus + d0 + s on the left and
y = y_plus - d0 - s on the right, by one adaptive DOP853 integration; an
eigenvalue is a zero of their Wronskian mismatch.  Nothing here shares
code with the Galerkin path.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
from numpy.polynomial import polynomial as npp
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import BracketError
from .radial import RadialProblem

__all__ = ["shooting_matcher", "shooting_oracle", "shooting_spectrum"]

# small enough that interior zeros of the first handful of excitations
# stay visible to the oscillation counter, large enough for fast series
_LAUNCH_FRACTION = 0.02
_SERIES_TOL = 1e-16
_SERIES_MAX = 400


def _ode_coeffs(prob: RadialProblem) -> np.ndarray:
    """Rows P, Q, R0, R1 of ascending coefficients, R = R0 + ell R1,
    zero-padded to the length of P (degree 8)."""
    a = prob.gp.a
    mu = prob.alpha_freq
    a2 = np.array([a, 0.0, -1.0])
    c3 = np.array([a, 0.0, -3.0, 2.0])
    one_my = np.array([1.0, -1.0])
    a2c3 = npp.polymul(a2, c3)
    pol = npp.polyadd(12.0 * prob.m * a2, mu * np.array([a, -2.0, 1.0]))
    rows = (72.0 * npp.polymul(a2c3, c3),
            72.0 * npp.polymul(a2c3, npp.polyder(c3)),
            reduce(npp.polyadd, (
                -216.0 * prob.lambda_cap * a2c3,
                -18.0 * mu * mu * npp.polymul(npp.polypow(one_my, 2), c3),
                -9.0 * npp.polymul(one_my, npp.polypow(pol, 2)))),
            36.0 * npp.polymul(one_my, a2c3))
    out = np.zeros((4, len(rows[0])))
    for row, c in zip(out, rows):
        row[:len(c)] = c
    return out


def _horner_pqr(desc: list, y: float) -> tuple[float, float, float]:
    """P(y), Q(y), R(y) by Horner from (p, q, r) coefficient triples in
    descending order (Python floats)."""
    pv = qv = rv = 0.0
    for pc, qc, rc in desc:
        pv = pv * y + pc
        qv = qv * y + qc
        rv = rv * y + rc
    return pv, qv, rv


def _frobenius_state(prob: RadialProblem, pqr: np.ndarray, endpoint: int,
                     dist: float) -> np.ndarray:
    """(u, du/dy)/dist^nu at distance `dist` inside the interval from the
    chosen endpoint (-1 for y_minus, +1 for y_plus); `pqr` holds the
    ascending coefficient rows P, Q, R."""
    gp = prob.gp
    if endpoint == -1:
        y0, sgn, nu = gp.y_minus, 1.0, prob.nu_minus
    else:
        y0, sgn, nu = gp.y_plus, -1.0, prob.nu_plus
    # coefficients in z of each row at y = y0 + sgn z, by Horner:
    # shifted <- shifted * (y0 + sgn z) + c_k from the top degree down
    shifted = np.zeros_like(pqr)
    for col in pqr.T[::-1]:
        nxt = y0 * shifted
        nxt[:, 1:] += sgn * shifted[:, :-1]
        nxt[:, 0] += col
        shifted = nxt
    shifted[1] *= sgn  # Q multiplies d/dy = sgn d/dz
    pz, qz, rz = shifted.tolist()

    def indicial(x: float) -> float:
        return pz[2] * x * (x - 1.0) + qz[1] * x + rz[0]

    coeffs = [1.0]
    s0 = 1.0
    s1 = nu
    for s in range(1, _SERIES_MAX):
        acc = 0.0
        for k in range(max(0, s - 6), s):
            acc += coeffs[k] * (pz[s + 2 - k] * (nu + k) * (nu + k - 1.0)
                                + qz[s + 1 - k] * (nu + k) + rz[s - k])
        a_s = -acc / indicial(nu + s)
        coeffs.append(a_s)
        term = a_s * dist ** s
        s0 += term
        s1 += (nu + s) * term
        if abs(term) < _SERIES_TOL * (abs(s0) + 1e-300) and s > 8:
            break
    # u = dist^nu * s0; du/dzeta = dist^(nu-1) * s1; du/dy = sgn du/dzeta
    return np.array([s0, sgn * s1 / dist])


def shooting_matcher(prob: RadialProblem, ell: float,
                     return_paths: bool = False):
    """Wronskian mismatch of the two endpoint solutions at the midpoint.

    Zero exactly at eigenvalues of -S.  With return_paths=True the dense
    sample values of both half-solutions are returned as well (used for
    oscillation counting).
    """
    if not math.isfinite(ell):
        raise BracketError(f"ell must be finite, got {ell}")
    gp = prob.gp
    d0 = _LAUNCH_FRACTION * (gp.y_plus - gp.y_minus)
    y_lo = gp.y_minus + d0
    y_hi = gp.y_plus - d0
    span = 0.5 * (gp.y_minus + gp.y_plus) - y_lo
    p, q, r0, r1 = _ode_coeffs(prob)
    pqr = np.array([p, q, r0 + ell * r1])
    desc = list(zip(*pqr[:, ::-1].tolist()))

    def rhs(s, state):
        ul, dul, ur, dur = state.tolist()
        pl, ql, rl = _horner_pqr(desc, y_lo + s)
        pr, qr, rr = _horner_pqr(desc, y_hi - s)
        # the right half runs towards smaller y: d/ds = -d/dy
        return [dul, -(ql * dul + rl * ul) / pl,
                -dur, (qr * dur + rr * ur) / pr]

    launch = [_frobenius_state(prob, pqr, endpoint, d0)
              for endpoint in (-1, 1)]
    state0 = np.concatenate([s0 / np.hypot(*s0) for s0 in launch])
    sol = solve_ivp(rhs, (0.0, span), state0, method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=return_paths)
    if not sol.success:  # pragma: no cover - smooth interior ODE
        raise BracketError(f"integration failed: {sol.message}")
    scale_l = np.hypot(*sol.y[:2, -1])
    scale_r = np.hypot(*sol.y[2:, -1])
    ul, dul = sol.y[:2, -1] / scale_l
    ur, dur = sol.y[2:, -1] / scale_r
    mism = ul * dur - dul * ur
    if return_paths:
        ss = np.linspace(0.0, span, 400)
        vals = sol.sol(ss)
        return mism, [(y_lo + ss, vals[0] / scale_l),
                      (y_hi - ss, vals[2] / scale_r)]
    return mism


def _oscillation_count(prob: RadialProblem, ell: float) -> int:
    """Interior zeros of the matched eigenfunction at an eigenvalue."""
    _, paths = shooting_matcher(prob, ell, return_paths=True)
    (yl, vl), (yr, vr) = paths
    # match amplitudes at the midpoint and traverse left to right
    if abs(vr[-1]) > 1e-13:
        vr = vr * (vl[-1] / vr[-1])
    seq = np.concatenate([vl, vr[::-1][1:]])
    seq = seq[np.abs(seq) > 1e-11 * np.abs(seq).max()]
    return int(np.sum(seq[1:] * seq[:-1] < 0.0))


def shooting_oracle(prob: RadialProblem, ell_guess_bracket: tuple[float, float],
                    k_target: int) -> float:
    """Eigenvalue inside the bracket, located by bisection on the
    Wronskian mismatch; the oscillation count must equal k_target."""
    lo, hi = ell_guess_bracket
    flo = shooting_matcher(prob, lo)
    fhi = shooting_matcher(prob, hi)
    if flo * fhi > 0.0:
        raise BracketError(f"no sign change of the matcher on [{lo}, {hi}]")
    ell = brentq(lambda e: shooting_matcher(prob, e), lo, hi,
                 xtol=1e-13, rtol=1e-12)
    count = _oscillation_count(prob, ell)
    if count != k_target:
        raise BracketError(
            f"bracket isolated excitation {count}, requested {k_target}")
    return float(ell)


def shooting_spectrum(prob: RadialProblem, k_max: int,
                      ell_hi: float = 64.0) -> list[float]:
    """First k_max+1 eigenvalues by scanning the matcher, with no input
    from the Galerkin side.  Expands and densifies the scan until the
    oscillation counts come out as 0, 1, ..., k_max."""
    n_scan = 24 * (k_max + 2)
    for _ in range(10):
        grid = np.linspace(0.0, ell_hi, n_scan)
        grid[0] = -1e-7
        vals = np.array([shooting_matcher(prob, e) for e in grid])
        roots = []
        for i in range(len(grid) - 1):
            if vals[i] == 0.0:
                roots.append(grid[i])
            elif vals[i] * vals[i + 1] < 0.0:
                roots.append(brentq(lambda e: shooting_matcher(prob, e),
                                    grid[i], grid[i + 1],
                                    xtol=1e-13, rtol=1e-12))
        if len(roots) >= k_max + 1:
            counts = [_oscillation_count(prob, e) for e in roots[:k_max + 1]]
            if counts == list(range(k_max + 1)):
                return [float(e) for e in roots[:k_max + 1]]
            n_scan *= 2
        else:
            ell_hi *= 2.0
    raise BracketError("scan failed to isolate the requested excitations")
