"""Independent shooting verification for the radial eigenproblem.

Clearing denominators turns the radial eigenvalue equation into an ODE
with polynomial coefficients,

    P u'' + Q u' + R u = 0,
    P = 72 A2 C3^2,   Q = 72 A2 C3 C3',
    R = 36 ell (1-y) A2 C3 - 216 Lambda A2 C3 - 18 mu^2 (1-y)^2 C3
        - 9 (1-y) pol^2,

with A2 = a - y^2, C3 = a - 3y^2 + 2y^3, mu = sigma l / tau and
pol = 12 m A2 + mu (a - 2y + y^2).  P, Q and R = R0 + ell R1 are kept as
plain ascending coefficient arrays.  The ODE is singular only at the five
zeros of P: y_minus, y_plus, y_third and +-sqrt(a).

One recurrence builds every series.  Around y0, with y = y0 + delta w,
the rows become polynomials p, q, r in w (of P, delta Q and delta^2 R),
and u = w^nu sum_k t_k w^k solves the ODE when, for every n,

    sum_k t_k [p_{n-k} (nu+k)(nu+k-1) + q_{n-1-k} (nu+k) + r_{n-2-k}] = 0,

a banded lower-triangular system solved by forward substitution.  At an
endpoint, a regular singular point where P has a double zero, this is the
Frobenius series with nu the characteristic exponent and t_0 = 1.  At an
interior point nu = 0, and t_0 = u, t_1 = delta u' come from the state.

Each half-solution starts as the Frobenius series at distance d0 inside
its endpoint and is continued by steps to the match point

    y* = (nu_minus y_plus + nu_plus y_minus) / (nu_minus + nu_plus),

the peak of the endpoint envelope (y - y_minus)^nu_minus
(y_plus - y)^nu_plus, clamped to a tenth of the interval inside each
endpoint; y* is the midpoint when both exponents are 0.  A step starts
at |delta| = min(rho/2, distance left), rho the distance to the nearest
zero of P, and halves while its 80 terms miss 1e-16 relative or its
largest term exceeds 100 times |u| + |du/dw| (cancellation, at large
ell); the launch distance halves by the same rule.  A step that halves
below 1e-6 of the interval raises NotConverged naming (p, q, m, l,
Lambda) and ell.  Each half is renormalized after every step, and an
eigenvalue is a zero of the Wronskian mismatch of the two normalized
halves at y*.  The excitation number is the sum, over both halves, of
the sign changes of every step's series at 65 points of the step: the
renormalizations are positive, and y* is generically not a zero.
Nothing here shares code with the Galerkin path.

Roots are found by `_brentq`, Brent's method (Algorithms for
Minimization without Derivatives, 1973) as scipy.optimize.brentq runs
it: a line-for-line port of scipy's C routine brentq.c, so every root is
scipy's bitwise and no shot loads scipy.optimize.  Each ell is shot once
per root: a memo made anew for each root, at most the 100-iteration cap
long, serves Brent's look at the bracket ends (or the scan's mismatches
there) and the count at the root.  Tables free of ell are built outside
the step loop.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import BracketError, NotConverged, OutOfRange
from .radial import RadialProblem

__all__ = ["oracle_bracket", "shooting_matcher", "shooting_oracle",
           "shooting_spectrum"]

# where the Frobenius series hands over to interior steps: the series
# converges in few terms there, and its zeros are counted like a step's
_LAUNCH_FRACTION = 0.02
_SERIES_TOL = 1e-16
_SERIES_TERMS = 80     # term budget of every series
_STEP_FRACTION = 0.5   # of the distance to the nearest zero of P
_STEP_FLOOR = 1e-6     # smallest step, relative to the interval
_CANCELLATION = 100.0  # largest term over |u| + |du/dw| a step accepts
_COUNT_POINTS = np.linspace(0.0, 1.0, 65)  # of a step, for the zero count
_BRENT_XTOL, _BRENT_RTOL = 1e-13, 1e-12
_BRENT_ITERATIONS = 100

_DEGREE = 8            # of P; the rows of Q and R are padded to it
_POWERS = np.arange(_DEGREE + 1)
_BINOM = np.array([[math.comb(k, i) for i in _POWERS] for k in _POWERS],
                  dtype=float)
_GAP = np.maximum(_POWERS[:, None] - _POWERS[None, :], 0)


@lru_cache(maxsize=64)
def _ode_coeffs(prob: RadialProblem) -> np.ndarray:
    """Rows P, Q, R0, R1 of ascending coefficients, R = R0 + ell R1,
    zero-padded to the length of P (degree 8); read-only, built once per
    problem."""
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
    out.setflags(write=False)
    return out


def _shifted(pqr: np.ndarray, y0: float, delta: float) -> np.ndarray:
    """Rows p, q, r of ascending coefficients in w, at y = y0 + delta w,
    of P, delta Q and delta^2 R: the ODE reads p u_ww + q u_w + r u = 0."""
    rows = pqr @ (_BINOM * (y0 ** _POWERS)[_GAP]) * delta ** _POWERS
    rows[1] *= delta
    rows[2] *= delta * delta
    return rows


def _exponents(nu: float) -> tuple[np.ndarray, np.ndarray]:
    """nu + k and (nu + k)(nu + k - 1) for k below the term budget N."""
    k = nu + np.arange(_SERIES_TERMS)
    return k, k * (k - 1.0)


def _series(rows: np.ndarray, k, kk, lead: int, head: list,
            dtbtrs) -> np.ndarray:
    """Coefficients t_0 .. t_{N-1} of u = w^nu sum_k t_k w^k from the
    leading ones in `head`, (k, kk) = `_exponents(nu)`: the recurrence of
    the module docstring by forward substitution, LAPACK's banded
    triangular solve `dtbtrs`.  `lead` is the order of the zero of p at
    w = 0 (2 at an endpoint, 0 at a regular point)."""
    # two leading zeros stand for q_{-1}, r_{-2} and r_{-1}
    ext = np.zeros((3, _DEGREE + 3))
    ext[:, 2:] = rows
    top = _DEGREE + 1
    # band[d, k] multiplies t_k in the equation for t_{k+d}
    band = (ext[0, lead + 2:top + 2, None] * kk
            + ext[1, lead + 1:top + 1, None] * k
            + ext[2, lead:top, None])
    n_head = len(head)
    rhs = np.zeros(_SERIES_TERMS - n_head)
    for i, t in enumerate(head):
        col = band[n_head - i:n_head - i + len(rhs), i]
        rhs[:len(col)] -= col * t
    tail, info = dtbtrs(band[:, n_head:], rhs[:, None], uplo="L")
    if info != 0:  # a zero diagonal: no series here
        return np.full(_SERIES_TERMS, np.nan)
    return np.concatenate([head, tail[:, 0]])


def _end_state(t: np.ndarray, k: np.ndarray):
    """u and du/dw at w = 1, k the exponents nu + 0, 1, ..., or None when
    the series misses _SERIES_TOL within its budget, loses more than two
    digits to cancellation, or ends at a zero or non-finite state."""
    value = t.sum()
    slope = (k * t).sum()
    size = abs(value) + abs(slope)
    big = np.abs(t)
    # the recurrence carries on from its last _DEGREE terms alone
    if (0.0 < size < math.inf and big[-_DEGREE:].max() <= _SERIES_TOL * size
            and big.max() <= _CANCELLATION * size):
        return float(value), float(slope)
    return None


def _step(make, h: float, k: np.ndarray, floor: float, y0: float):
    """Halve h until the series make(h) from y0 passes `_end_state`;
    returns h, the series and its end state, or raises NotConverged
    below floor."""
    while True:
        t = make(h)
        state = _end_state(t, k)
        if state is not None:
            return h, t, state
        h *= 0.5
        if h < floor:
            raise NotConverged(f"no series step from y = {y0} converges")


def _normalized(u: float, du: float, y: float):
    """(u, du) / |(u, du)|."""
    norm = math.hypot(u, du)
    if not 0.0 < norm < math.inf:
        raise NotConverged(f"the solution leaves the double range at y = {y}")
    return u / norm, du / norm


def _match_point(prob: RadialProblem) -> float:
    """y* of the module docstring."""
    gp, weight = prob.gp, prob.nu_minus + prob.nu_plus
    if weight == 0.0:
        return 0.5 * (gp.y_minus + gp.y_plus)
    margin = 0.1 * (gp.y_plus - gp.y_minus)
    y = (prob.nu_minus * gp.y_plus + prob.nu_plus * gp.y_minus) / weight
    return min(max(y, gp.y_minus + margin), gp.y_plus - margin)


def _half(prob: RadialProblem, pqr: np.ndarray, endpoint: int,
          y_match: float):
    """Carry the Frobenius solution of `endpoint` (-1 for y_minus, +1 for
    y_plus) to y_match.

    Returns the normalized (u, du/dy) at y_match and the coefficients of
    every step's series, the launch first: on each step u has the sign
    of sum_k t_k w^k, w in [0, 1].
    """
    # the one LAPACK driver of the oracle that numpy lacks: scipy.linalg
    # loads with the first shot, not with the package
    from scipy.linalg.lapack import dtbtrs
    gp = prob.gp
    if endpoint == -1:
        y_end, nu, sgn = gp.y_minus, prob.nu_minus, 1.0
    else:
        y_end, nu, sgn = gp.y_plus, prob.nu_plus, -1.0
    length = gp.y_plus - gp.y_minus
    floor = _STEP_FLOOR * length
    root_a = math.sqrt(gp.a)
    zeros = (gp.y_minus, gp.y_plus, gp.y_third, root_a, -root_a)
    # the Frobenius series reaches d0 unless ell is large; steps carry on
    # from wherever it stops
    launch, interior = _exponents(nu), _exponents(0.0)
    dist, t, (u, du) = _step(
        lambda h: _series(_shifted(pqr, y_end, sgn * h), *launch, 2, [1.0],
                          dtbtrs),
        _LAUNCH_FRACTION * length, launch[0], floor, y_end)
    y = y_end + sgn * dist
    u, du = _normalized(u, du / (sgn * dist), y)
    steps = [t]
    while y != y_match:
        left = y_match - y

        def signed(h):  # the last step lands on y_match exactly
            return math.copysign(h, left) if h < abs(left) else left

        h, t, (value, slope) = _step(
            lambda h: _series(_shifted(pqr, y, signed(h)), *interior, 0,
                              [u, signed(h) * du], dtbtrs),
            min(_STEP_FRACTION * min(abs(z - y) for z in zeros), abs(left)),
            interior[0], floor, y)
        delta = signed(h)
        steps.append(t)
        y = y_match if delta == left else y + delta
        u, du = _normalized(value, slope / delta, y)
    return u, du, steps


def _halves(prob: RadialProblem, ell: float):
    """`_half` from each endpoint at ell, left first; NotConverged names
    the problem and ell."""
    if not math.isfinite(ell):
        raise BracketError(f"ell must be finite, got {ell}")
    p, q, r0, r1 = _ode_coeffs(prob)
    pqr = np.array([p, q, r0 + ell * r1])
    y_match = _match_point(prob)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return (_half(prob, pqr, -1, y_match),
                    _half(prob, pqr, 1, y_match))
    except NotConverged as exc:
        raise NotConverged(f"{exc} for {prob.label}, ell = {ell}") from None


def _mismatch(halves) -> float:
    (ul, dul, _), (ur, dur, _) = halves
    return ul * dur - dul * ur


def shooting_matcher(prob: RadialProblem, ell: float) -> float:
    """Wronskian mismatch of the two endpoint solutions at the match
    point; zero exactly at eigenvalues of -S."""
    return _mismatch(_halves(prob, ell))


def _oscillation_count(prob: RadialProblem, ell: float, halves=None) -> int:
    """Interior zeros at an eigenvalue ell, from its `_halves` if at hand:
    the sign changes of every step's series at _COUNT_POINTS points."""
    halves = halves or _halves(prob, ell)
    vander = np.vander(_COUNT_POINTS, len(halves[0][2][0]), True)
    # one column of values per step
    return sum(int(np.sum(vals[1:] * vals[:-1] < 0.0)) for vals in
               (vander @ np.transpose(steps) for _, _, steps in halves))


def _brentq(f, xa: float, xb: float, name: str) -> float:
    """Zero of f on [xa, xb] by scipy.optimize.brentq's steps (its C
    routine brentq.c) at xtol 1e-13, rtol 1e-12: BracketError without a
    sign change, NotConverged naming `name` and the bracket when f is not
    finite or 100 iterations pass."""
    def value(x):
        fx = f(x)
        if not math.isfinite(fx):
            raise NotConverged(f"{name} is {fx} at {x}, bracket [{xa}, {xb}]")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(f"no sign change of {name} on [{xa}, {xb}]")
    for _ in range(_BRENT_ITERATIONS):
        if (fpre < 0.0) != (fcur < 0.0):   # a new bracket [xpre, xcur]
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):   # xcur the better end
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf     # bisect unless a short step is on offer
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:    # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:               # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NotConverged(f"{name} has no root within {_BRENT_ITERATIONS} "
                       f"Brent iterations on [{xa}, {xb}]")


def _root(prob: RadialProblem, lo: float, hi: float, ends=()):
    """Zero of the mismatch on [lo, hi] by `_brentq`, and its oscillation
    count.  `ends` holds the mismatches at lo and hi when they are known;
    any other ell is shot once, its halves kept for this root alone."""
    known, shot = dict(zip((lo, hi), ends)), {}

    def mismatch(ell):
        if ell not in known:
            shot[ell] = _halves(prob, ell)
            known[ell] = _mismatch(shot[ell])
        return known[ell]

    ell = _brentq(mismatch, lo, hi, f"the mismatch of {prob.label}")
    return ell, _oscillation_count(prob, ell, shot.get(ell))


def shooting_oracle(prob: RadialProblem, ell_guess_bracket: tuple[float, float],
                    k_target: int) -> float:
    """Eigenvalue inside the bracket, located by Brent's method on the
    Wronskian mismatch; the oscillation count must equal k_target."""
    ell, count = _root(prob, *ell_guess_bracket)
    if count != k_target:
        raise BracketError(
            f"bracket isolated excitation {count}, requested {k_target}")
    return float(ell)


def oracle_bracket(ells, i: int) -> tuple[float, float]:
    """Bracket of the i-th ascending estimate in `ells`, halfway to each
    neighbour (the end ones use one gap twice, a lone one a 3% pad)."""
    if not 0 <= i < len(ells):
        raise OutOfRange(f"estimate {i} of a list of {len(ells)}")
    gaps = np.diff(ells) if len(ells) > 1 else [0.06 * max(1.0, abs(ells[0]))]
    return (ells[i] - 0.5 * gaps[max(i - 1, 0)],
            ells[i] + 0.5 * gaps[min(i, len(gaps) - 1)])


def shooting_spectrum(prob: RadialProblem, k_max: int,
                      ell_hi: float = 64.0) -> list[float]:
    """First k_max+1 eigenvalues by scanning the matcher, with no input
    from the Galerkin side.  Expands and densifies the scan until the
    oscillation counts come out as 0, 1, ..., k_max."""
    if k_max < 0:
        raise OutOfRange(f"k_max must be non-negative, got {k_max}")
    if not (math.isfinite(ell_hi) and ell_hi > 0.0):
        raise OutOfRange(f"ell_hi must be finite and positive, got {ell_hi}")
    n_scan = 24 * (k_max + 2)
    for _ in range(10):
        grid = np.linspace(0.0, ell_hi, n_scan)
        grid[0] = -1e-7
        vals = np.array([shooting_matcher(prob, e) for e in grid])
        # a root at a scan point is the end brentq returns
        roots = [_root(prob, grid[i], grid[i + 1], vals[i:i + 2])
                 for i in range(len(grid) - 1)
                 if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0]
        if len(roots) >= k_max + 1:
            if [c for _, c in roots[:k_max + 1]] == list(range(k_max + 1)):
                return [float(e) for e, _ in roots[:k_max + 1]]
            n_scan *= 2
        else:
            ell_hi *= 2.0
    raise BracketError("scan failed to isolate the requested excitations")
