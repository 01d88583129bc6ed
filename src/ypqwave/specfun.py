"""Jacobi polynomials, associated Legendre functions and Gauss-Jacobi
quadrature.

One three-term recurrence (`jacobi_poly_all`) evaluates every polynomial:
Gegenbauer polynomials and associated Legendre functions are rescaled
Jacobi polynomials, and `envelope_jacobi_derivs` is the one chain rule
for the closed-form factors (envelope times Jacobi series) built on it.
Normalization constants are products of small factors, or differences of
one log-form square norm (`jacobi_log_norm`) exponentiated last, so
index ranges that would overflow a double factorial-wise remain usable.

Gauss rules: nodes are the eigenvalues of the Jacobi matrix J (the
multiplication by t in the orthonormal pbar_k = P_k / sqrt(h_k)), by
numpy's LAPACK on the dense J, weights the Christoffel numbers 1 /
sum_k pbar_k(x_i)^2 (Golub & Welsch 1969; Gautschi 2004) from one
recurrence sweep, sums of positive terms accurate at every node.  The
eigenvector form mu0 v_0i^2 is accurate only relative to the largest
weight: at exponents in the hundreds the outer weights lose every digit.

All functions are pure; quadrature rules are immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegreeOrderError, EigenFailure, QuadratureUnderflow

__all__ = ["QuadratureRule", "jacobi_poly_all", "jacobi_deriv_all",
           "jacobi_log_norm", "jacobi_norm_integral", "gegenbauer_scale",
           "legendre_scale", "assoc_legendre", "envelope_jacobi_derivs",
           "jacobi_matrix", "gauss_jacobi", "rule_on_interval"]


def jacobi_poly_all(alpha, beta, j_max: int, x) -> np.ndarray:
    """All of P_0 .. P_{j_max}^(alpha,beta) at x, one three-term recurrence
    sweep.

    Stable on x in [-1, 1] for degrees well beyond 200.  Returns an array
    of shape (j_max+1,) + the broadcast shape of x, alpha and beta, so row
    j of scalars is a scalar; ndarrays alpha and beta stack families in
    one sweep, each row bitwise its scalar call.
    """
    x = np.asarray(x, dtype=float)
    shape, degrees = x.shape, range(2, j_max + 1)
    # stacked families take all degrees' step coefficients as arrays;
    # scalar ones keep floats: as arrays, the table sweeps (degrees 0-24)
    # took 20-60 us a call longer, about 2% of a propagate_csv operation
    if isinstance(alpha, np.ndarray):
        shape = np.broadcast(x, alpha, beta).shape
        n = np.array(degrees, float).reshape(-1, *[1] * len(shape))
        steps = zip(*_jacobi_step(n, alpha, beta))
    else:
        steps = (_jacobi_step(n, alpha, beta) for n in degrees)
    out = np.empty((j_max + 1,) + shape)
    out[0] = 1.0
    if j_max >= 1:
        out[1] = 0.5 * (alpha - beta) + 0.5 * (alpha + beta + 2.0) * x
    for n, (c1, c2, c3, c4) in zip(degrees, steps):
        out[n] = ((c2 + c3 * x) * out[n - 1] - c4 * out[n - 2]) / c1
    return out


def _jacobi_step(n, alpha, beta):
    """(c1, c2, c3, c4) of c1 P_n = (c2 + c3 x) P_{n-1} - c4 P_{n-2}."""
    s = 2.0 * n + alpha + beta
    return (2.0 * n * (n + alpha + beta) * (s - 2.0),
            (s - 1.0) * (alpha * alpha - beta * beta),
            (s - 2.0) * (s - 1.0) * s,
            2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * s)


def jacobi_deriv_all(alpha: float, beta: float, j_max: int, x,
                     order: int = 1) -> np.ndarray:
    """order-th derivatives (order 0: the values) of P_0 .. P_{j_max}^(alpha,
    beta) at x, shaped like jacobi_poly_all, via the shift identity
    d/dx P_j^(a,b) = (j+a+b+1)/2 * P_{j-1}^(a+1,b+1)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((j_max + 1,) + x.shape)
    if j_max >= order:
        shifted = jacobi_poly_all(alpha + order, beta + order, j_max - order, x)
        for j in range(order, j_max + 1):
            scale = 1.0
            for i in range(order):
                scale *= 0.5 * (j + alpha + beta + 1.0 + i)
            out[j] = scale * shifted[j - order]
    return out


def gegenbauer_scale(order: float, degree: int) -> float:
    """The factor g with C_r^(lam) = g * P_r^(lam-1/2, lam-1/2), lam > 0:

        g = (2 lam)_r / (lam + 1/2)_r     (rising factorials).

    Taken as a product of factors below 2, it cannot overflow for any
    practical degree and keeps the last digit that an lgamma difference
    loses.
    """
    g = 1.0
    for k in range(degree):
        g *= (2.0 * order + k) / (order + 0.5 + k)
    return g


def jacobi_log_norm(alpha: float, beta: float, k):
    """log h_k of the square norm (h_0 = mu0, the zeroth moment)
    h_k = int_-1^1 (1-x)^alpha (1+x)^beta P_k^2 dx
    = 2^(a+b+1) G(k+a+1) G(k+b+1) / ((2k+a+b+1) k! G(k+a+b+1)): by
    log-gammas for a scalar k; for an array of integers k >= 0, log mu0
    plus the cumulative sum of log h_j/h_{j-1} = log[(j+a)(j+b)(2j+a+b-1)
    / (j (j+a+b)(2j+a+b+1))], at j = 1 (1+a)(1+b)/(a+b+3), cancelled."""
    ab = alpha + beta
    if np.ndim(k):
        k = np.asarray(k)
        if k.dtype.kind not in "iu" or k.min(initial=0) < 0:
            raise ValueError(f"degrees must be integers >= 0, got {k}")
        j = np.arange(2.0, k.max(initial=0) + 1.0)
        s = 2.0 * j + ab
        steps = np.empty(len(j) + 2)
        steps[0] = jacobi_log_norm(alpha, beta, 0)
        steps[1] = np.log((1.0 + alpha) * ((1.0 + beta) / (ab + 3.0)))
        np.log((j + alpha) / j * ((j + beta) / (j + ab))
               * ((s - 1.0) / (s + 1.0)), out=steps[2:])
        return steps.cumsum()[k]
    # (2k+a+b+1) G(k+a+b+1) = G(k+a+b+2) (1 + k/(k+a+b+1)), the ratio 1
    # at k = 0 also for a+b = -1
    return ((ab + 1.0) * math.log(2.0) + _lgamma(k + alpha + 1.0)
            + _lgamma(k + beta + 1.0) - _lgamma(k + 1.0)
            - _lgamma(k + ab + 2.0) - math.log1p(k / (k + ab + 1.0 + (k == 0))))


def _lgamma(x: float) -> float:
    """log Gamma(x), x > 0, as inf where it exceeds a double."""
    return math.lgamma(x) if x < 2e305 else math.inf


def jacobi_norm_integral(a_exp: int, b_exp: int, j: int) -> float:
    """int_0^1 z^a (1-z)^b P_j^(a,b)(1-2z)^2 dz = h_j / 2^(a+b+1)
    = (j+a)! (j+b)! / ((2j+a+b+1) j! (j+a+b)!)."""
    return math.exp(jacobi_log_norm(a_exp, b_exp, j)
                    - (a_exp + b_exp + 1) * math.log(2.0))


def legendre_scale(l: int, m: int) -> float:
    """The factor g with P_l^m = g (1-x^2)^{k/2} P_{l-k}^(k,k), k = |m|:
    (-1)^m (l+m)!/(2^m l!) for m >= 0 and (l-k)!/(2^k l!) for m < 0 (the
    reflection folded in), taken as a product of small factors."""
    g = 1.0
    if m >= 0:
        for i in range(1, m + 1):
            g *= -0.5 * (l + i)
    else:
        for i in range(-m):
            g *= 0.5 / (l - i)
    return g


def assoc_legendre(l: int, m: int, x):
    """Associated Legendre function P_l^m(x) with Condon-Shortley phase,
    as the rescaled Jacobi polynomial of `legendre_scale`."""
    if abs(m) > l:
        raise DegreeOrderError(f"order |m|={abs(m)} exceeds degree l={l}")
    x = np.asarray(x, dtype=float)
    k = abs(m)
    envelope = np.sqrt(np.maximum(0.0, (1.0 - x) * (1.0 + x))) ** k
    out = (legendre_scale(l, m) * envelope
           * jacobi_poly_all(k, k, l - k, x)[l - k])
    return out if out.ndim else float(out)


def envelope_jacobi_derivs(alpha: float, beta: float, coeffs, u, du, d2u,
                           factors):
    """(f, f', f'') in t of

        f(t) = prod_k phi_k(t)^e_k * sum_j c_j P_j^(alpha,beta)(u(t)),

    given u, u', u'' and, for each envelope factor, the tuple
    (e_k, phi_k, phi_k', phi_k'') at the same points; every phi_k must be
    nonzero there.  The polynomial derivatives come from the shift
    identity only, never from a differential equation, so the result can
    check one.
    """
    j_max = len(coeffs) - 1
    p0, p1, p2 = (np.tensordot(coeffs,
                               jacobi_deriv_all(alpha, beta, j_max, u, order),
                               axes=1)
                  for order in range(3))
    # envelope E and its logarithmic derivatives E'/E and (E'/E)'
    env, log1, log2 = 1.0, 0.0, 0.0
    for e, phi, dphi, d2phi in factors:
        ratio = dphi / phi
        env = env * phi ** e
        log1 = log1 + e * ratio
        log2 = log2 + e * (d2phi / phi - ratio * ratio)
    s1 = p1 * du
    s2 = p2 * du * du + p1 * d2u
    return (env * p0, env * (log1 * p0 + s1),
            env * ((log1 * log1 + log2) * p0 + 2.0 * log1 * s1 + s2))


class QuadratureRule(NamedTuple):
    """Nodes and weights with int f dmu = sum w_i f(x_i) for the rule's
    measure; a tuple, so `nodes, weights = rule` unpacks it.  A Gauss
    rule of n nodes is exact for polynomial f of degree <= 2n - 1."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def jacobi_matrix(alpha: float, beta: float, n: int) -> np.ndarray:
    """The n x n Jacobi matrix J, symmetric tridiagonal: t pbar_k =
    J[k, k-1] pbar_{k-1} + J[k, k] pbar_k + J[k, k+1] pbar_{k+1}, the
    leading block of J at any n."""
    ab = alpha + beta
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    k = np.arange(1, n, dtype=float)
    diag[1:] = (beta * beta - alpha * alpha) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0))
    off = np.empty(max(n - 1, 0))
    if n > 1:
        # k = 1 written in cancelled form so alpha+beta = -1 stays finite
        off[0] = math.sqrt(4.0 * (1.0 + alpha) * (1.0 + beta)
                           / ((ab + 2.0) ** 2 * (ab + 3.0)))
        if n > 2:
            k = np.arange(2, n, dtype=float)
            num = 4.0 * k * (k + alpha) * (k + beta) * (k + ab)
            den = (2.0 * k + ab) ** 2 * (2.0 * k + ab + 1.0) * (2.0 * k + ab - 1.0)
            off[1:] = np.sqrt(num / den)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def gauss_nodes(alpha: float, beta: float,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, log h_0 .. h_{n-1}) of the n-node Gauss rule of the weight
    (1-x)^alpha (1+x)^beta, nodes ascending; alpha, beta > -1, n >= 1.
    QuadratureUnderflow when mu0 overflows a double."""
    if n < 1:
        raise ValueError("need at least one node")
    # tested first: exponents this large also overflow the Jacobi matrix
    # and the norm recurrence
    if not jacobi_log_norm(alpha, beta, 0) < np.log(np.finfo(float).max):
        raise QuadratureUnderflow(f"degenerate weights for exponents ({alpha}"
                                  f", {beta}): mu0 overflows a double")
    log_h = jacobi_log_norm(alpha, beta, np.arange(n))
    try:
        nodes = np.linalg.eigvalsh(jacobi_matrix(alpha, beta, n))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - signals a bug
        raise EigenFailure(str(exc)) from exc
    return nodes, log_h


def christoffel(rows: np.ndarray, log_h: np.ndarray):
    """sum_k pbar_k(x_i)^2 = mu0 / w_i from rows[k] = P_k(x_i) at the
    nodes of an n-node Gauss rule, k < n."""
    pbar = rows * np.exp(0.5 * (log_h[0] - log_h))[:, None]
    return np.einsum("ki,ki->i", pbar, pbar)


def gauss_jacobi(alpha: float, beta: float, n: int) -> QuadratureRule:
    """n-node Gauss rule for the weight (1-x)^alpha (1+x)^beta on
    [-1, 1], with Christoffel weights (module docstring).

    alpha, beta > -1, n >= 1.  Nodes ascend; weights are positive and sum
    to the zeroth moment 2^(a+b+1) B(a+1, b+1).
    """
    nodes, log_h = gauss_nodes(alpha, beta, n)
    sums = christoffel(jacobi_poly_all(alpha, beta, n - 1, nodes), log_h)
    return QuadratureRule(nodes=nodes, weights=math.exp(log_h[0]) / sums)


def rule_on_interval(lo: float, hi: float, exp_lo: float, exp_hi: float,
                     n: int) -> QuadratureRule:
    """The rule of gauss_jacobi mapped to [lo, hi]:
    int_lo^hi (y-lo)^exp_lo (hi-y)^exp_hi f(y) dy = sum w_i f(y_i)."""
    rule = gauss_jacobi(exp_hi, exp_lo, n)
    half = 0.5 * (hi - lo)
    return QuadratureRule(lo + half * (1.0 + rule.nodes),
                          rule.weights * half ** (exp_lo + exp_hi + 1.0))
