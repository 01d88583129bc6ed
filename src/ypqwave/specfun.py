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
multiplication by t in the orthonormal pbar_k = P_k / sqrt(h_k)),
weights the Christoffel numbers 1 / sum_k pbar_k(x_i)^2 (Golub & Welsch
1969; Gautschi 2004), sums of positive terms accurate at every node.
The eigenvector form mu0 v_0i^2 is accurate only relative to the largest
weight: at exponents in the hundreds the outer weights lose every digit.

All functions are pure; quadrature rules are immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .errors import DegreeOrderError, EigenFailure, QuadratureUnderflow

__all__ = ["QuadratureRule", "jacobi_poly_all", "jacobi_deriv_all",
           "jacobi_log_norm", "jacobi_norm_integral", "gegenbauer_scale",
           "legendre_scale", "assoc_legendre", "envelope_jacobi_derivs",
           "jacobi_matrix", "gauss_jacobi", "rule_on_interval"]


def jacobi_poly_all(alpha: float, beta: float, j_max: int, x) -> np.ndarray:
    """All of P_0 .. P_{j_max}^(alpha,beta) at x, one three-term recurrence
    sweep.

    Stable on x in [-1, 1] for degrees well beyond 200.  Returns an array
    of shape (j_max+1,) + np.shape(x), so row j of a scalar argument is a
    scalar.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((j_max + 1,) + x.shape)
    out[0] = 1.0
    if j_max >= 1:
        out[1] = 0.5 * (alpha - beta) + 0.5 * (alpha + beta + 2.0) * x
    for n in range(2, j_max + 1):
        s = 2.0 * n + alpha + beta
        c1 = 2.0 * n * (n + alpha + beta) * (s - 2.0)
        c2 = (s - 1.0) * (alpha * alpha - beta * beta)
        c3 = (s - 2.0) * (s - 1.0) * s
        c4 = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * s
        out[n] = ((c2 + c3 * x) * out[n - 1] - c4 * out[n - 2]) / c1
    return out


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
    """log h_k, elementwise over k, of the square norm (h_0 = mu0, the
    zeroth moment)  h_k = int_-1^1 (1-x)^alpha (1+x)^beta P_k^2 dx
    = 2^(a+b+1) G(k+a+1) G(k+b+1) / ((2k+a+b+1) k! G(k+a+b+1))."""
    ab = alpha + beta
    # (2k+a+b+1) G(k+a+b+1) = G(k+a+b+2) (1 + k/(k+a+b+1)), the ratio 1
    # at k = 0 also for a+b = -1
    return ((ab + 1.0) * math.log(2.0) + gammaln(k + alpha + 1.0)
            + gammaln(k + beta + 1.0) - gammaln(k + 1.0)
            - gammaln(k + ab + 2.0) - np.log1p(k / (k + ab + 1.0 + (k == 0))))


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


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Jacobi rule for the weight (1-x)^alpha (1+x)^beta on [-1, 1].

    Exact for polynomial integrands of degree <= 2*len(nodes) - 1.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def jacobi_matrix(alpha: float, beta: float,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """(diag, off) of the n x n Jacobi matrix: t pbar_k = off[k-1] pbar_{k-1}
    + diag[k] pbar_k + off[k] pbar_{k+1}, the leading block of J at any n."""
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
    return diag, off


def gauss_jacobi(alpha: float, beta: float, n: int) -> QuadratureRule:
    """n-node Gauss rule with Christoffel weights (module docstring).

    alpha, beta > -1, n >= 1.  Nodes ascend; weights are positive and sum
    to the zeroth moment 2^(a+b+1) B(a+1, b+1).
    """
    if n < 1:
        raise ValueError("need at least one node")
    # tested first: exponents this large also overflow the Jacobi matrix
    log_h = jacobi_log_norm(alpha, beta, np.arange(n))
    if not log_h[0] < np.log(np.finfo(float).max):
        raise QuadratureUnderflow(f"degenerate weights for exponents ({alpha}"
                                  f", {beta}): mu0 overflows a double")
    try:
        nodes = eigh_tridiagonal(*jacobi_matrix(alpha, beta, n),
                                 eigvals_only=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - signals a bug
        raise EigenFailure(str(exc)) from exc
    # sqrt(mu0) pbar_k: orthonormal for the weight over mu0, row 0 is 1
    rows = (jacobi_poly_all(alpha, beta, n - 1, nodes)
            * np.exp(0.5 * (log_h[0] - log_h))[:, None])
    weights = math.exp(log_h[0]) / np.einsum("ki,ki->i", rows, rows)
    return QuadratureRule(nodes=nodes, weights=weights)


def rule_on_interval(lo: float, hi: float, exp_lo: float, exp_hi: float,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights with
    int_lo^hi (y-lo)^exp_lo (hi-y)^exp_hi f(y) dy = sum w_i f(y_i)."""
    rule = gauss_jacobi(exp_hi, exp_lo, n)
    half = 0.5 * (hi - lo)
    y = lo + half * (1.0 + rule.nodes)
    w = rule.weights * half ** (exp_lo + exp_hi + 1.0)
    return y, w
