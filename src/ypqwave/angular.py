"""Closed-form eigenbasis of the weighted angular operator

    T v = v'' + cot(theta) v' - ((n + 2m cos(theta))/sin(theta))^2 v

on L^2((0, pi), sin(theta) dtheta).  With a = |n+2m| and b = |n-2m| the
normalized eigenfunctions are

    v_{nmj}(theta) = C_{nmj} sin^a(theta/2) cos^b(theta/2)
                     P_j^(a,b)(cos theta),

with eigenvalue T v = -Lambda v,

    Lambda_{nmj} = d(d+1) - 4m^2,    d = j + (a+b)/2 = j + max(|n|, |2m|).

These are the spin-weighted harmonics (Wigner little-d functions) with
spin 2m and azimuthal index n, which pins the eigenvalue: substituting
the closed form into T and differentiating analytically reproduces
-Lambda v to machine precision for every index, and the full-Laplacian
point residual downstream depends on this identity.  (A frequently quoted
variant, 2(2j(j+1) + (a+b)(2j+1) + ab + 2m^2 + n^2) = 4d(d+1) - 4m^2
+ 8m^2, does not annihilate the residual for m != 0 and is not used.)

Norms are evaluated with Gauss-Jacobi rules after z = sin^2(theta/2),
which turns the integrand into polynomial times the exact Jacobi weight.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, require_memory
from .specfun import (envelope_jacobi_derivs, gauss_jacobi, jacobi_log_norm,
                      jacobi_poly_all)

__all__ = ["AngularMode", "angular_eigenvalue", "angular_mode", "angular_gram"]


def angular_eigenvalue(n: int, m: int, j: int) -> float:
    """Lambda_{nmj} = d(d+1) - 4m^2 with d = j + (|n+2m| + |n-2m|)/2.

    Integer arithmetic throughout, cast at the end.  Nonnegative, zero
    exactly at (n, m, j) = (0, 0, 0), and strictly increasing in j.
    """
    a = abs(n + 2 * m)
    b = abs(n - 2 * m)
    d = j + (a + b) // 2
    return float(d * (d + 1) - 4 * m * m)


def _log_norm_const(a: int, b: int, j):
    """log C_{nmj} = log sqrt(2^(a+b) / h_j) at one degree j: angular_mode
    and angular_gram take every C_j from here, one at a time."""
    return 0.5 * ((a + b) * math.log(2.0) - jacobi_log_norm(a, b, j))


@dataclass(frozen=True)
class AngularMode:
    """One normalized angular eigenfunction."""

    n: int
    m: int
    j: int
    lambda_cap: float
    norm_const: float

    @property
    def a_exp(self) -> int:
        return abs(self.n + 2 * self.m)

    @property
    def b_exp(self) -> int:
        return abs(self.n - 2 * self.m)

    def value(self, theta):
        th = np.asarray(theta, dtype=float)
        a, b, j = self.a_exp, self.b_exp, self.j
        s = np.sin(0.5 * th)
        c = np.cos(0.5 * th)
        out = (self.norm_const * s ** a * c ** b
               * jacobi_poly_all(a, b, j, np.cos(th))[j])
        return out if out.ndim else float(out)

    def value_and_derivs(self, theta):
        """(v, v', v'') at interior points, by analytic differentiation of
        the closed form; no finite differences."""
        th = np.asarray(theta, dtype=float)
        j = self.j
        s = np.sin(0.5 * th)
        c = np.cos(0.5 * th)
        return envelope_jacobi_derivs(
            self.a_exp, self.b_exp, self.norm_const * np.eye(j + 1)[j],
            np.cos(th), -np.sin(th), -np.cos(th),
            [(self.a_exp, s, 0.5 * c, -0.25 * s),
             (self.b_exp, c, -0.5 * s, -0.25 * c)])

    def apply(self, theta, v, v1, v2):
        """(T v)(theta) from v, v' and v'' at interior points theta."""
        pot = ((self.n + 2.0 * self.m * np.cos(theta)) / np.sin(theta)) ** 2
        return v2 + v1 / np.tan(theta) - pot * v

    def operator_residual(self, theta):
        """T v + Lambda v at interior points (zero for an eigenfunction)."""
        v, vp, vpp = self.value_and_derivs(theta)
        return self.apply(theta, v, vp, vpp) + self.lambda_cap * v


def angular_mode(n: int, m: int, j: int) -> AngularMode:
    """v_{nmj}; OutOfRange when its eigenvalue or norm constant is not a
    finite double."""
    try:
        lam = angular_eigenvalue(n, m, j)
        # plain floats: an overflow is refused below
        log_c = _log_norm_const(abs(n + 2 * m), abs(n - 2 * m), j)
    except OverflowError as exc:  # labels whose products no double holds
        raise OutOfRange(f"angular mode {(n, m, j)}: {exc}") from None
    if not log_c < math.log(sys.float_info.max):
        raise OutOfRange(f"angular norm constant of {(n, m, j)} overflows")
    return AngularMode(n=n, m=m, j=j, lambda_cap=lam,
                       norm_const=np.exp(log_c))


def angular_gram(n: int, m: int, j_max: int) -> np.ndarray:
    """Gram matrix of {v_{nmj}}_{j<=j_max} under sin(theta) dtheta.

    Substituting z = sin^2(theta/2) gives polynomial integrands against the
    exact Jacobi weight, so the rule below is exact.  FieldTooLarge, before
    anything is built, unless the size x size polynomial table behind the
    size = j_max + 4 node rule (8 bytes an entry) fits in physical memory.
    """
    size = j_max + 4
    require_memory(size * size * 8, f"the {size}-node rule of the Gram of "
                                    f"j_max = {j_max}")
    a = abs(n + 2 * m)
    b = abs(n - 2 * m)
    rule = gauss_jacobi(a, b, size)
    log_c = np.array([_log_norm_const(a, b, j) for j in range(j_max + 1)])
    basis = jacobi_poly_all(a, b, j_max, rule.nodes)
    # int_0^pi v_j v_k sin dtheta = 2 C_j C_k 2^{-a-b-1} int (1-x)^a (1+x)^b P_j P_k dx;
    # C_j C_k 2^{-a-b} in log space: C_j overflows and 2^{-a-b} underflows
    scale = np.exp(log_c[:, None] + log_c[None, :] - (a + b) * math.log(2.0))
    return ((basis * rule.weights) @ basis.T) * scale

