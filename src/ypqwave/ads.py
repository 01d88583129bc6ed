"""Closed-form mode machinery on the anti-de Sitter factor.

Pieces:

* 3-sphere harmonics Y^{s1 s2 s3} (Gegenbauer x associated Legendre x
  phase) with Delta_{S3} Y = -s1(s1+2) Y, orthonormal under
  d omega = sin^2(t1) sin(t2) dt1 dt2 dt3.

* The radial operator on x in (0, pi/2] with measure d nu = 2 cot^3 x dx,

      L(s, lam) = -d^2/dx^2 + 3(tan x + cot x) d/dx + s(s+2)/cos^2 x
                  + (M^2 + lam)/(kappa sin^2 x),

  whose normalized eigenfunctions are

      f_i(x) = N cos^s x sin^{2+c} x P_i^(s+1, c)(-cos 2x),
      eigenvalue Omega_i = (2i + s + c + 2)^2,
      c = sqrt(4 + (M^2 + lam)/kappa) >= 2.

  c is the AdS5 index nu of the effective mass.  The second solution
  goes as sin^{2-c} x near the boundary x -> 0, not square-integrable
  under d nu for c >= 1, so there L has one self-adjoint realization,
  this sin^{2+c} x branch, and the propagator evolved with it is the
  unique admissible one (Breitenlohner and Freedman, Ann. Phys. 144
  (1982) 249; Ishibashi and Wald, Class. Quantum Grav. 21 (2004) 2981).

* Projection of gridded Cauchy data onto the product basis.  Data is
  stored per phase sector (s3, n, m, l) as a 5d array over quadrature
  nodes in (x, t1, t2, theta, y); the five phase integrals are exact
  Kronecker deltas under the normalization conventions below and never
  appear numerically.  Raw quadrature moments are refined by a discrete
  Gram solve per angular block, which makes synthesize -> project the
  identity on the truncated span: a single x-rule cannot be exact for
  every c at once (c varies per mode and is generically irrational), and
  the Gram solve removes exactly that defect.  One read of each sector
  gives the coefficient array and the discrete data norm, whose excess
  over the captured norm is the truncation tail (Bessel).

* Sum factorization (Orszag 1980).  Within a sector every mode is a
  separable product x (x) t1 (x) t2 (x) theta (x) y, so the sector's
  field is a rank-(#betas) matrix (x t1 t2) x (theta y).  Synthesis is
  one GEMM of the stacked (coefficient-weighted x profile) (x) t1 (x) t2
  factors against the stacked theta (x) y factors.  Projection is the
  transposed contraction, one x slab at a time against the sector's
  distinct theta (x) y rows (one per Y^{p,q} mode, shared by all of its
  S^3 chains), followed by one batched x-Gram solve; the data norm is
  taken from the same slab while it is in cache.
  Synthesis refuses, before allocating, a field larger than the
  machine's physical memory, and the grid refuses, before building a
  rule, a shape whose one-sector field or longest-axis rule would not
  fit (`check_grid_memory`).

Sector amplitude convention: the full field is

    Phi = sum_sectors F_sector(x, t1, t2, theta, y)
          * e^{i s3 t3}/sqrt(2 pi)
          * e^{i(n phi + 2 m psi + sigma l alpha/tau)}/(2 pi)^{3/2},

so the reduced basis factors below are all real and unit-normalized in
their own 1d or 2d measures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import GridMismatch, IndexChainError, OutOfRange, require_memory
from .geometry import GeometryParams
from .specfun import (QuadratureRule, assoc_legendre, envelope_jacobi_derivs,
                      gauss_jacobi, gegenbauer_scale, jacobi_log_norm,
                      jacobi_poly_all, legendre_scale, rule_on_interval)

__all__ = ["ModeIndex", "SpectralCoefficients", "Sector", "SectorGrid",
           "s3_harmonic", "s3_harmonic_norm", "c_beta", "ads_omegas",
           "ads_operator_residual", "ads_gram", "check_grid_memory",
           "project_cauchy", "synthesize", "ModeTable"]


class _Labels(NamedTuple):
    s1: int
    s2: int
    s3: int
    n: int
    m: int
    l: int
    k: int
    j: int


class ModeIndex(_Labels):
    """Product-basis multi-index (s1, s2, s3, n, m, l, k, j) with the
    harmonic chain s1 >= s2 >= |s3|: an immutable tuple of its eight
    labels, validated on every construction (`_make` and `_replace`
    included), that hashes, compares and sorts as that tuple, in C.  So
    a plain 8-tuple equal to a valid beta is the same dict key."""

    __slots__ = ()

    def __new__(cls, s1, s2, s3, n, m, l, k, j):
        if s1 < 0 or s2 < 0 or k < 0 or j < 0:
            raise IndexChainError("s1, s2, k, j must be nonnegative")
        if not (s1 >= s2 >= abs(s3)):
            raise IndexChainError(
                f"need s1 >= s2 >= |s3|, got ({s1}, {s2}, {s3})")
        return tuple.__new__(cls, (s1, s2, s3, n, m, l, k, j))

    @classmethod
    def _make(cls, iterable) -> "ModeIndex":
        return cls(*iterable)

    @property
    def beta(self) -> tuple:
        return tuple(self)

    @property
    def sector(self) -> "Sector":
        return Sector._make(self[2:6])


class Sector(NamedTuple):
    """Phase labels shared by one separable data block."""

    s3: int
    n: int
    m: int
    l: int


def s3_harmonic_norm(s1: int, s2: int, s3: int) -> float:
    """Normalization constant of Y^{s1 s2 s3} (log-gamma assembled)."""
    lg = ((2 * s2 - 1) * math.log(2.0)
          + math.log(s1 + 1.0) + math.log(2 * s2 + 1.0)
          + math.lgamma(s1 - s2 + 1) + math.lgamma(s2 - s3 + 1)
          + 2.0 * math.lgamma(s2 + 1)
          - 2.0 * math.log(math.pi)
          - math.lgamma(s1 + s2 + 2) - math.lgamma(s2 + s3 + 1))
    return math.exp(0.5 * lg)


def s3_harmonic(s1: int, s2: int, s3: int, point) -> complex:
    """Y^{s1 s2 s3} at (t1, t2, t3); raises IndexChainError when the
    index chain fails."""
    if not (s1 >= s2 >= abs(s3)):
        raise IndexChainError(f"need s1 >= s2 >= |s3|, got ({s1}, {s2}, {s3})")
    t1, t2, t3 = point
    val = (s3_harmonic_norm(s1, s2, s3)
           * float(_t1_factor(s1, s2, t1))
           * assoc_legendre(s2, s3, math.cos(t2)))
    return val * complex(math.cos(s3 * t3), math.sin(s3 * t3))


def _t1_factor(s1: int, s2: int, t1):
    """A(t1) = N-free sin^{s2} t1 * C_{s1-s2}^{(s2+1)}(cos t1), the
    Gegenbauer polynomial as the rescaled Jacobi polynomial
    P_{s1-s2}^(s2+1/2, s2+1/2)."""
    t1 = np.asarray(t1, dtype=float)
    r, half = s1 - s2, s2 + 0.5
    return np.sin(t1) ** s2 * (gegenbauer_scale(s2 + 1.0, r)
                               * jacobi_poly_all(half, half, r, np.cos(t1))[r])


def _sin_jacobi_derivs(power: int, alpha: float, scale: float, r: int, t):
    """(F, F', F'') in t of F = scale sin^power t P_r^(alpha, alpha)(cos t),
    the shape of both the t1 and the t2 factor of Y^{s1 s2 s3}."""
    s, c = np.sin(t), np.cos(t)
    return envelope_jacobi_derivs(alpha, alpha, scale * np.eye(r + 1)[r],
                                  c, -s, -c, [(power, s, c, -s)])


def s3_laplace_residual(s1: int, s2: int, s3: int, points) -> np.ndarray:
    """|Delta_{S3} Y + s1(s1+2) Y| at (t1, t2, t3) points, t1 and t2 in
    (0, pi) (OutOfRange otherwise).  All derivatives are analytic: both
    factors are sin^k times a rescaled Jacobi polynomial in the cosine
    (Gegenbauer in t1, associated Legendre in t2), differentiated by the
    shift identity and the chain rule."""
    t1, t2, _t3 = np.asarray(points, dtype=float).reshape(-1, 3).T
    if not np.all((0.0 < t1) & (t1 < np.pi) & (0.0 < t2) & (t2 < np.pi)):
        raise OutOfRange("t1 and t2 must lie in (0, pi)")
    k = abs(s3)
    r = s1 - s2
    a, a1, a2 = _sin_jacobi_derivs(s2, s2 + 0.5, gegenbauer_scale(s2 + 1.0, r),
                                   r, t1)
    b, b1, b2 = _sin_jacobi_derivs(k, k, legendre_scale(s2, s3), s2 - k, t2)
    lap = ((a2 + 2.0 / np.tan(t1) * a1) * b
           + (a / np.sin(t1) ** 2) * (b2 + b1 / np.tan(t2)
                                      - (s3 * s3 / np.sin(t2) ** 2) * b))
    return np.abs(s3_harmonic_norm(s1, s2, s3) * (lap + s1 * (s1 + 2.0) * a * b))


def c_beta(M: float, kappa: float, lam: float) -> float:
    """c = sqrt(4 + (M^2 + lam)/kappa) >= 2; ValueError unless M and
    kappa are finite, OutOfRange when c^2 overflows a double."""
    if not 0.0 < kappa < math.inf:
        raise ValueError("kappa must be finite and positive")
    if not (0.0 <= M < math.inf and lam >= 0.0):
        raise ValueError("M must be finite, M and lam nonnegative")
    c_sq = 4.0 + (M * M + lam) / kappa
    if not math.isfinite(c_sq):
        raise OutOfRange(f"c^2 = 4 + (M^2 + lam)/kappa overflows for M = "
                         f"{float(M)!r}, kappa = {float(kappa)!r}, "
                         f"lam = {float(lam)!r}")
    return math.sqrt(c_sq)


def _f_norm(beta1: int, c: float, i):
    """N_i of f_i, elementwise over i: unit d nu norm fixed by int_0^1
    xi^{b1+1} (1-xi)^c P_i^(b1+1, c)(1-2xi)^2 dxi = h_i / 2^(b1+c+2)."""
    return np.exp(0.5 * ((beta1 + c + 2.0) * math.log(2.0)
                         - jacobi_log_norm(beta1 + 1.0, c, i)))


def _f_table(beta1: int, c: float, i_max: int, x) -> np.ndarray:
    """f_0 .. f_{i_max} at x, shaped (i_max+1,) + np.shape(x), from one
    Jacobi sweep: f_i = N_i cos^{b1} x sin^{2+c} x P_i^(b1+1, c)(-cos 2x)."""
    xv = np.asarray(x, dtype=float)
    norms = _f_norm(beta1, c, np.arange(i_max + 1))
    return (norms.reshape((-1,) + (1,) * xv.ndim)
            * np.cos(xv) ** beta1 * np.sin(xv) ** (2.0 + c)
            * jacobi_poly_all(beta1 + 1.0, c, i_max, -np.cos(2.0 * xv)))


def ads_omegas(beta1, c, i_max: int) -> np.ndarray:
    """Omega_i = (2i + beta1 + c + 2)^2 for i = 0 .. i_max, broadcast over
    beta1 and c (columns give one row each).  ValueError unless beta1,
    i_max >= 0 and c >= 2; OutOfRange when an Omega is not finite."""
    b1, cv, i = np.broadcast_arrays(np.asarray(beta1, dtype=float),
                                    np.asarray(c, dtype=float),
                                    np.arange(i_max + 1.0))
    if (b1 < 0.0).any() or i_max < 0 or (cv < 2.0).any():
        raise ValueError("need beta1 >= 0, i_max >= 0 and c >= 2")
    with np.errstate(over="ignore"):
        omega = (2.0 * i + b1 + cv + 2.0) ** 2
    if (bad := np.flatnonzero(~np.isfinite(omega))).size:
        b, cc, ii = (arr.flat[bad[0]].item() for arr in (b1, cv, i))
        raise OutOfRange(f"Omega of beta1={b:g}, c={cc!r}, i={ii:g} "
                         f"is not finite")
    return omega


def ads_operator_residual(beta1: int, c: float, i_max: int, x, M: float,
                          kappa: float) -> np.ndarray:
    """(L(beta1, lam) - Omega_i) f_i at 1d points x, one row per i <=
    i_max, lam recovered from c; one chain-rule sweep for every f_i."""
    lam = kappa * (c ** 2 - 4.0) - M * M
    xv = np.asarray(x, dtype=float)
    s, co = np.sin(xv), np.cos(xv)
    f, f1, f2 = envelope_jacobi_derivs(
        beta1 + 1.0, c, np.diag(_f_norm(beta1, c, np.arange(i_max + 1))),
        -np.cos(2.0 * xv), 2.0 * np.sin(2.0 * xv), 4.0 * np.cos(2.0 * xv),
        [(beta1, co, -s, -co), (2.0 + c, s, co, -s)])
    left = (-f2 + 3.0 * (s / co + co / s) * f1
            + beta1 * (beta1 + 2.0) / co ** 2 * f
            + (M * M + lam) / (kappa * s * s) * f)
    return left - ads_omegas(beta1, c, i_max)[:, None] * f


def ads_gram(beta1: int, c: float, i_max: int) -> np.ndarray:
    """Gram of {f_i}_{i<=i_max} under d nu via the exact rule in
    xi = cos^2 x (weight xi^{beta1+1} (1-xi)^c).  FieldTooLarge, before
    anything is built, unless the n x n polynomial table behind the
    n = i_max + 4 node rule (8 bytes an entry) fits in physical memory."""
    n = i_max + 4
    require_memory(n * n * 8, f"the {n}-node rule of the Gram of "
                              f"i_max = {i_max}")
    xi, w = rule_on_interval(0.0, 1.0, beta1 + 1.0, c, n)
    basis = (_f_norm(beta1, c, np.arange(i_max + 1))[:, None]
             * jacobi_poly_all(beta1 + 1.0, c, i_max, 1.0 - 2.0 * xi))
    return (basis * w) @ basis.T


# ---------------------------------------------------------------------------
# product grids and projection


class SectorGrid(NamedTuple):
    """Product quadrature grid over (x, t1, t2, theta, y), one for all
    sectors: no rule is matched to the eigenfunctions of a sector.

    One rule per axis, nodes in the axis coordinate and the axis measure
    in the weights: x carries the d nu measure through xi = cos^2 x with
    a fixed oversampled Jacobi rule (exponents (1, 2), the minimal decay
    class); t1 and t2 carry sin^2 t1 dt1 and sin t2 dt2 via Gauss
    Chebyshev-2 and Gauss-Legendre in the cosines (polynomial integrands);
    theta carries sin theta dtheta via Gauss-Legendre in cos theta, and y
    carries rho dy, rho = (1 - y)/18, via Gauss-Legendre in y.
    """

    x: QuadratureRule
    t1: QuadratureRule
    t2: QuadratureRule
    theta: QuadratureRule
    y: QuadratureRule

    @property
    def shape(self) -> tuple:
        return tuple(rule.nodes.size for rule in self)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape, dtype=complex)

    def grid_norm_sq(self, data: np.ndarray) -> float:
        """Discrete squared L^2 norm of a sector amplitude."""
        if data.shape != self.shape:
            raise GridMismatch(f"data shape {data.shape} != grid {self.shape}")
        return self.read_sector(np.ascontiguousarray(data, dtype=complex))[1]

    def read_sector(self, arr: np.ndarray, rows: np.ndarray | None = None):
        """(moments, norm_sq) of a complex C-contiguous sector array, read
        one x node at a time: each (t1*t2, theta*y) slab is squared into
        one slab-sized buffer, whose weighted row sums give the discrete
        squared L^2 norm, and, while it is in cache, contracted against
        `rows` (k, theta*y) into moments[x] (None without rows)."""
        nx, n1, n2, nth, ny = self.shape
        slabs = arr.reshape(nx, n1 * n2, nth * ny)
        moments = (None if rows is None
                   else np.empty((nx, n1 * n2, len(rows)), dtype=complex))
        # sum_{r,c} w_r w_c |arr_rc|^2 over rows r = (x, t1, t2) and
        # columns c = (theta, y), on a float view (re, im side by side)
        w_col = np.repeat(np.outer(self.theta.weights, self.y.weights), 2)
        square = np.empty((n1 * n2, 2 * nth * ny))
        row_sq = np.empty((nx, n1 * n2))
        for x, slab in enumerate(slabs):
            flat = slab.view(float)
            np.multiply(flat, flat, out=square)
            np.matmul(square, w_col, out=row_sq[x])
            if moments is not None:
                np.matmul(slab, rows.T, out=moments[x])
        w_row = np.einsum("x,a,b->xab", self.x.weights, self.t1.weights,
                          self.t2.weights)
        return moments, float(row_sq.ravel() @ w_row.ravel())


def check_grid_memory(shape: tuple) -> None:
    """FieldTooLarge unless one sector's field on a grid of this shape
    (16 bytes a point) and the n x n polynomial table behind the rule of
    its longest axis (8 bytes an entry) each fit in physical memory."""
    n = max(shape)
    require_memory(math.prod(shape) * 16, f"one sector on grid {shape}")
    require_memory(n * n * 8, f"the {n}-node rule of grid {shape}")


def sector_grid(gp: GeometryParams,
                shape: tuple[int, int, int, int, int]) -> SectorGrid:
    """The product grid of `shape`; FieldTooLarge, before any rule is
    built, when check_grid_memory refuses the shape."""
    check_grid_memory(shape)
    nx, n1, n2, nth, ny = shape
    # x axis: int_0^{pi/2} F d nu = int_0^1 F(xi) xi (1-xi)^{-2} dxi;
    # admissible integrands decay at least like (1-xi)^2 there
    xi, wxi = rule_on_interval(0.0, 1.0, 1.0, 2.0, nx)
    y, wy = rule_on_interval(gp.y_minus, gp.y_plus, 0.0, 0.0, ny)
    # t1 integrands carry sin^{2 s2} x weight-halves: Chebyshev-2 rule;
    # t1, t2 and theta take the rules of their cosines
    t1, t2, theta = (QuadratureRule(np.arccos(rule.nodes), rule.weights)
                     for rule in (gauss_jacobi(0.5, 0.5, n1),
                                  gauss_jacobi(0.0, 0.0, n2),
                                  gauss_jacobi(0.0, 0.0, nth)))
    return SectorGrid(
        QuadratureRule(np.arccos(np.sqrt(xi)), wxi / (1.0 - xi) ** 4),
        t1, t2, theta, QuadratureRule(y, wy * ((1.0 - y) / 18.0)))


@dataclass
class SpectralCoefficients:
    """Finitely supported map (ModeIndex, i) -> complex."""

    entries: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.entries.get(key, 0.0 + 0.0j)

    def __setitem__(self, key, value):
        self.entries[key] = complex(value)

    def items(self):
        return self.entries.items()

    def copy(self) -> "SpectralCoefficients":
        return SpectralCoefficients(dict(self.entries))


class ModeTable:
    """Evaluation tables for a fixed mode set on one product grid.

    Built once per run; projection and synthesis are tensor contractions
    against these tables.  Every mode is a separable product
    x (x) t1 (x) t2 (x) theta (x) y, each factor built once per the
    indices it depends on (`block`).  Within one sector the blocks of its
    betas, stacked along a beta axis (`stack`), turn synthesis and
    projection of that sector into one GEMM each (sum factorization).
    """

    def __init__(self, gp: GeometryParams, M: float, kappa: float,
                 y_modes: dict, grid_shape: tuple, i_max: int):
        """y_modes: dict (n, m, l, k, j) -> (YEigenmode-like with .lam,
        .angular, .radial)."""
        self.gp = gp
        self.M = M
        self.kappa = kappa
        self.i_max = i_max
        self._factors: dict[tuple, tuple] = {}
        self._stacks: dict[tuple, SectorStack] = {}
        self._grid_shape = grid_shape
        self._y_modes = y_modes

    @functools.cached_property
    def grid(self) -> SectorGrid:
        """The quadrature grid of every sector; built on first use."""
        return sector_grid(self.gp, self._grid_shape)

    def block(self, beta: ModeIndex) -> tuple:
        """(t1 vec, t2 vec, theta vec, y vec, [f_i matrix], discrete
        x-Gram) of one beta (a plain 8-tuple is validated).  Each pair is
        built on the first request for its part of beta: (s1, s2, s3), the
        Y^{p,q} mode (n, m, l, k, j) up to its overall sign and (s1, c) in
        turn."""
        grid, memo = self.grid, self._factors
        s1, s2, s3 = ModeIndex._make(beta)[:3]
        n, m, l, k, j = y_key = beta[3:]
        y_mode = self._y_mode(beta)
        c = self.c(beta)
        # keys of 3, 5 and 2 entries: the three kinds share one dict
        if (s1, s2, s3) not in memo:
            memo[s1, s2, s3] = (
                s3_harmonic_norm(s1, s2, s3) * math.sqrt(2.0 * math.pi)
                * _t1_factor(s1, s2, grid.t1.nodes),
                assoc_legendre(s2, s3, np.cos(grid.t2.nodes)))
        # (n, m, l, k, j) and (-n, -m, -l, k, j) have bitwise equal factors
        y_key = max(y_key, (-n, -m, -l, k, j))
        if y_key not in memo:
            memo[y_key] = (y_mode.angular.value(grid.theta.nodes),
                           y_mode.radial.value(grid.y.nodes))
        if (s1, c) not in memo:
            # a huge c overflows the sweep: refused below, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                fmat = _f_table(s1, c, self.i_max, grid.x.nodes)
            if not np.isfinite(fmat).all():
                raise OutOfRange(
                    f"x table of s1 = {s1}, c = {c!r} is not finite "
                    f"(M = {self.M!r}, kappa = {self.kappa!r})")
            memo[s1, c] = fmat, (fmat * grid.x.weights) @ fmat.T
        return memo[s1, s2, s3] + memo[y_key] + memo[s1, c]

    def stack(self, betas) -> "SectorStack":
        """The blocks of `betas` (distinct, all of one sector) stacked in
        the order of their index tuples, so that results do not depend on
        the order the betas come in; built on first use, cached."""
        betas = tuple(sorted(betas))
        if betas not in self._stacks:
            self._stacks[betas] = SectorStack(
                betas, [self.block(beta) for beta in betas], self.grid,
                [self.c(beta) for beta in betas])
        return self._stacks[betas]

    def _y_mode(self, beta: ModeIndex):
        """beta's Y^{p,q} mode; GridMismatch when the table lacks it."""
        if (mode := self._y_modes.get(beta[3:])) is None:
            raise GridMismatch(f"mode {tuple(beta)}: Y^{{p,q}} mode "
                               f"{tuple(beta[3:])} is not in the table")
        return mode

    def c(self, beta: ModeIndex) -> float:
        """c of beta's x factor, from the Laplace eigenvalue of its
        Y^{p,q} mode (n, m, l, k, j)."""
        return c_beta(self.M, self.kappa, self._y_mode(beta).lam)

    def omega_table(self, betas) -> np.ndarray:
        """ads_omegas of each beta's (s1, c), one row per beta in the
        order of `betas`, c computed once per Y^{p,q} mode."""
        y_keys = [b[3:] for b in betas]
        c_of = {key: self.c(beta)
                for key, beta in dict(zip(y_keys, betas)).items()}
        return ads_omegas(np.array([b[0] for b in betas])[:, None],
                          np.array([c_of[key] for key in y_keys])[:, None],
                          self.i_max)


# projection refuses an x-Gram whose condition number exceeds this: its
# solve would lose more than half of the 16 digits of a double
GRAM_COND_MAX = 1e8


class SectorStack:
    """Separable factors of nb betas of one sector along a leading beta
    axis, on the table's grid:

    * fmat (nb, i, x), t12 (nb, t1*t2) = t1 vec (x) t2 vec and
      ang (nb, theta*y) = theta vec (x) y vec for synthesis;
    * for projection, the quadrature weights folded in (wfmat, wt12),
      the discrete x-Grams (nb, i, i), with the c of each beta to name an
      x-Gram that projection refuses, and the weighted angular rows once
      per Y^{p,q} mode: a beta's (theta, y) factor depends on its labels
      beta[3:] alone, so its betas share the complex rows wang
      (modes, theta*y), and row `mode_of[b]` belongs to beta b.
    """

    def __init__(self, betas: tuple, blocks: list, grid: SectorGrid,
                 cs: list):
        self.grid = grid
        self.betas = betas
        self.cs = cs
        self.rows = {beta: r for r, beta in enumerate(betas)}
        vec1, vec2, vecth, vecy, fmat, gram = (
            np.stack(factor) for factor in zip(*blocks))

        def outer(a, b):
            return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)

        self.fmat = fmat
        self.t12 = outer(vec1, vec2)
        self.ang = outer(vecth, vecy)
        # |synthesized value| <= sum_b max_x |sum_i amps[b, i] f_i| peak[b]
        self.peak = np.abs(self.t12).max(axis=1) * np.abs(self.ang).max(axis=1)
        self.wfmat = fmat * grid.x.weights
        self.wt12 = outer(vec1 * grid.t1.weights, vec2 * grid.t2.weights)
        # ModeTable.block memoizes the (theta, y) pair on beta[3:]: one
        # row per distinct label tuple is exact; first: labels -> the
        # first beta that has them
        first: dict[tuple, int] = {}
        for r, beta in enumerate(betas):
            first.setdefault(beta[3:], r)
        slot = {key: u for u, key in enumerate(first)}
        self.mode_of = np.array([slot[beta[3:]] for beta in betas])
        pick = list(first.values())
        self.wang = outer(vecth[pick] * grid.theta.weights,
                          vecy[pick] * grid.y.weights).astype(complex)
        self.gram = gram

    @functools.cached_property
    def cond(self) -> np.ndarray:
        """Condition number of each beta's x-Gram."""
        return np.linalg.cond(self.gram)

    def synthesize(self, amps: np.ndarray) -> np.ndarray:
        """Sector array of sum_b,i amps[b, i] f_i (x) t12_b (x) ang_b:
        the x profiles times t12 as an (nb, x*t1*t2) matrix, against
        ang in one GEMM.  OutOfRange, naming the sector, when a value is
        not finite; read value by value only if `peak` allows that."""
        with np.errstate(over="ignore", invalid="ignore"):
            xprof = np.einsum("bi,bix->bx", amps, self.fmat)
            left = (xprof[:, :, None] * self.t12[:, None, :]).reshape(
                len(self.betas), -1)
            out = (left.T @ self.ang).reshape(self.grid.shape)
            bound = np.abs(xprof).max(axis=1) @ self.peak
        if not (bound < 1e300 or np.isfinite(out).all()):
            raise OutOfRange(f"synthesized values of "
                             f"{Sector._make(self.betas[0][2:6])} are not "
                             f"finite")
        return out

    def project(self, arr: np.ndarray) -> tuple[np.ndarray, float]:
        """((nb, i) coefficients, discrete squared norm) of a sector array
        from one read of it: each x slab against the distinct angular
        rows (`SectorGrid.read_sector`), the moments gathered to betas and
        contracted with t12 and the x factors, then refined by the x-Gram
        solves; OutOfRange when an x-Gram's condition number exceeds
        GRAM_COND_MAX (the x rule does not resolve that beta's modes)."""
        worst = int(np.argmax(self.cond))
        if self.cond[worst] > GRAM_COND_MAX:
            raise OutOfRange(
                f"grid_x = {self.grid.shape[0]} cannot resolve "
                f"s1 = {self.betas[worst][0]}, c = {self.cs[worst]!r}: "
                f"x-Gram condition number {self.cond[worst]:.3g} > "
                f"{GRAM_COND_MAX:g}")
        moments, norm_sq = self.grid.read_sector(
            np.ascontiguousarray(arr, dtype=complex), self.wang)
        red = np.einsum("xab,ba->bx", moments[:, :, self.mode_of], self.wt12)
        raw = np.einsum("bix,bx->bi", self.wfmat, red)
        return np.linalg.solve(self.gram, raw[:, :, None])[:, :, 0], norm_sq


def project_cauchy(data: dict, modes: list[ModeIndex],
                   table: ModeTable) -> tuple[np.ndarray, float]:
    """(coeffs, norm_sq) of data: dict Sector -> 5d array on
    `table.grid` (GridMismatch otherwise), each sector converted to a
    complex C-contiguous array at most once and read once, one x slab at
    a time, for its coefficients and its norm together.

    coeffs[r, i] = <data, Psi_beta f_i>, beta = modes[r] (distinct), its
    x moments refined by the per-block discrete Gram solve; zero where
    beta's sector holds no data.  norm_sq: the discrete squared norm of
    every sector, mode-free ones too, summed in data order.
    """
    row_of = {beta: r for r, beta in enumerate(modes)}
    by_sector: dict[Sector, list] = {}
    for beta in modes:
        by_sector.setdefault(Sector._make(beta[2:6]), []).append(beta)
    coeffs = np.zeros((len(modes), table.i_max + 1), dtype=complex)
    norm_sq, shape = 0.0, table.grid.shape
    for sector, arr in data.items():
        if arr.shape != shape:
            raise GridMismatch(f"{sector}: data {arr.shape} != grid {shape}")
        if sector in by_sector:
            stack = table.stack(by_sector[sector])
            rows = list(map(row_of.__getitem__, stack.betas))
            coeffs[rows], sector_sq = stack.project(arr)
        else:
            sector_sq = table.grid.grid_norm_sq(arr)
        norm_sq += sector_sq
    return coeffs, norm_sq


def synthesize(coeffs: SpectralCoefficients, table: ModeTable) -> dict:
    """Sector amplitude arrays of sum coeff * Psi_beta f_i on
    `table.grid`, in sorted sector order.

    Raises GridMismatch for a key with i outside 0..table.i_max,
    FieldTooLarge, before allocating anything, when the arrays would not
    fit in the machine's physical memory, and OutOfRange, naming the
    sector, when its values are not finite.
    """
    by_sector: dict[Sector, list] = {}
    for (beta, i), v in coeffs.items():
        if i not in range(table.i_max + 1):
            raise GridMismatch(
                f"coefficient {(beta, i)} outside i = 0..{table.i_max}")
        by_sector.setdefault(Sector._make(beta[2:6]), []).append((beta, i, v))
    require_memory(len(by_sector) * math.prod(table._grid_shape) * 16,
                   f"synthesized field of {len(by_sector)} sectors")
    out: dict[Sector, np.ndarray] = {}
    for sector, entries in sorted(by_sector.items()):
        betas, cols, vals = zip(*entries)
        stack = table.stack(set(betas))
        amps = np.zeros((len(stack.betas), table.i_max + 1), dtype=complex)
        amps[list(map(stack.rows.__getitem__, betas)), cols] = vals
        out[sector] = stack.synthesize(amps)
    return out
