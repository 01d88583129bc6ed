"""Laplace eigenbasis of Y^{p,q}: product modes

    u_{nmlkj} = v_{nmj}(theta) g_{mlk}(y)
                exp(i(n phi + 2m psi + sigma l alpha/tau)) / (2 pi)^{3/2},

with eigenvalue lambda_{nmlkj} = ell_{mlk}(Lambda_{nmj}) of minus the
Laplacian.  Angle inner products are evaluated analytically (Kronecker
deltas with the phase volume normalized to (2 pi)^3, absorbing the
alpha-period rescaling alpha -> alpha/tau); only the (theta, y) factors
are ever integrated numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .angular import AngularMode, angular_eigenvalue, angular_mode
from .errors import OutOfRange, require_memory
from .geometry import GeometryParams
from .radial import RadialMode, radial_problem, solve_radial
from .specfun import gauss_jacobi, rule_on_interval

__all__ = ["YModeIndex", "YEigenmode", "YPoint", "TruncationPolicy",
           "build_eigenmode", "build_modes", "eval_u", "enumerate_modes",
           "sector_gram", "basis_gram", "laplacian_residual", "random_points"]


@dataclass(frozen=True, order=True)
class YModeIndex:
    n: int
    m: int
    l: int
    k: int
    j: int

    def __post_init__(self):
        if self.k < 0 or self.j < 0:
            raise ValueError("excitation numbers k, j must be nonnegative")


@dataclass(frozen=True)
class YPoint:
    """Interior chart point; measure-zero loci are excluded."""

    y: float
    theta: float
    phi: float
    psi: float
    alpha: float

    def validate(self, gp: GeometryParams) -> "YPoint":
        if not gp.y_minus < self.y < gp.y_plus:
            raise OutOfRange(f"y={self.y} outside the open radial interval")
        if not 0.0 < self.theta < math.pi:
            raise OutOfRange(f"theta={self.theta} outside (0, pi)")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise OutOfRange("phi outside [0, 2 pi)")
        if not 0.0 <= self.psi < 2.0 * math.pi:
            raise OutOfRange("psi outside [0, 2 pi)")
        if not 0.0 <= self.alpha < 2.0 * math.pi * gp.tau:
            raise OutOfRange("alpha outside [0, 2 pi tau)")
        return self


@dataclass(frozen=True)
class TruncationPolicy:
    """Rectangular index bounds."""

    n_max: int
    m_max: int
    l_max: int
    k_max: int
    j_max: int


@dataclass(frozen=True)
class YEigenmode:
    index: YModeIndex
    lam: float
    angular: AngularMode
    radial: RadialMode

    @property
    def gp(self) -> GeometryParams:
        return self.radial.problem.gp


def build_eigenmode(gp: GeometryParams, idx: YModeIndex,
                    n_basis: int = 40) -> YEigenmode:
    """Compose the angular closed form with a radial solve at
    Lambda = Lambda_{nmj} and select excitation k."""
    return build_modes(gp, [idx], n_basis)[0]


def eval_u(mode: YEigenmode, pt: YPoint) -> complex:
    gp = mode.gp
    pt.validate(gp)
    idx = mode.index
    phase = (idx.n * pt.phi + 2.0 * idx.m * pt.psi
             + gp.sigma * idx.l * pt.alpha / gp.tau)
    amp = mode.angular.value(pt.theta) * mode.radial.value(pt.y)
    return amp * np.exp(1j * phase) / (2.0 * math.pi) ** 1.5


def enumerate_modes(gp: GeometryParams,
                    truncation: TruncationPolicy) -> list[YModeIndex]:
    """All indices inside the rectangular bounds, lexicographic order;
    FieldTooLarge, before any is built, unless they fit in physical
    memory at 64 bytes each (a list slot and an object: a lower bound)."""
    t = truncation
    count = ((2 * t.n_max + 1) * (2 * t.m_max + 1) * (2 * t.l_max + 1)
             * (t.k_max + 1) * (t.j_max + 1))
    require_memory(count * 64, f"a list of {count} indices of {t}")
    return [YModeIndex(n, m, l, k, j)
            for n in range(-t.n_max, t.n_max + 1)
            for m in range(-t.m_max, t.m_max + 1)
            for l in range(-t.l_max, t.l_max + 1)
            for k in range(t.k_max + 1)
            for j in range(t.j_max + 1)]


def build_modes(gp: GeometryParams, indices: list[YModeIndex],
                n_basis: int = 40,
                radial_solver=None) -> list[YEigenmode]:
    """Batch build sharing radial solves across (m, l, Lambda, k) groups.

    The radial problem sees (m, l) only through quantities even under
    (m, l) -> (-m, -l), which has bitwise the same eigenpairs: a sign
    pair shares one solve of its larger member, and each index's modes
    carry a problem with its own (m, l).

    Each group is one solve_radial call, and the calls of this build
    share one `tables` dict, so each endpoint-exponent pair's rules and
    Jacobi tables are built once per build; the dict is dropped when the
    build returns.  radial_solver(problem, k_max, n_basis, solve) may be
    injected (the CLI wires the on-disk cache through here): `solve()`
    is that table-sharing call for the group, and the hook returns the
    group's modes, from `solve()` or from elsewhere.
    """
    tables: dict = {}
    by_sector: dict[tuple, list[YModeIndex]] = {}
    for idx in indices:
        lam_cap = angular_eigenvalue(idx.n, idx.m, idx.j)
        pair = max((idx.m, idx.l), (-idx.m, -idx.l))
        by_sector.setdefault((pair, lam_cap), []).append(idx)
    modes = []
    for ((m, l), lam_cap), group in by_sector.items():
        prob = radial_problem(gp, m, l, lam_cap)
        k_top = max(idx.k for idx in group)
        n_top = max(n_basis, k_top + 8)
        solve = partial(solve_radial, prob, k_top, n_top, tables)
        rads = {(m, l): solve() if radial_solver is None
                else radial_solver(prob, k_top, n_top, solve)}
        for idx in group:
            if (idx.m, idx.l) not in rads:
                own = replace(prob, m=idx.m, l=idx.l)
                rads[idx.m, idx.l] = [replace(rad, problem=own)
                                      for rad in rads[m, l]]
            ang = angular_mode(idx.n, idx.m, idx.j)
            rad = rads[idx.m, idx.l][idx.k]
            modes.append(YEigenmode(index=idx, lam=rad.ell,
                                    angular=ang, radial=rad))
    modes.sort(key=lambda md: (md.lam, md.index))
    return modes


def sector_gram(modes: list[YEigenmode]) -> np.ndarray:
    """Gram matrix of modes sharing one (n, m, l) phase sector.

    The integrand factorizes into a theta integral times a y integral.
    Both integrands are polynomials in cos(theta) resp. y (the endpoint
    exponents 2 nu and a, b are integers), so Gauss-Legendre rules sized
    to the polynomial degree are exact.
    """
    if not modes:
        return np.zeros((0, 0))
    n0, m0, l0 = modes[0].index.n, modes[0].index.m, modes[0].index.l
    if any((md.index.n, md.index.m, md.index.l) != (n0, m0, l0)
           for md in modes):
        raise ValueError("sector_gram needs a single (n, m, l) sector")
    gp = modes[0].gp
    ang = modes[0].angular
    a, b = ang.a_exp, ang.b_exp
    j_top = max(md.index.j for md in modes)
    prob = modes[0].radial.problem
    deg_th = a + b + 2 * j_top
    th_rule = gauss_jacobi(0.0, 0.0, deg_th // 2 + 4)
    theta = np.arccos(th_rule.nodes)
    n_coeff = max(len(md.radial.coeffs) for md in modes)
    deg_y = int(2.0 * (prob.nu_minus + prob.nu_plus)) + 2 * n_coeff + 1
    y, yw = rule_on_interval(gp.y_minus, gp.y_plus, 0.0, 0.0, deg_y // 2 + 4)
    rho = (1.0 - y) / 18.0
    th_vals = np.vstack([md.angular.value(theta) for md in modes])
    y_vals = np.vstack([md.radial.value(y) for md in modes])
    gram_th = (th_vals * th_rule.weights) @ th_vals.T
    gram_y = (y_vals * (yw * rho)) @ y_vals.T
    return gram_th * gram_y


def basis_gram(modes: list[YEigenmode]) -> np.ndarray:
    """Full Gram of a mode list; distinct phase sectors are orthogonal
    exactly (analytic angle integrals), so only diagonal sector blocks
    are computed numerically."""
    gram = np.zeros((len(modes), len(modes)))
    by_sector: dict[tuple, list[int]] = {}
    for i, md in enumerate(modes):
        key = (md.index.n, md.index.m, md.index.l)
        by_sector.setdefault(key, []).append(i)
    for idxs in by_sector.values():
        gram[np.ix_(idxs, idxs)] = sector_gram([modes[i] for i in idxs])
    return gram


def laplacian_residual(mode: YEigenmode, pts: list[YPoint]) -> np.ndarray:
    """|Delta u + lambda u| / (lambda |u| + 1) at chart points, with all
    derivatives taken analytically on the closed forms."""
    gp = mode.gp
    idx = mode.index
    prob = mode.radial.problem
    for pt in pts:
        pt.validate(gp)
    y = np.array([pt.y for pt in pts])
    th = np.array([pt.theta for pt in pts])
    g, g1, g2 = mode.radial.value_and_derivs(y)
    v, v1, v2 = mode.angular.value_and_derivs(th)
    # Delta u = (S + 6 Lambda/(1-y)) g v + 6/(1-y) g T v
    t_v = v2 + v1 / np.tan(th) \
        - ((idx.n + 2.0 * idx.m * np.cos(th)) / np.sin(th)) ** 2 * v
    lap = (prob.apply(y, g, g1, g2) * v
           + (6.0 / (1.0 - y)) * (t_v + prob.lambda_cap * v) * g)
    return np.abs(lap + mode.lam * g * v) / (np.abs(mode.lam * g * v) + 1.0)


def random_points(gp: GeometryParams, n: int, rng=None) -> list[YPoint]:
    """Uniform random interior chart points, away from the singular loci
    by a fractional margin of 0.08."""
    rng = rng or np.random.default_rng(0)
    margin = 0.08
    delta = gp.y_plus - gp.y_minus
    pts = []
    for _ in range(n):
        pts.append(YPoint(
            y=gp.y_minus + delta * rng.uniform(margin, 1.0 - margin),
            theta=math.pi * rng.uniform(margin, 1.0 - margin),
            phi=rng.uniform(0.0, 2.0 * math.pi),
            psi=rng.uniform(0.0, 2.0 * math.pi),
            alpha=rng.uniform(0.0, 2.0 * math.pi * gp.tau),
        ))
    return pts
