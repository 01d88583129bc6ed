"""Eigensolver for the singular radial Sturm-Liouville operator

    (S u)(y) = (1/rho) (rho w r u')' - V(y) u,
    V = (sigma l / tau)^2 / w + 9 (2m + h sigma l/tau)^2 / r
        + 6 Lambda / (1 - y),

on L^2((y_minus, y_plus), rho dy), rho = (1-y)/18.  The solver returns
the eigenvalues ell_k >= 0 of -S (ascending, simple) with normalized
eigenfunctions.

The combination rho*w*r collapses to (a - 3y^2 + 2y^3)/9, whose simple
zeros at the interval endpoints make both endpoints regular singular
points with half-integer characteristic exponents

    nu_minus = |m + q sigma l / 4|        at y_minus,
    nu_plus  = |m + (q - 2p) sigma l / 4| at y_plus.

(The q-anchored exponent belongs to the negative root; see the geometry
module docstring for the endpoint orientation, and note the potential
carries 2m + h sigma l/tau, fixing the sign convention of the alpha
frequency so the two formulas above hold verbatim.)

Discretization: Galerkin in the endpoint-weighted orthonormal basis
phi_k(y) = (y - y_minus)^nu_minus (y_plus - y)^nu_plus pbar_k(t), where
y = ybar + h t and pbar_k = sqrt(mu0/h_k) P_k^(2 nu_plus, 2 nu_minus) is
orthonormal for the weight w(t) = (1-t)^(2 nu_plus) (1+t)^(2 nu_minus)
over its zeroth moment mu0.  The weight bakes the endpoint decay into
every trial function and leaves no room for log-singular solutions,
which selects the Friedrichs extension when an exponent vanishes.  The
factor h^(2 nu_minus + 2 nu_plus + 1) mu0 of every matrix entry, which
underflows at large exponents, is dropped; `RadialMode` restores it in
log space.  The Jacobi matrix J of w multiplies by t in the pbar_k and
rho = (1 - ybar - h t)/18, so B = ((1 - ybar) I - h J)/18 exactly:
cond(B) < (1 - y_minus)/(1 - y_plus) at any exponent and size.  The
eigenvectors of the N-node J are V_ki = pbar_k(x_i) sqrt(lambda_i)
(Gauss nodes x_i, Christoffel numbers lambda_i), so V[:n] diag(f)
V[:n]^T is the Gauss rule of A's mass-type part (and of the norm check)
with no polynomial evaluated.  The derivative part uses the Gauss-Jacobi
rule of exponents 2 nu - 1, where the 1/r potential singularity has
cancelled against the basis weight.

A solve assembles once, at 25% more basis functions than asked for.
Its refinement check solves the leading n_basis block of that system
too: the same basis rows, so B's block is the smaller B exactly (J's
leading block) and A's is the smaller A under the larger rules.

Problems and modes are immutable.  The rules and tables of a solve
depend only on (gp, nu_minus, nu_plus) and the sizes, so solves may
share them through a `tables` dict keyed by those values, filled as
solves go and not locked: it belongs to one call (one build_modes, one
CLI run), never to several threads, and nothing outlives the call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh, eigh_tridiagonal

from .errors import EigenFailure, NotConverged, OutOfRange, require_memory
from .geometry import GeometryParams
from .specfun import (envelope_jacobi_derivs, gauss_jacobi, jacobi_deriv_all,
                      jacobi_log_norm, jacobi_matrix, jacobi_poly_all)

__all__ = ["RadialProblem", "RadialMode", "char_exponents", "radial_problem",
           "assemble_galerkin", "check_basis_memory", "solve_radial"]

_NEG_TOL = 1e-9
_CONV_REL = 1e-8
_QUAD_PAD = 32


def char_exponents(gp: GeometryParams, m: int, l: int) -> tuple[float, float]:
    """(nu_minus, nu_plus): endpoint exponents at y_minus and y_plus.

    Both are integer multiples of 1/2 because sigma is even and divisible
    by q and 2p - q.
    """
    nu_minus = abs(m + gp.q * gp.sigma * l / 4.0)
    nu_plus = abs(m + (gp.q - 2 * gp.p) * gp.sigma * l / 4.0)
    return nu_minus, nu_plus


@dataclass(frozen=True)
class RadialProblem:
    """One (m, l, Lambda) sector of the radial operator."""

    gp: GeometryParams
    m: int
    l: int
    lambda_cap: float
    nu_minus: float
    nu_plus: float

    @property
    def alpha_freq(self) -> float:
        """sigma*l/tau, the frequency entering the potential."""
        return self.gp.sigma * self.l / self.gp.tau

    def potential_charge(self, y):
        """2m + h(y) sigma l / tau, whose endpoint values are +-2 nu."""
        a = self.gp.a
        h = (a - 2.0 * y + y * y) / (6.0 * (a - y * y))
        return 2.0 * self.m + h * self.alpha_freq

    def apply(self, y, g, g1, g2):
        """(S g)(y) from g, g' and g'' at interior points y."""
        a = self.gp.a
        c3 = a - 3.0 * y ** 2 + 2.0 * y ** 3
        c = c3 / 9.0
        cp = (6.0 * y * y - 6.0 * y) / 9.0
        rho = (1.0 - y) / 18.0
        w = 2.0 * (a - y * y) / (1.0 - y)
        r = c3 / (a - y * y)
        mu = self.alpha_freq
        charge = self.potential_charge(y)
        pot = mu * mu / w + 9.0 * charge * charge / r \
            + 6.0 * self.lambda_cap / (1.0 - y)
        return (c * g2 + cp * g1) / rho - pot * g


def radial_problem(gp: GeometryParams, m: int, l: int,
                   lambda_cap: float) -> RadialProblem:
    if lambda_cap < 0:
        raise ValueError("Lambda must be nonnegative")
    nu_minus, nu_plus = char_exponents(gp, m, l)
    return RadialProblem(gp=gp, m=m, l=l, lambda_cap=float(lambda_cap),
                         nu_minus=nu_minus, nu_plus=nu_plus)


def _exponent_tables(gp: GeometryParams, nm: float, npl: float,
                     n_basis: int, n_nodes: int):
    """B, both rules and the tables on the second: all of the Galerkin
    matrices that depends on the exponent pair and sizes alone."""
    ybar, half = 0.5 * (gp.y_plus + gp.y_minus), 0.5 * (gp.y_plus - gp.y_minus)
    diag, off = jacobi_matrix(2.0 * npl, 2.0 * nm, n_basis)
    b_mat = (np.diag((1.0 - ybar) - half * diag)
             - half * (np.diag(off, 1) + np.diag(off, -1))) / 18.0

    # derivative/centrifugal rule: exponent 2nu-1, lifted to 1 when nu = 0
    d_lo, d_hi = int(nm == 0.0), int(npl == 0.0)
    rule = gauss_jacobi(2.0 * npl - 1.0 + 2.0 * d_hi,
                        2.0 * nm - 1.0 + 2.0 * d_lo, n_nodes)
    t_d = rule.nodes
    # over mu0 of the basis weight (the dropped factor), on the pbar_k
    log_h = jacobi_log_norm(2.0 * npl, 2.0 * nm, np.arange(n_basis))
    w_d = rule.weights * np.exp(-log_h[0])
    scale = np.exp(0.5 * (log_h[0] - log_h))[:, None]
    p_d = scale * jacobi_poly_all(2.0 * npl, 2.0 * nm, n_basis - 1, t_d)
    dp_d = scale * jacobi_deriv_all(2.0 * npl, 2.0 * nm, n_basis - 1, t_d)

    # R_k = (nm (1-t) - npl (1+t)) pbar_k + (1-t^2) pbar_k', divided by
    # the structural factors it always contains when nu = 0
    div = (1.0 + t_d) ** d_lo * (1.0 - t_d) ** d_hi
    r_mat = ((nm * (1.0 - t_d) - npl * (1.0 + t_d)) * p_d
             + (1.0 - t_d * t_d) * dp_d) / div
    # the centrifugal divisor also takes the h of the R it lacks
    return (b_mat, *_mass_rule(gp, nm, npl, n_basis, n_nodes),
            ybar + half * t_d, w_d, p_d, r_mat, div * half)


def _mass_rule(gp: GeometryParams, nm: float, npl: float, n_basis: int,
               n_nodes: int):
    """(y nodes, V[:n_basis]) of the n_nodes-node Jacobi matrix of the
    basis weight: V diag(f) V^T is the Gauss rule of the mass type."""
    t, vecs = eigh_tridiagonal(*jacobi_matrix(2.0 * npl, 2.0 * nm, n_nodes))
    return gp.y_minus + 0.5 * (gp.y_plus - gp.y_minus) * (1.0 + t), \
        vecs[:n_basis]


def _p_scale(gp: GeometryParams, nm: float, npl: float, n: int):
    """(h h_k)^(-1/2), k < n, from log space: pbar_k coefficients to P_k
    ones, times the dropped factor's inverse square root."""
    return np.exp(-0.5 * (jacobi_log_norm(2.0 * npl, 2.0 * nm, np.arange(n))
                          + np.log(0.5 * (gp.y_plus - gp.y_minus))))


def _galerkin_tables(prob: RadialProblem, n_basis: int, tables: dict):
    """_exponent_tables of prob's exponent pair at n_basis, built on the
    first request and kept in `tables`."""
    key = (prob.gp, prob.nu_minus, prob.nu_plus, n_basis, n_basis + _QUAD_PAD)
    if key not in tables:
        tables[key] = _exponent_tables(*key)
    return tables[key]


def assemble_galerkin(prob: RadialProblem, n_basis: int,
                      tables: dict | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Stiffness and mass matrices (A, B) of the weak form of -S.

    A_jk = int [rho w r phi_j' phi_k' + V phi_j phi_k rho] dy,
    B_jk = int phi_j phi_k rho dy.  Both exactly symmetric; B positive
    definite.  n_basis >= 4.  `tables` as in solve_radial.
    """
    if n_basis < 4:
        raise ValueError("n_basis must be at least 4")
    gp = prob.gp
    b_mat, y_b, v_b, y_d, w_d, p_d, r_mat, div = _galerkin_tables(
        prob, n_basis, {} if tables is None else tables)
    a, y3, mu = gp.a, gp.y_third, prob.alpha_freq
    # smooth factors; the mass-type one without rho, which B carries
    f_mass = (mu * mu) * (1.0 - y_b) ** 2 / (36.0 * (a - y_b * y_b)) \
        + prob.lambda_cap / 3.0
    # second rule: kinetic factor (2/9)(y3-y) and centrifugal
    a2_d = a - y_d * y_d
    rho_d = (1.0 - y_d) / 18.0
    pol = (12.0 * prob.m * a2_d + mu * (a - 2.0 * y_d + y_d * y_d)) / div
    f_kin = (2.0 / 9.0) * (y3 - y_d)
    f_cent = rho_d * pol * pol / (8.0 * a2_d * (y3 - y_d))

    a_mat = (v_b * f_mass) @ v_b.T
    a_mat += (r_mat * (w_d * f_kin)) @ r_mat.T
    a_mat += (p_d * (w_d * f_cent)) @ p_d.T
    return a_mat, b_mat.copy()


@dataclass(frozen=True)
class RadialMode:
    """One normalized eigenfunction of -S with eigenvalue ell."""

    problem: RadialProblem
    k: int
    ell: float
    coeffs: np.ndarray
    grid_norm_residual: float

    def value(self, y):
        t, lo, hi, scale = self._local(y)
        nm, npl = self.problem.nu_minus, self.problem.nu_plus
        out = np.exp(nm * np.log(lo) + npl * np.log(hi)) * (
            (scale * self.coeffs) @ jacobi_poly_all(
                2.0 * npl, 2.0 * nm, len(self.coeffs) - 1, t))
        return out if np.ndim(y) else float(out[0])

    def value_and_derivs(self, y):
        t, lo, hi, scale = self._local(y)
        nm, npl = self.problem.nu_minus, self.problem.nu_plus
        dt = 2.0 / (self.problem.gp.y_plus - self.problem.gp.y_minus)
        return envelope_jacobi_derivs(
            2.0 * npl, 2.0 * nm, scale * self.coeffs, t, dt, 0.0,
            [(nm, lo, dt, 0.0), (npl, hi, -dt, 0.0)])

    def _local(self, y):
        """(t, 1 + t, 1 - t, _p_scale) at points y of the open interval:
        the mode is (1+t)^nu_minus (1-t)^nu_plus sum_k scale_k c_k P_k(t)."""
        yv = np.atleast_1d(np.asarray(y, dtype=float))
        prob, gp = self.problem, self.problem.gp
        if np.any(yv <= gp.y_minus) or np.any(yv >= gp.y_plus):
            raise OutOfRange("y outside the open radial interval")
        half = 0.5 * (gp.y_plus - gp.y_minus)
        return ((yv - gp.y_minus) / half - 1.0, (yv - gp.y_minus) / half,
                (gp.y_plus - yv) / half,
                _p_scale(gp, prob.nu_minus, prob.nu_plus, len(self.coeffs)))

    def operator_residual(self, y):
        """(-S - ell) applied to the eigenfunction at interior points,
        relative to ell*|g| + 1; analytic derivatives throughout."""
        yv = np.atleast_1d(np.asarray(y, dtype=float))
        g, g1, g2 = self.value_and_derivs(yv)
        left = -self.problem.apply(yv, g, g1, g2)
        return (left - self.ell * g) / (abs(self.ell) * np.abs(g) + 1.0)


def check_basis_memory(n_basis: int) -> None:
    """FieldTooLarge unless the n x n polynomial table behind the Galerkin
    rules of a solve at n_basis (8 bytes an entry) fits in physical
    memory: n is solve_radial's 25% larger size, in integers so that any
    int is judged, plus the rules' padding."""
    n = -(-5 * n_basis // 4) + _QUAD_PAD
    require_memory(n * n * 8, f"the {n}-node Galerkin rule of n_basis = "
                              f"{n_basis}")


def solve_radial(prob: RadialProblem, k_max: int, n_basis: int,
                 tables: dict | None = None) -> list[RadialMode]:
    """First k_max+1 eigenpairs of A c = ell B c, ascending.

    n_basis >= k_max + 8.  The system is assembled once, with 25% more
    basis functions, and the modes come from it; its leading n_basis
    block must give the two largest requested eigenvalues within 1e-8
    of them (relative, floored at 1), otherwise NotConverged.  Small
    negative eigenvalues within 1e-9 are clamped to zero.

    `tables`: the rules and tables shared by the caller's solves (module
    docstring), None for a fresh dict; results do not depend on it.
    FieldTooLarge, before anything is built, when check_basis_memory
    refuses n_basis.
    """
    if n_basis < k_max + 8:
        raise ValueError("n_basis must be at least k_max + 8")
    check_basis_memory(n_basis)
    tables = {} if tables is None else tables
    n_big = int(np.ceil(1.25 * n_basis))
    a_mat, b_mat = assemble_galerkin(prob, n_big, tables)
    ell_a, _ = _solve_once(prob, k_max, a_mat[:n_basis, :n_basis],
                           b_mat[:n_basis, :n_basis])
    ell_b, vecs = _solve_once(prob, k_max, a_mat, b_mat)
    # fix sign for reproducibility: dominant coefficient of P_k positive
    lead = np.argmax(np.abs(vecs) * _p_scale(
        prob.gp, prob.nu_minus, prob.nu_plus, n_big)[:, None], axis=0)
    vecs *= np.where(vecs[lead, np.arange(k_max + 1)] < 0.0, -1.0, 1.0)
    for k in (max(k_max - 1, 0), k_max):
        drift = abs(ell_a[k] - ell_b[k]) / max(1.0, abs(ell_b[k]))
        if drift > _CONV_REL:
            raise NotConverged(
                f"eigenvalue {k} moved by {drift:.2e} under basis refinement")
    resid = _norm_residuals(prob, vecs, n_big, tables)
    modes = []
    for k in range(k_max + 1):
        ell = ell_b[k]
        if ell < -_NEG_TOL:
            raise NotConverged(f"eigenvalue {k} = {ell} below -{_NEG_TOL}")
        modes.append(RadialMode(problem=prob, k=k, ell=max(ell, 0.0),
                                coeffs=vecs[:, k].copy(),
                                grid_norm_residual=resid[k]))
    return modes


def _solve_once(prob: RadialProblem, k_max: int, a_mat: np.ndarray,
                b_mat: np.ndarray):
    try:
        vals, vecs = eigh(a_mat, b_mat)
    except LinAlgError as exc:
        labels = (prob.gp.p, prob.gp.q, prob.m, prob.l, prob.lambda_cap)
        raise EigenFailure(f"Galerkin eigensolve failed for (p, q, m, l, Lambda)"
                           f" = {labels}, n_basis = {len(a_mat)}: {exc}") from exc
    return vals[:k_max + 1], vecs[:, :k_max + 1]


def _norm_residuals(prob: RadialProblem, vecs: np.ndarray, n_basis: int,
                    tables: dict):
    """|B-norm by the Galerkin mass rule - 1| per column: the rule
    integrates u_k^2 rho exactly, so this measures the eigensolve alone."""
    _, y, rows, *_ = _galerkin_tables(prob, n_basis, tables)
    vals = vecs.T @ rows
    return np.abs((vals * vals) @ ((1.0 - y) / 18.0) - 1.0)
