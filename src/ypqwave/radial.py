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
orthonormal eigenvectors of the N-node J are V_ki = pbar_k(x_i)
sqrt(lambda_i) (Gauss nodes x_i, Christoffel numbers lambda_i), so
V[:n] diag(f) V[:n]^T is the Gauss rule of A's mass-type part (and of
the norm check).  The derivative part uses the Gauss-Jacobi rule of
exponents 2 nu - 1, where the 1/r potential singularity has cancelled
against the basis weight.  One recurrence sweep evaluates all of these.

A solve assembles once, at 25% more basis functions than asked for,
and takes A c = ell B c as W A W^T y = ell y, c = W^T y, W =
inv(cholesky(B)), by numpy's LAPACK.  Its refinement check solves the
leading n_basis block of W A W^T, the smaller system's: the same basis
rows, so B's block is the smaller B (J's leading block), A's the smaller
A under the larger rules, and W is lower triangular.

Problems and modes are immutable.  The rules and tables of a solve
depend only on (gp, nu_minus, nu_plus) and the sizes, so solves may
share them through a `tables` dict keyed by those values, filled as
solves go and not locked: it belongs to one call (one build_modes, one
CLI run), never to several threads, and nothing outlives the call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, cholesky, eigh, eigvalsh, inv

from .errors import EigenFailure, NotConverged, OutOfRange, require_memory
from .geometry import GeometryParams, eval_profiles, profile_h
from .specfun import (christoffel, envelope_jacobi_derivs, gauss_nodes,
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

    @property
    def label(self) -> str:
        """The problem as error messages name it."""
        labels = (self.gp.p, self.gp.q, self.m, self.l, self.lambda_cap)
        return f"(p, q, m, l, Lambda) = {labels}"

    def potential_charge(self, y):
        """2m + h(y) sigma l / tau, whose endpoint values are +-2 nu."""
        return 2.0 * self.m + profile_h(y, self.gp.a) * self.alpha_freq

    def apply(self, y, g, g1, g2):
        """(S g)(y) from g, g' and g'' at interior points y, as
        w r g'' - 12 y g' - V g: rho w r = (a - 3y^2 + 2y^3)/9 has the
        derivative -12 y rho, and 6 Lambda/(1 - y) = Lambda/(3 rho)."""
        pv = eval_profiles(self.gp, y)
        mu = self.alpha_freq
        pot = mu * mu / pv.w + 9.0 * self.potential_charge(y) ** 2 / pv.r \
            + self.lambda_cap / (3.0 * pv.rho)
        return pv.w * pv.r * g2 - 12.0 * y * g1 - pot * g


def radial_problem(gp: GeometryParams, m: int, l: int,
                   lambda_cap: float) -> RadialProblem:
    """The (m, l, Lambda) sector; OutOfRange when the Jacobi matrix of
    the basis weight, which holds fourth powers of its exponent sum
    2 nu_minus + 2 nu_plus, would overflow a double."""
    if lambda_cap < 0:
        raise ValueError("Lambda must be nonnegative")
    try:
        nu_minus, nu_plus = char_exponents(gp, m, l)
    except OverflowError:  # labels whose products no double holds
        nu_minus = nu_plus = np.inf
    if not 2.0 * (nu_minus + nu_plus) < np.finfo(float).max ** 0.25:
        raise OutOfRange(f"endpoint exponents of (p, q, m, l, Lambda) = "
                         f"{(gp.p, gp.q, m, l, lambda_cap)} overflow the "
                         f"Jacobi matrix of the basis weight")
    return RadialProblem(gp=gp, m=m, l=l, lambda_cap=float(lambda_cap),
                         nu_minus=nu_minus, nu_plus=nu_plus)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _exponent_tables(gp: GeometryParams, nm: float, npl: float,
                     n_basis: int, n_nodes: int):
    """B, both rules, the tables on the second and W = inv(cholesky(B)):
    all of the Galerkin system that depends on the exponent pair and
    sizes alone.  OutOfRange, not a numpy warning, when exponents this
    large overflow a table."""
    ybar, half = 0.5 * (gp.y_plus + gp.y_minus), 0.5 * (gp.y_plus - gp.y_minus)
    a, b = 2.0 * npl, 2.0 * nm
    b_mat = ((1.0 - ybar) * np.eye(n_basis)
             - half * jacobi_matrix(a, b, n_basis)) / 18.0

    # derivative/centrifugal rule: exponent 2nu-1, lifted to 1 when nu = 0
    d_lo, d_hi = int(nm == 0.0), int(npl == 0.0)
    a_d, b_d = a - 1.0 + 2.0 * d_hi, b - 1.0 + 2.0 * d_lo
    t_d, log_d = gauss_nodes(a_d, b_d, n_nodes)
    t_b, log_h = gauss_nodes(a, b, n_nodes)
    # one sweep: the Christoffel tables of both rules, and at t_d the
    # basis polynomials and the P^(a+1,b+1) of their derivatives
    rows = jacobi_poly_all(np.array([[a_d], [a], [a + 1.0], [a]]),
                           np.array([[b_d], [b], [b + 1.0], [b]]),
                           n_nodes - 1, np.stack((t_d, t_d, t_d, t_b)))
    # over mu0 of the basis weight (the dropped factor), on the pbar_k
    w_d = _mu0_ratio(a, b) / christoffel(rows[:, 0], log_d)
    scale = np.exp(0.5 * (log_h[0] - log_h[:n_basis]))[:, None]
    # the mass rule as V[:n_basis], V_ki = pbar_k(x_i) sqrt(lambda_i)
    v_b = scale * rows[:n_basis, 3] / np.sqrt(christoffel(rows[:, 3], log_h))
    p_d = scale * rows[:n_basis, 1]
    # d/dt P_k^(a,b) = (k+a+b+1)/2 P_{k-1}^(a+1,b+1)
    dp_d = np.zeros_like(p_d)
    shift = 0.5 * (np.arange(1, n_basis) + a + b + 1.0)[:, None]
    dp_d[1:] = scale[1:] * (shift * rows[:n_basis - 1, 2])

    # R_k = (nm (1-t) - npl (1+t)) pbar_k + (1-t^2) pbar_k', divided by
    # the structural factors it always contains when nu = 0
    div = (1.0 + t_d) ** d_lo * (1.0 - t_d) ** d_hi
    r_mat = ((nm * (1.0 - t_d) - npl * (1.0 + t_d)) * p_d
             + (1.0 - t_d * t_d) * dp_d) / div
    # the centrifugal divisor also takes the h of the R it lacks
    tables = (b_mat, gp.y_minus + half * (1.0 + t_b), v_b, ybar + half * t_d,
              w_d, p_d, r_mat, div * half)
    if not all(np.isfinite(table).all() for table in tables):
        raise OutOfRange(f"Galerkin tables of Y^{{{gp.p},{gp.q}}} at endpoint "
                         f"exponents ({nm}, {npl}) are not finite")
    # B is positive definite with cond(B) bounded (module docstring)
    return *tables, inv(cholesky(b_mat))


def _mu0_ratio(a: float, b: float) -> float:
    """mu0(a_d, b_d) / mu0(a, b), mu0(a, b) = 2^(a+b+1) G(a+1) G(b+1) /
    G(a+b+2), for the derivative rule's exponents a - 1, b - 1 (a zero
    lifted to 1): 1/a or 1/b per lowered exponent times 2^s G(a+b+2) /
    G(a_d+b_d+2), s = -2, 0, 2.  One rounding for a + b below 10^8."""
    if a and b:
        return (a + b) * (a + b + 1.0) / (4.0 * a * b)
    return 1.0 / (a + b) if a or b else 2.0 / 3.0


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
    tabs = _galerkin_tables(prob, n_basis, {} if tables is None else tables)
    return _stiffness(prob, tabs), tabs[0].copy()


def _stiffness(prob: RadialProblem, tabs: tuple) -> np.ndarray:
    """A of assemble_galerkin from prob's `_exponent_tables`."""
    _, y_b, v_b, y_d, w_d, p_d, r_mat, div, _ = tabs
    gp = prob.gp
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
    return a_mat


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
    """FieldTooLarge unless the arrays a solve at n_basis holds at its
    peak, while it builds the rules, fit in physical memory: about 11
    n x n tables of 8-byte entries (the stacked polynomial sweep is 4),
    n being solve_radial's 25% larger size, in integers so that any int
    is judged, plus the rules' padding."""
    n = -(-5 * n_basis // 4) + _QUAD_PAD
    require_memory(11 * n * n * 8, f"the {n}-node Galerkin rule of n_basis "
                                   f"= {n_basis}")


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
    refuses n_basis; OutOfRange when an eigenvalue is not finite.
    """
    if n_basis < k_max + 8:
        raise ValueError("n_basis must be at least k_max + 8")
    check_basis_memory(n_basis)
    tables = {} if tables is None else tables
    n_big = int(np.ceil(1.25 * n_basis))
    tabs = _galerkin_tables(prob, n_big, tables)
    w_mat = tabs[-1]
    named = f"{prob.label}, n_basis = {n_basis}"
    with np.errstate(over="ignore", invalid="ignore"):
        pencil = w_mat @ _stiffness(prob, tabs) @ w_mat.T
    if not np.isfinite(pencil).all():
        raise OutOfRange(f"Galerkin eigenvalues of {named} are not finite")
    try:
        # W is lower triangular: the leading block of W A W^T is the
        # smaller system's
        ell_a = eigvalsh(pencil[:n_basis, :n_basis])
        ell_b, vecs = eigh(pencil)
    except LinAlgError as exc:
        raise EigenFailure(f"Galerkin eigensolve failed for {named}: "
                           f"{exc}") from exc
    if not np.isfinite([ell_a[:k_max + 1], ell_b[:k_max + 1]]).all():
        raise OutOfRange(f"Galerkin eigenvalues of {named} are not finite")
    vecs = w_mat.T @ vecs[:, :k_max + 1]
    # fix sign for reproducibility: dominant coefficient of P_k positive
    lead = np.argmax(np.abs(vecs) * _p_scale(
        prob.gp, prob.nu_minus, prob.nu_plus, n_big)[:, None], axis=0)
    vecs *= np.where(vecs[lead, np.arange(k_max + 1)] < 0.0, -1.0, 1.0)
    for k in (max(k_max - 1, 0), k_max):
        drift = abs(ell_a[k] - ell_b[k]) / max(1.0, abs(ell_b[k]))
        if drift > _CONV_REL:
            raise NotConverged(
                f"eigenvalue {k} moved by {drift:.2e} under basis refinement")
    resid = _norm_residuals(vecs, tabs)
    modes = []
    for k in range(k_max + 1):
        ell = ell_b[k]
        if ell < -_NEG_TOL:
            raise NotConverged(f"eigenvalue {k} = {ell} below -{_NEG_TOL}")
        modes.append(RadialMode(problem=prob, k=k, ell=max(ell, 0.0),
                                coeffs=vecs[:, k].copy(),
                                grid_norm_residual=resid[k]))
    return modes


def _norm_residuals(vecs: np.ndarray, tabs: tuple):
    """|B-norm by the Galerkin mass rule - 1| per column, from the
    `_exponent_tables` of the solve: the rule integrates u_k^2 rho
    exactly, so this measures the eigensolve alone."""
    _, y, rows, *_ = tabs
    vals = vecs.T @ rows
    return np.abs((vals * vals) @ ((1.0 - y) / 18.0) - 1.0)
