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

Discretization: Galerkin in the endpoint-weighted Jacobi basis

    phi_k(y) = (y - y_minus)^nu_minus (y_plus - y)^nu_plus
               P_k^(2 nu_plus, 2 nu_minus)(t(y)),

t affine onto [-1,1].  The weight bakes the endpoint decay into every
trial function and leaves no room for log-singular solutions, which
selects the Friedrichs extension when an exponent vanishes.  All matrix
entries are Gauss-Jacobi integrals of (smooth analytic factor) x (exact
Jacobi weight); the lone 1/r potential singularity cancels analytically
against the basis weight before any node is evaluated.

Problems and modes are immutable.  The quadrature rules and Jacobi
tables of a solve depend only on (gp, nu_minus, nu_plus) and the sizes,
which many (m, l, Lambda) problems share, so solves may share them
through a `tables` dict keyed by those values (Galerkin rules and
tables, and the finer rule of the norm check).  The dict is filled as
solves go and is not locked: it belongs to one call (one build_modes,
one CLI run), never to several threads, and nothing outlives the call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh

from .errors import (EigenFailure, NotConverged, OutOfRange,
                     QuadratureUnderflow)
from .geometry import GeometryParams
from .specfun import (envelope_jacobi_derivs, jacobi_deriv_all,
                      jacobi_poly_all, rule_on_interval)

__all__ = ["RadialProblem", "RadialMode", "char_exponents", "radial_problem",
           "assemble_galerkin", "solve_radial"]

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
    """Both quadrature rules and the basis tables on them: everything of
    the Galerkin matrices that depends on the exponent pair and the sizes
    alone, not on (m, l, Lambda)."""
    ym, yp = gp.y_minus, gp.y_plus
    delta = yp - ym

    # mass-type rule: full basis weight (y-ym)^{2nm} (yp-y)^{2npl}
    y_b, w_b = rule_on_interval(ym, yp, 2.0 * nm, 2.0 * npl, n_nodes)
    if not np.all(np.isfinite(w_b)) or np.any(w_b <= 0.0):
        raise QuadratureUnderflow(
            f"degenerate weights for exponents ({2*nm}, {2*npl})")

    # derivative/centrifugal rule: exponent 2nu-1, lifted to 1 when nu = 0
    d_lo = 1 if nm == 0.0 else 0
    d_hi = 1 if npl == 0.0 else 0
    c_lo = 2.0 * nm - 1.0 + 2.0 * d_lo
    c_hi = 2.0 * npl - 1.0 + 2.0 * d_hi
    y_d, w_d = rule_on_interval(ym, yp, c_lo, c_hi, n_nodes)

    t_b = (2.0 * y_b - yp - ym) / delta
    t_d = (2.0 * y_d - yp - ym) / delta
    jmax = n_basis - 1
    p_b = jacobi_poly_all(2.0 * npl, 2.0 * nm, jmax, t_b)
    p_d = jacobi_poly_all(2.0 * npl, 2.0 * nm, jmax, t_d)
    dp_d = jacobi_deriv_all(2.0 * npl, 2.0 * nm, jmax, t_d)

    # R_k = (nm (yp-y) - npl (y-ym)) P_k + (y-ym)(yp-y) (2/delta) P_k',
    # divided by the structural factors it always contains when nu = 0
    pref = nm * (yp - y_d) - npl * (y_d - ym)
    bil = (y_d - ym) * (yp - y_d) * (2.0 / delta)
    r_mat = pref[None, :] * p_d + bil[None, :] * dp_d
    div = np.ones_like(y_d)
    if d_lo:
        div = div * (y_d - ym)
    if d_hi:
        div = div * (yp - y_d)
    r_mat = r_mat / div[None, :]
    return y_b, w_b, p_b, y_d, w_d, p_d, r_mat, div


def _shared(tables: dict, key: tuple, build):
    """tables[key], built as build(*key[1:]) on the first request."""
    if key not in tables:
        tables[key] = build(*key[1:])
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
    y_b, w_b, p_b, y_d, w_d, p_d, r_mat, div = _shared(
        {} if tables is None else tables,
        ("galerkin", gp, prob.nu_minus, prob.nu_plus, n_basis,
         n_basis + _QUAD_PAD), _exponent_tables)
    a = gp.a
    y3 = gp.y_third
    mu = prob.alpha_freq

    # smooth factors
    rho_b = (1.0 - y_b) / 18.0
    a2_b = a - y_b * y_b
    f_mass = rho_b + (mu * mu) * (1.0 - y_b) ** 2 / (36.0 * a2_b) \
        + prob.lambda_cap / 3.0
    # second rule: kinetic factor (2/9)(y3-y) and centrifugal
    a2_d = a - y_d * y_d
    rho_d = (1.0 - y_d) / 18.0
    pol = 12.0 * prob.m * a2_d + mu * (a - 2.0 * y_d + y_d * y_d)
    pol = pol / div
    f_kin = (2.0 / 9.0) * (y3 - y_d)
    f_cent = rho_d * pol * pol / (8.0 * a2_d * (y3 - y_d))

    b_mat = (p_b * (w_b * rho_b)) @ p_b.T
    a_mat = (p_b * (w_b * (f_mass - rho_b))) @ p_b.T
    a_mat += (r_mat * (w_d * f_kin)) @ r_mat.T
    a_mat += (p_d * (w_d * f_cent)) @ p_d.T
    return a_mat, b_mat


@dataclass(frozen=True)
class RadialMode:
    """One normalized eigenfunction of -S with eigenvalue ell."""

    problem: RadialProblem
    k: int
    ell: float
    coeffs: np.ndarray
    grid_norm_residual: float

    def value(self, y):
        dl, dr, t = self._local(y)
        nm, npl = self.problem.nu_minus, self.problem.nu_plus
        out = dl ** nm * dr ** npl * (self.coeffs @ jacobi_poly_all(
            2.0 * npl, 2.0 * nm, len(self.coeffs) - 1, t))
        return out if np.ndim(y) else float(out[0])

    def value_and_derivs(self, y):
        dl, dr, t = self._local(y)
        gp = self.problem.gp
        nm, npl = self.problem.nu_minus, self.problem.nu_plus
        return envelope_jacobi_derivs(
            2.0 * npl, 2.0 * nm, self.coeffs, t,
            2.0 / (gp.y_plus - gp.y_minus), 0.0,
            [(nm, dl, 1.0, 0.0), (npl, dr, -1.0, 0.0)])

    def _local(self, y):
        """(y - y_minus, y_plus - y, t(y)) at points of the open interval,
        t affine onto [-1, 1]."""
        yv = np.atleast_1d(np.asarray(y, dtype=float))
        gp = self.problem.gp
        if np.any(yv <= gp.y_minus) or np.any(yv >= gp.y_plus):
            raise OutOfRange("y outside the open radial interval")
        t = (2.0 * yv - gp.y_plus - gp.y_minus) / (gp.y_plus - gp.y_minus)
        return yv - gp.y_minus, gp.y_plus - yv, t

    def operator_residual(self, y):
        """(-S - ell) applied to the eigenfunction at interior points,
        relative to ell*|g| + 1; analytic derivatives throughout."""
        yv = np.atleast_1d(np.asarray(y, dtype=float))
        g, g1, g2 = self.value_and_derivs(yv)
        left = -self.problem.apply(yv, g, g1, g2)
        return (left - self.ell * g) / (abs(self.ell) * np.abs(g) + 1.0)


def solve_radial(prob: RadialProblem, k_max: int, n_basis: int,
                 tables: dict | None = None) -> list[RadialMode]:
    """First k_max+1 eigenpairs of A c = ell B c, ascending.

    n_basis >= k_max + 8.  An internal re-solve with 25% more basis
    functions must move the two largest requested eigenvalues by less
    than 1e-8 (relative, floored at 1); otherwise NotConverged.  Small
    negative eigenvalues within 1e-9 are clamped to zero.

    `tables` holds the quadrature rules and Jacobi tables of each
    (geometry, endpoint-exponent pair, basis size) met so far; solves
    that share the dict build each of them once.  The caller owns it and
    scopes it to one build (see the module docstring); None means a
    fresh dict.  The results do not depend on it, bit for bit.
    """
    if n_basis < k_max + 8:
        raise ValueError("n_basis must be at least k_max + 8")
    tables = {} if tables is None else tables
    ell_a, _ = _solve_once(prob, k_max, n_basis, tables)
    n_big = int(np.ceil(1.25 * n_basis))
    ell_b, vecs = _solve_once(prob, k_max, n_big, tables)
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


def _solve_once(prob: RadialProblem, k_max: int, n_basis: int,
                tables: dict):
    a_mat, b_mat = assemble_galerkin(prob, n_basis, tables)
    try:
        vals, vecs = eigh(a_mat, b_mat)
    except LinAlgError as exc:
        labels = (prob.gp.p, prob.gp.q, prob.m, prob.l, prob.lambda_cap)
        raise EigenFailure(f"Galerkin eigensolve failed for (p, q, m, l, Lambda)"
                           f" = {labels}, n_basis = {n_basis}: {exc}") from exc
    vals = vals[:k_max + 1]
    vecs = vecs[:, :k_max + 1]
    # fix sign for reproducibility: dominant coefficient positive
    for k in range(vecs.shape[1]):
        lead = np.argmax(np.abs(vecs[:, k]))
        if vecs[lead, k] < 0.0:
            vecs[:, k] = -vecs[:, k]
    return vals, vecs


def _norm_tables(gp: GeometryParams, nm: float, npl: float, n_basis: int):
    """(basis table, weights times rho) of the finer rule of
    _norm_residuals, which depend on the exponent pair and size alone."""
    y, w = rule_on_interval(gp.y_minus, gp.y_plus, 2.0 * nm, 2.0 * npl,
                            n_basis + _QUAD_PAD + 17)
    t = (2.0 * y - gp.y_plus - gp.y_minus) / (gp.y_plus - gp.y_minus)
    basis = jacobi_poly_all(2.0 * npl, 2.0 * nm, n_basis - 1, t)
    rho = (1.0 - y) / 18.0
    return basis, w * rho


def _norm_residuals(prob: RadialProblem, vecs: np.ndarray, n_basis: int,
                    tables: dict):
    """|B-norm on an independent finer grid - 1| per column."""
    basis, w_rho = _shared(
        tables, ("norm", prob.gp, prob.nu_minus, prob.nu_plus, n_basis),
        _norm_tables)
    vals = vecs.T @ basis
    norms = (vals * vals) @ w_rho
    return np.abs(norms - 1.0)
