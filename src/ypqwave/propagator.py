"""Mode-sum evolution of the Klein-Gordon field on AdS5 x Y^{p,q}.

Every retained product mode (beta, i) evolves independently:

    a(t) = cos(t sqrt(Omega)) a0 + sin(t sqrt(Omega))/sqrt(Omega) a1,

with Omega = Omega^beta_i > 0 always (c >= 2 forces Omega >= 16, so the
functional calculus never meets a zero mode).  The inhomogeneous problem
adds the Duhamel integral

    int_0^t sin((t-T) sqrt(Omega))/sqrt(Omega) theta(T) dT

per coefficient, with cubic-spline interpolation of the sampled source
and adaptive Simpson quadrature at 1e-11 absolute tolerance.

Diagnostics: the per-mode energy E = |a'|^2 + Omega |a|^2 (the quadratic
form of the sector generator in the orthonormal mode basis), which every
FieldSample reports for its own evolved state, is conserved along the
evolution up to roundoff, and time reflection
(phi0, -phi1) -> t equals (phi0, phi1) -> -t coefficientwise; both are
runnable checks here, not assumptions.

Coefficient evolution is embarrassingly parallel over (beta, i); all
inputs are immutable during an evolve call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .ads import (ModeIndex, ModeTable, Sector, SpectralCoefficients,
                  grid_norm_sq, project_cauchy, synthesize)
from .errors import GridMismatch, SourceCoverage
from .geometry import GeometryParams
from .spectrum import TruncationPolicy, build_modes, enumerate_modes

__all__ = ["TruncationSpec", "CauchyData", "SourceTerm", "FieldSample",
           "KGPropagator", "TruncationWarning", "enumerate_beta"]

_SIMPSON_TOL = 1e-11


class TruncationWarning(UserWarning):
    """Dropped-coefficient norm exceeded the configured fraction."""


@dataclass(frozen=True)
class TruncationSpec:
    """Index bounds, basis size and grid resolution for one run."""

    s1_max: int
    n_max: int
    m_max: int
    l_max: int
    k_max: int
    j_max: int
    i_max: int
    n_basis: int = 40
    grid_shape: tuple = (40, 10, 10, 12, 40)
    tail_warn_fraction: float = 0.1


def enumerate_beta(trunc: TruncationSpec) -> list[ModeIndex]:
    """All 8-tuples inside the bounds with the chain s1 >= s2 >= |s3|."""
    out = []
    for s1 in range(trunc.s1_max + 1):
        for s2 in range(s1 + 1):
            for s3 in range(-s2, s2 + 1):
                for n in range(-trunc.n_max, trunc.n_max + 1):
                    for m in range(-trunc.m_max, trunc.m_max + 1):
                        for l in range(-trunc.l_max, trunc.l_max + 1):
                            for k in range(trunc.k_max + 1):
                                for j in range(trunc.j_max + 1):
                                    out.append(ModeIndex(s1, s2, s3, n, m, l, k, j))
    return out


@dataclass
class CauchyData:
    """Initial value and initial time derivative on the time slice.

    Each component is either a SpectralCoefficients or a dict
    Sector -> complex 5d grid array; both must be of the same kind.
    """

    phi0: object
    phi1: object

    def __post_init__(self):
        g0 = isinstance(self.phi0, SpectralCoefficients)
        g1 = isinstance(self.phi1, SpectralCoefficients)
        if g0 != g1:
            raise GridMismatch("phi0 and phi1 must share one representation")
        if not g0:
            s0 = {sec: arr.shape for sec, arr in self.phi0.items()}
            s1 = {sec: arr.shape for sec, arr in self.phi1.items()}
            if s0 != s1:
                raise GridMismatch("phi0 and phi1 sampled on different grids")

    @property
    def is_spectral(self) -> bool:
        return isinstance(self.phi0, SpectralCoefficients)


@dataclass
class SourceTerm:
    """Time-stamped source slices, each CauchyData-component shaped."""

    times: np.ndarray
    slices: list

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.slices):
            raise SourceCoverage("one slice per time stamp required")
        if len(self.times) >= 2 and not np.all(np.diff(self.times) > 0.0):
            raise SourceCoverage("time stamps must be strictly increasing")


@dataclass
class FieldSample:
    """Field state at one time: grid values (when an evaluation grid
    exists), evolved coefficients and the per-mode energies."""

    t: float
    values: dict | None
    coefficients: SpectralCoefficients
    velocity: SpectralCoefficients
    per_mode_energy: dict = field(default_factory=dict)
    tail_norm: float = 0.0


class KGPropagator:
    """Evolution operator for fixed geometry, constants and truncation."""

    def __init__(self, gp: GeometryParams, M: float, kappa: float,
                 trunc: TruncationSpec, radial_solver=None):
        if M < 0.0 or kappa <= 0.0:
            raise ValueError("need M >= 0 and kappa > 0")
        self.gp = gp
        self.M = M
        self.kappa = kappa
        self.trunc = trunc
        policy = TruncationPolicy(trunc.n_max, trunc.m_max, trunc.l_max,
                                  trunc.k_max, trunc.j_max)
        y_modes = build_modes(gp, enumerate_modes(gp, policy),
                              trunc.n_basis, radial_solver=radial_solver)
        y_map = {(md.index.n, md.index.m, md.index.l, md.index.k,
                  md.index.j): md for md in y_modes}
        self.table = ModeTable(gp, M, kappa, y_map, trunc.grid_shape,
                               trunc.i_max)
        self.betas = enumerate_beta(trunc)
        self._omega = {}
        for beta in self.betas:
            om = self.table.omegas(beta)
            for i, o in enumerate(om):
                self._omega[(beta, i)] = float(o)

    # -- projections ------------------------------------------------------

    def omega(self, key) -> float:
        return self._omega[key]

    def project_component(self, comp) -> tuple[SpectralCoefficients, float]:
        """(coefficients, tail estimate) for one data component."""
        if isinstance(comp, SpectralCoefficients):
            unknown = [k for k in comp.entries if k not in self._omega]
            if unknown:
                raise GridMismatch(f"coefficients outside truncation: {unknown[:3]}")
            return comp.copy(), 0.0
        coeffs = project_cauchy(comp, self.betas, self.table)
        total = grid_norm_sq(comp, self.table)
        tail_sq = max(total - coeffs.norm_sq(), 0.0)
        return coeffs, math.sqrt(tail_sq)

    def project(self, data: CauchyData):
        a0, tail0 = self.project_component(data.phi0)
        a1, tail1 = self.project_component(data.phi1)
        return a0, a1, math.hypot(tail0, tail1)

    # -- evolution --------------------------------------------------------

    def evolve(self, data: CauchyData, t: float,
               synthesize_values: bool | None = None) -> FieldSample:
        """Homogeneous evolution to time t."""
        a0, a1, tail = self.project(data)
        at = SpectralCoefficients()
        vt = SpectralCoefficients()
        energy = {}
        for key in set(a0.entries) | set(a1.entries):
            om = self._omega[key]
            ro = math.sqrt(om)
            c, s = math.cos(t * ro), math.sin(t * ro)
            v0, v1 = a0[key], a1[key]
            a, v = c * v0 + s / ro * v1, -ro * s * v0 + c * v1
            at[key], vt[key] = a, v
            energy[key] = abs(v) ** 2 + om * abs(a) ** 2
        self._warn_tail(tail, a0, a1)
        if synthesize_values is None:
            synthesize_values = not data.is_spectral
        values = synthesize(at, self.table) if synthesize_values else None
        return FieldSample(t=t, values=values, coefficients=at, velocity=vt,
                           per_mode_energy=energy, tail_norm=tail)

    def evolve_inhomogeneous(self, data: CauchyData, source: SourceTerm,
                             t: float,
                             synthesize_values: bool | None = None) -> FieldSample:
        """Homogeneous part plus the Duhamel integral of the source."""
        lo, hi = min(0.0, t), max(0.0, t)
        if source.times[0] > lo + 1e-12 or source.times[-1] < hi - 1e-12:
            raise SourceCoverage(
                f"source covers [{source.times[0]}, {source.times[-1]}], "
                f"needs [{lo}, {hi}]")
        sample = self.evolve(data, t, synthesize_values=False)
        keys = set()
        per_slice = []
        for sl in source.slices:
            coeffs, _ = self.project_component(sl)
            per_slice.append(coeffs)
            keys.update(coeffs.entries)
        at = sample.coefficients
        vt = sample.velocity
        energy = sample.per_mode_energy
        for key in keys:
            vals = np.array([c[key] for c in per_slice], dtype=complex)
            if len(source.times) == 1:
                spline = lambda T: np.full_like(np.asarray(T, dtype=float),
                                                vals[0], dtype=complex)
            else:
                spline = CubicSpline(source.times, vals)
            om = self._omega[key]
            ro = math.sqrt(om)
            duh = _adaptive_simpson(
                lambda T: np.sin((t - T) * ro) / ro * spline(T), 0.0, t,
                _SIMPSON_TOL)
            dv = _adaptive_simpson(
                lambda T: np.cos((t - T) * ro) * spline(T), 0.0, t,
                _SIMPSON_TOL)
            at[key] = at[key] + duh
            vt[key] = vt[key] + dv
            energy[key] = abs(vt[key]) ** 2 + om * abs(at[key]) ** 2
        if synthesize_values is None:
            synthesize_values = not data.is_spectral
        values = synthesize(at, self.table) if synthesize_values else None
        return FieldSample(t=t, values=values, coefficients=at, velocity=vt,
                           per_mode_energy=energy, tail_norm=sample.tail_norm)

    # -- diagnostics ------------------------------------------------------

    def mode_energy(self, data: CauchyData) -> dict:
        """E_{beta,i} = |a1|^2 + Omega |a0|^2."""
        a0, a1, _ = self.project(data)
        out = {}
        for key in set(a0.entries) | set(a1.entries):
            out[key] = abs(a1[key]) ** 2 + self._omega[key] * abs(a0[key]) ** 2
        return out

    def check_reflection(self, data: CauchyData, t: float) -> float:
        """Max coefficient discrepancy between evolving (phi0, -phi1)
        forward and (phi0, phi1) backward; contract: below 1e-12."""
        a0, a1, _ = self.project(data)
        flipped = SpectralCoefficients(
            {k: -v for k, v in a1.items()})
        fwd = self.evolve(CauchyData(a0, flipped), t, synthesize_values=False)
        bwd = self.evolve(CauchyData(a0, a1), -t, synthesize_values=False)
        keys = set(fwd.coefficients.entries) | set(bwd.coefficients.entries)
        return max((abs(fwd.coefficients[k] - bwd.coefficients[k])
                    for k in keys), default=0.0)

    def _warn_tail(self, tail: float, a0, a1) -> None:
        total = math.sqrt(a0.norm_sq() + a1.norm_sq() + tail * tail)
        if total > 0.0 and tail > self.trunc.tail_warn_fraction * total:
            warnings.warn(
                f"dropped-coefficient norm {tail:.3e} exceeds "
                f"{self.trunc.tail_warn_fraction:.0%} of the data norm",
                TruncationWarning, stacklevel=3)


def _adaptive_simpson(f, a: float, b: float, tol: float) -> complex:
    """Classic adaptive Simpson for complex integrands."""
    if a == b:
        return 0.0 + 0.0j
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_step(f, a, b, fa, fm, fb, whole, tol, 50)


def _simpson_step(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0:
        return left + right
    if abs(left + right - whole) < 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_simpson_step(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _simpson_step(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))
