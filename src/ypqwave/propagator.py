"""Mode-sum evolution of the Klein-Gordon field on AdS5 x Y^{p,q}.

Every retained product mode (beta, i) evolves independently:

    a(t) = cos(t sqrt(Omega)) a0 + sin(t sqrt(Omega))/sqrt(Omega) a1,

with Omega = Omega^beta_i > 0 always (c >= 2 forces Omega >= 16, so the
functional calculus never meets a zero mode).  The inhomogeneous problem
adds the Duhamel integral

    int_0^t sin((t-T) sqrt(Omega))/sqrt(Omega) theta(T) dT

per coefficient, through a not-a-knot cubic spline of the sampled
source whose pieces are integrated against exp(+-i sqrt(Omega) (t-T))
exactly (four-term integration by parts).  The spline is built here
with scipy's CubicSpline arithmetic on numpy alone (no scipy module
loads); a slice or a mode energy that is not finite is refused with
OutOfRange, stamps too close for the spline with SourceCoverage.

Diagnostics: the per-mode energy E = |a'|^2 + Omega |a|^2 (the quadratic
form of the sector generator in the orthonormal mode basis), which every
FieldSample reports for its own evolved state, is conserved along the
evolution up to roundoff, and time reflection
(phi0, -phi1) -> t equals (phi0, phi1) -> -t coefficientwise; both are
runnable checks here, not assumptions.

Cauchy data is projected once, by `KGPropagator.project`, into a
`Projection`: one dense complex array per component over the keys
(beta, i), rows in `enumerate_beta` order, which every evolution and
diagnostic reads.  Gridded data is read once, one x slab at a time,
through `project_cauchy`, which takes the data norm behind the
truncation tail from the same slabs.  A TruncationWarning names the
line that called the public method, whichever one projected.
SpectralCoefficients hold spectral data and FieldSample coefficients.

Coefficient keys are (ModeIndex, i), and a ModeIndex is a validated
tuple of its eight labels, so every key hashes and compares in C: one
dict lookup per key takes spectral data onto the table, and one list of
the keys in table order turns evolved arrays back into dicts.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .ads import (ModeIndex, ModeTable, SpectralCoefficients, project_cauchy,
                  synthesize)
from .errors import GridMismatch, OutOfRange, SourceCoverage, require_memory
from .geometry import GeometryParams
from .spectrum import TruncationPolicy, build_modes, enumerate_modes

__all__ = ["TruncationSpec", "CauchyData", "Projection", "SourceTerm",
           "FieldSample", "KGPropagator", "TruncationWarning",
           "check_key_memory", "enumerate_beta"]


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


def check_key_memory(trunc) -> None:
    """FieldTooLarge unless the keys (beta, i) inside trunc's bounds fit
    in physical memory at 64 bytes each (a list slot and a tuple: a lower
    bound); trunc is anything with TruncationSpec's s1_max .. i_max."""
    s = trunc.s1_max
    # s1 <= s of (s1 + 1)^2 chains (s1, s2, s3) each
    count = ((s + 1) * (s + 2) * (2 * s + 3) // 6 * (2 * trunc.n_max + 1)
             * (2 * trunc.m_max + 1) * (2 * trunc.l_max + 1)
             * (trunc.k_max + 1) * (trunc.j_max + 1) * (trunc.i_max + 1))
    require_memory(count * 64, f"a table of {count} keys (beta, i)")


def enumerate_beta(trunc: TruncationSpec) -> list[ModeIndex]:
    """All 8-tuples inside the bounds with the chain s1 >= s2 >= |s3|,
    in sorted order; check_key_memory first."""
    check_key_memory(trunc)
    chains = [(s1, s2, s3) for s1 in range(trunc.s1_max + 1)
              for s2 in range(s1 + 1) for s3 in range(-s2, s2 + 1)]
    rest = list(itertools.product(
        *(range(-b, b + 1) for b in (trunc.n_max, trunc.m_max, trunc.l_max)),
        range(trunc.k_max + 1), range(trunc.j_max + 1)))
    return [ModeIndex(*chain, *r) for chain in chains for r in rest]


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


@dataclass(frozen=True, eq=False)
class Projection:
    """Cauchy data on the key table (rows in `enumerate_beta` order), the
    keys it gives, the norm truncation drops (0 if spectral), if gridded."""

    a0: np.ndarray
    a1: np.ndarray
    support: np.ndarray
    tail: float
    gridded: bool


@dataclass
class SourceTerm:
    """Time-stamped source slices, each CauchyData-component shaped."""

    times: np.ndarray
    slices: list

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) == 0:
            raise SourceCoverage("a source needs at least one time stamp")
        if len(self.times) != len(self.slices):
            raise SourceCoverage("one slice per time stamp required")
        if not np.all(np.isfinite(self.times)):
            raise SourceCoverage(f"time stamps must be finite: {self.times}")
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
    """Evolution operator for fixed geometry, constants and truncation.

    radial_solver(problem, k_max, n_basis, solve) is the hook of
    `build_modes` (the CLI wires the on-disk cache through it).
    """

    def __init__(self, gp: GeometryParams, M: float, kappa: float,
                 trunc: TruncationSpec, radial_solver=None):
        if not (0.0 <= M < math.inf and 0.0 < kappa < math.inf):
            raise ValueError("need finite M >= 0 and kappa > 0")
        self.gp = gp
        self.M = M
        self.kappa = kappa
        self.trunc = trunc
        self.betas = enumerate_beta(trunc)
        policy = TruncationPolicy(trunc.n_max, trunc.m_max, trunc.l_max,
                                  trunc.k_max, trunc.j_max)
        y_modes = build_modes(gp, enumerate_modes(gp, policy),
                              trunc.n_basis, radial_solver=radial_solver)
        y_map = {md.index: md for md in y_modes}
        self.table = ModeTable(gp, M, kappa, y_map, trunc.grid_shape,
                               trunc.i_max)
        # the keys (beta, i) in table order, and each one's flat position
        self._keys = [(beta, i) for beta in self.betas
                      for i in range(trunc.i_max + 1)]
        self._flat = {key: k for k, key in enumerate(self._keys)}
        # Omega of key (betas[r], i) at [r, i]
        self._omega = self.table.omega_table(self.betas)

    def omega(self, key) -> float:
        return float(self._omega.flat[self._position(key)])

    def _position(self, key) -> int:
        pos = self._flat.get(key)
        if pos is None:
            raise GridMismatch(f"coefficient {key} outside the truncation")
        return pos

    def _gather(self, comp) -> tuple[np.ndarray, np.ndarray, float]:
        """(values, support, squared tail) of one data component on the
        key table; only gridded data, projected here, has a tail."""
        if not isinstance(comp, SpectralCoefficients):
            vals, norm_sq = project_cauchy(comp, self.betas, self.table)
            return (vals, vals != 0.0,
                    max(norm_sq - np.linalg.norm(vals) ** 2, 0.0))
        pos = list(map(self._flat.get, comp.entries))
        if None in pos:     # GridMismatch naming the first bad key
            pos = list(map(self._position, comp.entries))
        pos = np.array(pos, dtype=np.intp)
        vals = np.zeros(self._omega.size, dtype=complex)
        vals[pos] = np.fromiter(comp.entries.values(), complex, len(pos))
        support = np.zeros(self._omega.size, dtype=bool)
        support[pos] = True
        shape = self._omega.shape
        return vals.reshape(shape), support.reshape(shape), 0.0

    def _scatter(self, support: np.ndarray, *arrays) -> list[dict]:
        """(beta, i) -> entry of each array over `support`, in table
        order; one key list serves all the arrays."""
        flat = np.flatnonzero(support)
        keys = list(map(self._keys.__getitem__, flat.tolist()))
        return [dict(zip(keys, arr.take(flat).tolist())) for arr in arrays]

    def project(self, data: CauchyData) -> Projection:
        """The mode coefficients of Cauchy data, each component read
        once; a TruncationWarning when the tail exceeds
        `tail_warn_fraction` of the data norm, OutOfRange when the data
        norm or a mode energy is not finite."""
        return self._projected(data)

    def _projected(self, data, t: float = 0.0) -> Projection:
        """`data` projected (a Projection is kept) for the public method
        that calls this, whose caller a TruncationWarning names;
        OutOfRange unless t sqrt(Omega) is finite."""
        if not math.isfinite(t * math.sqrt(self._omega.max())):
            raise OutOfRange(f"t = {t!r}: t sqrt(Omega) is not finite")
        if isinstance(data, Projection):
            return data
        # overflow is refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            a0, s0, tail0 = self._gather(data.phi0)
            a1, s1, tail1 = self._gather(data.phi1)
            tail = math.sqrt(tail0 + tail1)
            total = math.hypot(np.linalg.norm(a0), np.linalg.norm(a1), tail)
            energy = _abs_sq(a1) + self._omega * _abs_sq(a0)
        if not (math.isfinite(total) and np.isfinite(energy).all()):
            raise OutOfRange("Cauchy data overflows a double: its projected "
                             "coefficients, norm or mode energies are not "
                             "finite")
        if total > 0.0 and tail > self.trunc.tail_warn_fraction * total:
            warnings.warn(
                f"dropped-coefficient norm {tail:.3e} exceeds "
                f"{self.trunc.tail_warn_fraction:.0%} of the data norm",
                TruncationWarning, stacklevel=3)
        return Projection(a0, a1, s0 | s1, tail,
                          not isinstance(data.phi0, SpectralCoefficients))

    # -- evolution --------------------------------------------------------

    def _free(self, a0: np.ndarray, a1: np.ndarray, t: float):
        """(a, a') at time t of the homogeneous evolution."""
        ro = np.sqrt(self._omega)
        c, s = np.cos(t * ro), np.sin(t * ro)
        return c * a0 + s / ro * a1, -ro * s * a0 + c * a1

    def _sample(self, proj: Projection, t: float, at, vt,
                synthesize_values: bool | None) -> FieldSample:
        """The FieldSample of the state (at, vt) at time t; OutOfRange
        when a mode energy is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            energy = _abs_sq(vt) + self._omega * _abs_sq(at)
        if not np.isfinite(energy).all():
            raise OutOfRange(f"the state at t = {t} overflows a double: "
                             "a mode energy is not finite")
        a_map, v_map, per_mode_energy = self._scatter(proj.support, at, vt,
                                                      energy)
        coefficients = SpectralCoefficients(a_map)
        if synthesize_values is None:
            synthesize_values = proj.gridded
        values = (synthesize(coefficients, self.table) if synthesize_values
                  else None)
        return FieldSample(
            t=t, values=values, coefficients=coefficients,
            velocity=SpectralCoefficients(v_map),
            per_mode_energy=per_mode_energy, tail_norm=proj.tail)

    def evolve(self, data: CauchyData | Projection, t: float,
               synthesize_values: bool | None = None) -> FieldSample:
        """Homogeneous evolution to time t."""
        proj = self._projected(data, t)
        return self._sample(proj, t, *self._free(proj.a0, proj.a1, t),
                            synthesize_values)

    def evolve_inhomogeneous(self, data: CauchyData | Projection,
                             source: SourceTerm, t: float,
                             synthesize_values: bool | None = None) -> FieldSample:
        """Homogeneous part plus the Duhamel integral of the source."""
        proj = self._projected(data, t)
        lo, hi = min(0.0, t), max(0.0, t)
        if source.times[0] > lo + 1e-12 or source.times[-1] < hi - 1e-12:
            raise SourceCoverage(
                f"source covers [{source.times[0]}, {source.times[-1]}], "
                f"needs [{lo}, {hi}]")
        at, vt = self._free(proj.a0, proj.a1, t)
        # overflow is refused by `_sample`, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            slices = [self._gather(sl) for sl in source.slices]
            touched = np.logical_or.reduce([s for _, s, _ in slices])
            S = np.array([vals[touched] for vals, _, _ in slices])
            finite = np.isfinite(S).all(axis=1)
            if not finite.all():
                raise OutOfRange(
                    f"the source slice at t = {source.times[finite.argmin()]}"
                    " has a coefficient that is not finite")
            duh, dv = _duhamel(source.times, S,
                               np.sqrt(self._omega[touched]), t)
            at[touched] += duh
            vt[touched] += dv
        return self._sample(replace(proj, support=proj.support | touched),
                            t, at, vt, synthesize_values)

    # -- diagnostics ------------------------------------------------------

    def mode_energy(self, data: CauchyData | Projection) -> dict:
        """E_{beta,i} = |a1|^2 + Omega |a0|^2."""
        proj = self._projected(data)
        return self._scatter(
            proj.support, _abs_sq(proj.a1) + self._omega * _abs_sq(proj.a0))[0]

    def check_reflection(self, data: CauchyData | Projection,
                         t: float) -> float:
        """Max coefficient discrepancy between evolving (phi0, -phi1)
        forward and (phi0, phi1) backward; contract: below 1e-12."""
        proj = self._projected(data, t)
        diff = (self._free(proj.a0, -proj.a1, t)[0]
                - self._free(proj.a0, proj.a1, -t)[0])
        return float(np.abs(diff)[proj.support].max(initial=0.0))


def _abs_sq(a: np.ndarray) -> np.ndarray:
    """|a|^2 entrywise, rounded as abs(complex) ** 2 (hypot, unlike np.abs)."""
    return np.hypot(a.real, a.imag) ** 2


def _duhamel(times: np.ndarray, S: np.ndarray, ro: np.ndarray, t: float):
    """(int_0^t sin((t-T) ro)/ro s dT, int_0^t cos((t-T) ro) s dT) for
    each column of S, s the spline `_not_a_knot` through the rows of S
    (a constant for one row).  Each piece p of s, clipped to the span of
    0 and t (end pieces reach past the end knots), times e^{mu (T-t)},
    mu = -+i ro, has the antiderivative e^{mu (T-t)} G, where
    mu G + G' = p, that is G = sum_j (-1)^j p^(j) / mu^(j+1)."""
    if len(times) == 1:
        x, c = np.repeat(times, 2), S[None]
    else:
        try:
            x, c = times, _not_a_knot(times, S)
        except np.linalg.LinAlgError:   # stamps whose spacings underflow
            raise SourceCoverage(f"source time stamps {times.tolist()} are "
                                 "too close together for the spline") from None
    lo, hi = min(0.0, t), max(0.0, t)
    edges = np.clip(x, lo, hi)
    edges[0], edges[-1] = lo, hi
    ends = np.stack([edges[:-1], edges[1:]])             # (2, pieces)
    u = (ends - x[:-1])[:, :, None]                      # local coordinate
    mu = np.array([-1j, 1j])[:, None, None, None] * ro   # (2, 1, 1, keys)
    g = G = 0.0     # G's coefficients from the top power down, by Horner
    for power, q in zip(range(len(c) - 1, -1, -1), c):
        g = (q - (power + 1) * g) / mu
        G = G * u + g
    F = np.exp(mu * (ends[:, :, None] - t)) * G          # (2, 2, pieces, keys)
    plus, minus = np.sign(t) * (F[:, 1] - F[:, 0]).sum(axis=1)
    return (plus - minus) / (2j * ro), 0.5 * (plus + minus)


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (4, pieces, ...) of the not-a-knot cubic spline through
    the rows of y at the knots x (de Boor), top power first, in powers of
    T - x[piece]: scipy's CubicSpline `c`, by its arithmetic and LAPACK
    steps without scipy: the chord for two knots, numpy's `gesv` for the
    three-knot parabola (bitwise but for one complex column, which scipy
    solves by `getrf` and `getrs`) and, from four knots, `_gtsv` for the
    slopes, bitwise, at about 5 us a knot in Python: a call takes 0.07 ms
    at 5 knots and 4.5 ms at 801, against 0.08 and 0.28 ms with scipy's
    `gtsv`, after 0.28 s a process to import scipy.linalg.  LinAlgError
    when the slope system is singular in floating point."""
    n = len(x)
    dx = np.diff(x)
    dxr = dx.reshape([n - 1] + [1] * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    b = np.empty(y.shape, dtype=y.dtype)    # right-hand sides, then slopes
    if n == 2:  # the chord: its slope at both knots
        b[:] = slope
    elif n == 3:
        A = np.array([[1.0, 1.0, 0.0], [dx[1], 2 * (dx[0] + dx[1]), dx[0]],
                      [0.0, 1.0, 1.0]])
        b[0], b[2] = 2 * slope[0], 2 * slope[1]
        b[1] = 3 * (dxr[0] * slope[1] + dxr[1] * slope[0])
        b[:] = np.linalg.solve(A, b.reshape(n, -1)).reshape(y.shape)
    else:   # the slopes' tridiagonal system
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        d0, d1 = float(x[2] - x[0]), float(x[-1] - x[-3])
        b[0] = ((dxr[0] + 2 * d0) * dxr[1] * slope[0]
                + dxr[0] ** 2 * slope[1]) / d0
        b[-1] = (dxr[-1] ** 2 * slope[-2]
                 + (2 * d1 + dxr[-1]) * dxr[-2] * slope[-1]) / d1
        h = dx.tolist()
        _gtsv(h[1:] + [d1], [h[1], *(2 * (dx[:-1] + dx[1:])).tolist(), h[-2]],
              [d0] + h[:-1], b.reshape(n, -1).view(float))
    t = (b[:-1] + b[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - b[:-1]) / dxr - t, b[:-1], y[:-1]))


def _gtsv(dl: list, d: list, du: list, b: np.ndarray) -> None:
    """Overwrite the float64 columns of b (a complex array's float view)
    with the solution of the tridiagonal system of sub-, main and
    superdiagonal dl, d and du (float lists, overwritten); LinAlgError at
    a zero pivot.  LAPACK `gtsv` step for step (rows k, k + 1 swapped
    when |d_k| < |dl_k|), so bitwise scipy's solve_banded((1, 1), ...)."""
    n = len(d)
    du2 = [0.0] * n     # the second superdiagonal that row swaps fill
    for k in range(n - 1):
        if abs(d[k]) >= abs(dl[k]):
            if d[k] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            fact = dl[k] / d[k]
            d[k + 1] -= fact * du[k]
            b[k + 1] -= fact * b[k]
        else:       # swap rows k and k + 1
            fact = d[k] / dl[k]
            d[k], d[k + 1], du[k] = dl[k], du[k] - fact * d[k + 1], d[k + 1]
            if k < n - 2:
                du2[k] = du[k + 1]
                du[k + 1] = -fact * du2[k]
            b[k], b[k + 1] = b[k + 1], b[k] - fact * b[k + 1]
    if d[-1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    b[-1] /= d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for k in range(n - 3, -1, -1):
        b[k] = (b[k] - du[k] * b[k + 1] - du2[k] * b[k + 2]) / d[k]
