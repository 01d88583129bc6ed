"""Scalar data of the Sasaki-Einstein Y^{p,q} geometries.

A label pair (p, q) with p < q < 2p and gcd(p, q) = 1 fixes a constant
a in (0, 1) through a quantization condition on the two relevant roots of
the cubic a - 3y^2 + 2y^3.  The metric profile functions

    w(y) = 2(a - y^2)/(1 - y),      r(y) = (a - 3y^2 + 2y^3)/(a - y^2),
    h(y) = (a - 2y + y^2)/(6(a - y^2))

live on the interval [y_minus, y_plus] between the negative root and the
smallest positive root, where w > 0 and r >= 0 with simple zeros of r at
the endpoints.

Root-label orientation.  With y_minus < 0 < y_plus one has
h(y_minus) > 0 > h(y_plus) and |h(y_minus)| > |h(y_plus)| for every
a in (0, 1) (Vieta: y_minus + y_plus = 3/2 - y_3 > 0).  The quantization
ratio therefore has to be anchored at the negative root,

    (h(y_minus) - h(y_plus)) / (2 h(y_minus)) = p/q  in (1/2, 1),

and the alpha-period scale is

    tau = 2 h(y_minus)/q = -2 h(y_plus)/(2p - q) > 0.

This makes the periods of the fibration connection around the three
2-cycles the integers (p, -(2p - q), q), which is what the frequency
lattice below relies on.  The anchoring at y_minus rather than y_plus is
deliberate; anchoring at y_plus leaves the ratio in (1, infinity) where no
valid label pair can reach it.

The frequency multiplier is sigma = lcm{2, p, q, 2p - q}.  The other
published form, lcm{2, pq, 2p - q}, is the same number for every valid
label pair, because gcd(p, q) = 1 gives lcm(p, q) = pq.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidLabel, NoRoot, OutOfRange

__all__ = [
    "GeometryParams",
    "ProfileValues",
    "solve_geometry",
    "eval_profiles",
    "cubic_roots",
    "quantization_ratio",
]

_RATIO_TOL = 1e-14


@dataclass(frozen=True)
class GeometryParams:
    """All scalar constants of one Y^{p,q} geometry."""

    p: int
    q: int
    a: float
    y_minus: float
    y_plus: float
    tau: float
    sigma: int

    @property
    def y_third(self) -> float:
        """Largest cubic root (outside the chart); Vieta: roots sum to 3/2."""
        return 1.5 - self.y_minus - self.y_plus

    def as_dict(self) -> dict:
        return {
            "p": self.p, "q": self.q, "a": self.a,
            "y_minus": self.y_minus, "y_plus": self.y_plus,
            "tau": self.tau, "sigma": self.sigma,
        }


@dataclass(frozen=True)
class ProfileValues:
    """Metric profile functions at one point of the y-interval."""

    w: float
    r: float
    h: float
    rho: float
    rho_B: float


def cubic_roots(a: float) -> tuple[float, float, float]:
    """Real roots of a - 3y^2 + 2y^3, sorted ascending.

    For a in (0, 1) there are always three: one negative, one in (0, 1)
    and one in (1, 3/2).  Closed trigonometric form plus one Newton polish
    per root.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"a={a} outside (0, 1)")
    phi = math.acos(1.0 - 2.0 * a)
    ys = sorted(0.5 + math.cos((phi - 2.0 * math.pi * k) / 3.0) for k in range(3))
    polished = []
    for y in ys:
        f = a - 3.0 * y * y + 2.0 * y ** 3
        df = -6.0 * y + 6.0 * y * y
        if df != 0.0:
            y -= f / df
        polished.append(y)
    return tuple(polished)


def profile_h(y: float, a: float) -> float:
    return (a - 2.0 * y + y * y) / (6.0 * (a - y * y))


def quantization_ratio(a: float) -> float:
    """(h(y_minus) - h(y_plus)) / (2 h(y_minus)), a strictly
    monotone-looking map of (0,1) onto (1/2, 1); only the sign change is
    relied upon."""
    y_minus, y_plus, _ = cubic_roots(a)
    hm = profile_h(y_minus, a)
    hp = profile_h(y_plus, a)
    return (hm - hp) / (2.0 * hm)


def solve_geometry(p: int, q: int) -> GeometryParams:
    """Geometry constants for the label pair (p, q).

    Requires p >= 2, p < q < 2p and gcd(p, q) = 1; raises InvalidLabel
    otherwise.  The constant a is located by bisection on the quantization
    ratio (sign change guaranteed: the ratio tends to 1 at a -> 0 and to
    1/2 at a -> 1, and p/q lies strictly between).
    """
    if not (isinstance(p, int) and isinstance(q, int)):
        raise InvalidLabel("labels must be integers")
    if p < 2 or not (p < q < 2 * p) or math.gcd(p, q) != 1:
        raise InvalidLabel(f"(p, q)=({p}, {q}) must satisfy p>=2, p<q<2p, gcd=1")

    target = p / q
    lo, hi = 1e-12, 1.0 - 1e-12
    flo = quantization_ratio(lo) - target
    fhi = quantization_ratio(hi) - target
    if flo * fhi > 0.0:
        raise NoRoot(f"bisection bracket carries no sign change for (p, q)=({p}, {q})")
    a = 0.5 * (lo + hi)
    for _ in range(220):
        a = 0.5 * (lo + hi)
        fa = quantization_ratio(a) - target
        if abs(fa) < _RATIO_TOL or hi - lo < 1e-17:
            break
        if flo * fa <= 0.0:
            hi = a
        else:
            lo, flo = a, fa

    y_minus, y_plus, _ = cubic_roots(a)
    tau = 2.0 * profile_h(y_minus, a) / q
    return GeometryParams(p=p, q=q, a=a, y_minus=y_minus, y_plus=y_plus,
                          tau=tau, sigma=math.lcm(2, p, q, 2 * p - q))


def eval_profiles(gp: GeometryParams, y: float) -> ProfileValues:
    """Profile functions at y in [y_minus, y_plus]."""
    if not gp.y_minus <= y <= gp.y_plus:
        raise OutOfRange(f"y={y} outside [{gp.y_minus}, {gp.y_plus}]")
    a = gp.a
    w = 2.0 * (a - y * y) / (1.0 - y)
    r = (a - 3.0 * y * y + 2.0 * y ** 3) / (a - y * y)
    h = profile_h(y, a)
    rho = (1.0 - y) / 18.0
    rho_b = (1.0 - y) / (18.0 * math.sqrt(w))
    return ProfileValues(w=w, r=r, h=h, rho=rho, rho_B=rho_b)
