"""Scalar data of the Sasaki-Einstein Y^{p,q} geometries.

A label pair (p, q) with p < q < 2p and gcd(p, q) = 1 fixes a constant
a in (0, 1) through a quantization condition on the two relevant roots of
the cubic a - 3y^2 + 2y^3.  The metric profile functions

    w(y) = 2(a - y^2)/(1 - y),      r(y) = (a - 3y^2 + 2y^3)/(a - y^2),
    h(y) = (a - 2y + y^2)/(6(a - y^2))

live on the interval [y_minus, y_plus] between the negative root and the
smallest positive root, where w > 0 and r >= 0 with simple zeros of r at
the endpoints.

Closed forms.  Gauntlett, Martelli, Sparks and Waldram (Adv. Theor.
Math. Phys. 8 (2004) 711) solve the quantization condition below.  With
P = p, Q = q - p (so 0 < Q < P), s = sqrt(4P^2 - 3Q^2) and d = 2P - s,

    y_minus = (d - 3Q)/(4P),  y_plus = (d + 3Q)/(4P),
    a = y_plus^2 (3 - 2 y_plus),  tau = (y_minus - 1)/(3 q y_minus).

No step cancels: d is formed as 3Q^2/(2P + s), a is the cubic at y_plus
and tau uses h = (y - 1)/(6y) at a root.  The printed forms of a and y
lose about 7 digits at (10^5, 10^5 + 1).  A label whose a is not a
normal double (p from about 10^154) is refused with OutOfRange.

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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidLabel, OutOfRange

__all__ = ["GeometryParams", "ProfileValues", "solve_geometry", "eval_profiles"]


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
    """Metric profile functions at a point, or points, of the y-interval."""

    w: float | np.ndarray
    r: float | np.ndarray
    h: float | np.ndarray
    rho: float | np.ndarray
    rho_B: float | np.ndarray


def profile_h(y: float, a: float) -> float:
    return (a - 2.0 * y + y * y) / (6.0 * (a - y * y))


def solve_geometry(p: int, q: int) -> GeometryParams:
    """Geometry constants for the label pair (p, q).

    Requires p >= 2, p < q < 2p and gcd(p, q) = 1; raises InvalidLabel
    otherwise.  The closed forms are those of the module docstring.
    """
    if not (isinstance(p, int) and isinstance(q, int)):
        raise InvalidLabel("labels must be integers")
    if p < 2 or not (p < q < 2 * p) or math.gcd(p, q) != 1:
        raise InvalidLabel(f"(p, q)=({p}, {q}) must satisfy p>=2, p<q<2p, gcd=1")
    P, Q = p, q - p
    try:
        d = 3 * Q * Q / (2 * P + math.sqrt(4 * P * P - 3 * Q * Q))
        y_minus, y_plus = (d - 3 * Q) / (4 * P), (d + 3 * Q) / (4 * P)
    except OverflowError:  # 4P^2 beyond the double range: refused below
        y_minus = y_plus = 0.0
    a = y_plus * y_plus * (3.0 - 2.0 * y_plus)
    if not a >= sys.float_info.min:
        raise OutOfRange(f"Y^{{{p},{q}}}: a is not a normal double")
    return GeometryParams(p=p, q=q, a=a, y_minus=y_minus, y_plus=y_plus,
                          tau=(y_minus - 1.0) / (3.0 * q * y_minus),
                          sigma=math.lcm(2, p, q, 2 * p - q))


def eval_profiles(gp: GeometryParams, y) -> ProfileValues:
    """Profile functions at y, a point or an array of points, in
    [y_minus, y_plus]; OutOfRange naming the first point outside."""
    y = np.asarray(y, dtype=float)
    outside = ~((gp.y_minus <= y) & (y <= gp.y_plus))
    if outside.any():
        raise OutOfRange(f"y={y[outside].flat[0]} outside "
                         f"[{gp.y_minus}, {gp.y_plus}]")
    a = gp.a
    w = 2.0 * (a - y * y) / (1.0 - y)
    return ProfileValues(w=w, r=(a - 3.0 * y * y + 2.0 * y ** 3) / (a - y * y),
                         h=profile_h(y, a), rho=(1.0 - y) / 18.0,
                         rho_B=(1.0 - y) / (18.0 * np.sqrt(w)))
