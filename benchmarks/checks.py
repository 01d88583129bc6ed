"""Correctness checks applied to every benchmark operation.

Each check compares a program output with a value computed here, apart
from the program (closed forms, seeded inputs), or with a property the
method must have, and raises CheckFailed when it does not hold.  The
checks take plain numbers, arrays and bytes so that the tests in this
directory can feed them deliberately perturbed results.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np


class CheckFailed(Exception):
    """A program output failed a benchmark check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- closed forms -------------------------------------------------------


def ads_omega(s1: int, i: int, lam: float, M: float, kappa: float) -> float:
    """sqrt(Omega) of AdS mode (s1, i) over a Y^{p,q} mode of eigenvalue
    lam: 2i + s1 + c + 2 with c = sqrt(4 + (M^2 + lam)/kappa)."""
    return 2.0 * i + s1 + math.sqrt(4.0 + (M * M + lam) / kappa) + 2.0


def free_evolution(a0, a1, omega, t: float):
    """Coefficient and velocity of a'' + omega^2 a = 0 at time t."""
    c, s = np.cos(omega * t), np.sin(omega * t)
    return c * a0 + s / omega * a1, -omega * s * a0 + c * a1


def duhamel_polynomial(poly, omega, t: float):
    """Coefficient and velocity at time t of a'' + omega^2 a = p(T) with
    zero initial data, for a cubic p; poly[..., d] multiplies T^d.

    The particular solution p/w^2 - p''/w^4 minus the free evolution of
    its initial values is the Duhamel integral in closed form.
    """
    c0, c1, c2, c3 = (np.asarray(poly)[..., d] for d in range(4))
    w2 = omega * omega

    def particular(T):
        p = c0 + c1 * T + c2 * T ** 2 + c3 * T ** 3
        dp = c1 + 2.0 * c2 * T + 3.0 * c3 * T ** 2
        d2p = 2.0 * c2 + 6.0 * c3 * T
        return p / w2 - d2p / (w2 * w2), dp / w2 - 6.0 * c3 / (w2 * w2)

    part_t, dpart_t = particular(t)
    free_a, free_v = free_evolution(*particular(0.0), omega, t)
    return part_t - free_a, dpart_t - free_v


# -- coefficient checks -------------------------------------------------


def check_close(name: str, got, want, tol: float) -> float:
    """Entrywise |got - want| <= tol * max(1, |want|); returns the worst
    scaled error."""
    got, want = np.asarray(got), np.asarray(want)
    _require(got.shape == want.shape,
             f"{name}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    worst = float(err.max()) if err.size else 0.0
    _require(bool(np.all(np.isfinite(got))) and worst <= tol,
             f"{name}: error {worst:.3e} above {tol:.0e}")
    return worst


def check_energy(coeffs, velocity, omega, energy0,
                 tol: float = 1e-12) -> float:
    """Per-mode energy |a'|^2 + omega^2 |a|^2 equals energy0, relative."""
    energy = np.abs(velocity) ** 2 + (omega * np.abs(coeffs)) ** 2
    energy0 = np.asarray(energy0, dtype=float)
    _require(bool(np.all(energy0 > 0.0)), "energy: nonpositive reference")
    worst = float(np.max(np.abs(energy - energy0) / energy0))
    _require(worst <= tol, f"energy: drift {worst:.3e} above {tol:.0e}")
    return worst


def check_field(got: dict, want: dict, tol: float = 1e-10) -> float:
    """Gridded fields agree sector by sector, relative to the largest
    value of `want`."""
    _require(set(got) == set(want),
             f"field: sectors {sorted(got)} != {sorted(want)}")
    scale = max(float(np.abs(arr).max()) for arr in want.values())
    worst = 0.0
    for sector, arr in want.items():
        _require(got[sector].shape == arr.shape, f"field: shape in {sector}")
        worst = max(worst, float(np.abs(got[sector] - arr).max()) / scale)
    _require(worst <= tol, f"field: error {worst:.3e} above {tol:.0e}")
    return worst


def check_kernel(ell: float, tol: float = 1e-9) -> None:
    _require(abs(ell) < tol,
             f"kernel eigenvalue {ell:.3e} not below {tol:.0e}")


# -- propagate output checks -------------------------------------------


def check_rows(text: bytes, sectors: int, points: int) -> None:
    """A field file holds a header plus one row per sector grid point."""
    rows = text.count(b"\n")
    _require(rows == sectors * points + 1,
             f"field file has {rows} lines, want {sectors * points + 1}")


def check_energy_trace(text: str, times, tol: float = 1e-12) -> float:
    """Every mode's energy is the same at every output time."""
    by_key: dict[tuple, dict[float, float]] = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = tuple(row[c] for c in ("s1", "s2", "s3", "n", "m", "l", "k",
                                     "j", "i"))
        by_key.setdefault(key, {})[float(row["t"])] = float(row["energy"])
    _require(bool(by_key), "energy trace is empty")
    worst = 0.0
    for key, vals in by_key.items():
        _require(sorted(vals) == sorted(times),
                 f"energy trace of {key} has times {sorted(vals)}")
        e0 = vals[times[0]]
        _require(e0 > 0.0, f"energy trace of {key} is not positive")
        worst = max(worst, max(abs(e - e0) / e0 for e in vals.values()))
    _require(worst <= tol, f"energy trace drift {worst:.3e} above {tol:.0e}")
    return worst


def sector_rows(text: bytes, sector: tuple) -> tuple[list[bytes], np.ndarray]:
    """Coordinates and complex values of one sector's rows of a field
    file (columns s3, n, m, l, x, theta1, theta2, theta, y, re, im)."""
    prefix = ",".join(str(v) for v in sector).encode() + b","
    coords, values = [], []
    for line in text.split(b"\n"):
        if line.startswith(prefix):
            head, re_part, im_part = line.rsplit(b",", 2)
            coords.append(head)
            values.append(complex(float(re_part), float(im_part)))
    return coords, np.array(values, dtype=complex)


def check_constant_sector(text0: bytes, text_t: bytes, factor: complex,
                          tol: float = 1e-9) -> float:
    """In the sector (0,0,0,0) the data carries only the constant mode,
    so the field at time t is `factor` times the field at t = 0 at every
    grid point."""
    coords0, vals0 = sector_rows(text0, (0, 0, 0, 0))
    coords_t, vals_t = sector_rows(text_t, (0, 0, 0, 0))
    _require(len(coords0) > 0, "no rows in sector (0,0,0,0)")
    _require(coords0 == coords_t,
             "sector (0,0,0,0) grid differs between times")
    scale = max(1.0, float(np.abs(vals0).max()))
    worst = float(np.abs(vals_t - factor * vals0).max()) / scale
    _require(worst <= tol,
             f"sector (0,0,0,0) off the closed form by {worst:.3e}")
    return worst


def check_identical(ref: dict, got: dict) -> None:
    """Same file names with the same contents (digests)."""
    _require(sorted(ref) == sorted(got),
             f"files {sorted(got)} != {sorted(ref)}")
    for name, digest in ref.items():
        _require(got[name] == digest,
                 f"{name} differs from the cold-cache run")
