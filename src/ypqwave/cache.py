"""Persistent radial-eigenmode cache.

Entries are JSON files keyed by a canonical serialization of the solve
parameters, each holding that key, a checksum and a payload of the
key's eigenpairs only, {"modes": [{k, ell, coeffs, grid_norm_residual},
...]}: a hit rebuilds the radial problem from the key's labels.
`build_modes` asks for the larger member of each (m, l), (-m, -l) sign
pair only, so a run writes one entry per pair and Lambda, and an entry
under the other sign is never read.  Writes go to a temporary name
followed by an atomic rename, so concurrent processes sharing a cache
directory get last-writer-wins without torn reads.  An unreadable entry
or a key or checksum mismatch is treated as a miss: the entry is
re-solved and overwritten, with a warning.

Numbers are serialized as shortest round-trip decimal strings (json's
float repr), so a cache hit reproduces the in-memory eigenpairs bitwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import solve_geometry
from .radial import RadialMode, radial_problem

__all__ = ["CacheKey", "cache_get_or_solve", "SOLVER_VERSION"]

# bump on any change to the radial discretization, its eigensolver or
# norm check, the geometry constants or the entry format
SOLVER_VERSION = "galerkin-jacobi-6"


@dataclass(frozen=True)
class CacheKey:
    p: int
    q: int
    m: int
    l: int
    lambda_cap: float
    n_basis: int
    solver_version: str = SOLVER_VERSION

    def canonical(self) -> str:
        """Bit-stable serialization; equal keys serialize identically."""
        return json.dumps({
            "p": self.p, "q": self.q, "m": self.m, "l": self.l,
            "lambda_cap": f"{self.lambda_cap:.15g}",
            "n_basis": self.n_basis,
            "solver_version": self.solver_version,
        }, sort_keys=True)

    def filename(self) -> str:
        digest = hashlib.sha256(self.canonical().encode()).hexdigest()
        return f"radial-{digest[:32]}.json"


def _encode_modes(modes: list[RadialMode]) -> dict:
    return {"modes": [{
        "k": md.k, "ell": md.ell,
        "coeffs": list(md.coeffs),
        "grid_norm_residual": md.grid_norm_residual,
    } for md in modes]}


def _decode_modes(payload: dict, key: CacheKey) -> list[RadialMode]:
    prob = radial_problem(solve_geometry(key.p, key.q), key.m, key.l,
                          key.lambda_cap)
    return [RadialMode(problem=prob, k=md["k"], ell=md["ell"],
                       coeffs=np.array(md["coeffs"]),
                       grid_norm_residual=md["grid_norm_residual"])
            for md in payload["modes"]]


def _payload_checksum(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def cache_get_or_solve(key: CacheKey, solve, cache_dir: str,
                       min_modes: int = 1) -> list[RadialMode]:
    """Cached eigenpairs for `key`, else solve(), write atomically, return.

    `solve` is only invoked on a miss.  Entries holding fewer than
    min_modes eigenpairs count as misses (the excitation count is not
    part of the key).  OSErrors propagate, for the caller to name the
    setting the path came from.
    """
    path = os.path.join(cache_dir, key.filename())
    os.makedirs(cache_dir, exist_ok=True)
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            if entry.get("key") != key.canonical():
                raise ValueError("key mismatch")
            if entry.get("checksum") != _payload_checksum(entry["payload"]):
                raise ValueError("checksum mismatch")
            modes = _decode_modes(entry["payload"], key)
            if len(modes) >= min_modes:
                return modes
        except (KeyError, TypeError, ValueError) as exc:
            warnings.warn(f"cache entry {path} unusable ({exc}); re-solving",
                          stacklevel=2)
    modes = solve()
    payload = _encode_modes(modes)
    entry = {"key": key.canonical(),
             "checksum": _payload_checksum(payload),
             "payload": payload}
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        os.replace(tmp, path)
    finally:
        # left only by a failed write or rename
        if os.path.exists(tmp):
            os.unlink(tmp)
    return modes
