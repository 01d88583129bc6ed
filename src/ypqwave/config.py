"""Run configuration for the batch propagator.

Plain `key = value` text, one per line, `#` comments, with an explicit
schema version.  Coefficient lines may repeat:

    schema_version = 1
    p = 2
    q = 3
    M = 1.0
    kappa = 1.0
    s1_max = 1
    n_max = 1
    ...
    times = 0.0, 0.5, 1.0
    phi0_coef = 0 0 0 0 0 0 0 0 0 : 1.0 : 0.0     # s1..j i : re : im
    preset = none

Validation errors carry the offending line number.  Every float must be
finite, and each coefficient's indices must satisfy s1 >= s2 >= |s3|,
k, j, i >= 0 and the truncation bounds s1_max .. i_max (|n| <= n_max,
and so on); a preset excludes coefficient lines.  M^2/kappa must not
overflow a double, the grid must pass `ads.check_grid_memory` (its
error cites the largest grid key), the bounds
`propagator.check_key_memory` (citing the largest bound key) and n_basis
`radial.check_basis_memory`.  Each output time is written to a file
tagged by time_tag; times whose tags collide are rejected, since the
later file would overwrite the earlier one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from . import ads, propagator, radial
from .errors import ConfigError, FieldTooLarge

__all__ = ["RunConfig", "parse_config", "load_config", "time_tag"]

_COEF_KEYS = {"phi0_coef", "phi1_coef"}
# truncation bounds, in the order of the indices they bound
_BOUND_KEYS = ("s1_max", "n_max", "m_max", "l_max", "k_max", "j_max", "i_max")
_GRID_KEYS = ("grid_x", "grid_t1", "grid_t2", "grid_theta", "grid_y")


@dataclass
class RunConfig:
    p: int
    q: int
    M: float = 0.0
    kappa: float = 1.0
    s1_max: int = 0
    n_max: int = 0
    m_max: int = 0
    l_max: int = 0
    k_max: int = 0
    j_max: int = 0
    i_max: int = 4
    n_basis: int = 40
    grid_x: int = 36
    grid_t1: int = 10
    grid_t2: int = 10
    grid_theta: int = 12
    grid_y: int = 36
    times: list[float] = field(default_factory=lambda: [0.0])
    preset: str = "none"
    preset_x0: float = 0.8
    preset_width: float = 0.25
    preset_amplitude: float = 1.0
    out_dir: str = "out"
    out_format: str = "csv"
    cache_dir: str | None = None
    tail_warn_fraction: float = 0.1
    phi0_coefs: list = field(default_factory=list)
    phi1_coefs: list = field(default_factory=list)

    @property
    def grid_shape(self) -> tuple:
        return (self.grid_x, self.grid_t1, self.grid_t2, self.grid_theta,
                self.grid_y)


def time_tag(t: float) -> str:
    """File-name tag of output time t, e.g. 0.5 -> 't0p5', -2 -> 'tm2';
    -0.0 is 0.0 (adding 0.0 clears the sign of a zero), so 't0'."""
    return f"t{t + 0.0:g}".replace(".", "p").replace("-", "m")


def _float(token: str) -> float:
    """float(token), refusing nan and inf."""
    val = float(token)
    if not math.isfinite(val):
        raise ValueError(f"{token.strip()!r} is not finite")
    return val


def _times(value: str) -> list[float]:
    """Output times, -0.0 read as 0.0 (adding 0.0 clears a zero's sign)."""
    return [_float(tok) + 0.0 for tok in value.split(",") if tok.strip()]


# each RunConfig field with its default is a key, parsed by its type
# (annotations are strings); the phi*_coefs lists come from *_coef lines
_PARSERS = {"int": int, "float": _float, "str": str, "str | None": str,
            "list[float]": _times}
_KEYS = {"schema_version": int, **{
    f.name: _PARSERS[f.type] for f in fields(RunConfig) if f.type in _PARSERS}}


def _parse_coef(value: str, lineno: int):
    parts = [p.strip() for p in value.split(":")]
    if len(parts) != 3:
        raise ConfigError(
            f"line {lineno}: coefficient needs 'indices : re : im'")
    try:
        idx = tuple(int(tok) for tok in parts[0].split())
        re_part, im_part = _float(parts[1]), _float(parts[2])
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from exc
    if len(idx) != 9:
        raise ConfigError(
            f"line {lineno}: need 9 integers (s1 s2 s3 n m l k j i), "
            f"got {len(idx)}")
    return idx, complex(re_part, im_part)


def parse_config(text: str) -> RunConfig:
    values: dict = {"phi0_coefs": [], "phi1_coefs": []}
    # line of each key given, and (line, indices) of each coefficient
    lines: dict[str, int] = {}
    coefs: list[tuple[int, tuple]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in _COEF_KEYS:
            idx, val = _parse_coef(value, lineno)
            values[key.replace("_coef", "_coefs")].append((idx, val))
            coefs.append((lineno, idx))
            continue
        if key in lines:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        lines[key] = lineno
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        if key == "times":
            tags = [time_tag(t) for t in values[key]]
            if len(set(tags)) < len(tags):
                raise ConfigError(f"line {lineno}: two times share an "
                                  f"output file tag in {tags}")
    if "schema_version" not in lines:
        raise ConfigError("line 1: schema_version is required")
    if values.pop("schema_version") != 1:
        raise ConfigError(
            f"line {lines['schema_version']}: unsupported schema_version "
            "(expected 1)")
    for required in ("p", "q"):
        if required not in lines:
            raise ConfigError(f"line 1: missing required key {required!r}")
    cfg = RunConfig(**values)
    _validate(cfg, lines, coefs)
    return cfg


def _validate(cfg: RunConfig, lines: dict, coefs: list) -> None:
    """Range checks; each error cites the line of the key at fault (line
    1 for a rule broken by the defaults alone)."""

    def check(ok: bool, key: str, message: str) -> None:
        if not ok:
            raise ConfigError(f"line {lines.get(key, 1)}: {message}")

    def largest(keys: tuple) -> str:
        return max(keys, key=lambda name: getattr(cfg, name))

    check(cfg.kappa > 0.0, "kappa", "kappa must be positive")
    check(cfg.M >= 0.0, "M", "M must be nonnegative")
    # c^2 = 4 + (M^2 + lam)/kappa must be a double; cite M when M^2
    # alone overflows, else the small kappa
    check(math.isfinite(cfg.M * cfg.M / cfg.kappa),
          "M" if math.isinf(cfg.M * cfg.M) else "kappa",
          f"M^2/kappa overflows a double (M = {cfg.M!r}, "
          f"kappa = {cfg.kappa!r})")
    for name in _BOUND_KEYS:
        check(getattr(cfg, name) >= 0, name, f"{name} must be nonnegative")
    check(cfg.n_basis >= 8, "n_basis", "n_basis must be at least 8")
    for name in _GRID_KEYS:
        check(getattr(cfg, name) >= 4, name,
              "grid resolutions must be at least 4")
    for key, guard, size in (
            ("n_basis", radial.check_basis_memory, cfg.n_basis),
            (largest(_GRID_KEYS), ads.check_grid_memory, cfg.grid_shape),
            (largest(_BOUND_KEYS), propagator.check_key_memory, cfg)):
        try:
            guard(size)
        except FieldTooLarge as exc:
            raise ConfigError(f"line {lines.get(key, 1)}: {exc}") from exc
    check(bool(cfg.times), "times", "times must not be empty")
    check(cfg.out_format in ("csv", "json"), "out_format",
          "out_format must be 'csv' or 'json'")
    check(cfg.preset in ("none", "gaussian_x"), "preset",
          "preset must be 'none' or 'gaussian_x'")
    check(cfg.preset_width > 0.0, "preset_width",
          "preset_width must be positive")
    check(cfg.tail_warn_fraction >= 0.0, "tail_warn_fraction",
          "tail_warn_fraction must be nonnegative")
    check(cfg.preset != "none" or bool(coefs), "preset",
          "no data: give phi0_coef/phi1_coef lines or a preset")
    if cfg.preset != "none" and coefs:
        raise ConfigError(f"line {coefs[0][0]}: coefficient lines and preset "
                          f"= {cfg.preset} exclude each other")
    for lineno, idx in coefs:
        _check_coef(cfg, idx, lineno)


def _check_coef(cfg: RunConfig, idx: tuple, lineno: int) -> None:
    """A coefficient's indices satisfy the harmonic chain, are
    nonnegative where they must be, and lie inside the truncation."""
    s1, s2, s3, n, m, l, k, j, i = idx
    if not s1 >= s2 >= abs(s3):
        raise ConfigError(
            f"line {lineno}: need s1 >= s2 >= |s3|, got ({s1}, {s2}, {s3})")
    if min(k, j, i) < 0:
        raise ConfigError(f"line {lineno}: k, j and i must be nonnegative")
    for name, val in zip(_BOUND_KEYS, (s1, n, m, l, k, j, i)):
        if abs(val) > getattr(cfg, name):
            raise ConfigError(
                f"line {lineno}: {name[:-4]} = {val} outside "
                f"{name} = {getattr(cfg, name)}")


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
