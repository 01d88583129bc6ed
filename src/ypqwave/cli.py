"""Batch command-line surface.

Subcommands: geometry, angular, radial, spectrum, ads-modes, propagate,
selftest.  Exit codes: 0 success, 1 numerical failure (stderr lines are
prefixed `error:`), 2 usage error.  Tables are CSV with a header row
or JSON in field order.  `propagate` writes one field file per output
time: CSV, one x slab per write, or npz (NEP 1), one array per sector.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import math
import operator
import os
import sys

import numpy as np

from . import selftest as _selftest
from .angular import angular_mode
from .ads import ModeIndex, Sector, SpectralCoefficients, ads_gram, ads_omegas
from .cache import CacheKey, cache_get_or_solve
from .config import load_config, time_tag
from .errors import UnusablePath, YpqError, require_memory
from .geometry import solve_geometry
from .propagator import CauchyData, KGPropagator, TruncationSpec
from .radial import radial_problem, solve_radial
from .shooting import oracle_bracket, shooting_oracle
from .spectrum import TruncationPolicy, build_modes, enumerate_modes

__all__ = ["run", "main"]


def _at_least(convert, low=-math.inf):
    """argparse type: convert(text), refused unless a double holds it
    and it is finite and >= low."""

    def parse(text: str):
        val = convert(text)
        try:
            float(val)
        except OverflowError:   # an int beyond a double
            raise argparse.ArgumentTypeError(
                f"{text!r} is beyond a double") from None
        if not (math.isfinite(val) and val >= low):
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {text!r}")
        return val

    # argparse names the type in its message for text convert rejects
    parse.__name__ = convert.__name__
    return parse


_int, _nonnegative_int = _at_least(int), _at_least(int, 0)


def _write_rows(rows, header, fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        out.write(json.dumps(payload, indent=1) + "\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_geometry(args) -> int:
    gp = solve_geometry(args.p, args.q)
    texts = [(f'"{key}": ' if args.json else f"{key} = ")
             + (format(val, ".17g") if isinstance(val, float) else str(val))
             for key, val in gp.as_dict().items()]
    print("{" + ", ".join(texts) + "}" if args.json else "\n".join(texts))
    return 0


def _cmd_angular(args) -> int:
    # each row a tuple and a list slot: at least 64 bytes
    require_memory((args.jmax + 1) * 64,
                   f"a table of {args.jmax + 1} angular rows")
    rows = [(md.j, md.lambda_cap, md.norm_const) for md in (
        angular_mode(args.n, args.m, j) for j in range(args.jmax + 1))]
    _write_rows(rows, ("j", "lambda", "norm_const"), args.format)
    return 0


def _cmd_radial(args) -> int:
    gp = solve_geometry(args.p, args.q)
    prob = radial_problem(gp, args.m, args.l, args.Lambda)
    modes = solve_radial(prob, args.kmax, max(args.nbasis, args.kmax + 8))
    print("# eigenvalues are ell of -S (the operator is nonpositive; "
          "its spectrum is -ell)", file=sys.stderr)
    ells = [md.ell for md in modes]
    rows = []
    for i, md in enumerate(modes):
        row = [md.k, md.ell, md.grid_norm_residual]
        if args.oracle:
            row.append(shooting_oracle(prob, oracle_bracket(ells, i), md.k))
        rows.append(tuple(row))
    header = ("k", "ell", "norm_residual") + (("oracle_ell",) if args.oracle else ())
    _write_rows(rows, header, args.format)
    return 0


def _cmd_spectrum(args) -> int:
    gp = solve_geometry(args.p, args.q)
    policy = TruncationPolicy(args.nmax, args.mmax, args.lmax, args.kmax,
                              args.jmax)
    modes = build_modes(gp, enumerate_modes(gp, policy), args.nbasis)
    if args.lambda_max is not None:
        modes = [md for md in modes if md.lam <= args.lambda_max]
    rows = [(md.lam, *md.index) for md in modes]
    _write_rows(rows, ("lambda", "n", "m", "l", "k", "j"), args.format)
    return 0


def _cmd_ads_modes(args) -> int:
    norm_resid = np.abs(np.diag(ads_gram(args.beta1, args.c, args.imax)) - 1.0)
    rows = zip(range(args.imax + 1),
               ads_omegas(args.beta1, args.c, args.imax).tolist(),
               norm_resid.tolist())
    _write_rows(rows, ("i", "omega", "norm_residual"), args.format)
    return 0


def _cmd_propagate(args) -> int:
    with _path_errors("--config", args.config):
        cfg = load_config(args.config)
    gp = solve_geometry(cfg.p, cfg.q)
    # every TruncationSpec field has a RunConfig namesake
    trunc = TruncationSpec(**{f.name: getattr(cfg, f.name)
                              for f in dataclasses.fields(TruncationSpec)})
    with _path_errors("out_dir", cfg.out_dir):
        os.makedirs(cfg.out_dir, exist_ok=True)
    solver = None
    # the environment overrides the config key; errors name the source
    env_dir = os.environ.get("YPQWAVE_CACHE_DIR")
    cache_dir, source = ((env_dir, "YPQWAVE_CACHE_DIR") if env_dir
                         else (cfg.cache_dir, "cache_dir"))
    if cache_dir:
        def solver(prob, k_max, n_basis, solve):
            key = CacheKey(p=cfg.p, q=cfg.q, m=prob.m, l=prob.l,
                           lambda_cap=prob.lambda_cap, n_basis=n_basis)
            with _path_errors(source, cache_dir):
                return cache_get_or_solve(key, solve, cache_dir,
                                          min_modes=k_max + 1)

    prop = KGPropagator(gp, cfg.M, cfg.kappa, trunc, radial_solver=solver)
    proj = prop.project(_build_data(cfg, prop))
    energy_rows = []
    for t in cfg.times:
        sample = prop.evolve(proj, t, synthesize_values=True)
        name = f"field_{time_tag(t)}.{cfg.out_format}"
        rows = _write_sample(cfg, prop.table.grid, sample, name)
        for (beta, i), e in sorted(sample.per_mode_energy.items()):
            energy_rows.append(beta.beta + (i, t, e))
        print(f"t={t:g}: wrote {rows} rows to {name}, "
              f"tail norm {sample.tail_norm:.3e}")
    path = os.path.join(cfg.out_dir, "energy_trace.csv")
    with _path_errors("out_dir", cfg.out_dir), open(
            path, "w", encoding="utf-8", newline="") as fh:
        _write_rows(energy_rows, ("s1", "s2", "s3", "n", "m", "l", "k", "j",
                                  "i", "t", "energy"), "csv", fh)
    print(f"energy trace: {path}")
    return 0


@contextlib.contextmanager
def _path_errors(name: str, path: str):
    """Turn an OSError or UnicodeDecodeError of the block (creating,
    reading or writing at `path`) into UnusablePath naming setting `name`."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise UnusablePath(f"{name} {path!r}: {exc}") from exc


def _build_data(cfg, prop: KGPropagator) -> CauchyData:
    if cfg.preset == "none":
        a0, a1 = SpectralCoefficients(), SpectralCoefficients()
        for target, coefs in ((a0, cfg.phi0_coefs), (a1, cfg.phi1_coefs)):
            for idx, val in coefs:
                target[(ModeIndex(*idx[:8]), idx[8])] = val
        return CauchyData(a0, a1)
    # gaussian_x: a bump in the AdS radial coordinate on the constant
    # angular sector, sampled on the grid (the caller projects it)
    sector = Sector(0, 0, 0, 0)
    x = prop.table.grid.x.nodes
    prof = cfg.preset_amplitude * np.exp(
        -((x - cfg.preset_x0) / cfg.preset_width) ** 2)
    vec1, vec2, vecth, vecy, _, _ = prop.table.block(
        ModeIndex(0, 0, 0, 0, 0, 0, 0, 0))
    arr = np.einsum("x,a,b,t,y->xabty", prof.astype(complex), vec1, vec2,
                    vecth, vecy)
    zeros = {sector: np.zeros_like(arr)}
    return CauchyData({sector: arr}, zeros)


def _write_sample(cfg, grid, sample, name: str) -> int:
    """Write file `name` (.csv or .npz) in out_dir and return its row
    count, one per sector and grid point of `grid`, its five axis rules
    in order.  CSV holds one x slab of values as text per write, rows in
    C order of the grid, floats as repr.  npz is one uncompressed
    np.savez: t, tail_norm, the axes, `sectors` (the (s3, n, m, l) of
    each, in CSV order) and each sector's array as field_<k>."""
    values = sample.values or {}
    axes = dict(zip(("x", "theta1", "theta2", "theta", "y"),
                    (rule.nodes for rule in grid)))
    path = os.path.join(cfg.out_dir, name)
    npz = cfg.out_format == "npz"
    with _path_errors("out_dir", cfg.out_dir), (
            open(path, "wb") if npz
            else open(path, "w", encoding="utf-8", newline="")) as fh:
        if npz:
            # savez writes one array at a time: the sectors are never
            # stacked, and each is copied at most 16 MiB at a time
            np.savez(fh, t=np.float64(sample.t),
                     tail_norm=np.float64(sample.tail_norm), **axes,
                     sectors=np.array(list(values), np.int64).reshape(-1, 4),
                     **{f"field_{k}": np.asarray(arr, complex)
                        for k, arr in enumerate(values.values())})
            return sum(arr.size for arr in values.values())
        fh.write(",".join(("s3", "n", "m", "l", *axes, "re", "im")) + "\n")
        x_text, *rest = ([repr(v) for v in axis.tolist()]
                         for axis in axes.values())
        # the text of a slab, six parts a row: lead (s3..x), point
        # (theta1, theta2, theta, y in ravel order), re, ",", im, "\n"
        points = [",".join(pt) + "," for pt in itertools.product(*rest)]
        parts = [None, None, None, ",", None, "\n"] * len(points)
        parts[1::6] = points
        for sector, arr in values.items():
            # re and im interleaved as int64 bit patterns: a slab's values
            # repeat, and keying by bits keeps 0.0 and -0.0 apart
            bits = np.ascontiguousarray(arr, dtype=complex).view(np.int64)
            for xv, slab in zip(x_text, bits):
                texts = _slab_texts(slab.ravel())
                parts[0::6] = [f"{sector.s3},{sector.n},{sector.m},"
                               f"{sector.l},{xv},"] * len(points)
                parts[2::6] = texts[0::2]
                parts[4::6] = texts[1::2]
                fh.write("".join(parts))
    return sum(arr.size for arr in values.values())


def _slab_texts(flat: np.ndarray) -> tuple:
    """repr of each float of `flat` (int64 bits), in order: each distinct
    value formatted once, in row order, so the gather reads texts in order."""
    keys, inverse = np.unique(flat, return_inverse=True)
    pos = np.empty(keys.size, np.intp)
    pos[inverse] = np.arange(flat.size)
    picked = np.zeros(flat.size, bool)
    picked[pos] = True
    texts = list(map(repr, flat[picked].view(float).tolist()))
    # text index of each value; itemgetter of one index gives no tuple
    idx = (np.cumsum(picked) - 1)[pos][inverse].tolist()
    return operator.itemgetter(*idx)(texts) if flat.size > 1 else tuple(texts)


def _cmd_selftest(args) -> int:
    return _selftest.run_selftest()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ypqwave",
        description="Spectral solver for the Y^{p,q} Laplace basis and the "
                    "Klein-Gordon mode-sum propagator on AdS5 x Y^{p,q}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geometry", help="solve the geometry constants")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=_cmd_geometry)

    a = sub.add_parser("angular", help="angular eigenvalues and norms")
    a.add_argument("--n", type=_int, required=True)
    a.add_argument("--m", type=_int, required=True)
    a.add_argument("--jmax", type=_nonnegative_int, required=True)
    a.add_argument("--format", choices=("csv", "json"), default="csv")
    a.set_defaults(func=_cmd_angular)

    r = sub.add_parser("radial", help="radial eigenvalues")
    r.add_argument("--p", type=int, required=True)
    r.add_argument("--q", type=int, required=True)
    r.add_argument("--m", type=_int, required=True)
    r.add_argument("--l", type=_int, required=True)
    r.add_argument("--Lambda", type=_at_least(float, 0.0), required=True)
    r.add_argument("--kmax", type=_nonnegative_int, required=True)
    r.add_argument("--nbasis", type=_at_least(int, 8), default=40)
    r.add_argument("--oracle", action="store_true")
    r.add_argument("--format", choices=("csv", "json"), default="csv")
    r.set_defaults(func=_cmd_radial)

    s = sub.add_parser("spectrum", help="assembled eigenvalues, sorted")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--nmax", type=_nonnegative_int, required=True)
    s.add_argument("--mmax", type=_nonnegative_int, required=True)
    s.add_argument("--lmax", type=_nonnegative_int, required=True)
    s.add_argument("--kmax", type=_nonnegative_int, required=True)
    s.add_argument("--jmax", type=_nonnegative_int, required=True)
    s.add_argument("--lambda-max", type=_at_least(float, 0.0))
    s.add_argument("--nbasis", type=_at_least(int, 8), default=40)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.set_defaults(func=_cmd_spectrum)

    d = sub.add_parser("ads-modes", help="AdS radial eigenvalues and norms")
    d.add_argument("--beta1", type=_nonnegative_int, required=True)
    d.add_argument("--c", type=_at_least(float, 2.0), required=True)
    d.add_argument("--imax", type=_nonnegative_int, required=True)
    d.add_argument("--format", choices=("csv", "json"), default="csv")
    d.set_defaults(func=_cmd_ads_modes)

    pr = sub.add_parser("propagate", help="batch evolution from a config file")
    pr.add_argument("--config", required=True)
    pr.set_defaults(func=_cmd_propagate)

    st = sub.add_parser("selftest", help="run the invariant suite")
    st.set_defaults(func=_cmd_selftest)
    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except YpqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - unexpected
        print(f"error: internal: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
