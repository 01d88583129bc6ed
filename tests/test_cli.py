"""Command-line surface, configuration and the eigenmode cache."""

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import ypqwave
from ypqwave import cache, cli, errors, selftest
from ypqwave.ads import ModeIndex, ModeTable, Sector, c_beta, sector_grid
from ypqwave.angular import angular_eigenvalue
from ypqwave.cache import CacheKey, cache_get_or_solve
from ypqwave.cli import run
from ypqwave.config import RunConfig, load_config, parse_config, time_tag
from ypqwave.errors import ConfigError
from ypqwave.geometry import profile_h, solve_geometry
from ypqwave.propagator import TruncationWarning
from ypqwave.radial import radial_problem, solve_radial
from ypqwave.specfun import QuadratureRule
from ypqwave.spectrum import TruncationPolicy, enumerate_modes


class TestGeometryCommand:
    def test_json_output_invariants(self, capsys):
        assert run(["geometry", "--p", "2", "--q", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == 2 and payload["q"] == 3
        a, ym, yp = payload["a"], payload["y_minus"], payload["y_plus"]
        assert ym < 0.0 < yp
        hm, hp = profile_h(ym, a), profile_h(yp, a)
        assert abs((hm - hp) / (2 * hm) - 2.0 / 3.0) < 1e-12
        assert payload["tau"] > 0.0
        assert payload["sigma"] == 6

    def test_json_round_trip_one_ulp(self, capsys):
        run(["geometry", "--p", "3", "--q", "4", "--json"])
        payload = json.loads(capsys.readouterr().out)
        gp = solve_geometry(3, 4)
        for name in ("a", "y_minus", "y_plus", "tau"):
            assert payload[name] == getattr(gp, name)

    def test_invalid_label_exit_1(self, capsys):
        assert run(["geometry", "--p", "2", "--q", "5"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_large_label(self, capsys):
        assert run(["geometry", "--p", "2000000", "--q", "2000001"]) == 0
        assert "sigma = 7999999999998000000" in capsys.readouterr().out

    @pytest.mark.parametrize("digits", [200, 400])
    def test_label_beyond_double_range_exit_1(self, capsys, digits):
        p = 10 ** digits
        assert run(["geometry", "--p", str(p), "--q", str(p + 1)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Y^{") and "internal" not in err

    @pytest.mark.parametrize("argv", ["geometry --p 2 --q 3 --bogus",
                                      "selftest --fast"])
    def test_unknown_flag_exit_2(self, capsys, argv):
        assert run(argv.split()) == 2
        assert capsys.readouterr().err.startswith("usage:")

    def test_unknown_command_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_module_entry_point(self):
        src = os.path.dirname(os.path.dirname(ypqwave.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "ypqwave.cli", "geometry", "--p", "2",
             "--q", "3"], capture_output=True, text=True, env=env,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "sigma = 6" in proc.stdout.splitlines()


class TestTableCommands:
    def test_angular_csv(self, capsys):
        assert run(["angular", "--n", "1", "--m", "0", "--jmax", "2"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["j"] for r in rows] == ["0", "1", "2"]
        assert float(rows[0]["lambda"]) == 2.0

    def test_radial_with_oracle(self, capsys):
        assert run(["radial", "--p", "2", "--q", "3", "--m", "1", "--l", "0",
                    "--Lambda", "6", "--kmax", "1", "--nbasis", "24",
                    "--oracle"]) == 0
        out = capsys.readouterr().out
        body = "\n".join(line for line in out.splitlines()
                         if not line.startswith("#"))
        rows = list(csv.DictReader(io.StringIO(body)))
        for row in rows:
            rel = abs(float(row["ell"]) - float(row["oracle_ell"])) \
                / max(1.0, float(row["ell"]))
            assert rel < 1e-6

    @pytest.mark.parametrize("args", [
        # several eigenvalues lie within 3% of each other up here
        ("--p", "5", "--q", "9", "--m", "0", "--l", "1", "--Lambda", "0",
         "--kmax", "2"),
        # the kernel ell = 0 sits in a bracket from its upper gap alone
        ("--p", "2", "--q", "3", "--m", "0", "--l", "0", "--Lambda", "0",
         "--kmax", "2")])
    def test_radial_oracle_brackets_from_neighbours(self, capsys, args):
        assert run(["radial", *args, "--nbasis", "28", "--oracle"]) == 0
        body = "\n".join(line for line in capsys.readouterr().out.splitlines()
                         if not line.startswith("#"))
        rows = list(csv.DictReader(io.StringIO(body)))
        assert [row["k"] for row in rows] == ["0", "1", "2"]
        for row in rows:
            assert abs(float(row["oracle_ell"]) - float(row["ell"])) < 1e-6

    @pytest.mark.parametrize("p,q,m,l,kmax,nbasis", [
        # the mass matrix of the old quadrature was indefinite at 75
        (3, 5, 0, 1, 1, 60),
        (4, 7, 0, 1, 2, 60),
        # endpoint exponents (367.5, 157.5) and (367.5, 262.5)
        (5, 7, 0, 1, 2, 28), (6, 7, 0, -1, 2, 28)])
    def test_radial_large_exponents(self, capsys, p, q, m, l, kmax, nbasis):
        ells = {}
        for n in (28, nbasis):
            assert run(["radial", "--p", str(p), "--q", str(q), "--m", str(m),
                        "--l", str(l), "--Lambda", "0", "--kmax", str(kmax),
                        "--nbasis", str(n), "--format", "json"]) == 0
            rows = json.loads(capsys.readouterr().out)
            assert all(row["norm_residual"] < 1e-12 for row in rows)
            ells[n] = [row["ell"] for row in rows]
        for a, b in zip(ells[28], ells[nbasis]):
            assert abs(a - b) <= 1e-12 * abs(b)

    @pytest.mark.parametrize("argv", [
        # exponents (2100, 0) and (2000, 1): mu0 of the rule overflows
        "radial --p 5 --q 7 --m 315 --l 2 --Lambda 0 --kmax 1 --nbasis 28",
        "ads-modes --beta1 0 --c 2000 --imax 3",
        # c = 1e160 would also overflow the Jacobi matrix and Omega
        "ads-modes --beta1 0 --c 1e160 --imax 1"])
    def test_overflowing_rule_fails_loudly(self, capsys, argv):
        assert run(argv.split()) == 1
        assert capsys.readouterr().err.startswith(
            "error: degenerate weights for exponents (")

    def test_angular_norm_beyond_double_range(self, capsys):
        assert run("angular --n 1030 --m 0 --jmax 2".split()) == 1
        assert capsys.readouterr().err.startswith(
            "error: angular norm constant of (1030, 0, 0) overflows")

    def test_radial_json_parses(self, capsys):
        assert run(["radial", "--p", "2", "--q", "3", "--m", "1", "--l", "0",
                    "--Lambda", "6", "--kmax", "2", "--nbasis", "24",
                    "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["k"] for row in rows] == [0, 1, 2]

    def test_spectrum_sorted(self, capsys):
        assert run(["spectrum", "--p", "2", "--q", "3", "--nmax", "1",
                    "--mmax", "0", "--lmax", "0", "--kmax", "1", "--jmax", "1",
                    "--nbasis", "20"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        lams = [float(r["lambda"]) for r in rows]
        assert lams == sorted(lams)
        assert lams[0] == pytest.approx(0.0, abs=1e-12)

    def test_ads_modes(self, capsys):
        assert run(["ads-modes", "--beta1", "0", "--c", "2.0",
                    "--imax", "2"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [float(r["omega"]) for r in rows] == [16.0, 36.0, 64.0]
        assert all(float(r["norm_residual"]) < 1e-10 for r in rows)
        # exponent c = 100: the norms of ads_gram, Christoffel-weighted
        assert run(["ads-modes", "--beta1", "4", "--c", "100",
                    "--imax", "20"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 21
        assert all(float(r["norm_residual"]) < 1e-12 for r in rows)

    @pytest.mark.parametrize("argv", [
        "ads-modes --beta1 0 --c 1.5 --imax 2",
        "ads-modes --beta1 0 --c nan --imax 2",
        "ads-modes --beta1 -1 --c 2.0 --imax 2",
        "ads-modes --beta1 0 --c 2.0 --imax -1",
        "radial --p 2 --q 3 --m 0 --l 0 --Lambda -1 --kmax 1",
        "radial --p 2 --q 3 --m 0 --l 0 --Lambda 0 --kmax -1",
        "angular --n 0 --m 0 --jmax -1",
        "radial --p 2 --q 3 --m 0 --l 0 --Lambda 0 --kmax 0 --nbasis -3",
        "radial --p 2 --q 3 --m 0 --l 0 --Lambda 0 --kmax 0 --nbasis 7",
        "spectrum --p 2 --q 3 --nmax -1 --mmax 0 --lmax 0 --kmax 0 --jmax 0",
        "spectrum --p 2 --q 3 --nmax 0 --mmax 0 --lmax 0 --kmax 0 --jmax 0 "
        "--nbasis -3",
    ] + [f"spectrum --p 2 --q 3 --nmax 0 --mmax 0 --lmax 0 --kmax 0 --jmax 0 "
         f"--lambda-max {bad}" for bad in ("nan", "inf", "-1")])
    def test_argument_out_of_range_is_usage_error(self, capsys, argv):
        assert run(argv.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "must be at least" in err

    @pytest.mark.parametrize("argv", [
        "radial --p 2 --q 3 --m 0 --l 0 --Lambda 0 --kmax 1 --nbasis {big}",
        "angular --n 0 --m 0 --jmax {big}",
        "ads-modes --beta1 {big} --c 2 --imax 1",
        "spectrum --p 2 --q 3 --nmax {big} --mmax 0 --lmax 0 --kmax 0 "
        "--jmax 0",
        "radial --p 2 --q 3 --m {big} --l 0 --Lambda 0 --kmax 1",
        "radial --p 2 --q 3 --m 0 --l {big} --Lambda 0 --kmax 1",
        "angular --n {big} --m 0 --jmax 1"])
    def test_integer_beyond_double_is_usage_error(self, capsys, argv):
        # a 401-digit integer: no double holds it, so no float arithmetic
        # may meet it
        assert run(argv.format(big="1" + "0" * 400).split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "is beyond a double" in err

    @pytest.mark.parametrize("argv,what", [
        ("radial --p 2 --q 3 --m 0 --l 0 --Lambda 0 --kmax 1 "
         "--nbasis 100000000", "125000032-node Galerkin rule"),
        # 1004^2 * 8 bytes of the Gram's rule table against 10^6 bytes
        ("ads-modes --beta1 0 --c 2 --imax 1000", "1004-node rule")])
    def test_oversize_table_fails_loudly(self, capsys, monkeypatch, argv,
                                         what):
        # refused by the physical-memory rule before the table is built,
        # not as an internal error from the allocator
        monkeypatch.setattr(errors, "_physical_memory", lambda: 10 ** 6)
        assert run(argv.split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "internal" not in err
        assert what in err and "more than the 1000000 bytes" in err

    @pytest.mark.parametrize("argv", [
        "radial --p 2 --q 3 --m 0 --l {e308} --Lambda 0 --kmax 1",
        "angular --n {e308} --m 0 --jmax 1",
        "angular --n 0 --m {e308} --jmax 1",
        # exponents of 1e10 are doubles, but the Galerkin tables overflow
        "radial --p 2 --q 3 --m 10000000000 --l 0 --Lambda 0 --kmax 1",
        "radial --p 2 --q 3 --m {e308} --l 0 --Lambda 0 --kmax 1"])
    def test_overflowing_label_arithmetic_fails_loudly(self, capsys, argv):
        # labels that a double holds but whose arithmetic overflows one:
        # a single error line, no internal error and no numpy warning
        assert run(argv.format(e308="1" + "0" * 308).split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "internal" not in err
        assert err.count("\n") == 1

    def test_spectrum_lambda_max_filters_rows(self, capsys):
        argv = ("spectrum --p 2 --q 3 --nmax 1 --mmax 0 --lmax 0 --kmax 1 "
                "--jmax 1 --nbasis 20").split()
        assert run(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        bound = sorted(float(row["lambda"]) for row in rows)[len(rows) // 2]
        assert run(argv + ["--lambda-max", repr(bound)]) == 0
        kept = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert kept == [row for row in rows if float(row["lambda"]) <= bound]
        assert 0 < len(kept) < len(rows)

    def test_ads_modes_prints_the_propagator_omega(self, capsys, gp23):
        # Python's float ** rounds this square 1 ulp high; the one Omega
        # expression gives the correctly rounded value everywhere
        c = 88.67606802145276
        assert run(f"ads-modes --beta1 0 --c {c!r} --imax 2".split()) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows[2]["omega"] == "8963.55785600275"
        # a mode table whose one Y^{p,q} mode has exactly this c
        lam = c * c - 4.0
        assert c_beta(0.0, 1.0, lam) == c
        table = ModeTable(gp23, 0.0, 1.0,
                          {(0, 0, 0, 0, 0): SimpleNamespace(lam=lam)},
                          (4, 4, 4, 4, 4), 2)
        omegas = table.omega_table([ModeIndex(0, 0, 0, 0, 0, 0, 0, 0)])
        assert [float(row["omega"]) for row in rows] == omegas[0].tolist()


CONFIG_TEMPLATE = """
schema_version = 1
p = 2
q = 3
M = 1.0
kappa = 1.0
s1_max = 0
n_max = 1
i_max = 2
n_basis = 16
grid_x = 16
grid_t1 = 6
grid_t2 = 6
grid_theta = 8
grid_y = 16
times = 0.0, 1.0
phi0_coef = 0 0 0 0 0 0 0 0 0 : 1.0 : 0.0
phi0_coef = 0 0 0 1 0 0 0 0 1 : 0.0 : 0.5
out_format = csv
"""


# data in five sectors (s3, n, m, l), s3 and n each in -1, 0, 1; with
# s1 = 1 in four of them, most field values differ
SECTORS_SHAPE = (4, 5, 6, 4, 7)
SECTORS_CONFIG = "\n".join(
    ["schema_version = 1", "p = 2", "q = 3", "s1_max = 1", "n_max = 1",
     "i_max = 1", "n_basis = 12", "times = 0.0, 1.0"]
    + [f"{key} = {n}" for key, n in zip(
        ("grid_x", "grid_t1", "grid_t2", "grid_theta", "grid_y"),
        SECTORS_SHAPE)]
    + [f"phi0_coef = {c} : 1.0 : 0.5" for c in (
        "1 1 1 0 0 0 0 0 0", "0 0 0 1 0 0 0 0 1", "1 1 -1 -1 0 0 0 0 0",
        "0 0 0 0 0 0 0 0 0", "1 1 0 -1 0 0 0 0 1", "1 0 0 1 0 0 0 0 0")]) + "\n"

# the gaussian_x preset on a small grid, out to m_max = l_max = 1
GAUSSIAN_CONFIG = """
schema_version = 1
p = 2
q = 3
preset = gaussian_x
s1_max = 1
n_max = 1
m_max = 1
l_max = 1
k_max = 1
i_max = 2
n_basis = 16
grid_x = 12
grid_t1 = 5
grid_t2 = 5
grid_theta = 6
grid_y = 8
times = 0.0, 0.5, 1.0
"""


def _with_line(line: str):
    """CONFIG_TEMPLATE with `line` appended in place of any line that sets
    the same key (coefficient lines add up), and the number of that line."""
    key = line.split("=")[0].strip()
    lines = [old for old in CONFIG_TEMPLATE.splitlines()
             if key.endswith("_coef") or old.split("=")[0].strip() != key]
    lines.append(line)
    return "\n".join(lines) + "\n", len(lines)


class TestConfig:
    def test_parse(self):
        cfg = parse_config(CONFIG_TEMPLATE)
        assert cfg.p == 2 and cfg.q == 3
        assert cfg.times == [0.0, 1.0]
        assert len(cfg.phi0_coefs) == 2
        assert cfg.grid_shape == (16, 6, 6, 8, 16)

    def test_missing_schema(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config("p = 2\nq = 3\n")

    def test_line_precise_errors(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("schema_version = 1\np = 2\nq = oops\n")
        with pytest.raises(ConfigError, match="line 4"):
            parse_config("schema_version = 1\np = 2\nq = 3\nwhat = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("schema_version = 1\np = 2\np = 3\nq = 3\n")

    @pytest.mark.parametrize("line", ["lambda_max = 5", "sigma_rule = prose"])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, line):
        text = CONFIG_TEMPLATE + line + "\n"
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert run(["propagate", "--config", str(path)]) == 1
        lineno = text.splitlines().index(line) + 1
        key = line.split()[0]
        assert capsys.readouterr().err.startswith(
            f"error: line {lineno}: unknown key {key!r}")

    def test_defaults_are_field_defaults(self):
        text = "schema_version = 1\np = 2\nq = 3\npreset = gaussian_x\n"
        cfg = parse_config(text)
        assert cfg == RunConfig(p=2, q=3, preset="gaussian_x")
        # each config owns its default list
        cfg.times.append(1.0)
        assert parse_config(text).times == [0.0]
        # the coefficient lists are fields but no keys
        with pytest.raises(ConfigError, match="line 4: unknown key"):
            parse_config("schema_version = 1\np = 2\nq = 3\n"
                         "phi0_coefs = 1\n")

    def test_validation(self):
        with pytest.raises(ConfigError, match="kappa"):
            parse_config(CONFIG_TEMPLATE.replace("kappa = 1.0",
                                                 "kappa = -2.0"))
        with pytest.raises(ConfigError, match="no data"):
            parse_config("schema_version = 1\np = 2\nq = 3\n")

    @pytest.mark.parametrize("line", [
        "M = nan", "kappa = inf", "preset_width = -inf", "times = 0.0, nan",
        "times = inf", "phi0_coef = 0 0 0 0 0 0 0 0 0 : nan : 0.0",
        "phi1_coef = 0 0 0 0 0 0 0 0 0 : 1.0 : -inf"])
    def test_non_finite_rejected(self, line):
        text, lineno = _with_line(line)
        with pytest.raises(ConfigError, match=f"line {lineno}: .*not finite"):
            parse_config(text)

    @pytest.mark.parametrize("line,message", [
        ("kappa = -2.0", "kappa must be positive"),
        ("M = -1.0", "M must be nonnegative"),
        ("i_max = -1", "i_max must be nonnegative"),
        ("n_basis = 4", "n_basis must be at least 8"),
        ("grid_theta = 3", "grid resolutions"),
        ("out_format = xml", "out_format must be 'csv' or 'npz'$"),
        ("preset = bump", "preset must be"),
        ("preset_width = 0.0", "preset_width must be positive"),
        ("tail_warn_fraction = -1", "tail_warn_fraction must be nonnegative"),
        ("times = ,", "times must not be empty"),
        ("phi0_coef = 0 1 0 0 0 0 0 0 0 : 1.0 : 0.0", r"need s1 >= s2 >= \|s3\|"),
        ("phi1_coef = 1 1 -1 0 0 0 0 0 0 : 1.0 : 0.0", "s1 = 1 outside s1_max"),
        ("phi1_coef = 0 0 0 0 0 0 0 -1 0 : 1.0 : 0.0",
         "k, j and i must be nonnegative"),
        ("phi0_coef = 0 0 0 -3 0 0 0 0 0 : 1.0 : 0.0", "n = -3 outside n_max"),
        ("phi0_coef = 0 0 0 0 0 0 1 0 0 : 1.0 : 0.0", "k = 1 outside k_max"),
        ("phi0_coef = 0 0 0 0 0 0 0 0 3 : 1.0 : 0.0", "i = 3 outside i_max"),
        ("preset = gaussian_x", "coefficient lines and preset = gaussian_x"),
    ])
    def test_validation_cites_line(self, line, message):
        text, lineno = _with_line(line)
        if line == "preset = gaussian_x":
            # the template's coefficients clash with it: the first is cited
            lineno = next(n for n, old in enumerate(text.splitlines(), 1)
                          if old.startswith("phi0_coef"))
        with pytest.raises(ConfigError, match=f"^line {lineno}: {message}"):
            parse_config(text)


class TestPropagate:
    def test_end_to_end(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        out_dir = tmp_path / "out"
        cfg_path.write_text(CONFIG_TEMPLATE
                            + f"out_dir = {out_dir}\n"
                            + f"cache_dir = {tmp_path / 'cache'}\n")
        assert run(["propagate", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        files = sorted(os.listdir(out_dir))
        assert "energy_trace.csv" in files
        assert any(f.startswith("field_t0") for f in files)
        with open(out_dir / "energy_trace.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        # conservation through the pipeline: per-mode energy equal at the
        # two output times
        by_key = {}
        for row in rows:
            key = tuple(row[c] for c in ("s1", "s2", "s3", "n", "m", "l",
                                         "k", "j", "i"))
            by_key.setdefault(key, []).append(float(row["energy"]))
        for vals in by_key.values():
            assert vals[0] == pytest.approx(vals[1], rel=1e-12)

    def test_cache_transparency(self, tmp_path, capsys):
        # identical outputs with and without the cache, bitwise
        outs = []
        for tag, cache_line in (("a", ""), ("b", "cache_dir = {}\n"),
                                ("c", "cache_dir = {}\n")):
            out_dir = tmp_path / f"out_{tag}"
            cfg = CONFIG_TEMPLATE + f"out_dir = {out_dir}\n"
            if cache_line:
                cfg += cache_line.format(tmp_path / "shared_cache")
            path = tmp_path / f"run_{tag}.cfg"
            path.write_text(cfg)
            assert run(["propagate", "--config", str(path)]) == 0
            capsys.readouterr()
            with open(out_dir / "field_t1.csv", "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1] == outs[2]

    def test_colliding_time_tags(self, tmp_path, capsys):
        # 1.0 and 1.0000001 would both be written to field_t1.csv
        times = "times = 1.0, 1.0000001"
        out_dir = tmp_path / "out"
        text = (CONFIG_TEMPLATE.replace("times = 0.0, 1.0", times)
                + f"out_dir = {out_dir}\n")
        path = tmp_path / "run.cfg"
        path.write_text(text)
        lineno = text.splitlines().index(times) + 1
        with pytest.raises(ConfigError, match=f"line {lineno}: .*share"):
            parse_config(text)
        assert run(["propagate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: line {lineno}:")
        assert not out_dir.exists()

    @pytest.mark.parametrize("fmt", ["csv", "npz"])
    def test_negative_zero_time_shares_tag(self, tmp_path, capsys, fmt):
        # -0.0 is the instant 0.0: tagged t0, so 0.0 and -0.0 are refused
        # as two times of one file
        assert time_tag(-0.0) == time_tag(0.0) == "t0"
        assert time_tag(-0.5) == "tm0p5"
        times = "times = 0.0, -0.0"
        out_dir = tmp_path / "out"
        text = (CONFIG_TEMPLATE.replace("times = 0.0, 1.0", times)
                .replace("out_format = csv", f"out_format = {fmt}")
                + f"out_dir = {out_dir}\n")
        path = tmp_path / "run.cfg"
        path.write_text(text)
        lineno = text.splitlines().index(times) + 1
        assert run(["propagate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: line {lineno}: two times share an output file tag")
        assert not out_dir.exists()

    def test_json_out_format_refused(self, tmp_path, capsys):
        # JSON field files are gone: the old key value fails before out_dir
        # is made, citing its line
        out_dir = tmp_path / "out"
        text = (CONFIG_TEMPLATE.replace("out_format = csv", "out_format = json")
                + f"out_dir = {out_dir}\n")
        path = tmp_path / "run.cfg"
        path.write_text(text)
        lineno = text.splitlines().index("out_format = json") + 1
        assert run(["propagate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: line {lineno}: out_format must be 'csv' or 'npz' "
            "(JSON field files were replaced by npz)\n")
        assert not out_dir.exists()

    def test_negative_zero_time_is_zero(self, tmp_path, capsys):
        # times = -0.0 reads as 0.0: the printed time, the energy trace's
        # t column and every file are those of times = 0.0
        outs, stdout = [], []
        for tag, times in (("neg", "-0.0"), ("pos", "0.0")):
            out_dir = tmp_path / tag
            path = tmp_path / f"{tag}.cfg"
            path.write_text(CONFIG_TEMPLATE.replace("times = 0.0, 1.0",
                                                    f"times = {times}")
                            + f"out_dir = {out_dir}\n")
            assert math.copysign(1.0, load_config(str(path)).times[0]) == 1.0
            assert run(["propagate", "--config", str(path)]) == 0
            stdout.append(capsys.readouterr().out)
            outs.append({name: (out_dir / name).read_bytes()
                         for name in os.listdir(out_dir)})
        assert stdout[0].startswith("t=0: wrote ")
        assert stdout[0].replace(str(tmp_path / "neg"), "") == \
            stdout[1].replace(str(tmp_path / "pos"), "")
        assert sorted(outs[0]) == ["energy_trace.csv", "field_t0.csv"]
        assert outs[0] == outs[1]
        trace = list(csv.DictReader(io.StringIO(
            outs[0]["energy_trace.csv"].decode())))
        assert trace and {row["t"] for row in trace} == {"0.0"}

    def test_stdout_names_file_and_rows(self, tmp_path, capsys):
        # one line per time: the file written and its rows, 2 sectors of
        # 16 * 6 * 6 * 8 * 16 points
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEMPLATE.replace("times = 0.0, 1.0",
                                                "times = 0.0, 0.6")
                        + f"out_dir = {tmp_path / 'out'}\n")
        assert run(["propagate", "--config", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "t=0: wrote 147456 rows to field_t0.csv, tail norm 0.000e+00",
            "t=0.6: wrote 147456 rows to field_t0p6.csv, tail norm 0.000e+00"]

    def test_field_sectors_sorted(self, tmp_path, capsys):
        shape = SECTORS_SHAPE
        for fmt in ("csv", "npz"):
            path = tmp_path / f"run_{fmt}.cfg"
            path.write_text(SECTORS_CONFIG
                            + f"out_format = {fmt}\nout_dir = {tmp_path / fmt}\n")
            assert run(["propagate", "--config", str(path)]) == 0
            capsys.readouterr()
        # the field-file layout: per sector in sorted order, one row per
        # grid point in C order of the grid, with the values of the npz file
        grid = sector_grid(solve_geometry(2, 3), shape)
        nodes = [rule.nodes for rule in grid]
        at = np.unravel_index(np.arange(np.prod(shape)), shape)
        coords = np.stack([ax[i] for ax, i in zip(nodes, at)], axis=1)
        for tag in ("t0", "t1"):
            groups = _csv_sectors(tmp_path / "csv" / f"field_{tag}.csv")
            assert len(groups) == 5
            assert [key for key, _ in groups] == sorted(set(
                key for key, _ in groups))
            for _, table in groups:
                assert table.shape == (np.prod(shape), 7)
                assert np.array_equal(table[:, :5], coords)
            _assert_npz_matches_csv(tmp_path / "npz" / f"field_{tag}.npz",
                                    groups)

    def test_npz_layout(self, tmp_path, capsys):
        # t and tail_norm 0-d, the five axes, the sector labels and one
        # complex array per sector in the grid's shape; nothing pickled
        cfg = (CONFIG_TEMPLATE.replace("out_format = csv", "out_format = npz")
               .replace("times = 0.0, 1.0", "times = 0.5")
               + f"out_dir = {tmp_path / 'out'}\n")
        path = tmp_path / "run.cfg"
        path.write_text(cfg)
        assert run(["propagate", "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith(
            "t=0.5: wrote 147456 rows to field_t0p5.npz")
        shape = (16, 6, 6, 8, 16)
        with np.load(tmp_path / "out" / "field_t0p5.npz",
                     allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        assert sorted(arrays) == sorted(
            ["t", "tail_norm", *_AXES, "sectors", "field_0", "field_1"])
        assert arrays["t"].shape == arrays["tail_norm"].shape == ()
        assert arrays["t"].dtype == arrays["tail_norm"].dtype == np.float64
        assert float(arrays["t"]) == 0.5
        for axis, count in zip(_AXES, shape):
            assert arrays[axis].shape == (count,)
            assert arrays[axis].dtype == np.float64
        assert arrays["sectors"].dtype == np.int64
        assert arrays["sectors"].tolist() == [[0, 0, 0, 0], [0, 1, 0, 0]]
        for k in range(2):
            assert arrays[f"field_{k}"].shape == shape
            assert arrays[f"field_{k}"].dtype == np.complex128
        assert not any(arr.dtype.hasobject for arr in arrays.values())

    def test_preset_runs(self, tmp_path, capsys):
        cfg = (CONFIG_TEMPLATE.replace("phi0_coef = 0 0 0 0 0 0 0 0 0 : 1.0 : 0.0\n", "")
               .replace("phi0_coef = 0 0 0 1 0 0 0 0 1 : 0.0 : 0.5\n", "")
               + "preset = gaussian_x\n"
               + f"out_dir = {tmp_path / 'out'}\n")
        path = tmp_path / "run.cfg"
        path.write_text(cfg)
        # the bump profile is not band-limited, so the tail warning fires
        import pytest as _pytest
        from ypqwave.propagator import TruncationWarning
        with _pytest.warns(TruncationWarning):
            assert run(["propagate", "--config", str(path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "out" / "energy_trace.csv").exists()


_AXES = ("x", "theta1", "theta2", "theta", "y")


def _reference_write(grid, sample, path) -> None:
    """The CSV field-sample writer as a per-row f-string loop, every value
    formatted by repr: the output the slab writer must reproduce."""
    axes = dict(zip(_AXES, (rule.nodes.tolist() for rule in grid)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(("s3", "n", "m", "l", *axes, "re", "im")) + "\n")
        x_text, *rest = ([repr(v) for v in axis] for axis in axes.values())
        tail = [",".join(pt) for pt in itertools.product(*rest)]
        for sector, arr in sample.values.items():
            for xv, slab in zip(x_text, arr):
                lead = f"{sector.s3},{sector.n},{sector.m},{sector.l},{xv},"
                fh.write("".join(
                    f"{lead}{pt},{re!r},{im!r}\n" for pt, re, im in zip(
                        tail, slab.real.ravel().tolist(),
                        slab.imag.ravel().tolist())))


def _csv_sectors(path) -> list:
    """((s3, n, m, l), float table of the columns x .. im) of each sector
    of a CSV field file, in file order; every float parsed by float()."""
    with open(path, encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["s3", "n", "m", "l", *_AXES, "re", "im"]
    return [(key, np.array([list(map(float, row[4:])) for row in group]))
            for key, group in itertools.groupby(
                rows, key=lambda row: tuple(map(int, row[:4])))]


def _assert_npz_matches_csv(path, groups, sample=None) -> None:
    """The npz field file at `path` holds bitwise what the CSV `groups`
    (of `_csv_sectors`) hold: the sector order, the coordinate columns
    and each sector's values; and the t and tail_norm of `sample`."""
    with np.load(path, allow_pickle=False) as npz:
        assert npz["sectors"].tolist() == [list(key) for key, _ in groups]
        axes = [npz[axis] for axis in _AXES]
        shape = tuple(axis.size for axis in axes)
        at = np.unravel_index(np.arange(np.prod(shape)), shape)
        coords = np.stack([ax[i] for ax, i in zip(axes, at)], axis=1)
        for k, (_, table) in enumerate(groups):
            field = npz[f"field_{k}"]
            assert field.shape == shape and field.dtype == np.complex128
            assert coords.tobytes() == table[:, :5].tobytes()
            # complex128 bytes are re, im interleaved: the CSV's last two
            # columns in row order
            assert field.tobytes() == table[:, 5:].tobytes()
        assert len(npz.files) == 8 + len(groups)
        if sample is not None:
            for name in ("t", "tail_norm"):
                assert npz[name].tobytes() == np.float64(
                    getattr(sample, name)).tobytes()


class _CountingFile:
    """A file whose writes are counted in counts[name]."""

    def __init__(self, fh, counts, name):
        self.fh, self.counts, self.name = fh, counts, name
        counts[name] = 0

    def write(self, text):
        self.counts[self.name] += 1
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


class TestFieldWriter:
    @pytest.mark.parametrize("config", ["template", "sectors", "gaussian_x"])
    def test_matches_reference_writer(self, tmp_path, capsys, monkeypatch,
                                      config):
        # every CSV field file bitwise the per-row writer's, in one write
        # per sector and x slab plus the header; every npz file bitwise
        # the CSV file's values
        text = {"template": CONFIG_TEMPLATE.replace("out_format = csv\n", ""),
                "sectors": SECTORS_CONFIG, "gaussian_x": GAUSSIAN_CONFIG}[config]
        write_sample = cli._write_sample
        writes, samples = {}, {}

        def checked(cfg, grid, sample, name):
            rows = write_sample(cfg, grid, sample, name)
            samples[name] = sample
            if cfg.out_format == "csv":
                _reference_write(grid, sample, tmp_path / f"ref_{name}")
            assert rows == sum(arr.size for arr in sample.values.values())
            return rows

        def counting_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if not path.endswith(".csv"):
                return fh
            return _CountingFile(fh, writes, os.path.basename(path))

        monkeypatch.setattr(cli, "_write_sample", checked)
        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        cfg = parse_config(text)
        slab = np.prod(cfg.grid_shape[1:])
        for fmt in ("csv", "npz"):
            out_dir = tmp_path / fmt
            path = tmp_path / f"run_{fmt}.cfg"
            path.write_text(text + f"out_format = {fmt}\nout_dir = {out_dir}\n")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                assert run(["propagate", "--config", str(path)]) == 0
            capsys.readouterr()
            names = sorted(n for n in os.listdir(out_dir)
                           if n.startswith("field_"))
            assert len(names) == len(cfg.times)
            for name in names:
                if fmt == "npz":
                    groups = _csv_sectors(tmp_path / "csv" / name.replace(
                        ".npz", ".csv"))
                    _assert_npz_matches_csv(out_dir / name, groups,
                                            samples[name])
                    continue
                assert ((out_dir / name).read_bytes()
                        == (tmp_path / f"ref_{name}").read_bytes())
                with open(out_dir / name, encoding="utf-8") as fh:
                    rows = sum(1 for _ in fh) - 1
                assert rows % slab == 0
                assert writes[name] == 1 + rows // slab

    @pytest.mark.parametrize("fmt", ["csv", "npz"])
    def test_edge_values_are_repr(self, tmp_path, fmt):
        # 0.0 and -0.0, nan, the infinities, the least subnormal and the
        # pairs where repr changes notation, all in one x slab and in
        # both columns: CSV holds each value's own repr, npz its bits
        edge = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1.0]
        re = np.array(edge)
        im = np.array(edge[::-1])
        arr = np.empty((1, 1, 1, 3, 4), dtype=complex)
        arr.real = re.reshape(arr.shape)
        arr.imag = im.reshape(arr.shape)
        nodes = [np.array([0.5]), np.array([0.25]), np.array([-0.0]),
                 np.array([1.0, 2.0, 3.0]), np.linspace(-1.0, 1.0, 4)]
        grid = [QuadratureRule(a, np.ones_like(a)) for a in nodes]
        sample = SimpleNamespace(t=-0.0, tail_norm=5e-324,
                                 values={Sector(0, 0, 0, 0): arr})
        cfg = SimpleNamespace(out_format=fmt, out_dir=str(tmp_path))
        name = f"field.{fmt}"
        assert cli._write_sample(cfg, grid, sample, name) == re.size
        if fmt == "npz":
            with np.load(tmp_path / name, allow_pickle=False) as npz:
                assert npz["field_0"].tobytes() == arr.tobytes()
                for axis, want in zip(_AXES, nodes):
                    assert npz[axis].tobytes() == want.tobytes()
                assert npz["t"].tobytes() == np.float64(-0.0).tobytes()
                assert npz["tail_norm"].tobytes() == np.float64(
                    5e-324).tobytes()
                assert npz["sectors"].tolist() == [[0, 0, 0, 0]]
            return
        _reference_write(grid, sample, tmp_path / "ref.csv")
        text = (tmp_path / name).read_text()
        assert text == (tmp_path / "ref.csv").read_text()
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [row[-2] for row in rows] == [repr(v) for v in edge]
        assert [row[-1] for row in rows] == [repr(v) for v in edge[::-1]]

    @pytest.mark.parametrize("fmt", ["csv", "npz"])
    def test_writer_holds_less_than_the_field(self, tmp_path, fmt):
        # CSV holds at most one x slab as text, and npz copies one sector
        # at most, never the stacked field: the writer's peak traced
        # memory stays below the field's own bytes
        shape = (16, 6, 6, 10, 10)
        rng = np.random.default_rng(3)
        values = {Sector(0, n, 0, 0): rng.standard_normal(shape)
                  + 1j * rng.standard_normal(shape) for n in (-1, 0, 1)}
        grid = [QuadratureRule(np.linspace(0.1, 1.0, n), np.ones(n))
                for n in shape]
        sample = SimpleNamespace(t=0.0, tail_norm=0.0, values=values)
        cfg = SimpleNamespace(out_format=fmt, out_dir=str(tmp_path))
        tracemalloc.start()
        try:
            rows = cli._write_sample(cfg, grid, sample, f"field_t0.{fmt}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == 3 * np.prod(shape)
        assert peak < sum(arr.nbytes for arr in values.values())
        if fmt == "npz":
            with np.load(tmp_path / "field_t0.npz", allow_pickle=False) as npz:
                assert [npz[f"field_{k}"].tobytes() for k in range(3)] == [
                    arr.tobytes() for arr in values.values()]
            return
        _reference_write(grid, sample, tmp_path / "ref.csv")
        assert ((tmp_path / "field_t0.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())


def test_propagate_projects_once(tmp_path, capsys, monkeypatch):
    # gaussian_x data on three times: each component is projected once,
    # and the tail is checked once
    from ypqwave import propagator
    calls = []
    project = propagator.project_cauchy

    def counted(*args, **kwargs):
        calls.append(True)
        return project(*args, **kwargs)

    monkeypatch.setattr(propagator, "project_cauchy", counted)
    lines = [line for line in CONFIG_TEMPLATE.splitlines()
             if not line.startswith(("phi0_coef", "times"))]
    cfg = "\n".join(lines + ["times = 0.0, 1.0, -2.5", "preset = gaussian_x",
                             f"out_dir = {tmp_path / 'out'}", ""])
    path = tmp_path / "run.cfg"
    path.write_text(cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["propagate", "--config", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 2
    assert sum(issubclass(w.category, TruncationWarning)
               for w in caught) <= 1
    assert len(os.listdir(tmp_path / "out")) == 4


@pytest.mark.parametrize("line,cites", [
    ("M = 1e200", "line"),
    ("kappa = 1e-320", "line"),            # M = 1 over a tiny kappa
    ("grid_y = 1000000", "line"),
    ("n_basis = 4", "line"),
    ("n_basis = 100000000", "line"),       # a 125000032-node rule
    ("n_basis = 1" + "0" * 400, "line"),   # beyond a double
    ("grid_t1 = 3", "line"),
    ("times = 0.0, nan", "line"),
    ("phi0_coef = 0 0 0 -3 0 0 0 0 0 : 1.0 : 0.0", "line"),
    ("times = 1.0, 1.0000001", "line"),    # both tagged t1
    ("out_dir = {file}/out", "path"),      # beneath a regular file
    ("cache_dir = {file}/cache", "path"),
    ("M = 1e150", "c"),                    # finite c, non-finite x table
])
def test_propagate_fails_loudly(tmp_path, capsys, monkeypatch, line, cites):
    # bad input exits 1 with a YpqError message citing its config line or
    # naming its path, never as an internal error
    monkeypatch.delenv("YPQWAVE_CACHE_DIR", raising=False)
    # the verdict on the huge grid must not depend on this machine
    monkeypatch.setattr(errors, "_physical_memory", lambda: 2 ** 30)
    blocker = tmp_path / "file"
    blocker.write_text("")
    line = line.format(file=blocker)
    text, lineno = _with_line(line)
    if not line.startswith("out_dir"):
        text += f"out_dir = {tmp_path / 'out'}\n"
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert run(["propagate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error: internal:" not in err
    if cites == "line":
        assert err.startswith(f"error: line {lineno}:")
    elif cites == "c":
        # refused by the mode table, which knows c: no line to cite
        assert err.startswith("error:") and "c = 1e+150" in err
    else:
        key, _, where = line.partition(" = ")
        assert err.startswith(f"error: {key} {where!r}:")


@pytest.mark.parametrize("argv,cites", [
    ("angular --n 0 --m 0 --jmax 1000000000000000000", ""),
    ("spectrum --p 2 --q 3 --nmax 0 --mmax 0 --lmax 1" + "0" * 308
     + " --kmax 0 --jmax 0 --nbasis 16", ""),
    ("propagate --config {cfg}", "line 5: ")])
def test_unholdable_truncation_fails_fast(tmp_path, capsys, argv, cites):
    # row and index counts that no machine holds are refused by the
    # physical-memory rule before anything is enumerated
    path = tmp_path / "run.cfg"
    path.write_text("\n".join([
        "schema_version = 1", "p = 2", "q = 3", "i_max = 1",
        "n_max = 1000000000000", "n_basis = 16", "grid_x = 4", "grid_t1 = 4",
        "grid_t2 = 4", "grid_theta = 4", "grid_y = 4",
        "phi0_coef = 0 0 0 0 0 0 0 0 0 : 1.0 : 0.0",
        f"out_dir = {tmp_path / 'out'}", ""]))
    start = time.perf_counter()
    assert run(argv.format(cfg=path).split()) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cites}") and "internal" not in err
    assert "bytes of physical memory" in err and err.count("\n") == 1


@pytest.mark.parametrize("data", [
    "preset = gaussian_x\npreset_amplitude = 1e308",  # nan coefficients
    "preset = gaussian_x\npreset_amplitude = 1e200",  # the norm overflows
    "phi0_coef = 0 0 0 1 0 0 0 0 1 : 1e200 : 0.0",    # Omega |a|^2 overflows
])
def test_overflowing_cauchy_data_fails_loudly(tmp_path, capsys, monkeypatch,
                                              data):
    # Cauchy data whose projection, data norm or mode energies overflow a
    # double is refused before any file is written; no single key is at
    # fault, so no line is cited
    monkeypatch.delenv("YPQWAVE_CACHE_DIR", raising=False)
    path = tmp_path / "run.cfg"
    path.write_text("\n".join([
        "schema_version = 1", "p = 2", "q = 3", "n_max = 1", "i_max = 2",
        "n_basis = 16", "grid_x = 6", "grid_t1 = 4", "grid_t2 = 4",
        "grid_theta = 4", "grid_y = 6", "times = 0.0", data,
        f"out_dir = {tmp_path / 'out'}", ""]))
    assert run(["propagate", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: Cauchy data overflows a double")
    assert err.count("\n") == 1 and "wrote" not in out
    assert not (tmp_path / "out").exists() or not os.listdir(tmp_path / "out")


@pytest.mark.parametrize("preset", ["gaussian_x", "none"])
def test_unresolved_x_gram(tmp_path, capsys, monkeypatch, preset):
    # at M = 500, c is about 500 and the x-Gram on 16 x nodes has a
    # condition number near 1e13: projecting gridded data refuses it,
    # naming grid_x, s1 and c; spectral data is only synthesized, which
    # needs no Gram, and makes no check
    monkeypatch.delenv("YPQWAVE_CACHE_DIR", raising=False)
    lines = [line for line in CONFIG_TEMPLATE.splitlines()
             if preset == "none" or not line.startswith("phi0_coef")]
    cfg = "\n".join(lines + ["M = 500.0", f"preset = {preset}",
                             f"out_dir = {tmp_path / 'out'}", ""])
    path = tmp_path / "run.cfg"
    path.write_text(cfg.replace("M = 1.0\n", ""))
    if preset == "none":
        assert run(["propagate", "--config", str(path)]) == 0
        return
    assert run(["propagate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid_x = 16 cannot resolve s1 = 0, c = 500.")
    assert "x-Gram condition number" in err


def test_cache_env_dir_named(tmp_path, capsys, monkeypatch):
    # YPQWAVE_CACHE_DIR overrides cache_dir, and its error says so
    where = tmp_path / "file" / "cache"
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("YPQWAVE_CACHE_DIR", str(where))
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEMPLATE + f"out_dir = {tmp_path / 'out'}\n"
                    + f"cache_dir = {tmp_path / 'unused'}\n")
    assert run(["propagate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: YPQWAVE_CACHE_DIR {str(where)!r}:")
    assert not (tmp_path / "unused").exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_unreadable_config(tmp_path, capsys, kind):
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(CONFIG_TEMPLATE.encode() + b"# \xff\xfe\n")
    assert run(["propagate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: --config {str(path)!r}:")


@pytest.mark.parametrize("fmt", ["csv", "npz"])
def test_unwritable_field_file_names_out_dir(tmp_path, capsys, fmt):
    # a field file that cannot be opened for writing (a directory of its
    # name) ends in the same error line in either format
    out_dir = tmp_path / "out"
    (out_dir / f"field_t0.{fmt}").mkdir(parents=True)
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEMPLATE.replace("out_format = csv",
                                            f"out_format = {fmt}")
                    + f"out_dir = {out_dir}\n")
    assert run(["propagate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: out_dir {str(out_dir)!r}:")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_propagate_write_failure_names_out_dir(tmp_path, capsys):
    # the open succeeds, the write fails (ENOSPC): still a YpqError
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "energy_trace.csv").symlink_to("/dev/full")
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEMPLATE + f"out_dir = {out_dir}\n")
    assert run(["propagate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: out_dir {str(out_dir)!r}:")


class TestCache:
    def test_hit_skips_solver(self, tmp_path, gp23):
        prob = radial_problem(gp23, 1, 0, 2.0)
        calls = {"n": 0}

        def solve():
            calls["n"] += 1
            return solve_radial(prob, 1, 16)

        key = CacheKey(p=2, q=3, m=1, l=0,
                       lambda_cap=2.0, n_basis=16)
        first = cache_get_or_solve(key, solve, str(tmp_path), min_modes=2)
        second = cache_get_or_solve(key, solve, str(tmp_path), min_modes=2)
        assert calls["n"] == 1
        for a, b in zip(first, second):
            assert a.ell == b.ell
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_distinct_nbasis_entries(self, tmp_path, gp23):
        prob = radial_problem(gp23, 1, 0, 2.0)
        k16 = CacheKey(p=2, q=3, m=1, l=0,
                       lambda_cap=2.0, n_basis=16)
        k20 = CacheKey(p=2, q=3, m=1, l=0,
                       lambda_cap=2.0, n_basis=20)
        assert k16.filename() != k20.filename()
        cache_get_or_solve(k16, lambda: solve_radial(prob, 1, 16),
                           str(tmp_path), min_modes=2)
        cache_get_or_solve(k20, lambda: solve_radial(prob, 1, 20),
                           str(tmp_path), min_modes=2)
        assert len(list(tmp_path.iterdir())) == 2

    def test_corruption_recovery(self, tmp_path, gp23):
        prob = radial_problem(gp23, 0, 1, 2.0)
        key = CacheKey(p=2, q=3, m=0, l=1,
                       lambda_cap=2.0, n_basis=16)
        fresh = cache_get_or_solve(key, lambda: solve_radial(prob, 1, 16),
                                   str(tmp_path), min_modes=2)
        path = tmp_path / key.filename()
        path.write_text(path.read_text().replace('"checksum"', '"chekcsum"'))
        with pytest.warns(UserWarning, match="re-solving"):
            again = cache_get_or_solve(key, lambda: solve_radial(prob, 1, 16),
                                       str(tmp_path), min_modes=2)
        for a, b in zip(fresh, again):
            assert a.ell == b.ell

    @pytest.mark.parametrize("bad", ["truncated", "no modes", "key"])
    def test_unreadable_entry_is_resolved(self, tmp_path, gp23, bad):
        # a file cut short, a payload without its modes (checksummed
        # afresh) and an entry of another key: each warns, is re-solved
        # and is overwritten by a good entry
        prob = radial_problem(gp23, 1, 0, 2.0)
        key = CacheKey(p=2, q=3, m=1, l=0, lambda_cap=2.0, n_basis=16)
        fresh = cache_get_or_solve(key, lambda: solve_radial(prob, 1, 16),
                                   str(tmp_path), min_modes=2)
        path = tmp_path / key.filename()
        entry = json.loads(path.read_text())
        if bad == "no modes":
            entry["payload"] = {"geometry": {}}
            entry["checksum"] = cache._payload_checksum(entry["payload"])
        elif bad == "key":
            entry["key"] = entry["key"].replace('"m": 1', '"m": 2')
        text = json.dumps(entry)
        path.write_text(text[:-40] if bad == "truncated" else text)
        with pytest.warns(UserWarning, match="unusable .*re-solving"):
            again = cache_get_or_solve(key, lambda: solve_radial(prob, 1, 16),
                                       str(tmp_path), min_modes=2)
        assert [md.ell for md in again] == [md.ell for md in fresh]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache_get_or_solve(key, pytest.fail, str(tmp_path), min_modes=2)

    def test_entry_holds_only_eigenpairs(self, tmp_path, gp23):
        # no geometry and no problem: the key names them
        prob = radial_problem(gp23, 1, 0, 2.0)
        key = CacheKey(p=2, q=3, m=1, l=0, lambda_cap=2.0, n_basis=16)
        cache_get_or_solve(key, lambda: solve_radial(prob, 2, 16),
                           str(tmp_path), min_modes=3)
        entry = json.loads((tmp_path / key.filename()).read_text())
        assert set(entry) == {"key", "checksum", "payload"}
        assert set(entry["payload"]) == {"modes"}
        assert [set(md) for md in entry["payload"]["modes"]] == [
            {"k", "ell", "coeffs", "grid_norm_residual"}] * 3
        assert [md["k"] for md in entry["payload"]["modes"]] == [0, 1, 2]

    @pytest.mark.parametrize("pq, m, l, lam", [((2, 3), 1, 0, 2.0),
                                               ((3, 4), 1, -1, 8.0)])
    def test_hit_rebuilds_problem_from_key(self, tmp_path, pq, m, l, lam):
        # a hit's problem is the one the key's labels name, and its
        # eigenpairs are bitwise a fresh solve's
        prob = radial_problem(solve_geometry(*pq), m, l, lam)
        key = CacheKey(p=pq[0], q=pq[1], m=m, l=l, lambda_cap=lam,
                       n_basis=20)
        cache_get_or_solve(key, lambda: solve_radial(prob, 2, 20),
                           str(tmp_path), min_modes=3)
        hit = cache_get_or_solve(key, pytest.fail, str(tmp_path),
                                 min_modes=3)
        fresh = solve_radial(prob, 2, 20)
        assert len(hit) == len(fresh) == 3
        for a, b in zip(hit, fresh):
            assert a.problem == prob
            assert (a.k, a.ell, a.grid_norm_residual) == (
                b.k, b.ell, b.grid_norm_residual)
            assert a.coeffs.tobytes() == b.coeffs.tobytes()

    @pytest.mark.parametrize("version", ["galerkin-jacobi-1",
                                         "galerkin-jacobi-2",
                                         "galerkin-jacobi-3",
                                         "galerkin-jacobi-4",
                                         "galerkin-jacobi-5",
                                         "galerkin-jacobi-6"])
    def test_old_solver_version_is_a_plain_miss(self, tmp_path, gp23,
                                                version):
        # an entry of an earlier discretization (coefficients in another
        # basis), geometry (bisection constants), norm check (a finer
        # rule), entry format (geometry and problem stored with the
        # eigenpairs), eigensolver (scipy's, other bits) or derivative
        # rule weights (a log-gamma mu0 ratio) is re-solved without a
        # corruption warning, and kept
        prob = radial_problem(gp23, 1, 0, 2.0)
        old = CacheKey(p=2, q=3, m=1, l=0, lambda_cap=2.0, n_basis=16,
                       solver_version=version)
        cache_get_or_solve(old, lambda: solve_radial(prob, 1, 16),
                           str(tmp_path), min_modes=2)
        calls = {"n": 0}

        def solve():
            calls["n"] += 1
            return solve_radial(prob, 1, 16)

        key = CacheKey(p=2, q=3, m=1, l=0, lambda_cap=2.0, n_basis=16)
        assert key.solver_version != old.solver_version
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache_get_or_solve(key, solve, str(tmp_path), min_modes=2)
        assert calls["n"] == 1
        assert {path.name for path in tmp_path.iterdir()} == {
            old.filename(), key.filename()}

    def test_propagate_keys_one_sign_per_pair(self, tmp_path, capsys):
        # a run writes one entry per (m, l, Lambda) with (m, l) the larger
        # of its sign pair; an entry under the other sign is never read
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        planted = cache_dir / CacheKey(
            p=2, q=3, m=-1, l=0, lambda_cap=angular_eigenvalue(0, -1, 0),
            n_basis=16).filename()
        planted.write_text("not an entry")
        outs = []
        for tag in ("cold", "warm"):
            out_dir = tmp_path / tag
            path = tmp_path / f"{tag}.cfg"
            path.write_text(CONFIG_TEMPLATE + "m_max = 1\nl_max = 1\n"
                            + f"out_dir = {out_dir}\ncache_dir = {cache_dir}\n")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run(["propagate", "--config", str(path)]) == 0
            capsys.readouterr()
            assert caught == []
            outs.append({name: (out_dir / name).read_bytes()
                         for name in os.listdir(out_dir)})
        assert outs[0] == outs[1]
        assert planted.read_text() == "not an entry"
        keys = set()
        for entry in cache_dir.iterdir():
            if entry != planted:
                key = json.loads(json.loads(entry.read_text())["key"])
                keys.add((key["m"], key["l"], key["lambda_cap"]))
        gp = solve_geometry(2, 3)
        want = {(*max((i.m, i.l), (-i.m, -i.l)),
                 f"{angular_eigenvalue(i.n, i.m, i.j):.15g}")
                for i in enumerate_modes(gp, TruncationPolicy(1, 1, 1, 0, 0))}
        assert keys == want
        assert len(os.listdir(cache_dir)) == len(want) + 1

    def test_canonical_lambda_digits(self):
        k1 = CacheKey(p=2, q=3, m=0, l=0,
                      lambda_cap=2.0, n_basis=16)
        k2 = CacheKey(p=2, q=3, m=0, l=0,
                      lambda_cap=2.0 + 1e-17, n_basis=16)
        assert k1.canonical() == k2.canonical()


@pytest.mark.parametrize("check", [lambda: (False, "planted failure"),
                                   lambda: 1 / 0], ids=["fails", "raises"])
def test_selftest_failing_check_exit_1(monkeypatch, capsys, check):
    # a check that fails or raises is a FAIL line, and selftest exits 1
    monkeypatch.setattr(selftest, "CHECKS",
                        [(1, "planted", check), selftest.CHECKS[-1]])
    assert run(["selftest"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL  planted") == 1 and "PASS  serialization" in out
    assert "FAILED: 1/2 checks passed" in out
