"""Package-wide consistency: every dataclass annotation resolves, every
name a module exports exists, every error type is raised somewhere,
every selftest check has one size and one acceptance criterion, and
the propagation path from geometry to output file loads no scipy module
(only a Duhamel spline of three or more slices and the shooting oracle
load scipy.linalg)."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import ypqwave
from ypqwave import errors, selftest


def test_annotations_and_exports_resolve():
    for info in pkgutil.iter_modules(ypqwave.__path__):
        module = importlib.import_module(f"ypqwave.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ lists {name}"
        for obj in vars(module).values():
            if (dataclasses.is_dataclass(obj) and isinstance(obj, type)
                    and obj.__module__ == module.__name__):
                typing.get_type_hints(obj)


def test_every_error_type_is_raised():
    raised = set()
    for path in Path(ypqwave.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute)
                           else getattr(exc, "id", None))
    declared = {name for name, obj in vars(errors).items()
                if isinstance(obj, type) and issubclass(obj, errors.YpqError)
                and obj is not errors.YpqError}
    assert declared - raised == set()


def test_selftest_checks_have_one_size_and_one_criterion():
    checks = {name: obj for name, obj in vars(selftest).items()
              if name.startswith("check_") and callable(obj)}
    assert [name for name, fn in checks.items()
            if inspect.signature(fn).parameters] == []
    # each check in one CHECKS row, each row in one criterion 1-7, and
    # each criterion with a row
    rows = selftest.CHECKS
    assert sorted(fn.__name__ for _, _, fn in rows) == sorted(checks)
    assert {criterion for criterion, _, _ in rows} == set(range(1, 8))


def test_propagation_path_leaves_out_scipy(tmp_path):
    # geometry to output file runs on numpy alone; only a Duhamel spline of
    # three or more slices and the shooting oracle, each with a LAPACK
    # driver numpy lacks, load scipy.linalg, and nothing loads
    # scipy.special, scipy.optimize or scipy.interpolate
    src = str(Path(ypqwave.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    config = tmp_path / "run.cfg"
    config.write_text(
        "schema_version = 1\np = 2\nq = 3\ni_max = 1\nn_basis = 12\n"
        "grid_x = 6\ngrid_t1 = 4\ngrid_t2 = 4\ngrid_theta = 4\ngrid_y = 6\n"
        "times = 0.0, 1.0\nphi0_coef = 0 0 0 0 0 0 0 0 0 : 1.0 : 0.5\n"
        f"out_dir = {tmp_path / 'out'}\ncache_dir = {tmp_path / 'cache'}\n")
    code = f"""
import contextlib, io, sys
import numpy as np
import ypqwave
from ypqwave import (SpectralCoefficients, build_modes, enumerate_modes,
                     radial_problem, shooting_oracle, solve_geometry)
from ypqwave.cli import run
from ypqwave.propagator import (CauchyData, KGPropagator, SourceTerm,
                                TruncationSpec)
from ypqwave.spectrum import TruncationPolicy


def loaded(*names):
    # scipy's modules, or those of its subpackages `names`
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'
                  and (not names or m.split('.')[1:2] in [[n] for n in names]))


gp = solve_geometry(2, 3)
build_modes(gp, enumerate_modes(gp, TruncationPolicy(1, 1, 1, 1, 1)), 12)
prop = KGPropagator(gp, 1.0, 1.0, TruncationSpec(
    0, 1, 0, 0, 1, 1, 1, n_basis=12, grid_shape=(6, 4, 4, 4, 6)))
key = (prop.betas[0], 1)
data = CauchyData(SpectralCoefficients({{key: 1.0}}), SpectralCoefficients())
grid = prop.evolve(data, 0.5, synthesize_values=True).values
prop.evolve(CauchyData(grid, {{s: 0.0 * a for s, a in grid.items()}}), 0.5)


def source(n):
    times = np.linspace(0.0, 1.0, n)
    return SourceTerm(times, [SpectralCoefficients({{key: 1.0 + T * T}})
                              for T in times])


prop.evolve_inhomogeneous(data, source(2), 0.7, synthesize_values=False)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in ("geometry --p 2 --q 3",
                 "spectrum --p 2 --q 3 --nmax 1 --mmax 0 --lmax 0 --kmax 1 "
                 "--jmax 1 --nbasis 12",
                 "radial --p 2 --q 3 --m 1 --l 0 --Lambda 6 --kmax 2",
                 "propagate --config {config}"):
        assert run(argv.split()) == 0, argv
print(loaded())
for n in (3, 5):
    prop.evolve_inhomogeneous(data, source(n), 0.7, synthesize_values=False)
shooting_oracle(radial_problem(gp, 0, 0, 0.0), (-1e-6, 1e-6), 0)
print(loaded('special', 'optimize', 'interpolate'), 'scipy.linalg' in loaded())
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split("\n")[:2] == ["[]", "[] True"]
