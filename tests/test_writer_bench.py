"""Micro-benchmark of the field writer, `cli._write_sample`, in both
of its formats: CSV, formatted one x slab at a time, and npz, one
uncompressed `np.savez` of the sector arrays.

Two fields on the same writer: one repetitive like a `propagate_csv`
run (grid 6 x 4 x 4 x 6 x 6; a sector constant but in x, two constant
in theta1 and theta2, one with every value distinct) and one with
every value distinct on two 43,200-point x slabs.  In the suite each
field and format runs one round; pytest-benchmark reports its time.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from ypqwave import cli
from ypqwave.ads import Sector
from ypqwave.specfun import QuadratureRule

pytest.importorskip("pytest_benchmark")


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _repetitive(rng):
    shape = (6, 4, 4, 6, 6)
    nx, n1, n2, nth, ny = shape
    ones = np.ones(shape)
    return shape, {
        Sector(0, -1, 0, 0): ones * _complex(rng, (nx, 1, 1, nth, ny)),
        Sector(0, 0, 0, 0): ones * _complex(rng, (nx, 1, 1, 1, 1)),
        Sector(0, 1, 0, 0): ones * _complex(rng, (nx, 1, 1, nth, ny)),
        Sector(1, 0, 0, 0): _complex(rng, shape)}


def _distinct(rng):
    shape = (2, 12, 12, 15, 20)
    return shape, {Sector(0, 0, 0, 0): _complex(rng, shape)}


@pytest.mark.parametrize("fmt", ["csv", "npz"])
@pytest.mark.parametrize("field", [_repetitive, _distinct],
                         ids=["repetitive", "distinct"])
def test_write_sample(benchmark, tmp_path, field, fmt):
    shape, values = field(np.random.default_rng(7))
    grid = [QuadratureRule(np.linspace(0.1, 1.0, n), np.ones(n))
            for n in shape]
    sample = SimpleNamespace(t=0.0, tail_norm=0.0, values=values)
    cfg = SimpleNamespace(out_format=fmt, out_dir=str(tmp_path))
    rows = benchmark.pedantic(cli._write_sample,
                              args=(cfg, grid, sample, f"field_t0.{fmt}"),
                              rounds=1, iterations=1)
    assert rows == len(values) * np.prod(shape)
