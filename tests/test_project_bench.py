"""Micro-benchmark of the grid projection, `ads.project_cauchy`, on a
field shaped like the `grid_roundtrip` benchmark's: grid 16 x 8 x 8 x
8 x 16, s1 <= 2, n in -1..1 and k, j in {0, 1}, so 15 sectors of 4, 12
or 24 betas, each sector on 4 Y^{p,q} modes (4 distinct angular rows).
In the suite the projection runs one round; pytest-benchmark reports
its time.
"""

import numpy as np
import pytest

from ypqwave.ads import SpectralCoefficients, project_cauchy, synthesize
from ypqwave.geometry import solve_geometry
from ypqwave.propagator import KGPropagator, TruncationSpec

pytest.importorskip("pytest_benchmark")


def test_project_cauchy(benchmark):
    trunc = TruncationSpec(s1_max=2, n_max=1, m_max=0, l_max=0, k_max=1,
                           j_max=1, i_max=3, n_basis=20,
                           grid_shape=(16, 8, 8, 8, 16))
    prop = KGPropagator(solve_geometry(2, 3), M=1.0, kappa=1.0, trunc=trunc)
    rng = np.random.default_rng(7)
    want = (rng.standard_normal((len(prop.betas), trunc.i_max + 1))
            + 1j * rng.standard_normal((len(prop.betas), trunc.i_max + 1)))
    data = synthesize(SpectralCoefficients(
        {(beta, i): v for beta, row in zip(prop.betas, want)
         for i, v in enumerate(row)}), prop.table)
    by_sector = {}
    for beta in prop.betas:
        by_sector.setdefault(beta.sector, set()).add(beta)
    assert len(data) == 15
    assert sorted({len(betas) for betas in by_sector.values()}) == [4, 12, 24]
    assert all(len({beta[3:] for beta in betas}) == 4
               for betas in by_sector.values())
    got, norm_sq = benchmark.pedantic(project_cauchy,
                                      args=(data, prop.betas, prop.table),
                                      rounds=1, iterations=1)
    assert np.abs(got - want).max() < 1e-10
    assert norm_sq > 0.0
