"""Micro-benchmark of one Duhamel evolution,
`KGPropagator.evolve_inhomogeneous`, on the `duhamel_source` benchmark's
truncation: 3,600 keys (beta, i) of spectral data, and a source on 4 of
them sampled at T = 0, 0.5, 1, 1.5 and 2.  In the suite the evolution
runs one round; pytest-benchmark reports its time.
"""

import numpy as np
import pytest

from ypqwave.ads import SpectralCoefficients
from ypqwave.propagator import CauchyData, SourceTerm

pytest.importorskip("pytest_benchmark")


def test_evolve_inhomogeneous(benchmark, duhamel_prop):
    prop = duhamel_prop
    keys = prop._keys
    assert len(keys) == 3600
    rng = np.random.default_rng(3201)
    data = CauchyData(*(SpectralCoefficients(dict(zip(
        keys, (rng.normal(size=3600) + 1j * rng.normal(size=3600)).tolist())))
        for _ in range(2)))
    src_keys = keys[::900]
    times = [0.0, 0.5, 1.0, 1.5, 2.0]
    source = SourceTerm(times, [SpectralCoefficients(
        {key: complex(*rng.normal(size=2)) for key in src_keys})
        for _ in times])
    t = 1.8
    got = benchmark.pedantic(prop.evolve_inhomogeneous,
                             args=(data, source, t),
                             kwargs={"synthesize_values": False},
                             rounds=1, iterations=1)
    free = prop.evolve(data, t, synthesize_values=False)
    # the Duhamel part moves the source keys and leaves every other
    # coefficient bitwise the homogeneous one
    for name in ("coefficients", "velocity"):
        g, f = getattr(got, name).entries, getattr(free, name).entries
        assert list(g) == list(f) == keys
        moved = [key for key in keys
                 if np.array(g[key]).tobytes() != np.array(f[key]).tobytes()]
        assert moved == src_keys
