"""Micro-benchmark of one Duhamel evolution,
`KGPropagator.evolve_inhomogeneous`, on the `duhamel_source` benchmark's
truncation: 3,600 keys (beta, i) of spectral data, and a source on 4 of
them sampled at T = 0, 0.5, 1, 1.5 and 2.  Two cases: the first call on
the data, which looks up every key, and a repeated call on the same
data, which re-reads only the values.  In the suite each runs one round;
pytest-benchmark reports its time.
"""

import numpy as np
import pytest

from ypqwave.ads import SpectralCoefficients
from ypqwave.propagator import CauchyData, SourceTerm

pytest.importorskip("pytest_benchmark")

T = 1.8


def _data_and_source(prop):
    keys = prop._keys
    assert len(keys) == 3600
    rng = np.random.default_rng(3201)
    data = CauchyData(*(SpectralCoefficients(dict(zip(
        keys, (rng.normal(size=3600) + 1j * rng.normal(size=3600)).tolist())))
        for _ in range(2)))
    times = [0.0, 0.5, 1.0, 1.5, 2.0]
    source = SourceTerm(times, [SpectralCoefficients(
        {key: complex(*rng.normal(size=2)) for key in keys[::900]})
        for _ in times])
    return data, source


def _timed(benchmark, prop, data, source):
    return benchmark.pedantic(prop.evolve_inhomogeneous,
                              args=(data, source, T),
                              kwargs={"synthesize_values": False},
                              rounds=1, iterations=1)


def test_evolve_inhomogeneous(benchmark, duhamel_prop, monkeypatch):
    prop = duhamel_prop
    # no key memo from an earlier call: every key is looked up
    monkeypatch.setattr(prop, "_memo", {})
    data, source = _data_and_source(prop)
    got = _timed(benchmark, prop, data, source)
    free = prop.evolve(data, T, synthesize_values=False)
    # the Duhamel part moves the source keys and leaves every other
    # coefficient bitwise the homogeneous one
    keys, src_keys = prop._keys, prop._keys[::900]
    for name in ("coefficients", "velocity"):
        g, f = getattr(got, name).entries, getattr(free, name).entries
        assert list(g) == list(f) == keys
        moved = [key for key in keys
                 if np.array(g[key]).tobytes() != np.array(f[key]).tobytes()]
        assert moved == src_keys


def test_evolve_inhomogeneous_again(benchmark, duhamel_prop):
    prop = duhamel_prop
    data, source = _data_and_source(prop)
    first = prop.evolve_inhomogeneous(data, source, T,
                                      synthesize_values=False)
    again = _timed(benchmark, prop, data, source)
    for name in ("coefficients", "velocity"):
        a, b = getattr(again, name).entries, getattr(first, name).entries
        assert list(a) == list(b)
        assert (np.array(list(a.values())).tobytes()
                == np.array(list(b.values())).tobytes())
