"""Evolution diagnostics: trig identities are the oracles for energy
conservation, reflection, composition and the Duhamel term."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from ypqwave.ads import (ArrayMap, ModeIndex, Sector, SpectralCoefficients,
                        synthesize)
from ypqwave.cli import _build_data
from ypqwave.config import parse_config
from ypqwave.errors import GridMismatch, OutOfRange, SourceCoverage
from ypqwave.propagator import (CauchyData, KGPropagator, Projection,
                                SourceTerm, TruncationSpec, TruncationWarning,
                                _abs_sq, _duhamel, _gtsv, _not_a_knot,
                                enumerate_beta)


@pytest.fixture(scope="module")
def prop(gp23):
    trunc = TruncationSpec(s1_max=1, n_max=1, m_max=0, l_max=0, k_max=1,
                           j_max=1, i_max=4, n_basis=20,
                           grid_shape=(32, 8, 8, 10, 32))
    return KGPropagator(gp23, M=1.0, kappa=1.0, trunc=trunc)


@pytest.fixture()
def random_data(prop):
    rng = np.random.default_rng(21)
    a0, a1 = SpectralCoefficients(), SpectralCoefficients()
    for beta in prop.betas[::5]:
        for i in (0, 2):
            a0[(beta, i)] = complex(rng.normal(), rng.normal())
            a1[(beta, i)] = complex(rng.normal(), rng.normal())
    return CauchyData(a0, a1)


class TestEvolve:
    def test_t0_reproduces_data(self, prop, random_data):
        sample = prop.evolve(random_data, 0.0, synthesize_values=False)
        for key, v in random_data.phi0.items():
            assert sample.coefficients[key] == pytest.approx(v, abs=1e-15)
        for key, v in random_data.phi1.items():
            assert sample.velocity[key] == pytest.approx(v, abs=1e-15)

    def test_time_derivative_at_zero(self, prop, random_data):
        eps = 1e-6
        plus = prop.evolve(random_data, eps, synthesize_values=False)
        minus = prop.evolve(random_data, -eps, synthesize_values=False)
        for key, v in random_data.phi1.items():
            fd = (plus.coefficients[key] - minus.coefficients[key]) / (2 * eps)
            assert fd == pytest.approx(v, rel=1e-8, abs=1e-8)

    def test_single_mode_closed_form(self, prop):
        beta = prop.betas[0]
        a0 = SpectralCoefficients()
        a0[(beta, 0)] = 1.0
        data = CauchyData(a0, SpectralCoefficients())
        om = prop.omega((beta, 0))
        for t in (0.7, 2.9):
            sample = prop.evolve(data, t, synthesize_values=False)
            assert sample.coefficients[(beta, 0)] == pytest.approx(
                math.cos(t * math.sqrt(om)), rel=1e-14)

    def test_composition(self, prop, random_data):
        t1, t2 = 1.7, 2.9
        s1 = prop.evolve(random_data, t1, synthesize_values=False)
        s12 = prop.evolve(CauchyData(s1.coefficients, s1.velocity), t2,
                          synthesize_values=False)
        direct = prop.evolve(random_data, t1 + t2, synthesize_values=False)
        for key in direct.coefficients.entries:
            assert abs(s12.coefficients[key]
                       - direct.coefficients[key]) < 1e-12

    def test_grid_data_roundtrip_and_values(self, prop):
        beta = prop.betas[0]
        coeffs = SpectralCoefficients()
        coeffs[(beta, 1)] = 0.6 + 0.2j
        grids = synthesize(coeffs, prop.table)
        zeros = {sec: np.zeros_like(arr) for sec, arr in grids.items()}
        data = CauchyData(grids, zeros)
        om = prop.omega((beta, 1))
        t = 1.1
        sample = prop.evolve(data, t)
        assert sample.values is not None
        factor = math.cos(t * math.sqrt(om))
        for sec, arr in sample.values.items():
            assert np.allclose(arr, factor * grids[sec], atol=1e-12)


class TestEnergy:
    def test_single_mode_energy(self, prop):
        beta = prop.betas[0]
        a0 = SpectralCoefficients()
        a0[(beta, 0)] = 1.0
        energies = prop.mode_energy(CauchyData(a0, SpectralCoefficients()))
        om = prop.omega((beta, 0))
        assert energies[(beta, 0)] == pytest.approx(om, rel=1e-15)
        assert all(v == 0.0 for k, v in energies.items() if k != (beta, 0))

    def test_zero_data(self, prop):
        energies = prop.mode_energy(
            CauchyData(SpectralCoefficients(), SpectralCoefficients()))
        assert all(v == 0.0 for v in energies.values())

    def test_conservation(self, prop, random_data):
        e0 = prop.mode_energy(random_data)
        for t in range(11):
            st = prop.evolve(random_data, float(t), synthesize_values=False)
            et = prop.mode_energy(CauchyData(st.coefficients, st.velocity))
            for key, ref in e0.items():
                if ref > 0.0:
                    assert abs(et[key] - ref) / ref < 1e-12

    def test_energy_of_evolved_state(self, prop, random_data):
        # per_mode_energy is the energy of the sample's own state, so a
        # trace of it over times shows any evolution error
        one = SpectralCoefficients({(prop.betas[1], 2): 0.5 - 1.0j})
        src = SourceTerm(np.linspace(0.0, 3.0, 4), [one] * 4)
        samples = [prop.evolve(random_data, 2.2, synthesize_values=False),
                   prop.evolve_inhomogeneous(random_data, src, 2.2,
                                             synthesize_values=False)]
        for sample in samples:
            keys = sample.coefficients.entries.keys()
            assert sample.per_mode_energy.keys() == keys
            for key in keys:
                want = (abs(sample.velocity[key]) ** 2 + prop.omega(key)
                        * abs(sample.coefficients[key]) ** 2)
                assert sample.per_mode_energy[key] == want

    def test_scaled_pair_norm_preserved(self, prop, random_data):
        # |a1/sqrt(Omega)|^2 + |a0|^2 is the conserved quantity per mode
        def pair_norm(a0, a1):
            out = {}
            for key in set(a0.entries) | set(a1.entries):
                om = prop.omega(key)
                out[key] = abs(a1[key]) ** 2 / om + abs(a0[key]) ** 2
            return out

        ref = pair_norm(random_data.phi0, random_data.phi1)
        st = prop.evolve(random_data, 6.3, synthesize_values=False)
        now = pair_norm(st.coefficients, st.velocity)
        for key, v in ref.items():
            if v > 0.0:
                assert now[key] == pytest.approx(v, rel=1e-12)


class TestReflection:
    def test_even_data_exact(self, prop):
        a0 = SpectralCoefficients()
        a0[(prop.betas[0], 0)] = 1.0 + 0.5j
        data = CauchyData(a0, SpectralCoefficients())
        assert prop.check_reflection(data, 4.1) == 0.0

    def test_t_zero(self, prop, random_data):
        assert prop.check_reflection(random_data, 0.0) == 0.0

    def test_random_data(self, prop, random_data):
        assert prop.check_reflection(random_data, 2.6) < 1e-12


def _random_source(prop, rng, times) -> SourceTerm:
    """Random coefficients for i = 1 on the first three betas."""
    slices = []
    for _ in times:
        c = SpectralCoefficients()
        for beta in prop.betas[:3]:
            c[(beta, 1)] = complex(rng.normal(), rng.normal())
        slices.append(c)
    return SourceTerm(times, slices)


class TestInhomogeneous:
    def test_zero_source_matches_homogeneous(self, prop, random_data):
        zero = SpectralCoefficients()
        src = SourceTerm(np.linspace(0.0, 5.0, 6), [zero] * 6)
        si = prop.evolve_inhomogeneous(random_data, src, 4.0,
                                       synthesize_values=False)
        sh = prop.evolve(random_data, 4.0, synthesize_values=False)
        for key in sh.coefficients.entries:
            assert abs(si.coefficients[key] - sh.coefficients[key]) < 1e-14

    def test_constant_source_closed_form(self, prop):
        beta = prop.betas[0]
        one = SpectralCoefficients()
        one[(beta, 0)] = 1.0
        src = SourceTerm(np.linspace(0.0, 6.0, 9), [one] * 9)
        zero = CauchyData(SpectralCoefficients(), SpectralCoefficients())
        om = prop.omega((beta, 0))
        for t in (1.3, 4.8):
            si = prop.evolve_inhomogeneous(zero, src, t,
                                           synthesize_values=False)
            expect = (1.0 - math.cos(t * math.sqrt(om))) / om
            assert abs(si.coefficients[(beta, 0)] - expect) < 1e-10

    def test_linearity(self, prop):
        rng = np.random.default_rng(33)
        times = np.linspace(0.0, 3.0, 7)
        zero = CauchyData(SpectralCoefficients(), SpectralCoefficients())
        s_a = _random_source(prop, rng, times)
        s_b = _random_source(prop, rng, times)
        s_ab = SourceTerm(times, [
            SpectralCoefficients({k: a[k] + b[k]
                                  for k in set(a.entries) | set(b.entries)})
            for a, b in zip(s_a.slices, s_b.slices)])
        t = 2.4
        ra = prop.evolve_inhomogeneous(zero, s_a, t, synthesize_values=False)
        rb = prop.evolve_inhomogeneous(zero, s_b, t, synthesize_values=False)
        rab = prop.evolve_inhomogeneous(zero, s_ab, t, synthesize_values=False)
        for key in rab.coefficients.entries:
            expect = ra.coefficients[key] + rb.coefficients[key]
            assert abs(rab.coefficients[key] - expect) < 1e-12

    def test_gridded_slices_match_spectral(self, prop):
        # the slices of test_linearity, synthesized onto the sector grids
        times = np.linspace(0.0, 3.0, 7)
        zero = CauchyData(SpectralCoefficients(), SpectralCoefficients())
        src = _random_source(prop, np.random.default_rng(33), times)
        gridded = SourceTerm(times, [synthesize(c, prop.table)
                                     for c in src.slices])
        t = 2.4
        spec = prop.evolve_inhomogeneous(zero, src, t, synthesize_values=False)
        grid = prop.evolve_inhomogeneous(zero, gridded, t,
                                         synthesize_values=False)
        keys = grid.coefficients.entries.keys()
        assert spec.coefficients.entries.keys() <= keys
        for key in keys:
            assert abs(grid.coefficients[key] - spec.coefficients[key]) < 1e-12
            assert abs(grid.velocity[key] - spec.velocity[key]) < 1e-12

    def test_one_slice_at_t0(self, prop, random_data):
        key = (prop.betas[4], 3)
        src = SourceTerm([0.0], [SpectralCoefficients({key: 2.0 - 1.0j})])
        si = prop.evolve_inhomogeneous(random_data, src, 0.0,
                                       synthesize_values=False)
        sh = prop.evolve(random_data, 0.0, synthesize_values=False)
        assert si.coefficients.entries.keys() == (
            sh.coefficients.entries.keys() | {key})
        for k in si.coefficients.entries:
            assert si.coefficients[k] == sh.coefficients[k]
            assert si.velocity[k] == sh.velocity[k]

    def test_source_coverage_guard(self, prop, random_data):
        src = SourceTerm(np.linspace(0.0, 1.0, 3),
                         [SpectralCoefficients()] * 3)
        with pytest.raises(SourceCoverage):
            prop.evolve_inhomogeneous(random_data, src, 2.0)

    @pytest.mark.parametrize("times", [[0.0, 1e-310, 2e-310, 1.0],
                                       [0.0, 5e-324, 1e-323, 1.0],
                                       [0.0, 1e-200, 2e-200, 3e-200, 1.0]])
    def test_stamps_too_close_for_the_spline(self, prop, random_data, times):
        # increasing stamps whose spacings underflow in the spline's slope
        # system: a zero pivot, once a raw LinAlgError
        unit = SpectralCoefficients({(prop.betas[0], 0): 1.0})
        src = SourceTerm(times, [unit] * len(times))
        with pytest.raises(SourceCoverage, match=re.escape(
                f"source time stamps {times} are too close together")):
            prop.evolve_inhomogeneous(random_data, src, 1.0)

    def test_stamps_overflowing_the_spline(self, prop, random_data):
        key = (prop.betas[0], 0)
        src = SourceTerm([0.0, 1e-300, 1.0],
                         [SpectralCoefficients({key: T}) for T in (1, 2, 0)])
        with pytest.raises(OutOfRange, match="overflows a double"):
            prop.evolve_inhomogeneous(random_data, src, 1.0)

    def test_empty_source_rejected(self):
        # it used to reach evolve_inhomogeneous and fail there on times[0]
        with pytest.raises(SourceCoverage, match="at least one"):
            SourceTerm([], [])


def _quad_duhamel(times, vals, om, t):
    """Duhamel displacement and velocity of the not-a-knot spline through
    vals by adaptive quadrature, split at the knots."""
    spline = CubicSpline(times, vals)
    ro = math.sqrt(om)
    knots = [T for T in times if min(0.0, t) < T < max(0.0, t)]
    out = []
    for kernel in (lambda T: np.sin((t - T) * ro) / ro,
                   lambda T: np.cos((t - T) * ro)):
        parts = [quad(lambda T: part(kernel(T) * spline(T)), 0.0, t,
                      points=knots or None, limit=len(knots) + 100,
                      epsabs=1e-13, epsrel=1e-13)[0]
                 for part in (np.real, np.imag)]
        out.append(complex(*parts))
    return out


class TestDuhamelMoments:
    """The exact spline moments against quadrature of the same spline for
    the smooth non-polynomial source e^{i nu T}."""

    NU = 1.7

    def _check(self, prop, times, t):
        key = (prop.betas[2], 1)
        vals = np.exp(1j * self.NU * times) * (0.5 - 0.3j)
        src = SourceTerm(times, [SpectralCoefficients({key: v})
                                 for v in vals])
        zero = CauchyData(SpectralCoefficients(), SpectralCoefficients())
        si = prop.evolve_inhomogeneous(zero, src, t, synthesize_values=False)
        want_a, want_v = _quad_duhamel(times, vals, prop.omega(key), t)
        assert abs(si.coefficients[key] - want_a) < 1e-12
        assert abs(si.velocity[key] - want_v) < 1e-12

    @pytest.mark.parametrize("t", [-2.3, 0.37, 2.9])
    def test_non_uniform_knots(self, prop, t):
        rng = np.random.default_rng(8)
        times = np.sort(np.concatenate([[-3.0, 3.5],
                                        rng.uniform(-3.0, 3.5, 12)]))
        # 0.37 falls between knots
        assert not np.any(np.isclose(times, t))
        self._check(prop, times, t)

    def test_many_slices(self, prop):
        # omega h < 0.1, where the moments of neighbouring pieces cancel
        times = np.linspace(-1.0, 2.5, 801)
        assert math.sqrt(prop.omega((prop.betas[2], 1))) * (
            times[1] - times[0]) < 0.1
        self._check(prop, times, 2.2)



@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 40])
@pytest.mark.parametrize("tail", [(), (3,)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_not_a_knot_is_cubic_spline(n, tail, dtype):
    # irregular knots; the 2-knot chord and the 3-knot parabola included
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.05, 2.0, n)) - 1.5
    y = rng.normal(size=(n, *tail)) * 10.0 ** rng.uniform(-4, 4, (n, *tail))
    if dtype is complex:
        y = y + 1j * rng.normal(size=y.shape)
    c = _not_a_knot(x, y)
    ref = CubicSpline(x, y, axis=0).c
    assert c.dtype == ref.dtype and c.shape == ref.shape
    assert c.tobytes() == ref.tobytes()


def test_not_a_knot_three_knots_one_complex_column():
    # numpy's gesv and scipy's getrf + getrs round the one-column complex
    # parabola differently in the last bits, so 500 seeded systems of
    # test_not_a_knot_is_cubic_spline's make-up are held to 1e-13 of the
    # largest coefficient, a bound fixed before measuring
    worst, moved = 0.0, 0
    for seed in range(500):
        rng = np.random.default_rng([3, seed])
        x = np.cumsum(rng.uniform(0.05, 2.0, 3)) - 1.5
        y = (rng.normal(size=(3, 1)) * 10.0 ** rng.uniform(-4, 4, (3, 1))
             + 1j * rng.normal(size=(3, 1)))
        ref, c = CubicSpline(x, y, axis=0).c, _not_a_knot(x, y)
        moved += c.tobytes() != ref.tobytes()
        worst = max(worst, np.abs(c - ref).max() / np.abs(ref).max())
    print(f"{moved} of 500 not bitwise, largest move {worst:.2e} of the "
          "largest coefficient")
    assert worst <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 31])
@pytest.mark.parametrize("cols", [1, 5])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("swap_first", [False, True])
def test_gtsv_is_solve_banded(n, cols, dtype, swap_first):
    # general tridiagonal systems, both pivoting branches taken; with
    # |dl_0| > |d_0| the first step swaps rows, and for n = 2 that first
    # step is also the last row's (k == n - 2)
    rng = np.random.default_rng([n, cols, swap_first])
    ab = rng.normal(size=(3, n)) * 10.0 ** rng.uniform(-3, 3, (3, n))
    ab[0, 0] = ab[2, -1] = 0.0
    if swap_first:
        ab[2, 0] = 10.0 * abs(ab[1, 0]) + 1.0
    rhs = rng.normal(size=(n, cols))
    if dtype is complex:
        rhs = rhs + 1j * rng.normal(size=rhs.shape)
    ref = solve_banded((1, 1), ab, rhs)
    got = rhs.copy()
    _gtsv(ab[2, :-1].tolist(), ab[1].tolist(), ab[0, 1:].tolist(),
          got.view(float))
    assert got.tobytes() == ref.tobytes()


def _assert_same_sample(a, b):
    """Two FieldSamples agree bitwise."""
    assert (a.t, a.tail_norm) == (b.t, b.tail_norm)
    assert a.coefficients.entries == b.coefficients.entries
    assert a.velocity.entries == b.velocity.entries
    assert a.per_mode_energy == b.per_mode_energy
    assert (a.values is None) == (b.values is None)
    assert (a.values or {}).keys() == (b.values or {}).keys()
    for sec, arr in (a.values or {}).items():
        assert np.array_equal(arr, b.values[sec])


def _evolved(omega, a0, a1, t):
    """(a, a', E) of the homogeneous evolution, by the arithmetic of a
    propagator that took sqrt(Omega) afresh on every call."""
    ro = np.sqrt(omega)
    c, s = np.cos(t * ro), np.sin(t * ro)
    at, vt = c * a0 + s / ro * a1, -ro * s * a0 + c * a1
    return at, vt, _abs_sq(vt) + omega * _abs_sq(at)


def _bits(values) -> bytes:
    return np.array(list(values), dtype=complex).tobytes()


class TestSampleMaps:
    """A sample's three maps are read-only views of the evolved arrays,
    each building its dict on first read."""

    @staticmethod
    def _maps(sample):
        return (sample.coefficients.entries, sample.velocity.entries,
                sample.per_mode_energy)

    def test_maps_are_the_arrays_dicts(self, prop, random_data):
        # the dicts a propagator built from the arrays on every call:
        # keys in table order over the support, values bitwise
        proj = prop.project(random_data)
        flat = np.flatnonzero(proj.support)
        keys = [prop._keys[k] for k in flat]
        for t in (0.0, 1.3, -2.2):
            sample = prop.evolve(proj, t, synthesize_values=False)
            maps = self._maps(sample)
            assert all(isinstance(m, ArrayMap) and "_dict" not in vars(m)
                       for m in maps)
            for got, arr in zip(maps, _evolved(prop._omega, proj.a0,
                                               proj.a1, t)):
                want = dict(zip(keys, arr.take(flat).tolist()))
                assert list(got) == list(want) == keys
                assert got == want and len(got) == len(want)
                assert repr(got) == repr(want)
                assert _bits(got.values()) == _bits(want.values())
        energy = prop.mode_energy(proj)
        assert isinstance(energy, ArrayMap) and list(energy) == keys
        assert _bits(energy.values()) == _bits(
            _evolved(prop._omega, proj.a0, proj.a1, 0.0)[2].take(flat))

    @pytest.mark.parametrize("attr",
                             ["coefficients", "velocity", "per_mode_energy"])
    def test_rebuilt_with_a_copy(self, prop, random_data, attr):
        # benchmarks/test_checks.py perturbs a sample this way
        sample = prop.evolve(random_data, 0.8, synthesize_values=False)
        key = next(iter(random_data.phi0.entries))
        before = sample.per_mode_energy[key], sample.coefficients[key]
        copied = getattr(sample, attr).copy()
        twin = type(sample)(**{**vars(sample), attr: copied})
        assert getattr(twin, attr) is copied
        assert getattr(twin, attr) == getattr(sample, attr)
        copied[key] = copied[key] + 1.0
        assert getattr(twin, attr) != getattr(sample, attr)
        assert (sample.per_mode_energy[key],
                sample.coefficients[key]) == before

    def test_assignment_copies_first(self, prop, random_data):
        proj = prop.project(random_data)
        a0, a1 = proj.a0.copy(), proj.a1.copy()
        a, b = (prop.evolve(proj, 2.1, synthesize_values=False)
                for _ in range(2))
        view = a.coefficients.entries
        key = next(iter(view))
        old = a.coefficients[key]
        a.coefficients[key] = old + 1.0
        assert type(a.coefficients.entries) is dict
        assert a.coefficients[key] == old + 1.0 and view[key] == old
        assert a.coefficients.entries.keys() == view.keys()
        assert b.coefficients[key] == old
        assert a.velocity.entries == b.velocity.entries
        assert a.per_mode_energy == b.per_mode_energy
        assert a0.tobytes() == proj.a0.tobytes()
        assert a1.tobytes() == proj.a1.tobytes()
        again = prop.evolve(proj, 2.1, synthesize_values=False)
        assert again.coefficients.entries == b.coefficients.entries
        with pytest.raises(TypeError):
            a.per_mode_energy[key] = 0.0

    def test_only_read_maps_are_built(self, prop, random_data):
        sample = prop.evolve(random_data, 0.4, synthesize_values=False)
        key = next(iter(random_data.phi0.entries))
        assert sample.coefficients[key] != 0.0
        assert sample.coefficients[(key[0], 1)] == 0.0     # not in support
        view = sample.coefficients.entries
        assert "_dict" in vars(view) and view.get == view._dict.get
        assert "_dict" not in vars(sample.velocity.entries)
        assert "_dict" not in vars(sample.per_mode_energy)


    def test_iterating_builds_no_dict(self, prop, random_data):
        # synthesis reads the coefficients' items, a composition feeds a
        # sample back as Cauchy data, and the CLI sorts the energies'
        # items: none of them reads by key
        sample = prop.evolve(random_data, 0.6, synthesize_values=True)
        assert sample.values
        composed = prop.evolve(CauchyData(sample.coefficients,
                                          sample.velocity), 0.9,
                               synthesize_values=False)
        energies = sorted(composed.per_mode_energy.items())
        assert [key for key, _ in energies] == list(composed.per_mode_energy)
        for m in self._maps(sample) + self._maps(composed):
            assert "_dict" not in vars(m)
        assert _bits(sample.coefficients.entries.values()) == _bits(
            dict(sample.coefficients.entries.items()).values())

def test_root_table_is_bitwise_per_call_sqrt(duhamel_prop):
    # sqrt rounds each element correctly, so one table of sqrt(Omega)
    # gives the arrays a sqrt taken afresh on every call gave
    prop, omega = duhamel_prop, duhamel_prop._omega
    assert float(prop._root.max()) == math.sqrt(omega.max())
    rng = np.random.default_rng(3201)
    a0, a1 = (rng.normal(size=omega.shape) + 1j * rng.normal(size=omega.shape)
              for _ in range(2))
    proj = Projection(a0, a1, np.ones(omega.shape, dtype=bool), 0.0, False)
    times = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    touched = np.zeros(omega.shape, dtype=bool)
    touched.flat[::900] = True
    S = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    src_keys = prop._keys[::900]
    source = SourceTerm(times, [SpectralCoefficients(dict(zip(src_keys, row)))
                                for row in S.tolist()])
    t = 1.8
    sample = prop.evolve_inhomogeneous(proj, source, t,
                                       synthesize_values=False)
    at, vt, _ = _evolved(omega, a0, a1, t)
    duh, dv = _duhamel(times, S, np.sqrt(omega[touched]), t)
    at[touched] += duh
    vt[touched] += dv
    energy = _abs_sq(vt) + omega * _abs_sq(at)
    for got, want in zip(TestSampleMaps._maps(sample), (at, vt, energy)):
        assert _bits(got.values()) == want.astype(complex).tobytes()


class TestProjection:
    """One projection serves every evolution, bitwise as the CauchyData."""

    @pytest.fixture()
    def grid_data(self, prop):
        # two modes of one sector, plus grid noise whose tail is warned of
        coeffs = SpectralCoefficients({(prop.betas[0], 1): 0.6 + 0.2j,
                                       (prop.betas[1], 0): -0.3j})
        grids = synthesize(coeffs, prop.table)
        rng = np.random.default_rng(12)
        noisy = {sec: arr + rng.normal(size=arr.shape)
                 for sec, arr in grids.items()}
        return CauchyData(grids, noisy)

    @pytest.mark.parametrize("kind", ["spectral", "gridded"])
    def test_projection_evolves_as_data(self, prop, random_data, grid_data,
                                        kind):
        data = random_data if kind == "spectral" else grid_data
        src = _random_source(prop, np.random.default_rng(33),
                             np.linspace(-3.0, 3.0, 7))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            proj = prop.project(data)
            assert proj.gridded == (kind == "gridded")
            for t in (0.0, 1.3, -2.5):
                _assert_same_sample(prop.evolve(proj, t), prop.evolve(data, t))
                _assert_same_sample(
                    prop.evolve_inhomogeneous(proj, src, t),
                    prop.evolve_inhomogeneous(data, src, t))
            assert prop.mode_energy(proj) == prop.mode_energy(data)
            assert (prop.check_reflection(proj, 2.6)
                    == prop.check_reflection(data, 2.6))

    def test_tail_warned_once_per_projection(self, prop, grid_data):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            proj = prop.project(grid_data)
            for t in (0.0, 1.0, -2.5):
                prop.evolve(proj, t, synthesize_values=False)
        assert [w.category for w in caught] == [TruncationWarning]
        assert isinstance(proj, Projection) and proj.tail > 0.0


class TestNonFinite:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1e308])
    def test_time_refused(self, prop, random_data, t):
        src = SourceTerm([-1.0, 1.0], [SpectralCoefficients()] * 2)
        for call in (lambda: prop.evolve(random_data, t),
                     lambda: prop.evolve_inhomogeneous(random_data, src, t),
                     lambda: prop.check_reflection(random_data, t)):
            with pytest.raises(OutOfRange, match=re.escape(f"t = {t!r}:")):
                call()

    @pytest.mark.parametrize("times", [[math.inf], [0.0, math.nan],
                                       [-math.inf, 0.0]])
    def test_source_stamps_refused(self, times):
        with pytest.raises(SourceCoverage, match="must be finite"):
            SourceTerm(times, [SpectralCoefficients()] * len(times))

    @staticmethod
    def _source(prop, vals, gridded):
        key = (prop.betas[2], 1)
        times = np.linspace(0.0, 2.0, len(vals))
        slices = [SpectralCoefficients({key: v}) for v in vals]
        if gridded:     # the slice's value on every grid point
            unit = synthesize(SpectralCoefficients({key: 1.0}), prop.table)
            slices = [{sec: np.full_like(arr, v) for sec, arr in unit.items()}
                      for v in vals]
        return SourceTerm(times, slices)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("gridded", [False, True])
    def test_source_slice_refused(self, prop, random_data, n, bad, gridded):
        vals = [1.0] * n
        vals[n // 2] = bad
        src = self._source(prop, vals, gridded)
        stamp = src.times[n // 2]
        with pytest.raises(OutOfRange, match=re.escape(
                f"source slice at t = {stamp} has a coefficient that is "
                "not finite")):
            prop.evolve_inhomogeneous(random_data, src, src.times[-1])

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("gridded", [False, True])
    def test_overflowing_state_refused(self, prop, random_data, n, gridded):
        # each slice finite, the Duhamel state not: refused, and no
        # RuntimeWarning (an error under this suite's filters) on the way
        src = self._source(prop, [1e308] * n, gridded)
        with pytest.raises(OutOfRange, match=re.escape(
                "the state at t = 1.3 overflows a double")):
            prop.evolve_inhomogeneous(random_data, src, 1.3)


class TestValidation:
    @pytest.mark.parametrize("M,kappa", [(math.nan, 1.0), (math.inf, 1.0),
                                         (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_constant_refused(self, gp23, M, kappa):
        # kappa = inf once built a propagator with every c = 2
        trunc = TruncationSpec(0, 0, 0, 0, 0, 0, 1, n_basis=12,
                               grid_shape=(4, 4, 4, 4, 4))
        with pytest.raises(ValueError, match="need finite M >= 0"):
            KGPropagator(gp23, M, kappa, trunc)

    def test_mixed_representation(self, prop):
        sector = Sector(0, 0, 0, 0)
        grid = prop.table.grid
        with pytest.raises(GridMismatch):
            CauchyData(SpectralCoefficients(), {sector: grid.zeros()})

    def test_unknown_coefficient(self, prop):
        # one good key, a beta outside the truncation and an i past
        # i_max: the error names the first bad key in insertion order
        keys = [(prop.betas[3], 1), (ModeIndex(7, 0, 0, 0, 0, 0, 0, 0), 0),
                (prop.betas[0], prop.trunc.i_max + 1)]
        for order in [(1,), (0, 1, 2), (0, 2, 1), (2, 0, 1)]:
            a0 = SpectralCoefficients()
            for k in order:
                a0[keys[k]] = 1.0
            bad = keys[next(k for k in order if k)]
            with pytest.raises(GridMismatch, match=re.escape(
                    f"coefficient {bad} outside the truncation")):
                prop.evolve(CauchyData(a0, SpectralCoefficients()), 1.0)

    def test_plain_tuple_key_finds_its_row(self, prop, random_data):
        # a plain 8-tuple equal to a valid beta is that beta's key
        plain = SpectralCoefficients({(tuple(beta), i): v for (beta, i), v
                                      in random_data.phi0.items()})
        want = prop.evolve(random_data, 0.7)
        got = prop.evolve(CauchyData(plain, random_data.phi1), 0.7)
        assert got.coefficients.entries == want.coefficients.entries

    def test_truncation_warning(self, prop):
        rng = np.random.default_rng(5)
        sector = Sector(0, 0, 0, 0)
        grid = prop.table.grid
        rough = {sector: rng.normal(size=grid.shape) + 0j}
        zeros = {sector: grid.zeros()}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prop.evolve(CauchyData(rough, zeros), 1.0,
                        synthesize_values=False)
        assert any(issubclass(w.category, TruncationWarning) for w in caught)

    def test_truncation_warning_names_the_caller(self, prop):
        # on every path that projects, the warning points at the line
        # that called the propagator, here, not into the propagator
        rng = np.random.default_rng(5)
        sector = Sector(0, 0, 0, 0)
        grid = prop.table.grid
        data = CauchyData({sector: rng.normal(size=grid.shape) + 0j},
                          {sector: grid.zeros()})
        src = SourceTerm([0.0, 1.0], [SpectralCoefficients()] * 2)
        paths = {
            "project": lambda: prop.project(data),
            "evolve": lambda: prop.evolve(data, 1.0, synthesize_values=False),
            "evolve_inhomogeneous": lambda: prop.evolve_inhomogeneous(
                data, src, 1.0, synthesize_values=False),
            "mode_energy": lambda: prop.mode_energy(data),
            "check_reflection": lambda: prop.check_reflection(data, 1.0)}
        for name, call in paths.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [(w.category, w.filename) for w in caught] == [
                (TruncationWarning, __file__)], name

    def test_preset_tail_norm_pinned(self, gp23):
        # the gaussian_x preset on the grid of the CLI tests: the tail
        # norm, from one read of each component, keeps its last digit
        cfg = parse_config("schema_version = 1\np = 2\nq = 3\nM = 1.0\n"
                           "n_max = 1\ni_max = 2\nn_basis = 16\n"
                           "preset = gaussian_x\n")
        trunc = TruncationSpec(s1_max=0, n_max=1, m_max=0, l_max=0, k_max=0,
                               j_max=0, i_max=2, n_basis=16,
                               grid_shape=(16, 6, 6, 8, 16))
        prop = KGPropagator(gp23, M=1.0, kappa=1.0, trunc=trunc)
        with pytest.warns(TruncationWarning):
            sample = prop.evolve(_build_data(cfg, prop), 1.0,
                                 synthesize_values=False)
        assert sample.tail_norm == 0.17943351307206215


class _CountingDict(dict):
    """A dict that counts calls of its `get`."""

    calls = 0

    def get(self, *args):
        self.calls += 1
        return super().get(*args)


class TestKeyMemo:
    """A call keeps the key lists and table positions of the spectral
    components it gathered; the next call looks up only changed keys."""

    def test_second_call_looks_up_no_key(self, prop, random_data,
                                         monkeypatch):
        counting = _CountingDict(prop._flat)
        monkeypatch.setattr(prop, "_flat", counting)
        monkeypatch.setattr(prop, "_memo", {})
        first = prop.evolve(random_data, 0.9, synthesize_values=False)
        assert counting.calls == (len(random_data.phi0.entries)
                                  + len(random_data.phi1.entries))
        counting.calls = 0
        second = prop.evolve(random_data, 0.9, synthesize_values=False)
        assert counting.calls == 0
        _assert_same_sample(first, second)

    def test_second_call_is_a_fresh_first_call(self, prop, random_data):
        src = _random_source(prop, np.random.default_rng(8), [0.0, 1.0, 2.0])
        fresh = KGPropagator(prop.gp, prop.M, prop.kappa, prop.trunc)
        want = fresh.evolve_inhomogeneous(random_data, src, 1.3,
                                          synthesize_values=False)
        for _ in range(2):
            got = prop.evolve_inhomogeneous(random_data, src, 1.3,
                                            synthesize_values=False)
            assert list(got.coefficients.entries) == list(
                want.coefficients.entries)
            for a, b in zip(TestSampleMaps._maps(got),
                            TestSampleMaps._maps(want)):
                assert _bits(a.values()) == _bits(b.values())

    @pytest.mark.parametrize("change", ["replace", "move", "value"])
    def test_change_in_place_is_read(self, prop, random_data, change):
        # a replaced or moved key is looked up again; a new value is read
        entries = random_data.phi0.entries
        prop.evolve(random_data, 0.5)
        ident, size = id(entries), len(entries)
        old = next(iter(entries))
        if change == "value":
            entries[old] += 1.0
        else:
            value = entries.pop(old)
            entries[(old[0], 1) if change == "replace" else old] = value
        assert (id(entries), len(entries)) == (ident, size)
        got = prop.evolve(random_data, 0.5, synthesize_values=False)
        want = prop.evolve(CauchyData(SpectralCoefficients(dict(entries)),
                                      random_data.phi1), 0.5,
                           synthesize_values=False)
        _assert_same_sample(got, want)

    def test_key_outside_after_a_hit_refused(self, prop, random_data):
        for _ in range(2):
            prop.evolve(random_data, 1.0)
        bad = (ModeIndex(7, 0, 0, 0, 0, 0, 0, 0), 0)
        random_data.phi1[bad] = 1.0
        with pytest.raises(GridMismatch, match=re.escape(
                f"coefficient {bad} outside the truncation")):
            prop.evolve(random_data, 1.0)

    def test_plain_tuple_keys_after_a_hit(self, prop, random_data):
        # the same dict, its keys swapped for equal plain 8-tuples
        want = prop.evolve(random_data, 0.7, synthesize_values=False)
        entries = random_data.phi0.entries
        items = list(entries.items())
        entries.clear()
        entries.update(((tuple(beta), i), v) for (beta, i), v in items)
        for _ in range(2):
            got = prop.evolve(random_data, 0.7, synthesize_values=False)
            _assert_same_sample(got, want)

    def test_memo_holds_the_latest_call(self, prop):
        rng = np.random.default_rng(34)
        kept = []
        for k in range(20):
            data = CauchyData(*(SpectralCoefficients(
                {(beta, k % 3): complex(*rng.normal(size=2))
                 for beta in prop.betas[k % 4::4]}) for _ in range(2)))
            src = _random_source(prop, rng, [0.0, 1.0, 2.0])
            kept.append((data, src))    # ids stay distinct
            prop.evolve_inhomogeneous(data, src, 1.5,
                                      synthesize_values=False)
            comps = (data.phi0, data.phi1, *src.slices)
            assert set(prop._memo) == {id(c.entries) for c in comps}
            prop.evolve(data, 0.5, synthesize_values=False)
            assert set(prop._memo) == {id(data.phi0.entries),
                                       id(data.phi1.entries)}


def test_enumerate_beta_counts():
    trunc = TruncationSpec(s1_max=1, n_max=1, m_max=0, l_max=0, k_max=0,
                           j_max=0, i_max=0)
    betas = enumerate_beta(trunc)
    # (s1,s2,s3) chains for s1<=1: (0,0,0), (1,0,0), (1,1,-1), (1,1,0), (1,1,1)
    assert len(betas) == 5 * 3
