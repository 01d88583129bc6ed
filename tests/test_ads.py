"""AdS-side machinery: 3-sphere harmonics, radial eigenfunctions under
the cot^3 measure, and the grid projection."""

import copy
import math
import pickle
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_gegenbauer

from ypqwave.ads import (ModeIndex, Sector, SpectralCoefficients,
                         ads_gram, ads_omegas, ads_operator_residual, c_beta,
                         project_cauchy, s3_harmonic, s3_harmonic_norm,
                         s3_laplace_residual, synthesize, ModeTable)
from ypqwave import ads, errors
from ypqwave.errors import (FieldTooLarge, GridMismatch, IndexChainError,
                            OutOfRange)
from ypqwave.propagator import TruncationSpec, enumerate_beta
from ypqwave.radial import RadialMode
from ypqwave.specfun import (QuadratureRule, assoc_legendre, gauss_jacobi,
                             gegenbauer_scale, legendre_scale,
                             rule_on_interval)
from ypqwave.spectrum import TruncationPolicy, build_modes, enumerate_modes


def _unpickled(labels):
    """What unpickling (and copy) does to rebuild a ModeIndex: the
    reconstructor of its reduction, called on `labels`."""
    zero = ModeIndex(0, 0, 0, 0, 0, 0, 0, 0)
    rebuild, args = zero.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:2]
    return rebuild(args[0], *labels)


class TestModeIndex:
    def test_chain_violation(self):
        with pytest.raises(IndexChainError):
            ModeIndex(1, 2, 0, 0, 0, 0, 0, 0)
        with pytest.raises(IndexChainError):
            ModeIndex(2, 1, -2, 0, 0, 0, 0, 0)

    def test_beta_tuple(self):
        beta = ModeIndex(3, 2, -1, 1, 0, -1, 2, 4)
        assert beta.beta == (3, 2, -1, 1, 0, -1, 2, 4)
        assert beta.sector == Sector(-1, 1, 0, -1)

    def test_hash_and_order_of_the_label_tuple(self):
        betas = enumerate_beta(TruncationSpec(
            s1_max=2, n_max=1, m_max=1, l_max=0, k_max=1, j_max=0, i_max=0))
        assert all(hash(b) == hash(b.beta) for b in betas)
        shuffled = list(betas)
        random.Random(3).shuffle(shuffled)
        assert sorted(shuffled) == sorted(betas, key=lambda b: b.beta)
        assert sorted(shuffled) == betas
        assert repr(betas[0]) == ("ModeIndex(s1=0, s2=0, s3=0, n=-1, m=-1, "
                                  "l=0, k=0, j=0)")

    def test_immutable(self):
        beta = ModeIndex(3, 2, -1, 1, 0, -1, 2, 4)
        with pytest.raises(AttributeError):
            beta.s1 = 4
        with pytest.raises(AttributeError):
            beta.extra = 0
        with pytest.raises(AttributeError):
            Sector(0, 0, 0, 0).n = 1

    def test_pickle_and_copy(self):
        beta = ModeIndex(3, 2, -1, 1, 0, -1, 2, 4)
        for twin in (pickle.loads(pickle.dumps(beta)), copy.copy(beta),
                     copy.deepcopy(beta)):
            assert twin == beta and type(twin) is ModeIndex
        sector = beta.sector
        assert pickle.loads(pickle.dumps(sector)) == sector

    @pytest.mark.parametrize("build", [
        lambda labels: ModeIndex(*labels),
        lambda labels: ModeIndex(**dict(zip(ModeIndex._fields, labels))),
        ModeIndex._make,
        lambda labels: ModeIndex(0, 0, 0, 0, 0, 0, 0, 0)._replace(
            **dict(zip(ModeIndex._fields, labels))),
        _unpickled,
    ])
    def test_chain_checked_on_every_path(self, build):
        # positional, keyword, _make, _replace and unpickling (copy too)
        # all go through __new__
        for labels in [(1, 2, 0, 0, 0, 0, 0, 0), (2, 1, -2, 0, 0, 0, 0, 0),
                       (1, 0, 0, 0, 0, 0, -1, 0)]:
            with pytest.raises(IndexChainError):
                build(labels)

    def test_plain_tuple_is_the_same_key(self):
        # the one widening of the tuple type: a plain 8-tuple equal to a
        # valid beta finds its row (a dataclass never equalled a tuple)
        beta = ModeIndex(1, 1, 0, 0, 0, 0, 0, 0)
        rows = {beta: 7}
        assert rows[(1, 1, 0, 0, 0, 0, 0, 0)] == 7
        assert beta == beta.beta and Sector(0, 0, 0, 0) == (0, 0, 0, 0)


class TestHarmonics:
    def test_constant(self):
        val = s3_harmonic(0, 0, 0, (0.7, 1.1, 3.0))
        assert val == pytest.approx(1.0 / (math.pi * math.sqrt(2)), rel=1e-14)

    def test_chain_guard(self):
        with pytest.raises(IndexChainError):
            s3_harmonic(1, 2, 0, (1.0, 1.0, 1.0))

    def test_matches_scipy_gegenbauer(self):
        rng = np.random.default_rng(5)
        for (s1, s2, s3) in [(1, 0, 0), (3, 1, -1), (4, 2, 2), (6, 3, 0)]:
            for _ in range(5):
                t1, t2, t3 = rng.uniform(0.1, 3.0, size=3)
                ref = (s3_harmonic_norm(s1, s2, s3) * math.sin(t1) ** s2
                       * eval_gegenbauer(s1 - s2, s2 + 1.0, math.cos(t1))
                       * assoc_legendre(s2, s3, math.cos(t2))
                       * complex(math.cos(s3 * t3), math.sin(s3 * t3)))
                got = s3_harmonic(s1, s2, s3, (t1, t2, t3))
                assert abs(got - ref) < 1e-13 * max(1.0, abs(ref))

    def test_factor_values_are_the_derivs_values(self):
        # each factor of Y^{s1 s2 s3}, s1 <= 4, evaluated two ways: as the
        # harmonic takes it and as the Laplace residual differentiates it
        t = np.random.default_rng(4).uniform(0.3, 2.8, 20)
        for s1 in range(5):
            for s2 in range(s1 + 1):
                r = s1 - s2
                val = ads._t1_factor(s1, s2, t)
                diff = val - ads._sin_jacobi_derivs(
                    s2, s2 + 0.5, gegenbauer_scale(s2 + 1.0, r), r, t)[0]
                assert np.abs(diff).max() <= 1e-13 * np.abs(val).max()
                for s3 in range(-s2, s2 + 1):
                    k = abs(s3)
                    val = assoc_legendre(s2, s3, np.cos(t))
                    diff = val - ads._sin_jacobi_derivs(
                        k, k, legendre_scale(s2, s3), s2 - k, t)[0]
                    assert np.abs(diff).max() <= 1e-13 * np.abs(val).max()

    @pytest.mark.parametrize("s1,s2,s3", [(1, 0, 0), (2, 1, 1), (3, 2, -2),
                                          (3, 3, 3), (4, 2, 0)])
    def test_laplace_residual(self, s1, s2, s3):
        rng = np.random.default_rng(3)
        pts = [(rng.uniform(0.3, 2.8), rng.uniform(0.3, 2.8),
                rng.uniform(0.0, 2 * math.pi)) for _ in range(30)]
        assert s3_laplace_residual(s1, s2, s3, pts).max() < 1e-6

    @pytest.mark.parametrize("point", [(0.0, 1.0, 0.0), (1.0, math.pi, 0.0),
                                       (1.0, float("nan"), 0.0)])
    def test_laplace_residual_off_chart(self, point):
        with pytest.raises(OutOfRange):
            s3_laplace_residual(2, 1, 0, [(1.0, 1.0, 0.0), point])

    def test_gram_s1_up_to_3(self):
        # fixed s3 sector blocks; distinct s3 are orthogonal exactly by the
        # t3 phase integral
        t1r = gauss_jacobi(0.5, 0.5, 24)
        t2r = gauss_jacobi(0.0, 0.0, 24)
        t1, t2 = np.arccos(t1r.nodes), np.arccos(t2r.nodes)
        for s3 in range(-3, 4):
            pairs = [(s1, s2) for s1 in range(4) for s2 in range(s1 + 1)
                     if s2 >= abs(s3)]
            if not pairs:
                continue
            rows = []
            for (s1, s2) in pairs:
                norm = s3_harmonic_norm(s1, s2, s3) * math.sqrt(2 * math.pi)
                f1 = (norm * np.sin(t1) ** s2
                      * eval_gegenbauer(s1 - s2, s2 + 1.0, np.cos(t1)))
                f2 = assoc_legendre(s2, s3, np.cos(t2))
                rows.append((f1, f2))
            gram = np.empty((len(pairs), len(pairs)))
            for i, (a1, a2) in enumerate(rows):
                for j, (b1, b2) in enumerate(rows):
                    gram[i, j] = (float(np.dot(t1r.weights, a1 * b1))
                                  * float(np.dot(t2r.weights, a2 * b2)))
            assert np.abs(gram - np.eye(len(pairs))).max() < 1e-9, s3

    def test_negative_s3_norm(self):
        # reflection formula keeps the normalization consistent
        t1r = gauss_jacobi(0.5, 0.5, 16)
        t2r = gauss_jacobi(0.0, 0.0, 16)
        for (s1, s2, s3) in [(2, 1, -1), (3, 2, -2)]:
            norm = s3_harmonic_norm(s1, s2, s3) * math.sqrt(2 * math.pi)
            f1 = (norm * np.sin(np.arccos(t1r.nodes)) ** s2
                  * eval_gegenbauer(s1 - s2, s2 + 1.0, t1r.nodes))
            f2 = assoc_legendre(s2, s3, t2r.nodes)
            total = (float(np.dot(t1r.weights, f1 * f1))
                     * float(np.dot(t2r.weights, f2 * f2)))
            assert total == pytest.approx(1.0, abs=1e-11)


class TestCBeta:
    def test_values(self):
        assert c_beta(0.0, 2.3, 0.0) == 2.0
        assert c_beta(1.0, 1.0, 0.0) == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert c_beta(0.0, 1.0, 12.0) == pytest.approx(4.0, rel=1e-15)

    def test_guards(self):
        with pytest.raises(ValueError):
            c_beta(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            c_beta(-1.0, 1.0, 0.0)

    @pytest.mark.parametrize("M,kappa", [(1e200, 1.0), (1.0, 1e-320)])
    def test_overflow_is_out_of_range(self, M, kappa):
        with pytest.raises(OutOfRange, match="overflows"):
            c_beta(M, kappa, 0.0)

    @pytest.mark.parametrize("M,kappa", [(math.nan, 1.0), (math.inf, 1.0),
                                         (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_constant_refused(self, M, kappa):
        # kappa = inf once gave c = 2 for every lam; a nan was reported
        # as an overflow of c^2
        with pytest.raises(ValueError, match="must be finite"):
            c_beta(M, kappa, 2.0)

    def test_overflow_message_prints_plain_floats(self):
        with pytest.raises(OutOfRange, match=re.escape(
                "for M = 1e+200, kappa = 1.0, lam = 0.0")):
            c_beta(1e200, 1.0, np.float64(0.0))


class TestAdSRadial:
    def test_omega_values(self):
        assert ads_omegas(0, 2.0, 0).tolist() == [16.0]
        assert ads_omegas(2, 3.0, 1).tolist() == [49.0, 81.0]

    def test_omegas_broadcast_over_columns(self):
        # a table of (beta1, c) rows is the rows of each pair, bitwise
        b1s, cs = [0, 2, 3], [2.0, 2.7, 88.67606802145276]
        table = ads_omegas(np.array(b1s)[:, None], np.array(cs)[:, None], 4)
        assert table.shape == (3, 5)
        for row, b1, c in zip(table, b1s, cs):
            assert row.tolist() == ads_omegas(b1, c, 4).tolist()

    @pytest.mark.parametrize("beta1,c,i_max", [(-1, 2.0, 1), (0, 1.5, 1),
                                               (0, 2.0, -1)])
    def test_omega_guards(self, beta1, c, i_max):
        with pytest.raises(ValueError):
            ads_omegas(beta1, c, i_max)

    @pytest.mark.parametrize("beta1,c", [(0, 2.0), (1, 2.7), (3, 5.0)])
    def test_orthonormality(self, beta1, c):
        gram = ads_gram(beta1, c, 12)
        assert np.abs(gram - np.eye(13)).max() < 1e-10

    @pytest.mark.parametrize("beta1,c,i_max", [(4, 100.0, 20),
                                               (10, 40.0, 30)])
    def test_orthonormality_at_large_exponents(self, beta1, c, i_max):
        # the outer weights of the xi rule are many orders below its peak
        gram = ads_gram(beta1, c, i_max)
        assert np.abs(gram - np.eye(i_max + 1)).max() < 1e-12

    def test_operator_residual(self):
        xs = np.linspace(0.12, 1.45, 30)
        for (beta1, c, i_max) in [(0, 2.0, 0), (1, 2.7, 3), (3, 5.0, 7)]:
            # lam recovered from c via the mass relation; M, kappa arbitrary
            res = ads_operator_residual(beta1, c, i_max, xs, M=0.7, kappa=1.3)
            assert res.shape == (i_max + 1, xs.size)
            omegas = ads_omegas(beta1, c, i_max)
            assert (np.abs(res).max(axis=1) / omegas).max() < 1e-6

    def test_spacing_identity_exact(self):
        for c in (Fraction(2), Fraction(27, 10), Fraction(9, 2)):
            for beta1 in (0, 1, 3):
                for i in range(8):
                    lhs = ((2 * (i + 1) + beta1 + c + 2) ** 2
                           - (2 * i + beta1 + c + 2) ** 2)
                    assert lhs == 4 * (2 * i + beta1 + c + 3)

    def test_omega_positive(self):
        assert ads_omegas(0, 2.0, 0)[0] >= 16.0

    @pytest.mark.parametrize("c", [1e160, math.inf, math.nan])
    def test_omega_not_finite(self, c):
        with pytest.raises(OutOfRange, match="is not finite"):
            ads_omegas(0, c, 1)


@pytest.fixture(scope="module")
def small_y_modes(gp23):
    return {md.index: md for md in build_modes(
        gp23, enumerate_modes(gp23, TruncationPolicy(1, 0, 0, 1, 1)), 24)}


def _small_table(gp, y_modes):
    return ModeTable(gp, M=1.0, kappa=1.0, y_modes=y_modes,
                     grid_shape=(40, 8, 8, 12, 40), i_max=4)


@pytest.fixture(scope="module")
def small_table(gp23, small_y_modes):
    return _small_table(gp23, small_y_modes)


@pytest.fixture(scope="module")
def beta_set():
    return [ModeIndex(s1, s2, s3, n, 0, 0, k, j)
            for s1 in range(2) for s2 in range(s1 + 1)
            for s3 in range(-s2, s2 + 1) for n in (-1, 0, 1)
            for k in (0, 1) for j in (0, 1)]


def _dense(coeffs, modes, table):
    """SpectralCoefficients as the (len(modes), i_max + 1) array that
    project_cauchy returns."""
    out = np.zeros((len(modes), table.i_max + 1), dtype=complex)
    for (beta, i), v in coeffs.items():
        out[modes.index(beta), i] = v
    return out


class TestProjection:
    def test_pure_mode(self, small_table, beta_set):
        target = beta_set[7]
        coeffs = SpectralCoefficients()
        coeffs[(target, 0)] = 1.0
        data = synthesize(coeffs, small_table)
        back, _ = project_cauchy(data, beta_set, small_table)
        assert back[7, 0] == pytest.approx(1.0, abs=1e-9)
        back[7, 0] = 0.0
        assert np.abs(back).max() < 1e-9

    def test_zero_data(self, small_table, beta_set):
        sector = beta_set[0].sector
        back, norm_sq = project_cauchy({sector: small_table.grid.zeros()},
                                       beta_set, small_table)
        assert np.abs(back).max() < 1e-15
        assert norm_sq == 0.0

    def test_round_trip(self, small_table, beta_set):
        rng = np.random.default_rng(9)
        coeffs = SpectralCoefficients()
        for beta in beta_set[::3]:
            for i in range(5):
                coeffs[(beta, i)] = complex(rng.normal(), rng.normal())
        data = synthesize(coeffs, small_table)
        back, _ = project_cauchy(data, beta_set, small_table)
        want = _dense(coeffs, beta_set, small_table)
        assert np.abs(back - want).max() < 1e-9

    def test_parseval_on_band_limited(self, small_table, beta_set):
        rng = np.random.default_rng(10)
        coeffs = SpectralCoefficients()
        for beta in beta_set[:6]:
            coeffs[(beta, 2)] = complex(rng.normal(), rng.normal())
        data = synthesize(coeffs, small_table)
        # grid norm carries the discrete x-rule defect (reported quantity,
        # only Bessel is exact); agreement at the grid's own accuracy
        _, norm_sq = project_cauchy(data, beta_set, small_table)
        assert norm_sq == pytest.approx(
            sum(abs(v) ** 2 for v in coeffs.entries.values()), rel=1e-8)

    def test_bessel_on_rough_data(self, small_table, beta_set):
        # not band-limited: discrete Bessel inequality must still hold
        rng = np.random.default_rng(11)
        sector = Sector(0, 0, 0, 0)
        grid = small_table.grid
        data = {sector: (rng.normal(size=grid.shape)
                         + 1j * rng.normal(size=grid.shape))}
        back, total = project_cauchy(data, beta_set, small_table)
        # sum over blocks of a^H G a, the discrete norm of the projection
        proj_sq = 0.0
        for beta, vec in zip(beta_set, back):
            *_, gram_x = small_table.block(beta)
            proj_sq += float(np.real(vec.conj() @ gram_x @ vec))
        assert proj_sq <= total * (1.0 + 1e-12) + 1e-12

    def test_grid_mismatch(self, small_table, beta_set):
        # refused also in a sector no mode lives in
        for sector in (beta_set[0].sector, Sector(0, 5, 0, 0)):
            with pytest.raises(GridMismatch,
                               match=re.escape(f"{sector}: data")):
                project_cauchy(
                    {sector: np.zeros((3, 3, 3, 3, 3), dtype=complex)},
                    beta_set, small_table)

    def test_norm_of_every_sector(self, small_table, beta_set):
        # the fused norm is the per-sector grid norm summed in data order,
        # bitwise, sectors no mode lives in included
        rng = np.random.default_rng(12)
        shape = small_table.grid.shape
        data = {sector: rng.normal(size=shape) + 1j * rng.normal(size=shape)
                for sector in (Sector(0, 5, 0, 0), Sector(0, 0, 0, 0),
                               Sector(1, -1, 0, 0))}
        _, norm_sq = project_cauchy(data, beta_set, small_table)
        assert norm_sq == sum(small_table.grid.grid_norm_sq(a)
                              for a in data.values())
        # and sector by sector, projected or not, on every sector of the
        # modes besides: a sum can hide a mismatch in the last bit of one
        # term
        more = [(sector, rng.normal(size=shape) + 1j * rng.normal(size=shape))
                for sector in sorted({beta.sector for beta in beta_set})]
        for sector, arr in list(data.items()) + more:
            _, alone = project_cauchy({sector: arr}, beta_set, small_table)
            assert alone == small_table.grid.grid_norm_sq(arr), sector

    def test_input_layouts(self, small_table, beta_set):
        # real, Fortran-ordered and strided sectors are read as their
        # complex C-contiguous copies, bitwise
        rng = np.random.default_rng(14)
        shape = small_table.grid.shape
        sector = Sector(0, 0, 0, 0)
        wide = (rng.normal(size=shape[:-1] + (2 * shape[-1],))
                + 1j * rng.normal(size=shape[:-1] + (2 * shape[-1],)))
        for arr in (rng.normal(size=shape),
                    np.asfortranarray(wide[..., ::2]), wide[..., 1::2]):
            want = project_cauchy({sector: np.array(arr, dtype=complex)},
                                  beta_set, small_table)
            got = project_cauchy({sector: arr}, beta_set, small_table)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1] == want[1]
            assert (small_table.grid.grid_norm_sq(arr)
                    == small_table.grid.grid_norm_sq(np.array(arr, complex)))

    def test_no_full_size_temporary(self, gp23, small_y_modes):
        # one 2 MiB sector of 24 betas: the traced peak of projecting it
        # stays below a quarter of the sector, so nothing of its size
        # (its square, a copy) is allocated
        table = ModeTable(gp23, M=1.0, kappa=1.0, y_modes=small_y_modes,
                          grid_shape=(16, 8, 8, 8, 16), i_max=3)
        modes = [beta for beta in enumerate_beta(TruncationSpec(
            s1_max=2, n_max=0, m_max=0, l_max=0, k_max=1, j_max=1, i_max=3))
            if beta.s3 == 0]
        assert len(modes) == 24
        rng = np.random.default_rng(15)
        shape = table.grid.shape
        arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        data = {Sector(0, 0, 0, 0): arr}
        project_cauchy(data, modes, table)      # builds the stack
        tracemalloc.start()
        try:
            project_cauchy(data, modes, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arr.nbytes == 2 * 2 ** 20
        assert peak < arr.nbytes / 4

    def test_rows_follow_modes(self, small_table, beta_set):
        # row r belongs to modes[r] whatever the order; betas whose sector
        # holds no data get zero rows
        rng = np.random.default_rng(13)
        coeffs = SpectralCoefficients(
            {(beta, 1): complex(rng.normal(), rng.normal())
             for beta in beta_set if beta.sector.n == 0})
        data = synthesize(coeffs, small_table)
        modes = beta_set[::-1]
        fwd, _ = project_cauchy(data, beta_set, small_table)
        rev, _ = project_cauchy(data, modes, small_table)
        assert np.array_equal(rev, fwd[::-1])
        empty = [r for r, beta in enumerate(modes) if beta.sector not in data]
        assert empty and not rev[empty].any()
        assert np.abs(rev - _dense(coeffs, modes, small_table)).max() < 1e-9


def _naive_synthesize(coeffs, table):
    """Per-beta 5d outer products, accumulated in coefficient order."""
    out = {}
    for (beta, i), v in coeffs.items():
        vec1, vec2, vecth, vecy, fmat, _ = table.block(beta)
        arr = out.setdefault(beta.sector, table.grid.zeros())
        arr += np.einsum("x,a,b,t,y->xabty", v * fmat[i], vec1, vec2,
                         vecth, vecy)
    return out


def _naive_project(data, modes, table):
    """Per-beta axis-by-axis tensordots and one x-Gram solve each."""
    out = {}
    grid = table.grid
    for beta in modes:
        if beta.sector not in data:
            continue
        vec1, vec2, vecth, vecy, fmat, gram_x = table.block(beta)
        red = data[beta.sector]
        for w, vec in ((grid.y.weights, vecy), (grid.theta.weights, vecth),
                       (grid.t2.weights, vec2), (grid.t1.weights, vec1)):
            red = np.tensordot(red, w * vec, axes=([red.ndim - 1], [0]))
        vals = np.linalg.solve(gram_x, (fmat * grid.x.weights) @ red)
        for i, v in enumerate(vals):
            out[(beta, i)] = v
    return out


class TestSectorTransforms:
    """The stacked per-sector GEMMs against a naive per-beta reference."""

    @pytest.fixture()
    def sparse(self, beta_set):
        # betas with only some i, in an order that is not sorted by sector
        rng = np.random.default_rng(17)
        coeffs = SpectralCoefficients()
        for beta in beta_set[::-3] + beta_set[1::4]:
            for i in sorted(rng.choice(5, size=rng.integers(1, 4),
                                       replace=False)):
                coeffs[(beta, int(i))] = complex(rng.normal(), rng.normal())
        return coeffs

    def test_synthesize_matches_reference(self, small_table, sparse):
        got = synthesize(sparse, small_table)
        want = _naive_synthesize(sparse, small_table)
        assert got.keys() == want.keys()
        for sector, arr in want.items():
            err = np.abs(got[sector] - arr).max()
            assert err <= 1e-13 * np.abs(arr).max()

    def test_sector_order_is_sorted(self, small_table, sparse):
        first = list(dict.fromkeys(beta.sector for beta, _ in sparse.entries))
        assert first != sorted(first)
        assert list(synthesize(sparse, small_table)) == sorted(first)

    @pytest.mark.parametrize("i", [-1, 5])
    def test_index_outside_i_range(self, small_table, beta_set, i):
        # -1 would otherwise wrap around to i_max
        coeffs = SpectralCoefficients({(beta_set[0], i): 1.0})
        with pytest.raises(GridMismatch, match="outside i = 0..4"):
            synthesize(coeffs, small_table)

    def test_y_mode_outside_table(self, small_table):
        # n = 2 on an n_max = 1 table: named, not a bare KeyError
        beta = ModeIndex(0, 0, 0, 2, 0, 0, 0, 0)
        match = re.escape(f"mode {tuple(beta)}: Y^{{p,q}} mode (2, 0, 0, 0, 0)")
        with pytest.raises(GridMismatch, match=match):
            synthesize(SpectralCoefficients({(beta, 0): 1.0}), small_table)
        for method in (small_table.block, small_table.c):
            with pytest.raises(GridMismatch, match=match):
                method(beta)

    def test_plain_tuple_key(self, gp23, small_y_modes, beta_set):
        # a plain 8-tuple, on a table of its own, synthesizes bitwise as
        # the ModeIndex it equals
        fields = [synthesize(SpectralCoefficients({(key, 1): 1.0}),
                             _small_table(gp23, small_y_modes))
                  for key in (tuple(beta_set[7]), beta_set[7])]
        assert fields[0].keys() == fields[1].keys()
        assert all(np.array_equal(fields[0][sector], fields[1][sector])
                   for sector in fields[1])
        zero = synthesize(SpectralCoefficients({((0,) * 8, 0): 1.0}),
                          _small_table(gp23, small_y_modes))
        assert list(zero) == [Sector(0, 0, 0, 0)]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_coefficient_refused(self, small_table, beta_set):
        # a coefficient near the top of the double range overflows the
        # grid values: refused naming the sector, with no numpy warning
        coeffs = SpectralCoefficients({(beta_set[0], 1): 1e308})
        with pytest.raises(OutOfRange, match=re.escape(
                f"synthesized values of {beta_set[0].sector} are not "
                f"finite")):
            synthesize(coeffs, small_table)

    def test_plain_tuple_breaking_chain(self, gp23, small_y_modes):
        # s2 > s1 in a plain tuple: the chain error, not an AttributeError
        bad = SpectralCoefficients({((0, 1, 0, 0, 0, 0, 0, 0), 0): 1.0})
        with pytest.raises(IndexChainError):
            synthesize(bad, _small_table(gp23, small_y_modes))

    def test_project_matches_reference(self, small_table, beta_set, sparse):
        data = synthesize(sparse, small_table)
        # a sector holding data that no mode lives in is ignored
        orphan = Sector(0, 5, 0, 0)
        data[orphan] = np.ones(small_table.grid.shape, dtype=complex)
        modes = beta_set[::2]
        got, _ = project_cauchy(data, modes, small_table)
        want = _dense(SpectralCoefficients(
            _naive_project(data, modes, small_table)), modes, small_table)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_field_size_guard(self, small_table, sparse, monkeypatch):
        monkeypatch.setattr(errors, "_physical_memory", lambda: 1000)
        with pytest.raises(FieldTooLarge, match="more than the 1000 bytes"):
            synthesize(sparse, small_table)

    @pytest.mark.parametrize("shape,what", [
        # 4^4 * 2000 * 16 bytes of field fit, the 2000^2 * 8 of the y rule
        # do not; then a field too large with rules that fit
        ((4, 4, 4, 4, 2000), "2000-node rule"),
        ((60, 60, 60, 60, 60), "one sector on grid")])
    def test_grid_size_guard(self, gp23, monkeypatch, shape, what):
        # refused before any rule is built: no size here is allocated
        monkeypatch.setattr(errors, "_physical_memory", lambda: 10 ** 7)

        def no_rule(*args):
            raise AssertionError("rule built for a refused grid")

        for name in ("gauss_jacobi", "rule_on_interval"):
            monkeypatch.setattr(ads, name, no_rule)
        with pytest.raises(FieldTooLarge, match=what):
            ads.sector_grid(gp23, shape)

    def test_grid_is_five_axis_rules(self, gp23):
        # one QuadratureRule per axis, nodes in the axis coordinate and
        # the axis measure in the weights, bitwise as built axis by axis
        # here: the (1, 2) rule in xi = cos^2 x, the cosine rules of t1,
        # t2 and theta, and Gauss-Legendre in y times rho = (1 - y)/18
        shape = (36, 10, 10, 12, 36)
        xi_rule = rule_on_interval(0.0, 1.0, 1.0, 2.0, shape[0])
        assert isinstance(xi_rule, QuadratureRule)
        xi, wxi = xi_rule
        y, wy = rule_on_interval(gp23.y_minus, gp23.y_plus, 0.0, 0.0,
                                 shape[4])
        rho = (1.0 - y) / 18.0
        cosine_rules = [gauss_jacobi(a, a, n)
                        for a, n in zip((0.5, 0.0, 0.0), shape[1:4])]
        expected = [(np.arccos(np.sqrt(xi)), wxi / (1.0 - xi) ** 4),
                    *((np.arccos(r.nodes), r.weights) for r in cosine_rules),
                    (y, wy * rho)]
        grid = ads.sector_grid(gp23, shape)
        assert grid._fields == ("x", "t1", "t2", "theta", "y")
        assert grid.shape == shape
        for rule, (nodes, weights) in zip(grid, expected, strict=True):
            assert type(rule) is QuadratureRule
            assert rule.nodes.tobytes() == nodes.tobytes()
            assert rule.weights.tobytes() == weights.tobytes()


def test_each_factor_built_once_per_key(gp23, small_y_modes, beta_set,
                                        monkeypatch):
    # x tables depend on (s1, c), theta and y on the Y mode up to its
    # overall sign alone: a round trip over every beta builds each of them
    # once, not per beta
    table = _small_table(gp23, small_y_modes)
    x_keys, y_calls = [], []
    f_table, radial_value = ads._f_table, RadialMode.value

    def counted_f_table(beta1, c, i_max, x):
        x_keys.append((beta1, c))
        return f_table(beta1, c, i_max, x)

    def counted_value(mode, y):
        y_calls.append(mode)
        return radial_value(mode, y)

    monkeypatch.setattr(ads, "_f_table", counted_f_table)
    monkeypatch.setattr(RadialMode, "value", counted_value)
    rng = np.random.default_rng(23)
    coeffs = SpectralCoefficients(
        {(beta, i): complex(rng.normal(), rng.normal())
         for beta in beta_set for i in range(5)})
    back, _ = project_cauchy(synthesize(coeffs, table), beta_set, table)
    assert np.abs(back - _dense(coeffs, beta_set, table)).max() < 1e-9
    y_keys = {max((b.n, b.m, b.l, b.k, b.j), (-b.n, -b.m, -b.l, b.k, b.j))
              for b in beta_set}
    want_x = {(b.s1, c_beta(1.0, 1.0, small_y_modes[b[3:]].lam))
              for b in beta_set}
    assert sorted(x_keys) == sorted(want_x)
    assert len(y_calls) == len(y_keys) < len(beta_set)


def test_omega_table_matches_closed_form(small_table, small_y_modes,
                                         beta_set):
    # one broadcast expression, bitwise the per-key closed form
    # (2i + s1 + c + 2)^2 with c from the beta's own Y^{p,q} mode
    betas = beta_set[::-1]
    table = small_table.omega_table(betas)
    assert table.shape == (len(betas), small_table.i_max + 1)
    for row, beta in zip(table, betas):
        lam = small_y_modes[beta[3:]].lam
        c = c_beta(1.0, 1.0, lam)
        assert row.tolist() == [(2.0 * i + beta.s1 + c + 2.0) ** 2
                                for i in range(small_table.i_max + 1)]
