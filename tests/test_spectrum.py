"""Assembled Laplace eigenbasis: composition, evaluation, orthonormality
and the full-operator point residual."""

import math

import numpy as np
import pytest

from ypqwave import radial
from ypqwave.errors import OutOfRange
from ypqwave.geometry import solve_geometry
from ypqwave.radial import char_exponents, radial_problem, solve_radial
from ypqwave.shooting import shooting_oracle
from ypqwave.spectrum import (TruncationPolicy, YModeIndex, YPoint,
                              basis_gram, build_eigenmode, build_modes,
                              enumerate_modes, eval_u, laplacian_residual,
                              random_points, sector_gram)


@pytest.fixture(scope="module")
def modes20(gp23):
    idxs = enumerate_modes(gp23, TruncationPolicy(1, 1, 1, 1, 1))
    return build_modes(gp23, idxs, 32)[:20]


class TestBuild:
    def test_constant_mode(self, gp23):
        md = build_eigenmode(gp23, YModeIndex(0, 0, 0, 0, 0), 16)
        assert md.lam == 0.0
        amp = (md.angular.norm_const * md.radial.value(0.0)
               / (2 * math.pi) ** 1.5)
        for pt in random_points(gp23, 4):
            val = eval_u(md, pt)
            assert abs(val) == pytest.approx(abs(amp), rel=1e-12)

    def test_lowest_nonzero_vs_oracle(self, gp23):
        idx = YModeIndex(1, 0, 0, 0, 0)
        md = build_eigenmode(gp23, idx, 24)
        assert md.lam > 0.0
        prob = radial_problem(gp23, 0, 0, md.angular.lambda_cap)
        pad = 0.03 * max(1.0, md.lam)
        ell = shooting_oracle(prob, (md.lam - pad, md.lam + pad), 0)
        assert md.lam == pytest.approx(ell, rel=1e-6)

    def test_conjugation_symmetry(self, gp23):
        a = build_eigenmode(gp23, YModeIndex(1, 1, -1, 1, 0), 28)
        b = build_eigenmode(gp23, YModeIndex(-1, -1, 1, 1, 0), 28)
        assert abs(a.lam - b.lam) < 1e-9 * max(1.0, a.lam)

    def test_lambda_zero_only_at_origin(self, modes20):
        for md in modes20:
            if md.index == YModeIndex(0, 0, 0, 0, 0):
                assert md.lam == 0.0
            else:
                assert md.lam > 0.0

    def test_monotone_in_k_and_j(self, gp23):
        base = dict(n=1, m=0, l=1)
        lam_k = [build_eigenmode(gp23, YModeIndex(k=k, j=0, **base), 28).lam
                 for k in range(3)]
        assert lam_k[0] < lam_k[1] < lam_k[2]
        lam_j = [build_eigenmode(gp23, YModeIndex(k=0, j=j, **base), 28).lam
                 for j in range(3)]
        assert lam_j[0] < lam_j[1] < lam_j[2]


def test_sector_gram_at_large_exponents():
    # Y^{5,7}, (n, m, l) = (0, 0, 1): endpoint exponents 367.5 and 157.5,
    # the modes evaluated with their envelope in log space
    gp = solve_geometry(5, 7)
    modes = [build_eigenmode(gp, YModeIndex(0, 0, 1, k, j), 28)
             for k in range(3) for j in range(2)]
    assert np.abs(sector_gram(modes) - np.eye(len(modes))).max() < 1e-9


# the Y^{p,q} part of the duhamel_source benchmark truncation: 14 radial
# problems, one per (m, l) sign pair and Lambda, over 5 endpoint-exponent
# pairs at (2, 3)
DUHAMEL_POLICY = TruncationPolicy(2, 1, 1, 1, 1)


@pytest.mark.parametrize("pq", [(2, 3), (3, 4)])
def test_shared_tables_match_independent_solves(request, pq):
    # one tables dict per build changes no bit of any mode
    gp = request.getfixturevalue(f"gp{pq[0]}{pq[1]}")
    idxs = enumerate_modes(gp, DUHAMEL_POLICY)
    shared = build_modes(gp, idxs, 20)
    alone = build_modes(gp, idxs, 20, radial_solver=lambda prob, k_max,
                        n_basis, solve: solve_radial(prob, k_max, n_basis))
    assert [md.index for md in shared] == [md.index for md in alone]
    for a, b in zip(shared, alone):
        assert a.lam == b.lam and a.radial.ell == b.radial.ell
        assert np.array_equal(a.radial.coeffs, b.radial.coeffs)
        assert a.radial.grid_norm_residual == b.radial.grid_norm_residual


def test_sign_pairs_share_one_solve(gp23):
    # one solve per (m, l), (-m, -l) pair and Lambda, of the larger sign;
    # each mode's problem still carries its own (m, l)
    solved = []

    def solver(prob, k_max, n_basis, solve):
        solved.append((prob.m, prob.l, prob.lambda_cap))
        return solve()

    modes = build_modes(gp23, enumerate_modes(gp23, DUHAMEL_POLICY), 20,
                        radial_solver=solver)
    assert len(solved) == len(set(solved)) == 14
    assert all((m, l) >= (-m, -l) for m, l, _ in solved)
    for md in modes:
        assert (md.radial.problem.m, md.radial.problem.l) == (md.index.m,
                                                              md.index.l)
    pts = random_points(gp23, 6)
    y = np.array([pt.y for pt in pts])
    for idx in (YModeIndex(-1, -1, 1, 1, 0), YModeIndex(0, -1, -1, 1, 1)):
        md = next(md for md in modes if md.index == idx)
        assert (-idx.m, -idx.l, md.radial.problem.lambda_cap) in solved
        assert np.abs(md.radial.operator_residual(y)).max() < 1e-6
        assert laplacian_residual(md, pts).max() < 1e-6


def test_rules_built_once_per_exponent_pair_and_build(gp23, monkeypatch):
    # the nodes of 2 rules per exponent pair, both for the one Galerkin
    # assembly (at the 25% refinement), which the norm check reuses; none
    # kept between builds
    calls = []

    def counted(build):
        def wrapper(*args):
            calls.append(args)
            return build(*args)
        return wrapper

    monkeypatch.setattr(radial, "gauss_nodes", counted(radial.gauss_nodes))
    idxs = enumerate_modes(gp23, DUHAMEL_POLICY)
    pairs = {char_exponents(gp23, idx.m, idx.l) for idx in idxs}
    assert len(pairs) == 5
    for _ in range(2):
        calls.clear()
        build_modes(gp23, idxs, 20)
        assert len(calls) == 2 * len(pairs) == 10


class TestEval:
    def test_modulus_angle_independent(self, gp23):
        md = build_eigenmode(gp23, YModeIndex(1, 1, 0, 0, 1), 24)
        base = YPoint(y=0.1, theta=1.2, phi=0.0, psi=0.0, alpha=0.0)
        ref = abs(eval_u(md, base))
        for phi, psi, alpha in [(1.0, 2.0, 0.3), (4.0, 0.5, 0.9)]:
            pt = YPoint(y=0.1, theta=1.2, phi=phi, psi=psi, alpha=alpha)
            assert abs(eval_u(md, pt)) == pytest.approx(ref, rel=1e-12)

    def test_phase(self, gp23):
        md = build_eigenmode(gp23, YModeIndex(1, 0, 0, 0, 0), 16)
        p0 = YPoint(y=0.1, theta=1.0, phi=0.0, psi=0.0, alpha=0.0)
        p1 = YPoint(y=0.1, theta=1.0, phi=1.3, psi=0.0, alpha=0.0)
        ratio = eval_u(md, p1) / eval_u(md, p0)
        assert ratio == pytest.approx(complex(math.cos(1.3), math.sin(1.3)),
                                      rel=1e-12)

    def test_alpha_frequency(self, gp23):
        # realized frequencies are (n, 2m, sigma l / tau)
        md = build_eigenmode(gp23, YModeIndex(0, 1, 1, 0, 0), 24)
        p0 = YPoint(y=0.1, theta=1.0, phi=0.0, psi=0.4, alpha=0.2)
        p1 = YPoint(y=0.1, theta=1.0, phi=0.0, psi=0.9, alpha=0.7)
        ratio = eval_u(md, p1) / eval_u(md, p0)
        phase = 2.0 * 1 * 0.5 + gp23.sigma * 1 * 0.5 / gp23.tau
        assert ratio == pytest.approx(
            complex(math.cos(phase), math.sin(phase)), rel=1e-12)

    def test_point_validation(self, gp23):
        md = build_eigenmode(gp23, YModeIndex(0, 0, 0, 0, 0), 16)
        with pytest.raises(OutOfRange):
            eval_u(md, YPoint(y=gp23.y_plus + 0.1, theta=1.0, phi=0.0,
                              psi=0.0, alpha=0.0))
        with pytest.raises(OutOfRange):
            eval_u(md, YPoint(y=0.0, theta=4.0, phi=0.0, psi=0.0, alpha=0.0))

    def test_laplacian_residual(self, gp23):
        pts = random_points(gp23, 20, np.random.default_rng(7))
        for idx in [YModeIndex(1, 0, 1, 1, 1), YModeIndex(2, -1, 0, 0, 2)]:
            md = build_eigenmode(gp23, idx, 32)
            assert laplacian_residual(md, pts).max() < 1e-6


class TestEnumerate:
    def test_single(self, gp23):
        assert enumerate_modes(gp23, TruncationPolicy(0, 0, 0, 0, 0)) == [
            YModeIndex(0, 0, 0, 0, 0)]

    def test_nine(self, gp23):
        assert len(enumerate_modes(gp23, TruncationPolicy(1, 1, 0, 0, 0))) == 9

    @pytest.mark.parametrize("bounds", [(1, 1, 1, 1, 1), (2, 0, 1, 2, 0)])
    def test_count_formula(self, gp23, bounds):
        n, m, l, k, j = bounds
        count = (2 * n + 1) * (2 * m + 1) * (2 * l + 1) * (k + 1) * (j + 1)
        assert len(enumerate_modes(gp23, TruncationPolicy(*bounds))) == count

    def test_deterministic_order(self, gp23):
        a = enumerate_modes(gp23, TruncationPolicy(1, 1, 0, 1, 0))
        b = enumerate_modes(gp23, TruncationPolicy(1, 1, 0, 1, 0))
        assert a == b == sorted(a)


class TestGram:
    def test_sector_block(self, gp23):
        idxs = [YModeIndex(1, 0, 1, k, j) for k in range(2) for j in range(2)]
        modes = build_modes(gp23, idxs, 28)
        modes = sorted(modes, key=lambda md: (md.index.k, md.index.j))
        g = sector_gram(modes)
        assert np.abs(g - np.eye(4)).max() < 1e-9

    def test_full_20_mode_gram(self, modes20):
        g = basis_gram(modes20)
        assert np.abs(g - np.eye(len(modes20))).max() < 1e-9

    def test_sector_mismatch_guard(self, gp23):
        modes = build_modes(gp23, [YModeIndex(0, 0, 0, 0, 0),
                                   YModeIndex(1, 0, 0, 0, 0)], 16)
        with pytest.raises(ValueError):
            sector_gram(modes)


def test_counting_function_monotone(modes20):
    lams = sorted(md.lam for md in modes20)
    counts = [sum(1 for lam in lams if lam <= x) for x in (1.0, 15.0, 40.0)]
    assert counts[0] <= counts[1] <= counts[2]
    assert counts[-1] >= 1
