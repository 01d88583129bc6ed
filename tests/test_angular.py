"""Angular eigenbasis: the operator residual is the ground truth for the
eigenvalues; norms and Gram matrices use exact Jacobi rules."""

import math

import numpy as np
import pytest
from scipy.special import eval_legendre

from ypqwave.angular import (angular_eigenvalue, angular_gram, angular_mode)
from ypqwave import errors
from ypqwave.errors import FieldTooLarge, OutOfRange
from ypqwave.specfun import jacobi_norm_integral

CHEB40 = np.pi * (1.0 + np.cos(np.pi * (2 * np.arange(40) + 1) / 80.0)) / 2.0


class TestEigenvalue:
    @pytest.mark.parametrize("n,m,j,expect", [
        (0, 0, 0, 0.0),
        (0, 0, 1, 2.0),       # Legendre sector: j(j+1)
        (0, 0, 4, 20.0),
        (1, 0, 0, 2.0),       # d = 1
        (0, 1, 0, 2.0),       # d = 2, minus 4m^2
        (2, 1, 3, 26.0),      # d = 5
    ])
    def test_closed_form(self, n, m, j, expect):
        assert angular_eigenvalue(n, m, j) == expect

    @pytest.mark.parametrize("n,m,j", [
        (0, 0, 1), (1, 0, 0), (0, 1, 0), (2, 1, 3), (1, -2, 5), (-3, 2, 4),
        (3, 3, 7), (0, 2, 2),
    ])
    def test_eigenvalue_is_pinned_by_operator(self, n, m, j):
        # the residual oracle is what fixes the eigenvalue formula
        md = angular_mode(n, m, j)
        assert np.abs(md.operator_residual(CHEB40)).max() < 1e-7

    def test_conjugation_symmetry(self):
        for (n, m, j) in [(1, 2, 0), (3, -1, 2), (2, 2, 5)]:
            assert angular_eigenvalue(n, m, j) == angular_eigenvalue(-n, -m, j)

    def test_strictly_increasing_in_j(self):
        for (n, m) in [(0, 0), (2, -1), (1, 3)]:
            lams = [angular_eigenvalue(n, m, j) for j in range(8)]
            assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_nonnegative_zero_only_at_origin(self):
        for n in range(-3, 4):
            for m in range(-3, 4):
                for j in range(4):
                    lam = angular_eigenvalue(n, m, j)
                    if (n, m, j) == (0, 0, 0):
                        assert lam == 0.0
                    else:
                        assert lam > 0.0


class TestMode:
    def test_constant_mode_value(self):
        md = angular_mode(0, 0, 0)
        for theta in (0.3, 1.0, 2.5):
            assert md.value(theta) == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_quadrature_norm(self):
        md = angular_mode(1, 0, 0)
        closed = 2 * md.norm_const ** 2 * jacobi_norm_integral(1, 1, 0)
        assert abs(closed - 1.0) < 1e-11

    def test_residual_213(self):
        md = angular_mode(2, 1, 3)
        assert np.abs(md.operator_residual(CHEB40)).max() < 1e-7

    def test_legendre_reduction(self):
        # n = m = 0 modes are normalized Legendre polynomials of cos(theta)
        theta = np.linspace(0.2, 2.9, 9)
        for j in (0, 1, 3):
            md = angular_mode(0, 0, j)
            ref = math.sqrt((2 * j + 1) / 2.0) * eval_legendre(j, np.cos(theta))
            assert np.allclose(md.value(theta), ref, rtol=1e-13, atol=1e-13)


class TestGram:
    @pytest.mark.parametrize("n,m,jmax", [(0, 0, 3), (1, -2, 5), (2, 1, 4)])
    def test_identity(self, n, m, jmax):
        g = angular_gram(n, m, jmax)
        assert np.abs(g - np.eye(jmax + 1)).max() < 1e-11

    # from n = 540 the norm constants overflow and 2^-(a+b) underflows
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n,m,jmax", [(0, 20, 30), (10, -30, 60),
                                          (540, 0, 2), (1030, 0, 2)])
    def test_identity_at_large_exponents(self, n, m, jmax):
        g = angular_gram(n, m, jmax)
        assert np.abs(g - np.eye(jmax + 1)).max() < 1e-11

    def test_single_mode(self):
        g = angular_gram(0, 0, 0)
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_identity_at_jmax_400(self):
        # norms in log space: no cap on j_max short of memory
        g = angular_gram(50, 20, 400)
        assert np.abs(g - np.eye(401)).max() < 1e-11

    def test_oversize_jmax_is_refused(self, monkeypatch):
        # 1004^2 * 8 bytes of the rule's table against 10^6 bytes
        monkeypatch.setattr(errors, "_physical_memory", lambda: 10 ** 6)
        with pytest.raises(FieldTooLarge, match="1004-node rule"):
            angular_gram(0, 0, 1000)


def test_norm_const_beyond_double_range():
    # n = 1020: C = 4.77e307 still works; n = 1030 overflows to inf
    md = angular_mode(1020, 0, 0)
    assert md.norm_const == pytest.approx(4.770215063435096e307, rel=1e-12)
    assert np.isfinite(md.value([0.5, 3.1])).all()
    with pytest.raises(OutOfRange, match=r"\(1030, 0, 0\) overflows"):
        angular_mode(1030, 0, 0)
