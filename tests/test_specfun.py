"""Special functions and quadrature: recurrences against independent
series, scipy.special and exact-moment oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_gegenbauer, eval_jacobi, jacobi

from ypqwave.errors import DegreeOrderError, QuadratureUnderflow
from ypqwave.specfun import (assoc_legendre, envelope_jacobi_derivs,
                             gauss_jacobi, gegenbauer_scale, jacobi_deriv_all,
                             jacobi_log_norm, jacobi_norm_integral,
                             jacobi_poly_all,
                             legendre_scale, rule_on_interval)


def jacobi_series(alpha, beta, j, x):
    """Hypergeometric-series evaluation in exact rational arithmetic
    (the alternating sum cancels catastrophically in floats near x = -1),
    independent of the recurrence."""
    alpha, beta, x = Fraction(alpha), Fraction(beta), Fraction(x)
    total = Fraction(0)
    for r in range(j + 1):
        term = Fraction(1, math.factorial(j - r) * math.factorial(r))
        for t in range(r, j):
            term *= alpha + t + 1
        for t in range(r):
            term *= alpha + beta + j + 1 + t
        total += term * ((x - 1) / 2) ** r
    return float(total)


class TestJacobiPoly:
    def test_degree_zero_is_one(self):
        for alpha, beta in [(0.0, 0.0), (2.5, 1.0), (7.0, 0.5)]:
            assert jacobi_poly_all(alpha, beta, 0, 0.37)[0] == 1.0

    def test_legendre_case(self):
        assert jacobi_poly_all(0.0, 0.0, 1, 0.5)[1] == pytest.approx(
            0.5, abs=1e-15)

    def test_endpoint_binomial(self):
        assert jacobi_poly_all(2.0, 0.0, 2, 1.0)[2] == pytest.approx(
            6.0, abs=1e-12)

    def test_shape_follows_argument(self):
        assert jacobi_poly_all(1.0, 2.0, 3, 0.2).shape == (4,)
        assert jacobi_poly_all(1.0, 2.0, 3, np.zeros((2, 5))).shape == (4, 2, 5)
        assert jacobi_deriv_all(1.0, 2.0, 3, 0.2, 2).shape == (4,)

    @pytest.mark.parametrize("alpha", [0, 1, Fraction(5, 2)])
    @pytest.mark.parametrize("beta", [0, 1, Fraction(5, 2)])
    @pytest.mark.parametrize("x", [Fraction(-9, 10), 0, Fraction(9, 10)])
    def test_recurrence_matches_series(self, alpha, beta, x):
        table = jacobi_poly_all(float(alpha), float(beta), 20, float(x))
        for j in range(21):
            ref = jacobi_series(alpha, beta, j, x)
            assert table[j] == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_all_matches_single(self):
        # every row of one sweep against scipy's independent evaluation
        x = np.linspace(-1, 1, 7)
        table = jacobi_poly_all(1.5, 0.5, 6, x)
        for j in range(7):
            assert np.allclose(table[j], eval_jacobi(j, 1.5, 0.5, x),
                               rtol=1e-14, atol=1e-14)

    def test_high_degree_stable(self):
        x = np.linspace(-1, 1, 11)
        vals = jacobi_poly_all(1.0, 2.0, 200, x)[200]
        ref = eval_jacobi(200, 1.0, 2.0, x)
        assert np.all(np.isfinite(vals))
        assert np.abs(vals - ref).max() < 1e-11 * np.abs(ref).max()

    @pytest.mark.parametrize("order", [1, 2])
    def test_derivatives_match_power_form(self, order):
        # scipy's coefficient form, differentiated term by term
        x = np.linspace(-1, 1, 9)
        for alpha, beta in [(0.0, 0.0), (1.0, 2.0), (2.5, 0.5)]:
            table = jacobi_deriv_all(alpha, beta, 12, x, order)
            for j in range(13):
                ref = jacobi(j, alpha, beta).deriv(order)(x)
                scale = max(1.0, np.abs(ref).max())
                assert np.abs(table[j] - ref).max() < 1e-10 * scale

    @pytest.mark.parametrize("order", [1, 2])
    def test_high_degree_derivatives(self, order):
        # shift identity evaluated by scipy at degree 200
        x = np.linspace(-1, 1, 11)
        got = jacobi_deriv_all(1.0, 2.0, 200, x, order)[200]
        scale = math.prod(0.5 * (204 + i) for i in range(order))
        ref = scale * eval_jacobi(200 - order, 1.0 + order, 2.0 + order, x)
        assert np.abs(got - ref).max() < 1e-11 * np.abs(ref).max()


class TestNormIntegral:
    def test_constant(self):
        assert jacobi_norm_integral(0, 0, 0) == pytest.approx(1.0, abs=1e-15)

    def test_linear_weight(self):
        assert jacobi_norm_integral(1, 1, 0) == pytest.approx(1.0 / 6.0,
                                                              rel=1e-14)

    def test_against_quadrature(self):
        z, w = rule_on_interval(0.0, 1.0, 2, 3, 12)
        quad = float(np.dot(w, jacobi_poly_all(2, 3, 4, 1.0 - 2.0 * z)[4] ** 2))
        assert jacobi_norm_integral(2, 3, 4) == pytest.approx(quad, rel=1e-12)


class TestLogNorm:
    K = np.arange(40)

    @staticmethod
    def _relative(log_h, exact):
        return max(abs(math.exp(v) / float(e) - 1.0)
                   for v, e in zip(log_h, exact))

    @pytest.mark.parametrize("a,b", [(0, 0), (1, 2), (5, 0), (7, 12)])
    def test_integer_exponents_are_exact(self, a, b):
        # h_k = 2^(a+b+1) (k+a)! (k+b)! / ((2k+a+b+1) k! (k+a+b)!) from
        # one array call (the ratio recurrence); a scalar k (log-gammas
        # of up to 60, each good to an ulp of about 1e-14) agrees
        f = math.factorial
        exact = [Fraction(2 ** (a + b + 1) * f(k + a) * f(k + b),
                          (2 * k + a + b + 1) * f(k) * f(k + a + b))
                 for k in self.K.tolist()]
        array = jacobi_log_norm(a, b, self.K)
        assert self._relative(array, exact) < 1e-14
        scalar = [jacobi_log_norm(a, b, k) for k in self.K.tolist()]
        assert np.abs(array - scalar).max() < 1e-13
        assert jacobi_log_norm(a, b, self.K[[7, 0, 3]]).tolist() == \
            array[[7, 0, 3]].tolist()

    def test_exponent_sum_minus_one(self):
        # Chebyshev weight: P_k^(-1/2,-1/2) = (2k)!/(4^k k!^2) T_k, and
        # |T_k|^2 = pi/2 (pi at k = 0); the cancelled form at k = 1
        f = math.factorial
        exact = [Fraction(f(2 * k), 4 ** k * f(k) ** 2) ** 2
                 * Fraction(1 if k else 2, 2) for k in self.K.tolist()]
        array = jacobi_log_norm(-0.5, -0.5, self.K)
        assert self._relative(array - math.log(math.pi), exact) < 1e-14
        scalar = [jacobi_log_norm(-0.5, -0.5, k) for k in self.K.tolist()]
        assert np.abs(array - scalar).max() < 1e-13
        assert np.isfinite(jacobi_log_norm(-0.25, -0.75, self.K)).all()

    @pytest.mark.parametrize("k", [np.array([0, -1]), np.array([0.0, 1.0]),
                                   [1, 2.5]])
    def test_degrees_are_counts(self, k):
        # an array of degrees indexes the recurrence: a negative or
        # fractional one is refused, not read from elsewhere
        with pytest.raises(ValueError, match="integers >= 0"):
            jacobi_log_norm(1.0, 2.0, k)


def gegenbauer_via_jacobi(order, degree, x):
    """C_degree^(order)(x) as the package builds it: scaled Jacobi."""
    half = order - 0.5
    return (gegenbauer_scale(order, degree)
            * jacobi_poly_all(half, half, degree, x)[degree])


class TestGegenbauer:
    def test_degree_zero(self):
        assert gegenbauer_via_jacobi(3.7, 0, 0.2) == 1.0

    def test_degree_one(self):
        assert gegenbauer_via_jacobi(1.0, 1, 0.5) == pytest.approx(
            1.0, abs=1e-15)

    def test_endpoint_binomial_identity(self):
        # C_r^(l)(1) = binom(r + 2l - 1, r)
        for order in (1, 2, 3):
            for r in range(6):
                expect = math.comb(r + 2 * order - 1, r)
                assert gegenbauer_via_jacobi(float(order), r, 1.0) == \
                    pytest.approx(expect, rel=1e-13), (order, r)

    def test_value_from_identity(self):
        assert gegenbauer_via_jacobi(2.0, 2, 1.0) == pytest.approx(
            10.0, rel=1e-14)

    def test_matches_scipy(self):
        x = np.linspace(-1, 1, 41)
        for order in (1, 2, 3, 5):
            for r in range(8):
                ref = eval_gegenbauer(r, order, x)
                got = gegenbauer_via_jacobi(float(order), r, x)
                assert np.abs(got - ref).max() < 1e-13 * np.abs(ref).max()


class TestAssocLegendre:
    def test_constant(self):
        assert assoc_legendre(0, 0, 0.3) == 1.0

    def test_degree_one(self):
        assert assoc_legendre(1, 0, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_condon_shortley(self):
        assert assoc_legendre(1, 1, 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_order_exceeds_degree(self):
        with pytest.raises(DegreeOrderError):
            assoc_legendre(1, 2, 0.5)

    def test_negative_order_reflection(self):
        for l, m in [(2, 1), (3, 2), (5, 4)]:
            x = 0.43
            fac = (-1.0) ** m * math.factorial(l - m) / math.factorial(l + m)
            assert assoc_legendre(l, -m, x) == pytest.approx(
                fac * assoc_legendre(l, m, x), rel=1e-13)

    def test_ode_residual_fd(self):
        # (1-x^2) P'' - 2x P' + (l(l+1) - m^2/(1-x^2)) P = 0; fourth-order
        # central stencils keep the difference noise below the 1e-8 target
        rng = np.random.default_rng(42)
        x = rng.uniform(-0.85, 0.85, 50)
        h = 1e-3
        for l, m in [(3, 1), (5, 3), (4, 0)]:
            f = [assoc_legendre(l, m, x + s * h) for s in (-2, -1, 0, 1, 2)]
            pp = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
            p2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h ** 2)
            res = (1 - x * x) * p2 - 2 * x * pp \
                + (l * (l + 1) - m * m / (1 - x * x)) * f[2]
            scale = np.abs(f[2]).max() * l * (l + 1)
            assert np.abs(res).max() / scale < 1e-8

    def test_deriv_identities(self):
        # the Legendre case of the chain rule, in x: g (1-x^2)^{k/2} P^(k,k)
        x = np.linspace(-0.8, 0.8, 9)
        h = 1e-6
        for l, m in [(4, 2), (3, 3), (6, 1)]:
            k = abs(m)
            _, dp, d2p = envelope_jacobi_derivs(
                k, k, legendre_scale(l, m) * np.eye(l - k + 1)[l - k], x,
                1.0, 0.0, [(0.5 * k, 1.0 - x * x, -2.0 * x, -2.0)])
            fd = (assoc_legendre(l, m, x + h) - assoc_legendre(l, m, x - h)) / (2 * h)
            assert np.allclose(dp, fd, rtol=1e-7, atol=1e-7)
            fd2 = (assoc_legendre(l, m, x + h) - 2 * assoc_legendre(l, m, x)
                   + assoc_legendre(l, m, x - h)) / h ** 2
            assert np.allclose(d2p, fd2, rtol=1e-3, atol=1e-3)

    def test_matches_exact_rational(self):
        # x = (1-s^2)/(1+s^2) makes sqrt(1-x^2) = 2s/(1+s^2) rational, so
        # the reference is exact: (-1)^m (1-x^2)^{m/2} d^m/dx^m P_l from
        # the explicit coefficients of P_l, and the reflection for m < 0
        ss = [Fraction(i, 17) for i in range(1, 60, 4)]
        xs = [(1 - s * s) / (1 + s * s) for s in ss]
        roots = [2 * s / (1 + s * s) for s in ss]
        for l in range(13):
            poly = [Fraction(0)] * (l + 1)
            for i in range(l // 2 + 1):
                poly[l - 2 * i] = Fraction(
                    (-1) ** i * math.factorial(2 * l - 2 * i),
                    2 ** l * math.factorial(i) * math.factorial(l - i)
                    * math.factorial(l - 2 * i))
            for m in range(-l, l + 1):
                k = abs(m)
                deriv = poly
                for _ in range(k):
                    deriv = [c * e for e, c in enumerate(deriv)][1:]
                fac = Fraction((-1) ** k)
                if m < 0:
                    fac *= Fraction((-1) ** k * math.factorial(l - k),
                                    math.factorial(l + k))
                ref = np.array([float(fac * root ** k * sum(
                    c * x ** e for e, c in enumerate(deriv)))
                    for x, root in zip(xs, roots)])
                got = assoc_legendre(l, m, np.array([float(x) for x in xs]))
                assert np.abs(got - ref).max() < 1e-14 * np.abs(ref).max(), \
                    (l, m)


def _chain_rule_cases():
    """The five factor shapes of the package, each as (t -> inputs of
    envelope_jacobi_derivs, interior points)."""
    def angular(t):                 # s^a c^b P_j^(a,b)(cos t), half angles
        s, c = np.sin(0.5 * t), np.cos(0.5 * t)
        return (3, 1, 1.7 * np.eye(5)[4], np.cos(t), -np.sin(t), -np.cos(t),
                [(3, s, 0.5 * c, -0.25 * s), (1, c, -0.5 * s, -0.25 * c)])

    def ads_radial(x):              # cos^b1 sin^{2+c} P_i^(b1+1,c)(-cos 2x)
        s, c = np.sin(x), np.cos(x)
        return (3.0, 2.7, 0.9 * np.eye(4)[3], -np.cos(2 * x),
                2 * np.sin(2 * x), 4 * np.cos(2 * x),
                [(2, c, -s, -c), (4.7, s, c, -s)])

    def y_radial(y):                # (y-lo)^nu (hi-y)^nu' sum c_j P_j(t(y))
        lo, hi = -0.3, 0.8
        return (3.0, 1.0, [0.4, -1.1, 0.3, 0.05, -0.2],
                (2 * y - lo - hi) / (hi - lo), 2 / (hi - lo), 0.0,
                [(0.5, y - lo, 1.0, 0.0), (1.5, hi - y, -1.0, 0.0)])

    def gegenbauer(t):              # sin^s2 t P_r^(s2+1/2, s2+1/2)(cos t)
        s, c = np.sin(t), np.cos(t)
        return (2.5, 2.5, 1.3 * np.eye(4)[3], c, -s, -c, [(2, s, c, -s)])

    def legendre(t):                # sin^k t P_{l-k}^(k,k)(cos t)
        s, c = np.sin(t), np.cos(t)
        return (1, 1, -0.6 * np.eye(6)[5], c, -s, -c, [(1, s, c, -s)])

    return [(angular, np.linspace(0.3, 2.8, 9)),
            (ads_radial, np.linspace(0.15, 1.4, 9)),
            (y_radial, np.linspace(-0.2, 0.7, 9)),
            (gegenbauer, np.linspace(0.3, 2.8, 9)),
            (legendre, np.linspace(0.3, 2.8, 9))]


class TestChainRule:
    @pytest.mark.parametrize("case,t", _chain_rule_cases(),
                             ids=["angular", "ads_radial", "y_radial",
                                  "gegenbauer", "legendre"])
    def test_against_finite_differences(self, case, t):
        def value(tt):
            # the same function with scipy's Jacobi values
            alpha, beta, coeffs, u, _, _, factors = case(tt)
            series = sum(c * eval_jacobi(j, alpha, beta, u)
                         for j, c in enumerate(coeffs))
            return math.prod(phi ** e for e, phi, _, _ in factors) * series
        f, f1, f2 = envelope_jacobi_derivs(*case(t))
        h = 1e-3
        g = [value(t + i * h) for i in (-2, -1, 0, 1, 2)]
        fd1 = (g[0] - 8 * g[1] + 8 * g[3] - g[4]) / (12 * h)
        fd2 = (-g[0] + 16 * g[1] - 30 * g[2] + 16 * g[3] - g[4]) / (12 * h * h)
        assert np.abs(f - g[2]).max() < 1e-13 * np.abs(g[2]).max()
        assert np.abs(f1 - fd1).max() < 1e-8 * np.abs(fd1).max()
        assert np.abs(f2 - fd2).max() < 1e-6 * np.abs(fd2).max()


def exact_moment(alpha: int, beta: int, k: int) -> float:
    """int_-1^1 (1-x)^alpha (1+x)^beta x^k dx in exact rational arithmetic."""
    total = Fraction(0)
    for i in range(k + 1):
        piece = Fraction(math.factorial(alpha) * math.factorial(beta + i),
                         math.factorial(alpha + beta + i + 1))
        total += math.comb(k, i) * (-1) ** (k - i) * Fraction(2) ** (
            alpha + beta + i + 1) * piece
    return float(total)


class TestGaussJacobi:
    def test_midpoint_rule(self):
        rule = gauss_jacobi(0.0, 0.0, 1)
        assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert rule.weights[0] == pytest.approx(2.0, rel=1e-15)

    def test_two_point_legendre(self):
        rule = gauss_jacobi(0.0, 0.0, 2)
        assert np.allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)],
                           atol=1e-15)
        assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-14)

    def test_moment_exactness(self):
        rule = gauss_jacobi(1.0, 2.0, 8)
        for k in range(14):
            quad = rule.integrate(rule.nodes ** k)
            ref = exact_moment(1, 2, k)
            assert quad == pytest.approx(ref, rel=1e-12), k

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (2.0, 1.0), (0.5, 3.5)])
    def test_gram_orthogonality(self, alpha, beta):
        rule = gauss_jacobi(alpha, beta, 17)
        table = jacobi_poly_all(alpha, beta, 15, rule.nodes)
        gram = (table * rule.weights) @ table.T
        for j in range(16):
            for k in range(16):
                if j == k:
                    if alpha == int(alpha) and beta == int(beta):
                        norm = 2.0 ** (alpha + beta + 1) * jacobi_norm_integral(
                            int(alpha), int(beta), j)
                        assert gram[j, j] == pytest.approx(norm, rel=1e-11)
                else:
                    assert abs(gram[j, k]) < 1e-11 * max(1.0, gram[j, j])

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_chebyshev_first_kind(self, n):
        # alpha + beta = -1: the norm's k = 0 limit; weights are pi/n
        rule = gauss_jacobi(-0.5, -0.5, n)
        assert np.allclose(rule.weights, math.pi / n, rtol=1e-14, atol=0.0)
        assert np.allclose(rule.nodes, np.cos(
            np.pi * (2 * np.arange(n, 0, -1) - 1) / (2 * n)), atol=1e-15)

    @pytest.mark.parametrize("alpha,beta", [(1100.0, 0.0), (-0.5, 1e308),
                                            (1e308, 1e308)])
    def test_overflowing_moment_refused(self, alpha, beta):
        # mu0 = 2^(a+b+1) B(a+1, b+1) beyond a double, also where a + b
        # itself overflows, refused before any table is built
        with pytest.raises(QuadratureUnderflow, match="mu0 overflows"):
            gauss_jacobi(alpha, beta, 4)

    def test_interval_rule_scaling(self):
        y, w = rule_on_interval(1.0, 3.0, 1.0, 2.0, 10)
        # int_1^3 (y-1)(3-y)^2 dy = 4/3 via direct polynomial integration
        assert float(np.sum(w)) == pytest.approx(4.0 / 3.0, rel=1e-13)
        assert np.all((y > 1.0) & (y < 3.0))
