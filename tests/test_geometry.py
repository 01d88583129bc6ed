"""Geometry constants: quantization residuals, closed-form cross-check,
profile identities."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conftest import label_lattice
from ypqwave.errors import InvalidLabel, OutOfRange
from ypqwave.geometry import eval_profiles, profile_h, solve_geometry


def closed_form_a(p: int, q: int) -> float:
    """Independent oracle for the profile constant: with the winding pair
    (P, Q) = (p, q - p) the constant has the closed form
    1/2 - (P^2 - 3Q^2) sqrt(4P^2 - 3Q^2) / (4 P^3)."""
    P, Q = p, q - p
    return 0.5 - (P * P - 3 * Q * Q) * math.sqrt(4 * P * P - 3 * Q * Q) / (4 * P ** 3)


def reference_constants(p: int, q: int) -> dict:
    """a, y_minus, y_plus and tau from the printed closed forms in 60-digit
    decimal arithmetic, each checked against the cubic and the
    quantization ratio p/q to 1e-50."""
    with localcontext() as ctx:
        ctx.prec = 60
        P, Q = Decimal(p), Decimal(q - p)
        s = (4 * P * P - 3 * Q * Q).sqrt()
        a = Decimal(1) / 2 - (P * P - 3 * Q * Q) * s / (4 * P ** 3)
        ym, yp = (2 * P - 3 * Q - s) / (4 * P), (2 * P + 3 * Q - s) / (4 * P)

        def h(y):
            return (a - 2 * y + y * y) / (6 * (a - y * y))

        for y in (ym, yp):
            assert abs(a - 3 * y * y + 2 * y ** 3) < Decimal("1e-50")
        assert abs((h(ym) - h(yp)) / (2 * h(ym)) - Decimal(p) / q) < Decimal("1e-50")
        return {"a": a, "y_minus": ym, "y_plus": yp, "tau": 2 * h(ym) / q}


REFERENCE_LABELS = (
    [(p, q) for p in range(2, 40) for q in range(p + 1, 2 * p)
     if math.gcd(p, q) == 1]
    + [(p, q) for p in (1000, 10 ** 5, 10 ** 6, 2 * 10 ** 6, 10 ** 7)
       for q in (p + 1, 2 * p - 1)])


class TestSolveGeometry:
    def test_23_residuals(self, gp23):
        hm, hp = profile_h(gp23.y_minus, gp23.a), profile_h(gp23.y_plus, gp23.a)
        assert abs((hm - hp) / (2.0 * hm) - 2.0 / 3.0) < 1e-12
        for y in (gp23.y_minus, gp23.y_plus):
            assert abs(gp23.a - 3 * y * y + 2 * y ** 3) < 1e-12

    def test_23_sigma(self, gp23):
        assert gp23.sigma == 6

    def test_sigma_rules_agree_on_lattice(self):
        # the other published form, lcm{2, pq, 2p-q}, gives the same sigma
        # whenever gcd(p, q) = 1
        for (p, q) in label_lattice():
            assert solve_geometry(p, q).sigma == math.lcm(2, p * q, 2 * p - q)

    @pytest.mark.parametrize("p,q", [(2, 5), (3, 3), (2, 2), (4, 6), (1, 1),
                                     (3, 7), (0, 1)])
    def test_invalid_labels(self, p, q):
        with pytest.raises(InvalidLabel):
            solve_geometry(p, q)

    def test_closed_form_oracle(self):
        for (p, q) in label_lattice():
            gp = solve_geometry(p, q)
            assert gp.a == pytest.approx(closed_form_a(p, q), abs=2e-13), (p, q)

    def test_lattice_invariants(self):
        for (p, q) in label_lattice():
            gp = solve_geometry(p, q)
            assert 0.0 < gp.a < 1.0
            assert gp.y_minus < 0.0 < gp.y_plus < math.sqrt(gp.a)
            assert gp.tau > 0.0
            assert gp.sigma % 2 == 0
            hm, hp = profile_h(gp.y_minus, gp.a), profile_h(gp.y_plus, gp.a)
            assert abs((hm - hp) / (2.0 * hm) - p / q) < 1e-12
            for y in (gp.y_minus, gp.y_plus):
                assert abs(profile_h(y, gp.a) - (y - 1) / (6 * y)) < 1e-12
            # both tau anchors give the same value
            assert gp.tau == pytest.approx(2 * hm / q, rel=1e-13)
            assert gp.tau == pytest.approx(-2 * hp / (2 * p - q), rel=1e-12)

    def test_matches_reference(self):
        for (p, q) in REFERENCE_LABELS:
            gp = solve_geometry(p, q)
            for name, ref in reference_constants(p, q).items():
                value = getattr(gp, name)
                assert abs(Decimal(value) - ref) <= Decimal("1e-15") * abs(ref), (
                    p, q, name, value, ref)

    @pytest.mark.parametrize("digits", [200, 400])
    def test_subnormal_a_refused(self, digits):
        p = 10 ** digits
        with pytest.raises(OutOfRange, match=re.escape(f"Y^{{{p},{p + 1}}}")):
            solve_geometry(p, p + 1)


class TestProfiles:
    def test_r_vanishes_at_right_root(self, gp23):
        assert abs(eval_profiles(gp23, gp23.y_plus).r) < 1e-12

    def test_h_identity_at_roots(self, gp23):
        for y in (gp23.y_minus, gp23.y_plus):
            pv = eval_profiles(gp23, y)
            assert pv.h == pytest.approx((y - 1) / (6 * y), abs=1e-12)

    def test_origin_values(self, gp23):
        pv = eval_profiles(gp23, 0.0)
        assert pv.w == pytest.approx(2 * gp23.a, rel=1e-15)
        assert pv.r == pytest.approx(1.0, rel=1e-15)
        assert pv.rho == pytest.approx(1.0 / 18.0, rel=1e-15)

    def test_out_of_range(self, gp23):
        with pytest.raises(OutOfRange):
            eval_profiles(gp23, gp23.y_plus + 0.01)

    def test_array_points(self, gp23):
        # an array call gives, point by point, the scalar call's bits
        ys = np.linspace(gp23.y_minus, gp23.y_plus, 11)
        pv = eval_profiles(gp23, ys)
        for name in ("w", "r", "h", "rho", "rho_B"):
            assert getattr(pv, name).tobytes() == np.array(
                [getattr(eval_profiles(gp23, y), name) for y in ys]).tobytes()

    @pytest.mark.parametrize("bad", [0.9, -0.9, math.nan])
    def test_array_point_out_of_range(self, gp23, bad):
        ys = np.array([0.0, bad, 0.1])
        with pytest.raises(OutOfRange, match=re.escape(f"y={bad} outside")):
            eval_profiles(gp23, ys)

    def test_w_positive_r_nonnegative(self, gp23):
        ys = np.linspace(gp23.y_minus, gp23.y_plus, 101)
        pvs = [eval_profiles(gp23, y) for y in ys]
        assert all(pv.w > 0.0 for pv in pvs)
        assert all(pv.r > -1e-14 for pv in pvs)

    def test_r_derivative_smooth(self, gp23):
        a = gp23.a
        for y in np.linspace(gp23.y_minus + 0.03, gp23.y_plus - 0.03, 9):
            h = 1e-6
            fd = (eval_profiles(gp23, y + h).r
                  - eval_profiles(gp23, y - h).r) / (2 * h)
            num, den = a - 3 * y * y + 2 * y ** 3, a - y * y
            exact = (6 * y * y - 6 * y) / den + 2 * y * num / den ** 2
            assert fd == pytest.approx(exact, abs=1e-8)

    def test_rho_b(self, gp23):
        pv = eval_profiles(gp23, 0.1)
        assert pv.rho_B == pytest.approx(pv.rho / math.sqrt(pv.w), rel=1e-14)
