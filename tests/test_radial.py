"""Radial eigensolver: Galerkin against the independent shooting oracle,
endpoint exponents, spectral structure."""

import ast
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as npp
from scipy.integrate import solve_ivp

from ypqwave import radial, shooting
from ypqwave.angular import angular_eigenvalue
from ypqwave.cli import run
from ypqwave.errors import (BracketError, EigenFailure, NotConverged,
                            OutOfRange)
from ypqwave.geometry import solve_geometry
from ypqwave.radial import (assemble_galerkin, char_exponents, radial_problem,
                            solve_radial)
from ypqwave.shooting import (oracle_bracket, shooting_matcher,
                              shooting_oracle, shooting_spectrum)
from ypqwave.specfun import jacobi_matrix, rule_on_interval


class TestCharExponents:
    def test_pure_m(self, gp23):
        assert char_exponents(gp23, 3, 0) == (3.0, 3.0)

    def test_23_l1(self, gp23):
        # sigma = 6: the q-anchored exponent 4.5 sits at the negative root
        nu_minus, nu_plus = char_exponents(gp23, 0, 1)
        assert (nu_minus, nu_plus) == (4.5, 1.5)

    def test_half_integer_lattice(self, gp23, gp34):
        for gp in (gp23, gp34):
            for m in range(-3, 4):
                for l in range(-2, 3):
                    for nu in char_exponents(gp, m, l):
                        assert 2.0 * nu == round(2.0 * nu)
                        assert nu >= 0.0

    def test_friedrichs_sector_solves(self, gp23):
        # nu_minus = 0 at m = -q sigma l/4: for (2,3), l = 2 gives m = -9
        nu_minus, nu_plus = char_exponents(gp23, -9, 2)
        assert nu_minus == 0.0
        prob = radial_problem(gp23, -9, 2, 0.0)
        modes = solve_radial(prob, 1, 24)
        assert modes[0].ell >= 0.0
        assert modes[0].grid_norm_residual < 1e-10

    def test_exponents_match_indicial_charge(self, gp23):
        # |charge|/2 at each endpoint reproduces the exponent formulas
        for (m, l) in [(0, 1), (2, -1), (1, 2)]:
            prob = radial_problem(gp23, m, l, 0.0)
            eps = 1e-9
            qm = prob.potential_charge(gp23.y_minus + eps)
            qp = prob.potential_charge(gp23.y_plus - eps)
            assert abs(qm) / 2.0 == pytest.approx(prob.nu_minus, abs=1e-6)
            assert abs(qp) / 2.0 == pytest.approx(prob.nu_plus, abs=1e-6)


class TestAssembly:
    def test_symmetry(self, gp23):
        prob = radial_problem(gp23, 1, 1, 4.0)
        a, b = assemble_galerkin(prob, 20)
        assert np.abs(a - a.T).max() < 1e-12 * max(1.0, np.abs(a).max())
        assert np.abs(b - b.T).max() < 1e-12

    def test_mass_positive_definite(self, gp23):
        prob = radial_problem(gp23, 0, 1, 2.0)
        _, b = assemble_galerkin(prob, 18)
        assert np.linalg.eigvalsh(b).min() > 0.0

    def test_constant_in_kernel(self, gp23):
        prob = radial_problem(gp23, 0, 0, 0.0)
        a, _ = assemble_galerkin(prob, 16)
        e0 = np.zeros(16)
        e0[0] = 1.0
        assert np.abs(a @ e0).max() < 1e-9


    @pytest.mark.parametrize("m,l", [(1, 0), (0, 1), (-9, 2)])
    def test_mass_matrix_is_the_jacobi_quadrature(self, gp23, m, l):
        # B is the closed form ((1 - ybar) I - h J)/18, no quadrature; the
        # eigenvector rule of the 40-node Jacobi matrix reproduces it
        prob = radial_problem(gp23, m, l, 1.0)
        _, b = assemble_galerkin(prob, 20)
        t, vecs = np.linalg.eigh(jacobi_matrix(2.0 * prob.nu_plus,
                                               2.0 * prob.nu_minus, 40))
        half = 0.5 * (gp23.y_plus - gp23.y_minus)
        rho = (1.0 - (gp23.y_minus + half * (1.0 + t))) / 18.0
        quad = (vecs[:20] * rho) @ vecs[:20].T
        assert np.abs(quad - b).max() < 1e-14

    @pytest.mark.parametrize("p,q", [(5, 7), (6, 7)])
    def test_mass_matrix_conditioned_at_large_exponents(self, p, q):
        # cond(B) < (1 - y_minus)/(1 - y_plus) at any exponent and size
        gp = solve_geometry(p, q)
        bound = (1.0 - gp.y_minus) / (1.0 - gp.y_plus)
        for n in (28, 75):
            _, b = assemble_galerkin(radial_problem(gp, 0, 1, 0.0), n)
            assert np.linalg.cond(b) < min(bound, 10.0)


class TestSolveRadial:
    def test_kernel_mode(self, gp23):
        modes = solve_radial(radial_problem(gp23, 0, 0, 0.0), 0, 12)
        assert modes[0].ell == 0.0
        assert np.abs(modes[0].coeffs[1:]).max() < 1e-10

    def test_positive_with_lambda(self, gp23):
        modes = solve_radial(radial_problem(gp23, 0, 0, 5.0), 0, 16)
        assert modes[0].ell > 0.0

    def test_oracle_agreement_m1_l0(self, gp23):
        prob = radial_problem(gp23, 1, 0, 8.0)
        modes = solve_radial(prob, 4, 28)
        for md in modes:
            pad = 0.03 * max(1.0, md.ell)
            ell = shooting_oracle(prob, (md.ell - pad, md.ell + pad), md.k)
            assert md.ell == pytest.approx(ell, rel=1e-6)

    def test_independent_scan_m0_l1(self, gp23):
        prob = radial_problem(gp23, 0, 1, 0.0)
        galerkin = [md.ell for md in solve_radial(prob, 2, 24)]
        scanned = shooting_spectrum(prob, 2, ell_hi=max(galerkin) * 2.0)
        for g, s in zip(galerkin, scanned):
            assert g == pytest.approx(s, rel=1e-6)

    def test_monotone_in_lambda(self, gp23):
        for lam0, lam1 in [(0.0, 2.0), (2.0, 6.0)]:
            for k in range(3):
                e0 = solve_radial(radial_problem(gp23, 1, 0, lam0), k, 20)[k].ell
                e1 = solve_radial(radial_problem(gp23, 1, 0, lam1), k, 20)[k].ell
                assert e1 >= e0 - 1e-10

    def test_conjugate_sector_identity(self):
        # (m, l) and (-m, -l) give bitwise the same eigenpairs: the problem
        # sees them only through quantities even under the sign swap, on
        # which build_modes relies to solve each sign pair once
        for pq in ((2, 3), (3, 4), (4, 7)):
            gp = solve_geometry(*pq)
            for m, l, lam in ((2, -1, 3.0), (1, 1, 0.0), (0, 1, 6.0),
                              (1, 0, 2.0)):
                a = solve_radial(radial_problem(gp, m, l, lam), 2, 24)
                b = solve_radial(radial_problem(gp, -m, -l, lam), 2, 24)
                for ma, mb in zip(a, b):
                    assert ma.ell == mb.ell
                    assert np.array_equal(ma.coeffs, mb.coeffs)
                    assert ma.grid_norm_residual == mb.grid_norm_residual

    def test_strictly_increasing_simple(self, gp23):
        modes = solve_radial(radial_problem(gp23, 1, 1, 4.0), 4, 28)
        ells = [md.ell for md in modes]
        assert all(b > a for a, b in zip(ells, ells[1:]))

    def test_spectral_convergence(self, gp23):
        # change per basis doubling keeps halving, or sits at the roundoff
        # floor (the weighted basis converges to machine precision fast)
        prob = radial_problem(gp23, 0, 1, 6.0)
        e = {n: solve_radial(prob, 4, n)[4].ell for n in (13, 26, 52)}
        d0 = abs(e[13] - e[26])
        d1 = abs(e[26] - e[52])
        assert d1 <= max(0.5 * d0, 1e-12 * max(1.0, abs(e[52])))

    def test_norm_residuals(self, gp23):
        modes = solve_radial(radial_problem(gp23, 1, 0, 8.0), 3, 24)
        assert all(md.grid_norm_residual < 1e-10 for md in modes)

    def test_tables_keyed_by_geometry(self, gp23, gp34):
        # (m, l) = (1, 0) has exponents (1, 1) on both geometries: a dict
        # shared across them must not hand (2, 3)'s rules to (3, 4)
        tables = {}
        for gp in (gp23, gp34):
            prob = radial_problem(gp, 1, 0, 4.0)
            assert char_exponents(gp, 1, 0) == (1.0, 1.0)
            shared = solve_radial(prob, 2, 20, tables)
            fresh = solve_radial(prob, 2, 20)
            for a, b in zip(shared, fresh):
                assert a.ell == b.ell
                assert np.array_equal(a.coeffs, b.coeffs)
                assert a.grid_norm_residual == b.grid_norm_residual

    def test_refinement_check(self, gp23, monkeypatch):
        # one assembly per solve: the check's n_basis system is the leading
        # block of the 25% larger one.  At Lambda = 1000 the top eigenvalues
        # are unresolved with 12 basis functions and resolved with 24
        calls = []
        assemble = radial._stiffness

        def counted(prob, tabs):
            calls.append(len(tabs[0]))
            return assemble(prob, tabs)

        monkeypatch.setattr(radial, "_stiffness", counted)
        prob = radial_problem(gp23, 0, 0, 1000.0)
        with pytest.raises(NotConverged,
                           match="moved by .* under basis refinement"):
            solve_radial(prob, 4, 12)
        assert calls == [15]
        assert len(solve_radial(prob, 4, 24)) == 5
        assert calls == [15, 30]

    def test_nbasis_guard(self, gp23):
        with pytest.raises(ValueError):
            solve_radial(radial_problem(gp23, 0, 0, 0.0), 4, 8)

    def test_eigensolver_failure_fails_loudly(self, gp23, monkeypatch,
                                              capsys):
        # an eigensolve LAPACK refuses (the refinement check's comes
        # first) is an EigenFailure naming the problem, also in the CLI
        def refuse(pencil):
            raise LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(radial, "eigvalsh", refuse)
        with pytest.raises(EigenFailure, match=r"\(p, q, m, l, Lambda\) = "
                           r"\(2, 3, 1, -1, 0\.5\), n_basis = 16: Eigenvalues "):
            solve_radial(radial_problem(gp23, 1, -1, 0.5), 1, 16)
        assert run(["radial", "--p", "2", "--q", "3", "--m", "0", "--l", "1",
                    "--Lambda", "0", "--kmax", "1", "--nbasis", "12"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Galerkin eigensolve failed for "
                              "(p, q, m, l, Lambda) = (2, 3, 0, 1, 0.0), "
                              "n_basis = 12: ")

    def test_nonfinite_eigenvalue_fails_loudly(self, gp23, capsys):
        # Lambda = 1e308 overflows the Galerkin system: its eigenvalues
        # are inf and nan, refused with the problem named before the
        # refinement check compares them, also in the CLI
        with pytest.raises(OutOfRange, match=r"\(p, q, m, l, Lambda\) = "
                           r"\(2, 3, 0, 0, 1e\+308\), n_basis = 40 are not "
                           r"finite"):
            solve_radial(radial_problem(gp23, 0, 0, 1e308), 1, 40)
        assert run(["radial", "--p", "2", "--q", "3", "--m", "0", "--l", "0",
                    "--Lambda", "1e308", "--kmax", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: Galerkin eigenvalues of ")


class TestEval:
    def test_constant_value(self, gp23):
        md = solve_radial(radial_problem(gp23, 0, 0, 0.0), 0, 12)[0]
        ym, yp = gp23.y_minus, gp23.y_plus
        rho_mass = ((yp - ym) - (yp ** 2 - ym ** 2) / 2.0) / 18.0
        expect = 1.0 / math.sqrt(rho_mass)
        for y in (0.0, 0.2, ym + 1e-6):
            assert abs(md.value(y)) == pytest.approx(expect, rel=1e-12)

    def test_out_of_range(self, gp23):
        md = solve_radial(radial_problem(gp23, 0, 0, 0.0), 0, 12)[0]
        with pytest.raises(OutOfRange):
            md.value(gp23.y_plus)

    @pytest.mark.parametrize("m,l,k", [(0, 1, 0), (1, 0, 1), (2, -1, 0)])
    def test_endpoint_slopes(self, gp23, m, l, k):
        prob = radial_problem(gp23, m, l, 0.0)
        md = solve_radial(prob, k, 24)[k]
        delta = gp23.y_plus - gp23.y_minus
        d = np.logspace(-4, -3, 12) * delta
        for exponent, y in ((prob.nu_minus, gp23.y_minus + d),
                            (prob.nu_plus, gp23.y_plus - d)):
            vals = np.abs(md.value(y))
            if exponent == 0.0:
                assert vals.min() > 1e-6  # no decay for the Friedrichs case
                continue
            slope = np.polyfit(np.log(d), np.log(vals), 1)[0]
            assert slope == pytest.approx(exponent, abs=0.05)

    def test_mode_orthogonality(self, gp23):
        prob = radial_problem(gp23, 1, 0, 8.0)
        modes = solve_radial(prob, 1, 20)
        deg = int(2 * (prob.nu_minus + prob.nu_plus)) + 2 * len(modes[0].coeffs)
        y, w = rule_on_interval(gp23.y_minus, gp23.y_plus, 0.0, 0.0,
                                deg // 2 + 4)
        rho = (1.0 - y) / 18.0
        inner = float(np.dot(w * rho, modes[0].value(y) * modes[1].value(y)))
        assert abs(inner) < 1e-9

    def test_operator_residual_pointwise(self, gp23):
        md = solve_radial(radial_problem(gp23, 1, 1, 6.0), 2, 32)[2]
        ys = np.linspace(gp23.y_minus + 0.08, gp23.y_plus - 0.08, 25)
        assert np.abs(md.operator_residual(ys)).max() < 1e-8


class TestShooting:
    def test_kernel_root(self, gp23):
        prob = radial_problem(gp23, 0, 0, 0.0)
        ell = shooting_oracle(prob, (-1e-6, 1e-6), 0)
        assert abs(ell) < 1e-10

    def test_bracket_error(self, gp23):
        prob = radial_problem(gp23, 1, 0, 8.0)
        with pytest.raises(BracketError):
            shooting_oracle(prob, (1.0, 2.0), 0)  # no eigenvalue in there

    def test_matcher_smooth(self, gp23):
        prob = radial_problem(gp23, 0, 1, 0.0)
        vals = [shooting_matcher(prob, e) for e in (1.0, 5.0, 20.0)]
        assert all(np.isfinite(v) for v in vals)

    def test_radial_matrix_agreement(self, gp23, gp34):
        # one spot check per geometry beyond the dedicated acceptance run
        lam = angular_eigenvalue(1, 0, 1)
        for gp in (gp23, gp34):
            prob = radial_problem(gp, 2, -1, lam)
            modes = solve_radial(prob, 1, 24)
            for md in modes:
                pad = 0.03 * max(1.0, md.ell)
                ell = shooting_oracle(prob, (md.ell - pad, md.ell + pad), md.k)
                assert md.ell == pytest.approx(ell, rel=1e-6)

    @pytest.mark.parametrize("bracket", [(math.nan, 1.0), (0.5, math.nan),
                                         (-math.inf, 1.0), (0.5, math.inf)])
    def test_non_finite_bracket_rejected(self, gp23, bracket):
        prob = radial_problem(gp23, 1, 0, 8.0)
        with pytest.raises(BracketError, match="finite"):
            shooting_oracle(prob, bracket, 0)
        bad = next(e for e in bracket if not math.isfinite(e))
        with pytest.raises(BracketError, match="finite"):
            shooting_matcher(prob, bad)

    @pytest.mark.parametrize("p,q,m,l,lam", [(2, 3, 0, 0, 0.0),
                                             (2, 3, 1, 0, 8.0),
                                             (3, 4, 2, -1, 6.0)])
    def test_ode_coefficients(self, request, p, q, m, l, lam):
        gp = request.getfixturevalue(f"gp{p}{q}")
        prob = radial_problem(gp, m, l, lam)
        ys = np.linspace(gp.y_minus, gp.y_plus, 9)[1:-1]
        p_c, q_c, r0_c, r1_c = shooting._ode_coeffs(prob)
        for ell in (-2.0, 0.0, 3.5, 60.0):
            refs = _docstring_rows(prob, ell)
            for y in ys:
                got = npp.polyval(y, np.array([p_c, q_c, r0_c + ell * r1_c]).T)
                for g, ref in zip(got, refs):
                    # relative to sum |c_k| |y|^k, the size of the terms
                    scale = Polynomial(np.abs(ref.coef))(abs(y))
                    assert abs(g - ref(y)) <= 1e-13 * scale

    # (2, 3, 0, 0, 0) has 2 of its 15 zeros at ell = 1500 inside the
    # launch distance
    @pytest.mark.parametrize("p,q,m,l,lam", [(2, 3, 0, 0, 0.0),
                                             (2, 3, 1, 0, 8.0),
                                             (2, 3, 0, 1, 0.0),
                                             (3, 4, 2, -1, 6.0),
                                             (3, 4, 1, 1, 2.0)])
    def test_matcher_matches_dop853_reference(self, request, p, q, m, l, lam):
        prob = radial_problem(request.getfixturevalue(f"gp{p}{q}"), m, l, lam)
        for ell in (0.5, 7.0, 40.0, 200.0, 1500.0):
            ref_mism, ref_count = _reference_matcher(prob, ell)
            assert abs(shooting_matcher(prob, ell) - ref_mism) < 1e-10
            assert shooting._oscillation_count(prob, ell) == ref_count

    @pytest.mark.parametrize("p,q", [(5, 9), (6, 11)])
    @pytest.mark.parametrize("l", [1, -1])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_large_exponent_excitations(self, p, q, l, k):
        # nu up to 202.5: the eigenfunction is tiny at the midpoint, so
        # the match and the count must happen near its peak
        prob = radial_problem(solve_geometry(p, q), 0, l, 0.0)
        md = solve_radial(prob, 2, 28)[k]
        ell = shooting_oracle(prob, (0.995 * md.ell, 1.005 * md.ell), k)
        assert ell == pytest.approx(md.ell, rel=1e-6)

    @pytest.mark.parametrize("p,q,l", [(5, 7, 1), (5, 7, -1), (6, 7, 1),
                                       (6, 7, -1)])
    def test_largest_exponents_match_oracle(self, p, q, l):
        # nu up to 367.5: solve_radial passes its 25% refinement check, and
        # the shooting oracle agrees to 1e-12 for k <= 2
        prob = radial_problem(solve_geometry(p, q), 0, l, 0.0)
        modes = solve_radial(prob, 2, 28)
        gap = min(b.ell - a.ell for a, b in zip(modes, modes[1:]))
        for md in modes:
            ell = shooting_oracle(prob, (md.ell - 0.3 * gap,
                                         md.ell + 0.3 * gap), md.k)
            assert abs(md.ell - ell) <= 1e-12 * ell
            assert md.grid_norm_residual < 1e-12

    def test_oracle_imports_no_galerkin_code(self):
        tree = ast.parse(Path(shooting.__file__).read_text())
        paths = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                base = (node.module or "").split(".")
                paths += [(*base, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                paths += [tuple(alias.name.split(".")) for alias in node.names]
        for path in paths:
            assert "specfun" not in path and "spectrum" not in path, path
            if "radial" in path:
                assert path[-2:] == ("radial", "RadialProblem"), path

    @pytest.mark.parametrize("terms,floor", [(8, 1e-6), (20, 0.02)])
    def test_series_failure_is_loud(self, gp23, monkeypatch, terms, floor):
        # 8 terms cannot launch the Frobenius series; 20 launch it but the
        # first shortened interior step falls below the raised floor
        monkeypatch.setattr(shooting, "_SERIES_TERMS", terms)
        monkeypatch.setattr(shooting, "_STEP_FLOOR", floor)
        prob = radial_problem(gp23, 1, 0, 8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConverged,
                               match=r"\(2, 3, 1, 0, 8\.0\), ell = 20\.0"):
                shooting_matcher(prob, 20.0)

    @pytest.mark.parametrize("p,q,m,l", [(5, 7, 0, 1), (5, 7, 0, -1),
                                         (5, 9, 0, 1)])
    def test_large_exponent_reach(self, monkeypatch, p, q, m, l):
        # nu up to 367.5 at ell = 1000: finite, quiet and step-independent
        prob = radial_problem(solve_geometry(p, q), m, l, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coarse = shooting_matcher(prob, 1000.0)
            monkeypatch.setattr(shooting, "_STEP_FRACTION",
                                0.5 * shooting._STEP_FRACTION)
            fine = shooting_matcher(prob, 1000.0)
        assert math.isfinite(coarse)
        assert abs(fine - coarse) < 1e-10

    @pytest.mark.parametrize("kwargs,name", [({"k_max": -1}, "k_max"),
                                             ({"ell_hi": 0.0}, "ell_hi"),
                                             ({"ell_hi": -5.0}, "ell_hi"),
                                             ({"ell_hi": math.nan}, "ell_hi"),
                                             ({"ell_hi": math.inf}, "ell_hi")])
    def test_spectrum_refuses_hopeless_scan(self, gp23, monkeypatch, kwargs,
                                            name):
        def no_matcher(*args, **kw):
            raise AssertionError("the scan must not start")

        monkeypatch.setattr(shooting, "shooting_matcher", no_matcher)
        prob = radial_problem(gp23, 1, 0, 0.0)
        with pytest.raises(OutOfRange, match=name):
            shooting_spectrum(prob, **{"k_max": 2, **kwargs})

    @pytest.mark.parametrize("ells,i", [([], 0), ([3.0], 1), ([1.0, 4.0], 2),
                                        ([1.0, 4.0], -1)])
    def test_bracket_index_outside_the_list(self, ells, i):
        with pytest.raises(OutOfRange,
                           match=rf"estimate {i} of a list of {len(ells)}"):
            oracle_bracket(ells, i)

    def test_each_ell_shot_once(self, gp23, monkeypatch):
        # brentq looks at the bracket ends again and the zero count needs
        # the root's halves: both must come from what was already shot
        shot = []
        halves = shooting._halves

        def recording(prob, ell):
            shot.append(ell)
            return halves(prob, ell)

        monkeypatch.setattr(shooting, "_halves", recording)
        prob = radial_problem(gp23, 1, 0, 8.0)
        for md in solve_radial(prob, 1, 24):
            shot.clear()
            pad = 0.02 * max(1.0, md.ell)
            shooting_oracle(prob, (md.ell - pad, md.ell + pad), md.k)
            assert len(shot) > 2
            assert sorted(shot) == sorted(set(shot))
        # one scan pass finds these three roots: no ell recurs in the call
        prob = radial_problem(gp23, 0, 1, 0.0)
        galerkin = [md.ell for md in solve_radial(prob, 2, 24)]
        shot.clear()
        shooting_spectrum(prob, 2, ell_hi=max(galerkin) * 2.0)
        assert len(shot) > 24 * 4
        assert sorted(shot) == sorted(set(shot))

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4)])
    @pytest.mark.parametrize("m,l", [(0, 0), (1, 0)])
    @pytest.mark.parametrize("lam", [0.0, 5.0])
    def test_oracle_bitwise_plain_brentq(self, request, p, q, m, l, lam):
        # the memo reuses shots, it changes no value: the root is brentq's
        # on the plain matcher, and the count is that of a fresh shot
        from scipy.optimize import brentq
        prob = radial_problem(request.getfixturevalue(f"gp{p}{q}"), m, l, lam)
        for md in solve_radial(prob, 1, 28):
            pad = 0.02 * max(1.0, md.ell)
            lo, hi = (-1e-6, 1e-6) if md.ell == 0.0 else (md.ell - pad,
                                                           md.ell + pad)
            ref = brentq(lambda e: shooting_matcher(prob, e), lo, hi,
                         xtol=1e-13, rtol=1e-12)
            assert shooting_oracle(prob, (lo, hi), md.k) == ref
            count = shooting._oscillation_count(prob, ref)
            assert shooting._root(prob, lo, hi) == (ref, count) == (ref, md.k)



# (f, bracket): the secant alone; inverse quadratic extrapolation, with a
# short step refused for bisection; bisection only (|f| never shrinks);
# a root at either end of the bracket
BRENT_CASES = [(lambda x: x - 0.3, 0.0, 1.0),
               (lambda x: math.exp(x) - 2.0, -1.0, 3.0),
               (lambda x: math.copysign(1.0, x - 0.7), 0.0, 1.0),
               (lambda x: x * (x - 2.0), 0.0, 1.0),
               (lambda x: x * (x - 2.0), -1.0, 0.0)]


class TestBrent:
    """The oracle's root finder takes scipy.optimize.brentq's steps."""

    @pytest.mark.parametrize("f,lo,hi", BRENT_CASES)
    def test_bitwise_scipy(self, f, lo, hi):
        from scipy.optimize import brentq
        ours, theirs = [], []
        root = shooting._brentq(lambda x: ours.append(x) or f(x), lo, hi, "f")
        ref = brentq(lambda x: theirs.append(x) or f(x), lo, hi,
                     xtol=1e-13, rtol=1e-12)
        assert root == ref and ours == theirs

    def test_bitwise_scipy_seeded(self):
        # the same points and root as scipy: 300 seeded monotone functions
        from scipy.optimize import brentq
        rng = np.random.default_rng(27)
        families = [lambda x, r, s: math.tanh(s * (x - r)),
                    lambda x, r, s: math.atan(s * (x - r)) + 0.1 * (x - r),
                    lambda x, r, s: math.expm1(s * (x - r)) + (x - r) ** 5]
        for k in range(300):
            r, s = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0)
            lo, hi = r - rng.uniform(0.01, 5.0), r + rng.uniform(0.01, 5.0)
            fam = families[k % 3]
            ours, theirs = [], []
            root = shooting._brentq(
                lambda x: ours.append(x) or fam(x, r, s), lo, hi, "f")
            ref = brentq(lambda x: theirs.append(x) or fam(x, r, s), lo, hi,
                         xtol=1e-13, rtol=1e-12)
            assert root == ref and ours == theirs

    def test_iterations_run_out(self):
        # scipy's brentq stops unconverged on this triple root too
        from scipy.optimize import brentq

        def f(x):
            return (x - 1 / 3) ** 3

        _, res = brentq(f, -1.0, 2.0, xtol=1e-13, rtol=1e-12,
                        full_output=True, disp=False)
        assert not res.converged
        with pytest.raises(NotConverged, match=r"f has no root within 100 "
                           r"Brent iterations on \[-1.0, 2.0\]"):
            shooting._brentq(f, -1.0, 2.0, "f")

    @pytest.mark.parametrize("f", [
        lambda x: math.nan,
        lambda x: x - 0.3 if x in (0.0, 1.0) else math.nan,
        lambda x: math.inf if x else -1.0])
    def test_non_finite_value(self, f):
        with pytest.raises(NotConverged,
                           match=r"f is .* at .*, bracket \[0.0, 1.0\]"):
            shooting._brentq(f, 0.0, 1.0, "f")

    def test_no_sign_change(self):
        # 1e-200 squared underflows: the sign test takes no product
        with pytest.raises(BracketError, match="no sign change of f"):
            shooting._brentq(lambda x: 1e-200, 0.0, 1.0, "f")

    def test_oracle_names_problem_and_bracket(self, gp23, monkeypatch):
        monkeypatch.setattr(shooting, "_mismatch", lambda halves: math.nan)
        prob = radial_problem(gp23, 0, 0, 0.0)
        with pytest.raises(NotConverged, match=re.escape(
                "the mismatch of (p, q, m, l, Lambda) = (2, 3, 0, 0, 0.0) "
                "is nan at -1e-06, bracket [-1e-06, 1e-06]")):
            shooting_oracle(prob, (-1e-6, 1e-6), 0)


def _docstring_rows(prob, ell):
    """P, Q and R of the shooting module docstring, built with Polynomial."""
    a, mu, m = prob.gp.a, prob.alpha_freq, prob.m
    a2 = Polynomial([a, 0.0, -1.0])
    c3 = Polynomial([a, 0.0, -3.0, 2.0])
    one_my = Polynomial([1.0, -1.0])
    pol = 12.0 * m * a2 + mu * Polynomial([a, -2.0, 1.0])
    return (72.0 * a2 * c3 ** 2, 72.0 * a2 * c3 * c3.deriv(),
            36.0 * ell * one_my * a2 * c3 - 216.0 * prob.lambda_cap * a2 * c3
            - 18.0 * mu ** 2 * one_my ** 2 * c3 - 9.0 * one_my * pol ** 2)


def _reference_matcher(prob, ell):
    """The Wronskian mismatch and the zero count of the shooting module
    from its docstring: a plain Frobenius recurrence launches each half
    0.02 of the interval inside its endpoint, DOP853 at rtol 1e-13
    carries it to the match point y*, and the zeros are the sign changes
    of the launch series and of the dense output, 4000 points each."""
    gp = prob.gp
    rows = _docstring_rows(prob, ell)
    d0 = 0.02 * (gp.y_plus - gp.y_minus)
    nu_lo, nu_hi = prob.nu_minus, prob.nu_plus
    y_match = 0.5 * (gp.y_minus + gp.y_plus)
    if nu_lo + nu_hi > 0.0:
        margin = 0.1 * (gp.y_plus - gp.y_minus)
        y_match = min(max((nu_lo * gp.y_plus + nu_hi * gp.y_minus)
                          / (nu_lo + nu_hi), gp.y_minus + margin),
                      gp.y_plus - margin)
    ends, count = [], 0
    for y_end, nu, sgn in ((gp.y_minus, nu_lo, 1.0),
                           (gp.y_plus, nu_hi, -1.0)):
        # coefficients in z = sgn (y - y_end); d/dy = sgn d/dz
        z = Polynomial([y_end, sgn])
        pz, qz, rz = (np.pad(c(z).coef, (0, 80)) for c in
                      (rows[0], sgn * rows[1], rows[2]))
        coef = [1.0]
        for s in range(1, 60):
            acc = sum(coef[k] * (pz[s + 2 - k] * (nu + k) * (nu + k - 1.0)
                                 + qz[s + 1 - k] * (nu + k) + rz[s - k])
                      for k in range(s))
            x = nu + s
            coef.append(-acc / (pz[2] * x * (x - 1.0) + qz[1] * x + rz[0]))
        u0 = sum(c * d0 ** k for k, c in enumerate(coef))
        du0 = sgn * sum((nu + k) * c * d0 ** (k - 1)
                        for k, c in enumerate(coef))
        p_c, q_c, r_c = (r.coef for r in rows)
        sol = solve_ivp(
            lambda y, v: [v[1], -(npp.polyval(y, q_c) * v[1]
                                  + npp.polyval(y, r_c) * v[0])
                          / npp.polyval(y, p_c)],
            (y_end + sgn * d0, y_match), [u0, du0], method="DOP853",
            rtol=1e-13, atol=1e-15, dense_output=True)
        ends.append(sol.y[:, -1] / np.hypot(*sol.y[:, -1]))
        # z^nu > 0: the launch series has the sign of its polynomial part
        vals = np.concatenate([
            npp.polyval(np.linspace(0.0, d0, 4000), coef),
            sol.sol(np.linspace(y_end + sgn * d0, y_match, 4000))[0]])
        count += int(np.sum(vals[1:] * vals[:-1] < 0.0))
    (ul, dul), (ur, dur) = ends
    return ul * dur - dul * ur, count
