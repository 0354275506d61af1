"""Moduli surface: boundary parameters, the implicit tau, Delta, derivatives,
and critical-lattice bases."""

import math
from decimal import Decimal, getcontext

import mpmath as mp
import numpy as np
import pytest

from critlat.interval import DomainError
from critlat import moduli as M

SQRT3 = math.sqrt(3.0)


class TestSigmaP:
    def test_p2_closed_form(self):
        assert abs(M.sigma_p(2.0) - SQRT3) < 4e-16

    def test_p3_highprec_oracle(self):
        getcontext().prec = 40
        oracle = float(Decimal(7) ** (Decimal(1) / 3))
        assert abs(M.sigma_p(3.0) - oracle) < 1e-14

    def test_rejects_p_at_most_1(self):
        with pytest.raises(DomainError):
            M.sigma_p(1.0)
        with pytest.raises(DomainError):
            M.sigma_p(0.5)

    def test_hp_matches(self):
        assert abs(float(M.sigma_p_hp(2.4)) - M.sigma_p(2.4)) < 1e-14


class TestTauP:
    def test_p2_closed_form(self):
        # expanding 2(1-t)^2 = 1 + t^2 gives t^2 - 4t + 1 = 0, root 2 - sqrt3
        assert abs(M.tau_p(2.0) - (2.0 - SQRT3)) < 1e-14

    def test_defining_residual(self):
        for p in (1.5, 2.5, 3.0):
            t = M.tau_p(p)
            assert abs(2.0 * (1.0 - t) ** p - 1.0 - t**p) < 1e-13

    def test_monotone_sample_via_bisection_oracle(self):
        assert M.tau_p(1.2, newton=False) > M.tau_p(3.0, newton=False)

    def test_newton_agrees_with_bisection(self):
        for p in (1.3, 2.0, 2.7, 3.8):
            assert abs(M.tau_p(p) - M.tau_p(p, newton=False)) < 1e-12

    @pytest.mark.parametrize("p", [1e10, 1e11, 1e12, 1e13, 1e14])
    def test_large_p_matches_mpmath(self, p):
        # tau_p ~ ln2/p: (1 - t)^p goes through log1p, so the residual keeps
        # t's digits, and the bisection stops at a width relative to the root
        with mp.workprec(120):
            pm = mp.mpf(p)
            ref = mp.findroot(
                lambda t: mp.log(2) + pm * mp.log1p(-t) - mp.log1p(t**pm),
                (0.5 * mp.log(2) / pm, 1.5 * mp.log(2) / pm), solver="illinois")
        assert abs(M.tau_p(p) - float(ref)) <= 1e-12 * float(ref)

    def test_hp_residual(self):
        getcontext().prec = 40
        p = Decimal(2.4)  # exact double, matching the solver's conversion
        t = M.tau_p_hp(2.4)
        resid = 2 * (1 - t) ** p - 1 - t**p
        assert abs(resid) < Decimal("1e-30")


class TestTauPoint:
    def test_zero_at_sigma_p(self):
        # the float sigma_p lands within an ulp of the true edge, so the root
        # is zero up to machine epsilon
        for p in (1.4, 2.0, 2.7, 4.0):
            assert abs(M.tau_point(p, M.sigma_p(p))) < 1e-12

    def test_tau_p_at_sigma_1(self):
        for p in np.linspace(1.4, 4.0, 9):
            assert abs(M.tau_point(p, 1.0) - M.tau_p(p)) < 1e-10

    def test_interior_residual(self):
        t = M.tau_point(2.0, 1.3)
        assert 0.0 < t < 0.268
        assert abs(M._f_resid(2.0, 1.3, t)) < 1e-13

    def test_no_root_outside_domain(self):
        with pytest.raises(M.NoRootInRange):
            M.tau_point(2.0, 1.99)  # sigma beyond sigma_p(2) = sqrt3

    def test_bisection_oracle_agrees(self):
        for (p, s) in ((1.7, 1.2), (2.3, 1.5), (3.1, 1.05)):
            assert abs(M.tau_point(p, s) - M.tau_point(p, s, newton=False)) < 1e-12

    def test_vectorized_agrees(self):
        rng = np.random.default_rng(3)
        ps = rng.uniform(1.5, 3.5, 60)
        ss = 1.0 + rng.uniform(0.0, 1.0, 60) * (M.sigma_p(1.5) - 1.0)
        taus = M.tau_point_vec(ps, ss)
        for i in range(0, 60, 7):
            assert abs(taus[i] - M.tau_point(ps[i], ss[i])) < 1e-10


class TestDelta:
    def test_delta_2_1(self):
        assert abs(M.delta_point(2.0, 1.0).delta - SQRT3 / 2.0) < 1e-14

    def test_delta_2_sqrt3(self):
        assert abs(M.delta_point(2.0, SQRT3).delta - SQRT3 / 2.0) < 1e-14

    def test_delta_at_sigma_p(self):
        for p in (2.2, 2.5):
            assert abs(M.delta_point(p, M.sigma_p(p)).delta - M.sigma_p(p) / 2.0) < 1e-12

    def test_closed_forms_on_grid(self):
        for p in np.linspace(1.4, 4.0, 11):
            tp = M.tau_p(p)
            low = 4.0 ** (-1.0 / p) * (1.0 + tp) / (1.0 - tp)
            assert abs(M.delta_point(p, 1.0).delta - low) < 1e-10
            sp = M.sigma_p(p)
            assert abs(M.delta_point(p, sp).delta - sp / 2.0) < 1e-10

    def test_p2_degeneracy(self):
        vals = [M.delta_point(2.0, s).delta for s in np.linspace(1.0, SQRT3, 40)]
        assert max(vals) - min(vals) < 1e-10

    def test_ma_spot_check(self):
        # float-level Minkowski inequality on 100x100 windows; strict interior
        # excess away from p = 2
        for pc in (1.5, 2.3, 3.0):
            ps = np.linspace(pc - 0.02, pc + 0.02, 100)
            sp_min = M.sigma_p(ps.min())
            sig = np.linspace(1.0, sp_min, 100)
            P, S = np.meshgrid(ps, sig, indexing="ij")
            deltas = M.delta_point_vec(P.ravel(), S.ravel())
            bounds = np.array([M.boundary_min(p).value for p in ps])
            B = np.repeat(bounds, 100)
            assert np.all(deltas >= B - 1e-12)
            interior = (S.ravel() > 1.05) & (S.ravel() < sp_min - 0.05)
            assert np.all(deltas[interior] > B[interior])

    def test_hp_agrees(self):
        d = M.delta_point_hp(2.3, 1.4)
        assert abs(float(d) - M.delta_point(2.3, 1.4).delta) < 1e-13


class TestBoundaryMin:
    def test_tie_at_p2(self):
        bm = M.boundary_min(2.0)
        assert bm.side == "tie"
        assert abs(bm.value - SQRT3 / 2.0) < 1e-12

    def test_sides(self):
        assert M.boundary_min(2.2).side == "sigma=sigma_p"
        assert M.boundary_min(3.0).side == "sigma=1"


class TestDerivatives:
    def test_p2_flat_in_sigma(self):
        for s in (1.1, 1.3, 1.6):
            d = M.derivatives(2.0, s)
            assert abs(d.d_sigma) < 1e-10

    def test_against_central_differences(self):
        h = 1e-5
        for (p, s) in ((2.3, 1.2), (1.7, 1.3), (3.0, 1.4)):
            d = M.derivatives(p, s)
            f = lambda pp, ss: M.delta_point(pp, ss).delta
            fd_s = (f(p, s + h) - f(p, s - h)) / (2 * h)
            fd_p = (f(p + h, s) - f(p - h, s)) / (2 * h)
            fd_ss = (f(p, s + h) - 2 * f(p, s) + f(p, s - h)) / h**2
            assert abs(d.d_sigma - fd_s) <= 1e-6 * max(1.0, abs(fd_s))
            assert abs(d.d_p - fd_p) <= 1e-6 * max(1.0, abs(fd_p))
            assert abs(d.d_sigma2 - fd_ss) <= 1e-4 * max(1.0, abs(fd_ss))

    def test_no_singular_constraint_on_grid(self):
        for p in np.linspace(1.5, 3.5, 12):
            sp = M.sigma_p(p)
            for s in np.linspace(1.02, sp * 0.97, 12):
                M.derivatives(p, s)  # must not raise

    def test_interior_required(self):
        with pytest.raises(DomainError):
            M.derivatives(2.4, M.sigma_p(2.4))

    def test_stationary_on_both_edges(self):
        # dDelta/dsigma vanishes identically on sigma = 1 and (by continuity
        # of the same identity) at the sigma_p edge; the monotone certificates
        # rest on this, so pin it numerically.
        for p in (1.5, 2.2, 2.4, 2.57, 3.0, 3.5):
            assert abs(M.derivatives(p, 1.0).d_sigma) < 1e-12
            sp = M.sigma_p(p)
            near = M.derivatives(p, sp * (1.0 - 1e-5))
            assert abs(near.d_sigma) < 5e-4


class TestLattices:
    def test_l0_basis_p2(self):
        L = M.lattice_basis("L0", 2.0)
        assert L.omega1 == (1.0, 0.0)
        assert abs(L.omega2[0] - 0.5) < 1e-15
        assert abs(L.omega2[1] - SQRT3 / 2.0) < 1e-15

    def test_l0_det_is_sigma_p_half(self):
        for p in (2.2, 2.5):
            assert abs(M.lattice_det(M.lattice_basis("L0", p)) - M.sigma_p(p) / 2) < 1e-14

    def test_l1_det_p2_closed_form(self):
        # the historical p=2 basis (-2^{-1/2}, 2^{-1/2}), (sqrt(2-sqrt3)/2,
        # sqrt(2+sqrt3)/2) spans the same lattice; both give sqrt3/2
        h = 2.0**-0.5
        x = math.sqrt(2.0 - SQRT3) / 2.0
        y = math.sqrt(2.0 + SQRT3) / 2.0
        det_hist = abs(-h * y - h * x)
        assert abs(det_hist - SQRT3 / 2.0) < 1e-14
        assert abs(M.lattice_det(M.lattice_basis("L1", 2.0)) - SQRT3 / 2.0) < 1e-14

    def test_l1_points_on_unit_curve(self):
        for p in (1.5, 2.0, 2.7, 3.3):
            L = M.lattice_basis("L1", p)
            pts = [L.omega1, L.omega2,
                   (L.omega1[0] + L.omega2[0], L.omega1[1] + L.omega2[1])]
            for (x, y) in pts:
                assert abs(abs(x) ** p + abs(y) ** p - 1.0) < 1e-12

    def test_l1_det_equals_delta_at_sigma_1(self):
        for p in (1.5, 2.0, 3.0):
            det = M.lattice_det(M.lattice_basis("L1", p))
            assert abs(det - M.delta_point(p, 1.0).delta) < 1e-12

    def test_unit_square(self):
        assert M.lattice_det(M.Lattice2((1.0, 0.0), (0.0, 1.0))) == 1.0

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            M.lattice_basis("L7", 2.0)
