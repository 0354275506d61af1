"""Complexified lattices, Eisenstein invariants, Weierstrass curves, doubling
dynamics."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from critlat import moduli as M
from critlat import elliptic as EL

SQRT3 = math.sqrt(3.0)
ZETA6 = complex(0.5, SQRT3 / 2.0)


def hex_lattice():
    return EL.complexify(M.lattice_basis("L0", 2.0))


def square_lattice():
    return EL.ComplexLattice(1.0 + 0j, 1j)


def thin_lattice():
    # reduces to Im tau ~ 5: q ~ 2e-14, so the discriminant still clears its
    # error bound (the 0.5 + 0.001j lattice of the guard test does not)
    return EL.ComplexLattice(1.0 + 0j, 0.5 + 0.05j)


def oracle_lattices():
    out = {"hex": hex_lattice(), "square": square_lattice()}
    for kind in ("L0", "L1"):
        for p in (2.5, 3.0):
            out[f"{kind}@{p}"] = EL.complexify(M.lattice_basis(kind, p))
    return out


def disk_p(L, z, target):
    """p(z) by the defining series 1/z^2 + sum'((z+alpha)^-2 - alpha^-2) over
    a symmetric disk, so the +-alpha pairing is exact and the tail behaves
    like |z|^2 |alpha|^-4.  Returns (value, tail bound)."""
    rho = EL.covering_radius_bound(L)
    az = abs(z)
    radius = max(8.0 * rho, 4.0 * az, 4.0)

    def p_tail(R):
        if R <= 2.0 * az:
            return math.inf
        q = 1.0 - (az / R) ** 2
        pair_const = 2.0 * az**2 * (3.0 + (az / R) ** 2) / q**2
        return pair_const * EL.tail_bound(L, R, 4.0)

    while p_tail(radius) > target:
        radius *= 1.5
    pts = EL.lattice_points(L, radius)
    terms = 1.0 / (z + pts) ** 2 - 1.0 / pts**2
    return 1.0 / z**2 + complex(np.sum(terms)), p_tail(radius)


def exact_reduced_basis(L):
    """Lagrange-Gauss reduction over the rationals (independent of
    elliptic._reduce): the reduced pair as Fraction coordinates."""
    v1 = (Fraction(L.omega1.real), Fraction(L.omega1.imag))
    v2 = (Fraction(L.omega2.real), Fraction(L.omega2.imag))
    if v1[0] * v2[1] - v1[1] * v2[0] < 0:
        v2 = (-v2[0], -v2[1])
    while True:
        n1 = v1[0] ** 2 + v1[1] ** 2
        k = round((v1[0] * v2[0] + v1[1] * v2[1]) / n1)
        v2 = (v2[0] - k * v1[0], v2[1] - k * v1[1])
        if v2[0] ** 2 + v2[1] ** 2 >= n1:
            return v1, v2
        v1, v2 = v2, (-v1[0], -v1[1])


class TestComplexify:
    def test_hexagonal_basis(self):
        L = hex_lattice()
        assert L.omega1 == 1.0 + 0j
        assert abs(L.omega2 - ZETA6) < 1e-15

    def test_general_p_basis(self):
        for p in (2.2, 2.5):
            L = EL.complexify(M.lattice_basis("L0", p))
            assert abs(L.omega2 - complex(0.5, M.sigma_p(p) / 2.0)) < 1e-15

    def test_orientation_swap(self):
        L = EL.complexify(M.Lattice2((0.5, 0.5 * SQRT3), (1.0, 0.0)))
        assert ((L.omega2 / L.omega1).imag) > 0.0

    def test_real_ratio_rejected(self):
        with pytest.raises(EL.DegenerateLattice):
            EL.complexify(M.Lattice2((1.0, 0.0), (2.0, 0.0)))


class TestEisenstein:
    def test_hexagonal_c2_vanishes(self):
        # order-6 symmetry: multiplying alpha by zeta_6 permutes the disk
        # truncation and scales the sum by zeta_6^-4 != 1
        c2 = EL.eisenstein(hex_lattice(), 2, target=1e-4)
        assert abs(c2.value) <= 1e-10
        assert c2.tail <= 1e-4

    def test_square_c2_real_positive_stable(self):
        L = square_lattice()
        a = EL.eisenstein(L, 2, target=1e-4)
        assert abs(a.value.imag) < 1e-12
        assert a.value.real > 0.0
        # doubling the radius moves the value far less than the quoted tail
        pts_r = EL.lattice_points(L, a.radius)
        pts_2r = EL.lattice_points(L, 2.0 * a.radius)
        v_r = complex(np.sum(pts_r**-4))
        v_2r = complex(np.sum(pts_2r**-4))
        assert abs(v_r - v_2r) <= a.tail
        assert abs(v_r - v_2r) <= 1e-8  # angular cancellation: far tighter

    def test_exponent_guard(self):
        with pytest.raises(EL.ExponentTooSmall):
            EL.eisenstein(hex_lattice(), 1)

    def test_tail_bound_decreases(self):
        L = hex_lattice()
        assert EL.tail_bound(L, 40.0, 4.0) > EL.tail_bound(L, 80.0, 4.0)

    def test_scaling_covariance(self):
        L = hex_lattice()
        c3 = EL.eisenstein(L, 3, target=1e-7)
        for s in (2.0 + 0j, 1.0 + 1.0j):
            Ls = EL.ComplexLattice(L.omega1 * s, L.omega2 * s)
            c3s = EL.eisenstein(Ls, 3, target=1e-7)
            assert abs(c3s.value - c3.value * s**-6) < 1e-6


class TestWeierstrassCurve:
    def test_hexagonal_equianharmonic(self):
        E = EL.weierstrass_curve(hex_lattice())
        assert abs(E.g2) <= 1e-8
        assert abs(E.g3) > 1.0
        assert abs(E.discriminant) > 0.0

    def test_rotated_rescaled_hexagonal_also_equianharmonic(self):
        L1 = EL.complexify(M.lattice_basis("L1", 2.0))
        E = EL.weierstrass_curve(L1)
        assert abs(E.g2) <= 1e-8
        assert abs(E.discriminant) > 0.0

    def test_square_lemniscatic(self):
        E = EL.weierstrass_curve(square_lattice())
        assert abs(E.g3) <= 1e-8
        assert abs(E.g2) > 1.0
        assert abs(E.discriminant) > 0.0

    def test_invariants_match_disk_sums(self):
        # the q-series against the Eisenstein disk sums: within the oracle's
        # tail plus the reported error
        for name, L in oracle_lattices().items():
            E = EL.weierstrass_curve(L)
            c2 = EL.eisenstein(L, 2, target=1e-5)
            c3 = EL.eisenstein(L, 3, target=1e-5)
            assert abs(E.g2 - 60.0 * c2.value) <= 60.0 * c2.tail + E.g2_err, name
            assert abs(E.g3 - 140.0 * c3.value) <= 140.0 * c3.tail + E.g3_err, name

    def test_errors_cover_rounding(self):
        # truncation alone would leave the hexagonal g2 error far below the
        # rounding noise |g2| of the cancelling E4 = 0
        E = EL.weierstrass_curve(hex_lattice())
        assert 0.0 < abs(E.g2) <= E.g2_err <= 1e-10
        assert E.g3_err <= 1e-9 * abs(E.g3)

    def test_basis_changes_keep_invariants(self):
        # the same lattice from a non-reduced, swapped, negated or mixed
        # basis; the copies sL scale g2 by s^-4 and g3 by s^-6 (multiplying
        # by 2 or by i is exact in binary floats)
        for name, L in oracle_lattices().items():
            E = EL.weierstrass_curve(L)
            w1, w2 = L.omega1, L.omega2
            variants = [
                (w1, w2 + 3.0 * w1),
                (w2, w1),
                (-w1, w2),
                (w2 - 2.0 * w1, w1 - w2),
            ]
            for v1, v2 in variants:
                Ev = EL.weierstrass_curve(EL.ComplexLattice(v1, v2))
                assert abs(Ev.g2 - E.g2) <= Ev.g2_err + E.g2_err, (name, v1, v2)
                assert abs(Ev.g3 - E.g3) <= Ev.g3_err + E.g3_err, (name, v1, v2)
            for s in (2.0, 1j):
                Es = EL.weierstrass_curve(EL.ComplexLattice(s * w1, s * w2))
                s4, s6 = abs(s) ** 4, abs(s) ** 6
                assert abs(s**4 * Es.g2 - E.g2) <= s4 * Es.g2_err + E.g2_err, (name, s)
                assert abs(s**6 * Es.g3 - E.g3) <= s6 * Es.g3_err + E.g3_err, (name, s)

    def test_errors_bound_50_digit_series(self):
        # the same q-series at 50 digits on the exactly reduced basis: the
        # reported errors cover truncation and every rounding
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(41)
        lattices = [hex_lattice(), square_lattice(), thin_lattice()]
        for _ in range(200):
            x = rng.uniform(-0.5, 0.5)
            y = math.sqrt(1.0 - x * x) + rng.uniform(0.0, 2.5)
            lattices.append(EL.ComplexLattice(1.0 + 0j, complex(x, y)))
        with mpmath.workdps(50):
            def mp(c):
                return mpmath.mpc(mpmath.mpf(c[0].numerator) / c[0].denominator,
                                  mpmath.mpf(c[1].numerator) / c[1].denominator)

            for L in lattices:
                E = EL.weierstrass_curve(L)
                v1, v2 = exact_reduced_basis(L)
                w1 = mp(v1)
                q = mpmath.exp(2j * mpmath.pi * mp(v2) / w1)
                e4 = e6 = mpmath.mpf(1)
                n = 1
                while abs(q) ** n * n**5 > mpmath.mpf(10) ** -55:
                    lam = q**n / (1 - q**n)
                    e4 += 240 * n**3 * lam
                    e6 -= 504 * n**5 * lam
                    n += 1
                a = 2 * mpmath.pi / w1
                assert abs(E.g2 - a**4 * e4 / 12) <= E.g2_err, L
                assert abs(E.g3 - a**6 * e6 / 216) <= E.g3_err, L

    def test_degenerate_curve_guard(self):
        # a near-collapsed lattice, reduced Im tau = 250: q underflows to 0,
        # and so does the discriminant
        thin = EL.ComplexLattice(1.0 + 0j, 0.5 + 0.001j)
        with pytest.raises(EL.DegenerateCurve):
            EL.weierstrass_curve(thin)

    @pytest.mark.parametrize("tau", [0.3 + 6.6j, -0.5 + 7.4j, 0.1 + 8.8j, 0.45 + 10.2j])
    def test_thin_reduced_lattices_accepted(self, tau):
        # g2^3 - 27 g3^2 cancels to rounding noise at these Im tau; the
        # product form keeps the discriminant to full relative precision
        L = EL.ComplexLattice(2.0 + 0j, 2.0 * tau + 6.0)
        E = EL.weierstrass_curve(L)
        v1, v2 = exact_reduced_basis(L)
        im_tau = (v1[0] * v2[1] - v1[1] * v2[0]) / (v1[0] ** 2 + v1[1] ** 2)
        assert 6.6 <= im_tau <= 10.2
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            def mp(c):
                return mpmath.mpc(mpmath.mpf(c[0].numerator) / c[0].denominator,
                                  mpmath.mpf(c[1].numerator) / c[1].denominator)

            w1 = mp(v1)
            q = mpmath.exp(2j * mpmath.pi * mp(v2) / w1)
            disc = (2 * mpmath.pi / w1) ** 12 * q
            for n in range(1, 8):
                disc *= (1 - q**n) ** 24
            assert abs(E.discriminant - disc) <= 1e-13 * abs(disc)


class TestMultipliers:
    def test_zeta6_accepted_order_6(self):
        act = EL.multiplier_check(hex_lattice(), ZETA6)
        m = np.array(act.matrix)
        assert m.tolist() == [[0, 1], [-1, 1]]
        assert np.array_equal(np.linalg.matrix_power(m, 6), np.eye(2, dtype=int))

    def test_integer_multiplier(self):
        act = EL.multiplier_check(square_lattice(), 2.0 + 0j)
        assert act.matrix == ((2, 0), (0, 2))

    def test_i_not_hexagonal_multiplier(self):
        with pytest.raises(EL.NotAMultiplier):
            EL.multiplier_check(hex_lattice(), 1j)

    def test_i_is_square_multiplier(self):
        act = EL.multiplier_check(square_lattice(), 1j)
        m = np.array(act.matrix)
        assert np.array_equal(np.linalg.matrix_power(m, 4), np.eye(2, dtype=int))


class TestZAction:
    def test_doubling_orbit(self):
        act = EL.multiplier_check(square_lattice(), 2.0 + 0j)
        assert EL.z_action_orbit(act, (1, 0), 3) == [(1, 0), (2, 0), (4, 0), (8, 0)]

    def test_zeta6_direction_period(self):
        act = EL.multiplier_check(hex_lattice(), ZETA6)
        orbit = EL.z_action_orbit(act, (1, 0), 6)
        assert orbit[6] == (1, 0)
        assert orbit[3] == (-1, 0)

    def test_zero_steps(self):
        act = EL.multiplier_check(hex_lattice(), ZETA6)
        assert EL.z_action_orbit(act, (2, 5), 0) == [(2, 5)]

    def test_big_integers_no_overflow(self):
        act = EL.multiplier_check(square_lattice(), 3.0 + 0j)
        orbit = EL.z_action_orbit(act, (1, 1), 64)
        assert orbit[-1] == (3**64, 3**64)


class TestLattes:
    def test_exact_two_torsion_to_infinity(self):
        # synthetic curve with exact root: 4x^3 - 7x + 3 = (x-1)(2x+3)(2x-1)
        E = EL.EllipticCurve(
            g2=7.0 + 0j, g3=-3.0 + 0j, discriminant=100.0 + 0j,
            g2_err=0.0, g3_err=0.0,
        )
        for r in (1.0, 0.5, -1.5):
            assert EL.is_infinity(EL.lattes_step(E, complex(r)))
        assert EL.is_infinity(EL.lattes_step(E, EL.INFINITY))

    def test_numeric_two_torsion_blows_up(self):
        E = EL.weierstrass_curve(hex_lattice())
        roots = np.roots([4.0, 0.0, -E.g2.real, -E.g3.real])
        for r in roots:
            img = EL.lattes_step(E, complex(r))
            assert EL.is_infinity(img) or abs(img) > 1e10

    def test_degree_4_over_3_no_common_roots(self):
        E = EL.weierstrass_curve(hex_lattice())
        num = [1.0, 0.0, E.g2.real / 2.0, 2.0 * E.g3.real, E.g2.real**2 / 16.0]
        den = [4.0, 0.0, -E.g2.real, -E.g3.real]
        assert len(num) - 1 == 4 and len(den) - 1 == 3
        # resultant via the product of num over den's roots
        res = 4.0 ** (len(num) - 1) * np.prod(
            [np.polyval(num, r) for r in np.roots(den)]
        )
        assert abs(res) > 1e-6

    def test_semiconjugacy_with_p_series(self):
        L = hex_lattice()
        E = EL.weierstrass_curve(L)
        rng = np.random.default_rng(8)
        for _ in range(10):
            z = complex(rng.uniform(0.03, 0.06), rng.uniform(0.03, 0.06))
            px = EL.weierstrass_p(L, z, target=2e-7)
            p2x = EL.weierstrass_p(L, 2.0 * z, target=2e-7)
            assert abs(EL.lattes_step(E, px) - p2x) < 1e-6

    def test_doubling_consistency_along_orbit(self):
        # stepping k times from p(z) tracks p(2^k z) until precision loss
        L = hex_lattice()
        E = EL.weierstrass_curve(L)
        z = 0.011 + 0.013j
        x = EL.weierstrass_p(L, z, target=1e-8)
        for k in range(1, 5):
            x = EL.lattes_step(E, x)
            # the series tail scales with |argument|^2: loosen accordingly
            ref = EL.weierstrass_p(L, (2**k) * z, target=1e-8 * 4.0**k)
            assert abs(x - ref) < 1e-3 * max(1.0, abs(ref)), k

    def test_p_half_period_is_cubic_root(self):
        # p(omega/2) is a root of 4x^3 - g2 x - g3
        L = square_lattice()
        E = EL.weierstrass_curve(L)
        e1 = EL.weierstrass_p(L, 0.5 + 0j, target=1e-5)
        roots = np.roots([4.0, 0.0, -E.g2.real, -E.g3.real])
        assert min(abs(e1 - r) for r in roots) < 1e-4


class TestWeierstrassP:
    def test_matches_disk_sum(self):
        rng = np.random.default_rng(19)
        for name, L in oracle_lattices().items():
            for _ in range(3):
                z = complex(*rng.uniform(0.05, 0.3, 2))
                ref, tail = disk_p(L, z, 1e-5)
                got = EL.weierstrass_p(L, z, target=1e-12)
                # oracle tail + q-series target + rounding of both sums
                assert abs(got - ref) <= tail + 1e-12 + 1e-12 * abs(ref), (name, z)

    def test_periodic(self):
        rng = np.random.default_rng(23)
        for name, L in oracle_lattices().items():
            for _ in range(5):
                z = complex(*rng.uniform(-0.5, 0.5, 2))
                pz = EL.weierstrass_p(L, z)
                for w in (L.omega1, L.omega2, -L.omega1 - L.omega2):
                    assert abs(EL.weierstrass_p(L, z + w) - pz) <= 1e-9 * (1.0 + abs(pz)), name

    def test_even(self):
        L = EL.complexify(M.lattice_basis("L1", 2.5))
        for z in (0.1 + 0.2j, -0.31 + 0.05j, 0.4 - 0.3j):
            pz = EL.weierstrass_p(L, z)
            assert abs(EL.weierstrass_p(L, -z) - pz) <= 1e-12 * (1.0 + abs(pz))

    def test_lattice_points_are_infinity(self):
        for name, L in oracle_lattices().items():
            w1, w2 = L.omega1, L.omega2
            for z in (0j, w1, w2, -w1, 2.0 * w2, -4.0 * w1):
                assert EL.is_infinity(EL.weierstrass_p(L, z)), (name, z)
        hexL = hex_lattice()  # w1 = 1: these integer combinations are exact
        for z in (hexL.omega1 + hexL.omega2, 3.0 - hexL.omega2):
            assert EL.is_infinity(EL.weierstrass_p(hexL, z))

    def test_small_z_keeps_relative_accuracy(self):
        # 1 - u is taken without cancellation, so p(z) ~ 1/z^2 holds to
        # rounding far below |z| ~ 1e-6
        L = EL.complexify(M.lattice_basis("L0", 2.5))
        for z in (1e-6 + 2e-6j, -3e-9 + 1e-9j, 1e-12j):
            pz = EL.weierstrass_p(L, z)
            assert abs(pz * z**2 - 1.0) <= 1e-12

    def test_target_must_be_positive(self):
        with pytest.raises(ValueError):
            EL.weierstrass_p(hex_lattice(), 0.1 + 0.1j, target=0.0)


def _old_orbit_stats(E, z0, n):
    """orbit_stats with the unfused step: num and den built once for the
    image and once more inside the derivative."""
    g2, g3 = E.g2, E.g3

    def deriv(x):
        den = 4.0 * x**3 - g2 * x - g3
        num = x**4 + 0.5 * g2 * x**2 + 2.0 * g3 * x + g2**2 / 16.0
        dnum = 4.0 * x**3 + g2 * x + 2.0 * g3
        dden = 12.0 * x**2 - g2
        return (dnum * den - num * dden) / den**2

    x, total, sample = z0, 0.0, [z0]
    for k in range(n):
        if cmath.isinf(x):
            step, x = math.log(4.0), EL.INFINITY
        else:
            den = 4.0 * x**3 - g2 * x - g3
            num = x**4 + 0.5 * g2 * x**2 + 2.0 * g3 * x + g2**2 / 16.0
            if den == 0:
                c = num / (12.0 * x**2 - g2)
                step, x = math.log((1.0 + abs(x) ** 2) / abs(c)), EL.INFINITY
            else:
                fx = num / den
                sd = abs(deriv(x)) * (1.0 + abs(x) ** 2) / (1.0 + abs(fx) ** 2)
                step, x = math.log(sd), fx
        total += step
        if (k + 1) % 50 == 0:
            sample.append(x)
    if sample[-1] != x:
        sample.append(x)
    return sample, total / n


def _reference_orbit_stats(E, z0, n):
    """orbit_stats stepped by one _sphere_log_deriv call per step, sampled
    by (k + 1) % 50: the reference the inlined loop must match bit for bit."""
    if n < 100:
        raise ValueError("orbit statistics need n >= 100")
    c = EL._coeffs(E)
    x, total, sample = z0, 0.0, [z0]
    for k in range(n):
        step_log, x = EL._sphere_log_deriv(c, x)
        total += step_log
        if (k + 1) % 50 == 0:
            sample.append(x)
    if sample[-1] != x:
        sample.append(x)
    return sample, total / n


def _outcome(f, *args):
    """repr of f's result, or the type and message of what it raised."""
    try:
        return repr(f(*args))
    except Exception as e:
        return f"{type(e).__name__}: {e}"


def _curve(g2, g3):
    return EL.EllipticCurve(g2=g2, g3=g3, discriminant=1.0 + 0j, g2_err=0.0, g3_err=0.0)


class TestOrbitStats:
    def test_fused_step_is_bitwise_the_old_formula(self):
        E = EL.weierstrass_curve(hex_lattice())
        E_syn = EL.EllipticCurve(
            g2=7.0 + 0j, g3=-3.0 + 0j, discriminant=100.0 + 0j,
            g2_err=0.0, g3_err=0.0,
        )
        rng = np.random.default_rng(31)
        runs = [(E, complex(*rng.uniform(-2.0, 2.0, 2)), 1000) for _ in range(6)]
        # x = 1 is a pole of the synthetic curve, then the orbit stays at
        # infinity; also start at infinity
        runs += [(E_syn, 1.0 + 0j, 200), (E_syn, EL.INFINITY, 200), (E, EL.INFINITY, 100)]
        for curve, z0, n in runs:
            new, old = EL.orbit_stats(curve, z0, n), _old_orbit_stats(curve, z0, n)
            assert repr(new) == repr(old), z0
        for _ in range(50):
            x = complex(*rng.uniform(-2.0, 2.0, 2))
            num = x**4 + 0.5 * E.g2 * x**2 + 2.0 * E.g3 * x + E.g2**2 / 16.0
            den = 4.0 * x**3 - E.g2 * x - E.g3
            dnum = 4.0 * x**3 + E.g2 * x + 2.0 * E.g3
            dden = 12.0 * x**2 - E.g2
            assert repr(EL.lattes_step(E, x)) == repr(num / den)
            assert repr(EL.lattes_derivative(E, x)) == repr((dnum * den - num * dden) / den**2)


    def test_positive_mean_log_derivative(self):
        E = EL.weierstrass_curve(hex_lattice())
        rng = np.random.default_rng(12)
        for _ in range(3):
            z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            sample, lyap = EL.orbit_stats(E, z0, 2000)
            assert lyap > 0.0
            assert len(sample) >= 2000 // 50

    def test_exceptional_orbit_at_infinity(self):
        E = EL.EllipticCurve(
            g2=7.0 + 0j, g3=-3.0 + 0j, discriminant=100.0 + 0j,
            g2_err=0.0, g3_err=0.0,
        )
        sample, lyap = EL.orbit_stats(E, 1.0 + 0j, 200)
        assert EL.is_infinity(sample[-1])
        assert lyap > 0.0  # infinity is repelling (derivative 4 in the chart)

    def test_inlined_loop_matches_reference_step(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        E_hex = EL.weierstrass_curve(hex_lattice())
        E_syn = _curve(7.0 + 0j, -3.0 + 0j)  # poles at 1, 0.5 and -1.5
        E_L1 = EL.weierstrass_curve(EL.complexify(M.lattice_basis("L1", 2.5)))
        zero = st.sampled_from([0.0, -0.0])
        coef = st.one_of(zero, st.floats(-10.0, 10.0))
        part = st.one_of(zero, st.floats(-3.0, 3.0))
        big = st.floats(1e60, 1e300).flatmap(lambda r: st.sampled_from([r, -r]))

        def curve(a, s, b, t):
            return _curve(complex(a, s), complex(b, t))

        curves = st.one_of(
            st.sampled_from([E_hex, E_syn, E_L1]),
            # real curves: the orbit of a real start keeps signed-zero imaginary parts
            st.builds(curve, coef, zero, coef, zero),
            st.builds(curve, coef, coef, coef, coef),
        )
        special = st.one_of(
            st.just(EL.INFINITY),
            st.sampled_from([1.0 + 0j, 0.5 + 0j, complex(-1.5, -0.0)]),
            st.builds(complex, big, st.one_of(zero, big, part)),  # |z| >= 1e60
            st.builds(cmath.rect, st.floats(1e60, 1e300), st.floats(-math.pi, math.pi)),
        )
        # half the starts are plain points, whose orbits mostly run all n steps
        plain = st.builds(complex, part, part)
        starts = st.booleans().flatmap(lambda b: plain if b else special)

        @hyp.given(curves, starts, st.integers(100, 400))
        @hyp.example(E_syn, 1.0 + 0j, 137)  # a pole, then infinity
        @hyp.example(E_syn, EL.INFINITY, 150)
        @hyp.example(_curve(0j, 0j), 0j, 100)  # a degenerate pole raises
        @hyp.example(_curve(complex(7.0, -0.0), complex(-3.0, -0.0)), complex(0.3, -0.0), 149)
        @hyp.example(E_hex, complex(-0.0, 1.2), 400)
        @hyp.example(E_hex, 1e60 + 1e60j, 101)  # den^2 overflows to NaN
        @hyp.example(E_hex, complex(1e80, -0.0), 100)  # x^4 overflows
        @hyp.example(_curve(7.0 + 0j, 0j), 1e-160 + 1e-160j, 100)  # |f(x)|^2 overflows
        @hyp.example(_curve(7.0 + 0j, 0j), complex(-0.0, 1e-170), 100)  # den^2 underflows
        def check(E, z0, n):
            assert _outcome(EL.orbit_stats, E, z0, n) == _outcome(_reference_orbit_stats, E, z0, n)

        check()

    def test_short_orbit_rejected(self):
        E = EL.weierstrass_curve(hex_lattice())
        with pytest.raises(ValueError):
            EL.orbit_stats(E, 0.3 + 0.2j, 50)
