"""Complexified critical lattices and their dynamics: multiplier actions,
Eisenstein-type invariants, the Weierstrass curve model, and the doubling
(Lattes) map on x-coordinates.

The curve invariants g2, g3 and the function p(z) come from q-expansions.
The basis is first reduced exactly (Lagrange-Gauss on the integers behind
the input doubles) to (w1, w2) with tau = w2/w1 in the standard fundamental
domain, where |q| = |exp(2 pi i tau)| <= exp(-pi sqrt 3) ~ 4.3e-3, so about
ten terms reach double precision.  g2 and g3 come from the Eisenstein
series E4 and E6 in Lambert form; each reported error is the closed-form
geometric tail of the truncated series plus an a-priori bound on the
rounding of every operation, the libm calls included (see
`weierstrass_curve`).  The discriminant comes from Jacobi's product, which
keeps its full relative precision where g2^3 - 27 g3^2 cancels, with an
error bound of the same kind.

The Eisenstein disk sums c_n = sum' alpha^(-2n) (`eisenstein`,
`lattice_points`, `tail_bound`) remain as an independent oracle: the tail is
controlled by integral comparison with the lattice covolume and a covering
radius correction.  The disk is symmetric, so lattice symmetries cancel
exactly in the partial sums (the hexagonal lattice's c_2 vanishes to
rounding noise long before the tail bound says so).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .moduli import Lattice2

__all__ = [
    "ComplexLattice",
    "EisensteinSum",
    "EllipticCurve",
    "MultiplierAction",
    "DegenerateLattice",
    "ExponentTooSmall",
    "NotAMultiplier",
    "DegenerateCurve",
    "OrbitHitSingularity",
    "INFINITY",
    "complexify",
    "covolume",
    "covering_radius_bound",
    "lattice_points",
    "tail_bound",
    "eisenstein",
    "weierstrass_curve",
    "multiplier_check",
    "z_action_orbit",
    "weierstrass_p",
    "lattes_step",
    "lattes_derivative",
    "orbit_stats",
]

INFINITY = complex(math.inf, 0.0)

_MAX_POINTS = 4e7


class DegenerateLattice(Exception):
    pass


class ExponentTooSmall(Exception):
    """Eisenstein sums need exponent 2n > 2 for absolute convergence."""


class NotAMultiplier(Exception):
    pass


class DegenerateCurve(Exception):
    pass


class OrbitHitSingularity(Exception):
    pass


@dataclass(frozen=True)
class ComplexLattice:
    omega1: complex
    omega2: complex

    def __post_init__(self):
        if covolume(self) == 0.0:
            raise DegenerateLattice(
                f"basis {self.omega1}, {self.omega2} has real ratio"
            )


@dataclass(frozen=True)
class EisensteinSum:
    n: int
    value: complex
    radius: float
    tail: float
    terms: int


@dataclass(frozen=True)
class EllipticCurve:
    g2: complex
    g3: complex
    discriminant: complex
    g2_err: float
    g3_err: float


@dataclass(frozen=True)
class MultiplierAction:
    lattice: ComplexLattice
    lam: complex
    matrix: tuple[tuple[int, int], tuple[int, int]]


def is_infinity(x: complex) -> bool:
    return cmath.isinf(x)


def covolume(L: ComplexLattice | None = None, *, omega1=None, omega2=None) -> float:
    if L is not None:
        omega1, omega2 = L.omega1, L.omega2
    return abs((omega1.conjugate() * omega2).imag)


def complexify(L: Lattice2) -> ComplexLattice:
    """(x, y) -> x + iy on both basis vectors, swapped so Im(w2/w1) > 0."""
    w1 = complex(*L.omega1)
    w2 = complex(*L.omega2)
    cross = (w1.conjugate() * w2).imag
    if cross == 0.0:
        raise DegenerateLattice(f"lattice {L} collapses on complexification")
    if cross < 0.0:
        w1, w2 = w2, w1
    return ComplexLattice(omega1=w1, omega2=w2)


def covering_radius_bound(L: ComplexLattice) -> float:
    # every point of the plane is within half a cell diagonal of the lattice
    return 0.5 * max(abs(L.omega1 + L.omega2), abs(L.omega1 - L.omega2))


def lattice_points(L: ComplexLattice, radius: float) -> np.ndarray:
    """All nonzero lattice points with |alpha| <= radius (complex array)."""
    w1, w2 = L.omega1, L.omega2
    cov = covolume(L)
    jmax = int(radius * abs(w2) / cov) + 2
    kmax = int(radius * abs(w1) / cov) + 2
    if (2 * jmax + 1) * (2 * kmax + 1) > _MAX_POINTS:
        raise ValueError(
            f"radius {radius} needs ~{(2 * jmax + 1) * (2 * kmax + 1):.2g} "
            "candidate points; loosen the target accuracy"
        )
    j = np.arange(-jmax, jmax + 1)
    k = np.arange(-kmax, kmax + 1)
    J, K = np.meshgrid(j, k, indexing="ij")
    alpha = J * w1 + K * w2
    mask = (np.abs(alpha) <= radius) & ~((J == 0) & (K == 0))
    return alpha[mask]


def tail_bound(L: ComplexLattice, radius: float, two_n: float) -> float:
    """Upper bound for sum over |alpha| > radius of |alpha|^(-two_n).

    Integral comparison: each point owns a cell of area covol within the
    covering radius rho of it, so the tail is at most
    (2 pi / covol) [ (R-2rho)^(2-2n)/(2n-2) + rho (R-2rho)^(1-2n)/(2n-1) ],
    valid for radius > 2 rho and two_n > 2.
    """
    if two_n <= 2.0:
        raise ExponentTooSmall(f"exponent {two_n} <= 2 diverges")
    rho = covering_radius_bound(L)
    s = radius - 2.0 * rho
    if s <= 0.0:
        return math.inf
    cov = covolume(L)
    return (2.0 * math.pi / cov) * (
        s ** (2.0 - two_n) / (two_n - 2.0) + rho * s ** (1.0 - two_n) / (two_n - 1.0)
    )


def eisenstein(L: ComplexLattice, n: int, target: float = 1e-6) -> EisensteinSum:
    """c_n = sum over nonzero lattice points of alpha^(-2n), to a tail bound
    <= target.  Lemma threshold: needs n >= 2 (exponent 2n > 2)."""
    if n < 2:
        raise ExponentTooSmall(f"n = {n}: the sum needs exponent 2n > 2")
    if target <= 0.0:
        raise ValueError("target accuracy must be positive")
    rho = covering_radius_bound(L)
    radius = max(8.0 * rho, 4.0)
    while tail_bound(L, radius, 2 * n) > target:
        radius *= 1.5
        # lattice_points raises once the point count gets absurd
        if radius > 1e9:
            raise ValueError("unreachable target accuracy")
    pts = lattice_points(L, radius)
    value = complex(np.sum(pts ** (-2 * n)))
    return EisensteinSum(
        n=n,
        value=value,
        radius=radius,
        tail=tail_bound(L, radius, 2 * n),
        terms=int(pts.size),
    )


_U = 2.0**-53  # unit roundoff of binary64
# Enlarges an error bound to cover the rounding of the few dozen nonnegative
# float operations that evaluate it (each relative u) and its use of the
# computed prefactor magnitudes (within gamma_63 of the exact ones).
_SLACK = 1.0 + 2.0**-40
# An underflowed power of q errs by at most 2^-1074 per operation; a few
# hundred such errors times 504 n^5 stay far below this absolute floor.
_FLOOR = 2.0**-900


def _ints(*xs: float) -> tuple[list[int], int]:
    """Integers N_i and a shift e with x_i = N_i / 2**e exactly."""
    ratios = [x.as_integer_ratio() for x in xs]
    den = max(d for _, d in ratios)  # every d is a power of two
    return [n * (den // d) for n, d in ratios], den.bit_length() - 1


def _reduce(L: ComplexLattice, z: complex = 0j) -> tuple[complex, complex, complex | None]:
    """Lagrange-Gauss reduction of the basis in exact integer arithmetic.

    Returns (w1, tau, t).  (w1, tau w1) is an SL2(Z)-equivalent basis of L
    with tau in the standard fundamental domain: Im tau > 0, |Re tau| <= 1/2
    and |tau| >= 1.  t = z'/w1 for the point z' of z + L or -z + L whose
    coordinates (a, b) in that basis lie in [-1/2, 1/2] x [0, 1/2], and
    t is None when z lies in L.  The input doubles are exact dyadic
    rationals, so every step is exact: w1 and the real and imaginary parts
    of tau are each rounded once, correctly, and t = a + b tau with a and b
    each rounded once.
    """
    (x1, y1, x2, y2, zx, zy), e = _ints(
        L.omega1.real, L.omega1.imag, L.omega2.real, L.omega2.imag, z.real, z.imag
    )
    det = x1 * y2 - y1 * x2
    if det == 0:
        raise DegenerateLattice(f"basis {L.omega1}, {L.omega2} has real ratio")
    if det < 0:  # orient so that Im(w2/w1) > 0
        x2, y2, det = -x2, -y2, -det
    while True:
        n1 = x1 * x1 + y1 * y1
        k = (2 * (x1 * x2 + y1 * y2) + n1) // (2 * n1)  # nearest integer
        x2, y2 = x2 - k * x1, y2 - k * y1
        if x2 * x2 + y2 * y2 >= n1:
            break
        x1, y1, x2, y2 = x2, y2, -x1, -y1  # tau -> -1/tau keeps the orientation
    scale = 1 << e
    w1 = complex(x1 / scale, y1 / scale)
    tau = complex((x1 * x2 + y1 * y2) / n1, det / n1)
    a = zx * y2 - zy * x2  # z = (a w1 + b w2) / det
    b = x1 * zy - y1 * zx
    a -= det * ((2 * a + det) // (2 * det))
    b -= det * ((2 * b + det) // (2 * det))
    if b < 0 or (b == 0 and a < 0):  # p is even
        a, b = -a, -b
    if a == 0 and b == 0:
        return w1, tau, None
    bf = b / det
    return w1, tau, complex(a / det + bf * tau.real, bf * tau.imag)


def _two_pi_over(w1: complex) -> complex:
    """2 pi / w1 as 2 pi conj(w1) / |w1|^2: each part within relative
    gamma_8 of the value for the exact w1 that the float w1 rounds (the
    rounding of w1 and pi, the squares, the sum, the quotient, the final
    product)."""
    return (2.0 * math.pi / (w1.real * w1.real + w1.imag * w1.imag)) * w1.conjugate()


def weierstrass_curve(L: ComplexLattice) -> EllipticCurve:
    """y^2 = 4x^3 - g2 x - g3 from the q-expansions on the reduced basis:
    g2 = (2 pi/w1)^4 E4(q) / 12 and g3 = (2 pi/w1)^6 E6(q) / 216, with
    E4 = 1 + 240 sum n^3 q^n/(1-q^n) and E6 = 1 - 504 sum n^5 q^n/(1-q^n).

    Truncation: after N terms, sum_{n>N} n^k |q|^n/(1-|q|^n) is at most
    (N+1)^k |q|^(N+1) / ((1-|q|)(1-rho)), rho = ((N+2)/(N+1))^k |q|, with
    |q| bounded above.  The series run until that tail is below the unit
    roundoff of E4 and E6 (u/240 and u/504 of the Lambert sums), since a
    term costs a few complex operations.

    Rounding (Higham, Accuracy and Stability, ch. 3): with u = 2^-53 each
    float operation errs by at most u relative, per real part, and counts
    1; a complex product counts 3 (sqrt 2 gamma_2 <= gamma_3), a complex
    quotient 14 (CPython's Smith division), and exp within 2 ulp per part
    4.  The single roundings of w1, tau (see `_reduce`) and pi count 1 each.
      - q = exp(2 pi i tau): 4 for exp plus 2|Delta x|/u for the error
        |Delta x| <= 2 pi |tau| gamma_3 of the exponent, k_q in all.
      - q^n by n-1 products: n k_q + 3(n-1) =: m_q; 1 - q^n at most 1 + m_q;
        q^n/(1-q^n) adds 14, n^k times it 1, so m_n = 2 m_q + 16.
      - 2 pi/w1: 8 (`_two_pi_over`); its square 2 * 8 + 3 = 19; the 4th
        power 2 * 19 + 3 = 41; the 6th 41 + 19 + 3 = 63.
      - the sum of N terms 2N, times 240 or 504 and plus 1: 2, times the
        prefactor 3 + 41 (or 63), over 12 (or 216): 1.  These c = 2N + 47
        (2N + 69 for g3) apply to every term and to the leading 1.
    With K the largest total count, gamma_k <= k u / (1 - K u), so the
    rounding error of E4 is at most u/(1-2Ku) (c + 240 sum (m_n + c)
    n^3 |q^n/(1-q^n)|) (the 2 covers terms taken at computed values), plus
    an absolute floor for underflow; g2_err is |prefactor|/12 times that
    plus the tail.  cmath.exp, math.exp and the libm calls behind them are
    trusted to 2 ulp (see interval.py).

    The discriminant g2^3 - 27 g3^2 = (2 pi/w1)^12 q prod (1 - q^n)^24 is
    taken from the product, since the difference cancels to rounding noise
    once the reduced Im tau passes about 6.  Its counts: (2 pi/w1)^12 as the
    square of the 6th power 129; a factor 1 - q^n 1 + m_q |q|^n/(1 - |q|^n),
    and 3 for its product into the running product, c_P in all; the 24th
    power by squarings (2, 4, 8, 16, then 16 * 8) 24 c_P + 69; the products
    with q and the prefactor k_q + 6, so K = 204 + k_q + 24 c_P.  The factors
    n > N change the product by a relative x/(1 - x) at most, x = 24
    |q|^(N+1)/(1-|q|)^2, and they run until x is below the unit roundoff.
    An underflowed q or product errs by at most 2^-1073 absolute, which the
    floor (|2 pi/w1|^12 + 2) 2^-1070 covers; so a lattice whose q underflows
    to 0 raises DegenerateCurve.
    """
    w1, tau, _ = _reduce(L)
    a = _two_pi_over(w1)
    a2 = a * a
    s4 = a2 * a2
    s6 = s4 * a2
    q = cmath.exp(complex(-2.0 * math.pi * tau.imag, 2.0 * math.pi * tau.real))
    # |q| for the exact tau that the float tau rounds: the exponent shrunk by
    # 2^-50 (tau, pi, the products), the result grown by 2^-50 (exp, 2 ulp)
    qa = math.exp(-2.0 * math.pi * tau.imag * (1.0 - 2.0**-50)) * (1.0 + 2.0**-50)
    k_q = 4.0 + 38.0 * abs(tau) * (1.0 + 1e-6)
    # tail shares in units of the Lambert sums
    share4, share6 = _U / 240.0, _U / 504.0

    def tail(n: int, k: int) -> float:
        rho = ((n + 2) / (n + 1)) ** k * qa
        return (n + 1) ** k * qa ** (n + 1) / ((1.0 - qa) * (1.0 - rho))

    n = 0
    qn = 1.0 + 0j
    sum4 = sum6 = 0j
    abs4 = abs6 = 0.0  # sum of n^k |term|
    wt4 = wt6 = 0.0  # sum of m_n n^k |term|
    m_max = 0.0
    while tail(n, 3) > share4 or tail(n, 5) > share6:
        n += 1
        qn = q if n == 1 else qn * q
        lam = qn / (1.0 - qn)
        t4 = (n**3) * lam
        t6 = (n**5) * lam
        sum4 += t4
        sum6 += t6
        m_n = 2.0 * (n * k_q + 3.0 * (n - 1)) + 16.0
        m_max = m_n
        abs4 += abs(t4)
        abs6 += abs(t6)
        wt4 += m_n * abs(t4)
        wt6 += m_n * abs(t6)
    g2 = s4 * (1.0 + 240.0 * sum4) / 12.0
    g3 = s6 * (1.0 - 504.0 * sum6) / 216.0
    c4 = 2.0 * n + 47.0
    c6 = 2.0 * n + 69.0
    lin = _U / (1.0 - 2.0 * (m_max + c6) * _U)
    rnd4 = lin * (c4 + 240.0 * (wt4 + c4 * abs4)) + _FLOOR
    rnd6 = lin * (c6 + 504.0 * (wt6 + c6 * abs6)) + _FLOOR
    g2_err = abs(s4) / 12.0 * (rnd4 + 240.0 * tail(n, 3)) * _SLACK
    g3_err = abs(s6) / 216.0 * (rnd6 + 504.0 * tail(n, 5)) * _SLACK
    n = 0
    qn = prod = 1.0 + 0j
    c_p = 0.0  # rounding count of prod
    while 24.0 * qa ** (n + 1) / (1.0 - qa) ** 2 > _U:
        n += 1
        qn = q if n == 1 else qn * q
        prod *= 1.0 - qn
        c_p += 4.0 + (n * k_q + 3.0 * (n - 1)) * qa**n / (1.0 - qa**n)
    p8 = prod * prod
    p8 *= p8
    p8 *= p8
    disc = s6 * s6 * q * (p8 * p8 * p8)
    k = 204.0 + k_q + 24.0 * c_p
    gamma = k * _U / (1.0 - k * _U)
    x = 24.0 * qa ** (n + 1) / (1.0 - qa) ** 2
    disc_err = (
        abs(disc) * (gamma + x / (1.0 - x)) / (1.0 - gamma)
        + (abs(s6 * s6) + 2.0) * 2.0**-1070
    ) * _SLACK
    if abs(disc) <= disc_err:
        raise DegenerateCurve(
            f"discriminant {disc} below its error bound {disc_err}"
        )
    return EllipticCurve(g2=g2, g3=g3, discriminant=disc, g2_err=g2_err, g3_err=g3_err)


def multiplier_check(
    L: ComplexLattice, lam: complex, tol: float = 1e-9
) -> MultiplierAction:
    """Accept lam iff (lam w1, lam w2) = M (w1, w2) for an integer matrix M."""
    w = np.array([[L.omega1.real, L.omega2.real], [L.omega1.imag, L.omega2.imag]])
    rows = []
    scale = max(abs(L.omega1), abs(L.omega2)) * max(1.0, abs(lam))
    for wi in (L.omega1, L.omega2):
        target = lam * wi
        ab = np.linalg.solve(w, np.array([target.real, target.imag]))
        m = np.rint(ab)
        resid = abs(target - (m[0] * L.omega1 + m[1] * L.omega2))
        if resid > tol * scale:
            raise NotAMultiplier(
                f"lambda = {lam}: coefficients {ab} are {resid:.3g} from integers"
            )
        rows.append((int(m[0]), int(m[1])))
    return MultiplierAction(lattice=L, lam=lam, matrix=(rows[0], rows[1]))


def z_action_orbit(
    action: MultiplierAction, omega: tuple[int, int], n: int
) -> list[tuple[int, int]]:
    """Orbit omega, lam*omega, ..., lam^n*omega in integer coordinates."""
    (m11, m12), (m21, m22) = action.matrix
    j, k = omega
    out = [(j, k)]
    for _ in range(n):
        j, k = m11 * j + m21 * k, m12 * j + m22 * k
        out.append((j, k))
    return out


# -- the Weierstrass p-function ---------------------------------------------------


def _expm1(w: complex) -> tuple[complex, complex]:
    """(exp(w), exp(w) - 1), the second without cancellation near w = 0:
    its real part is expm1(x) cos y - 2 sin(y/2)^2."""
    x, y = w.real, w.imag
    ex, cy, sy = math.exp(x), math.cos(y), math.sin(y)
    h = math.sin(0.5 * y)
    return complex(ex * cy, ex * sy), complex(math.expm1(x) * cy - 2.0 * h * h, ex * sy)


def weierstrass_p(L: ComplexLattice, z: complex, target: float = 1e-8) -> complex:
    """p(z) from its q-series on the reduced basis (w1, tau w1):

        p(z) = (2 pi i/w1)^2 [1/12 + u/(1-u)^2 + sum_n (q^n u/(1-q^n u)^2
               + q^n u^-1/(1-q^n u^-1)^2 - 2 q^n/(1-q^n)^2)],

    u = exp(2 pi i t), t = z/w1 reduced modulo (1, tau) and by p(-z) = p(z)
    so that |q|^(1/2) <= |u| <= 1; q^n u^-1 is taken as q^(n-1) exp(2 pi i
    (tau - t)).  The terms stop once the truncation tail, summed
    geometrically from |q| and |q/u| <= |q|^(1/2), is at most `target` and
    below the unit roundoff of the bracket, since a term costs a few complex
    operations.  Returns INFINITY when z lies in the lattice or p(z)
    overflows.
    """
    if target <= 0.0:
        raise ValueError("target accuracy must be positive")
    w1, tau, t = _reduce(L, z)
    if t is None:
        return INFINITY
    a = _two_pi_over(w1)
    pref = -(a * a)
    two_pi = 2.0 * math.pi
    u, um1 = _expm1(complex(-two_pi * t.imag, two_pi * t.real))
    if um1 == 0:
        return INFINITY
    q = cmath.exp(complex(-two_pi * tau.imag, two_pi * tau.real))
    v = cmath.exp(complex(two_pi * (t.imag - tau.imag), two_pi * (tau.real - t.real)))
    qa, va = abs(q), abs(v)
    bound = min(target / abs(pref), _U)
    s = u / um1 / um1 + 1.0 / 12.0
    n = 0
    qn, vn = 1.0 + 0j, v
    while (3.0 * qa ** (n + 1) / (1.0 - qa) ** 3
           + qa**n * va / ((1.0 - qa) * (1.0 - va) ** 2)) > bound:
        n += 1
        if n > 1:
            vn *= q
        qn *= q
        x = qn * u
        s += x / (1.0 - x) ** 2 + vn / (1.0 - vn) ** 2 - 2.0 * qn / (1.0 - qn) ** 2
    p = pref * s
    return p if cmath.isfinite(p) else INFINITY


# -- the doubling (Lattes) map ---------------------------------------------------


def _coeffs(E: EllipticCurve) -> tuple[complex, ...]:
    """The x-independent coefficients of the doubling map, once per curve."""
    return E.g2, E.g3, 0.5 * E.g2, 2.0 * E.g3, E.g2**2 / 16.0


def _parts(c: tuple[complex, ...], x: complex) -> tuple[complex, complex, complex, complex]:
    """(num, den, num', den') of the doubling map num/den at finite x:
    num = x^4 + g2 x^2/2 + 2 g3 x + g2^2/16, den = 4x^3 - g2 x - g3."""
    g2, g3, half_g2, two_g3, g2sq_16 = c
    x2, x3 = x**2, x**3
    g2x = g2 * x
    four_x3 = 4.0 * x3
    return (
        x**4 + half_g2 * x2 + two_g3 * x + g2sq_16,
        four_x3 - g2x - g3,
        four_x3 + g2x + two_g3,
        12.0 * x2 - g2,
    )


def _quotient_rule(num: complex, den: complex, dnum: complex, dden: complex) -> complex:
    return (dnum * den - num * dden) / den**2


def lattes_step(E: EllipticCurve, x: complex) -> complex:
    """x-coordinate doubling for y^2 = 4x^3 - g2 x - g3: a degree-4 rational
    map, total on the extended plane (poles and infinity map to infinity)."""
    if is_infinity(x):
        return INFINITY
    num, den, _, _ = _parts(_coeffs(E), x)
    if den == 0:
        return INFINITY
    v = num / den
    if cmath.isinf(v) or cmath.isnan(v):
        return INFINITY
    return v


def lattes_derivative(E: EllipticCurve, x: complex) -> complex:
    """d/dx of the doubling map at a finite regular point."""
    return _quotient_rule(*_parts(_coeffs(E), x))


_LOG4 = math.log(4.0)


def _sphere_log_deriv(c: tuple[complex, ...], x: complex) -> tuple[float, complex]:
    """(log of the spherical derivative at x, image point) for c = _coeffs(E)."""
    if cmath.isinf(x):
        # chart w = 1/x: the induced germ is w -> 4w + O(w^2)
        return _LOG4, INFINITY
    num, den, dnum, dden = _parts(c, x)
    if den == 0:
        # simple pole: spherical derivative (1+|x|^2)/|residue|
        if dden == 0 or num == 0:
            raise OrbitHitSingularity(f"degenerate pole at {x}")
        r = num / dden
        return math.log((1.0 + abs(x) ** 2) / abs(r)), INFINITY
    fx = num / den
    fp = _quotient_rule(num, den, dnum, dden)
    if fp == 0:
        raise OrbitHitSingularity(f"critical point hit exactly at {x}")
    sd = abs(fp) * (1.0 + abs(x) ** 2) / (1.0 + abs(fx) ** 2)
    if not (sd > 0.0 and math.isfinite(sd)):
        raise OrbitHitSingularity(f"non-finite spherical derivative at {x}")
    return math.log(sd), fx


def orbit_stats(E: EllipticCurve, z0: complex, n: int) -> tuple[list[complex], float]:
    """Iterate the doubling map n times from x = z0, accumulating the mean
    log spherical derivative (empirical Lyapunov exponent).

    Returns (orbit sample, mean); the sample keeps every 50th point plus the
    endpoints.  Needs n >= 100 for the mean to be meaningful.

    The result is bit for bit that of stepping with `_sphere_log_deriv`,
    exceptions included; the loop only saves interpreter work.  Each step
    inlines `_parts`, `_quotient_rule` and the spherical derivative with every
    expression and its order kept, except that the powers are products in the
    order CPython's complex `**` multiplies: x^2 = x*x, x^3 = x*x^2,
    x^4 = x^2*x^2, den^2 = den*den.  (`**` also multiplies its result by
    1 + 0j, which can only flip the sign of a zero part; the sums with the
    curve's constant terms and abs() erase that flip, as the tests check on
    signed-zero curves and starts.)  `1 + |x|^2` is carried over from the
    step that made x.  A step goes to `_sphere_log_deriv` instead when the
    fast step divides by zero, overflows, or gives a spherical derivative
    outside (0, inf); so do the first step and every step from infinity.
    Poles, critical points and overflowing powers thus get the reference's
    value or exception.
    """
    if n < 100:
        raise ValueError("orbit statistics need n >= 100")
    c = _coeffs(E)
    g2, g3, half_g2, two_g3, g2sq_16 = c
    log, inf = math.log, math.inf
    x = z0
    x_sq1 = math.nan  # 1 + |x|^2: NaN here and inf at infinity go to the reference
    total = 0.0
    sample = [x]
    full, rest = divmod(n, 50)
    for block in range(full + 1):
        for _ in range(50 if block < full else rest):
            if x_sq1 < inf:
                try:
                    x2 = x * x
                    g2x = g2 * x
                    four_x3 = 4.0 * (x * x2)
                    num = x2 * x2 + half_g2 * x2 + two_g3 * x + g2sq_16
                    den = four_x3 - g2x - g3
                    fx = num / den
                    fp = ((four_x3 + g2x + two_g3) * den - num * (12.0 * x2 - g2)) / (den * den)
                    fx_sq1 = 1.0 + abs(fx) ** 2
                    sd = abs(fp) * x_sq1 / fx_sq1
                except (ZeroDivisionError, OverflowError):
                    sd = 0.0
                if 0.0 < sd < inf:
                    total += log(sd)
                    x, x_sq1 = fx, fx_sq1
                    continue
            step_log, x = _sphere_log_deriv(c, x)
            total += step_log
            x_sq1 = 1.0 + abs(x) ** 2
        if block < full:
            sample.append(x)
    if sample[-1] != x:
        sample.append(x)
    return sample, total / n
