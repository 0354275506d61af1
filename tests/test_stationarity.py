"""dDelta/dsigma = 0 on both edges of the parameter domain, proved with sympy.

Every monotone certificate rests on it: convexity of a column in sigma forces
strict escape from the boundary value only if the column starts stationary
at sigma = 1 or at sigma = sigma_p.  Along the constraint surface
F = A^p + B^p - 1 = 0, dDelta/dsigma = N / F_tau with
N = Delta_sigma F_tau - Delta_tau F_sigma, so N = 0 proves it wherever
F_tau != 0.

The proof has two parts.  First, sympy differentiates the definitions and
checks the atom forms of the partial derivatives at a general point, with
a0 = (1+sigma^p)^(-1/p), a1 = (1+sigma^p)^(-1-1/p), b0 and b1 likewise in
tau, s1 = sigma^(p-1), t1 = tau^(p-1), alpha1 = A^(p-1), beta1 = B^(p-1);
the atom identities b1 (1 + tau^p) = b0 and a1 (1 + sigma^p) = a0 carry it.
Second, on each edge N is a rational function of the atoms as free symbols,
and the edge's relations make it vanish: on sigma = 1, tau = tau_p has
2(1 - tau)^p = 1 + tau^p, so b0 (1 - tau) = a0, B = b0, A = tau B and
alpha1 = t1 beta1; on sigma = sigma_p, tau = 0, a0 = 1/2 and
s1 alpha1 = beta1.
"""

import pytest

sp = pytest.importorskip("sympy")

p, s, t, W = sp.symbols("p sigma tau W", positive=True)


def _zero(expr) -> bool:
    """expr simplifies to 0, powers of positive symbols split freely."""
    expr = sp.expand_power_base(sp.expand_power_exp(sp.expand(expr)), force=True)
    return sp.simplify(sp.powsimp(expr, force=True)) == 0


def _atoms(sigma, tau):
    a0 = (1 + sigma**p) ** (-1 / p)
    b0 = (1 + tau**p) ** (-1 / p)
    return {
        "a0": a0,
        "b0": b0,
        "a1": (1 + sigma**p) ** (-1 - 1 / p),
        "b1": (1 + tau**p) ** (-1 - 1 / p),
        "s1": sigma ** (p - 1),
        "t1": tau ** (p - 1),
        "A": b0 - a0,
        "B": tau * b0 + sigma * a0,
    }


def _partials(a0, b0, a1, b1, s1, t1, alpha1, beta1, sigma, tau):
    """(Delta_sigma, Delta_tau, F_sigma, F_tau) in the atom forms; F's by the
    chain rule F_x = p (alpha1 A_x + beta1 B_x)."""
    A_s, B_s, A_t, B_t = s1 * a1, a1, -t1 * b1, b1
    return (
        a0 * b0 - (tau + sigma) * b0 * s1 * a1,
        a0 * b0 - (tau + sigma) * a0 * t1 * b1,
        p * (alpha1 * A_s + beta1 * B_s),
        p * (alpha1 * A_t + beta1 * B_t),
    )


def test_atom_identities():
    x = _atoms(s, t)
    assert _zero(x["b1"] * (1 + t**p) - x["b0"])
    assert _zero(x["a1"] * (1 + s**p) - x["a0"])


def test_atom_forms_of_the_partials():
    x = _atoms(s, t)
    D_s, D_t, _, _ = _partials(
        x["a0"], x["b0"], x["a1"], x["b1"], x["s1"], x["t1"], 0, 0, s, t
    )
    delta = (t + s) * x["a0"] * x["b0"]
    assert _zero(sp.diff(delta, s) - D_s)
    assert _zero(sp.diff(delta, t) - D_t)
    # the derivatives of A and B that _partials uses for F
    assert _zero(sp.diff(x["A"], s) - x["s1"] * x["a1"])
    assert _zero(sp.diff(x["B"], s) - x["a1"])
    assert _zero(sp.diff(x["A"], t) + x["t1"] * x["b1"])
    assert _zero(sp.diff(x["B"], t) - x["b1"])


def _free_atoms():
    return sp.symbols("a0 b0 a1 b1 s1 t1 alpha1 beta1", positive=True)


def test_stationary_on_sigma_1():
    # tau = tau_p = 1 - W: 1 + tau^p = 2 W^p, so b0 = 2^(-1/p)/W = a0/(1 - tau)
    x = _atoms(1, 1 - W)
    b0 = sp.powdenest((2 * W**p) ** (-1 / p), force=True)
    assert _zero(b0 * W - x["a0"])
    # hence B = b0 and A = tau B, so alpha1 = (tau B)^(p-1) = t1 beta1
    Bv, tv = sp.symbols("B_v tau_v", positive=True)
    assert _zero(((1 - W) * b0 + x["a0"]) - b0)
    assert _zero((tv * Bv) ** (p - 1) - tv ** (p - 1) * Bv ** (p - 1))
    assert _zero(x["a1"] - x["a0"] / 2)

    a0, b0, a1, b1, s1, t1, alpha1, beta1 = _free_atoms()
    tau = sp.Symbol("tau_p", positive=True)
    D_s, D_t, F_s, F_t = _partials(a0, b0, a1, b1, s1, t1, alpha1, beta1, 1, tau)
    N = D_s * F_t - D_t * F_s
    edge = [  # substituted in this order
        (s1, 1),
        (a1, a0 / 2),
        (alpha1, t1 * beta1),
        (b1, b0 / (1 + tau * t1)),  # b1 (1 + tau^p) = b0, tau^p = tau t1
        (a0, b0 * (1 - tau)),
    ]
    assert sp.simplify(N.subs(edge)) == 0


def test_stationary_on_sigma_p():
    # tau = 0 (t1 = 0 as p > 1) and sigma = sigma_p: sigma^p = 2^p - 1, so
    # a0 = 1/2, A = 1/2 and B = sigma/2
    x = {k: sp.powdenest(v.subs(s**p, 2**p - 1), force=True) for k, v in _atoms(s, 0).items()}
    assert x["b0"] == 1 and x["b1"] == 1
    assert x["t1"].subs(p, 1 + W) == 0
    assert _zero(x["a0"] - sp.Rational(1, 2))
    assert _zero(x["A"] - sp.Rational(1, 2)) and _zero(x["B"] - s / 2)
    # s1 alpha1 = beta1 at tau = 0
    s1 = _atoms(s, 0)["s1"]
    assert _zero(s1 * sp.Rational(1, 2) ** (p - 1) - (s / 2) ** (p - 1))

    a0, b0, a1, b1, s1, t1, alpha1, beta1 = _free_atoms()
    D_s, D_t, F_s, F_t = _partials(a0, 1, a1, 1, s1, 0, alpha1, beta1, s, 0)
    N = D_s * F_t - D_t * F_s
    edge = [  # substituted in this order
        (alpha1, beta1 / s1),  # s1 alpha1 = beta1
        (s1, (2**p - 1) / s),  # sigma s1 = sigma^p = 2^p - 1
        (a0, sp.Rational(1, 2)),
        (a1, sp.Rational(1, 2) / 2**p),  # a1 = a0 / (1 + sigma^p) = a0 / 2^p
    ]
    assert sp.simplify(N.subs(edge)) == 0
