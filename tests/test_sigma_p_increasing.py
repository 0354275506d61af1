"""sigma_p(p) = (2^p - 1)^(1/p) increases for p > 0, proved with sympy.

The mean-value forms on sub-boxes that straddle the curve sigma = sigma_p(p)
rest on it (batch._centers): from the center (P.hi, sigma_c), sigma_c <=
sigma_p(P.hi), the path to an in-domain point (p, sigma) of the box runs in
sigma at P.hi and then in p at sigma, and stays in the domain only if
sigma <= sigma_p(p) <= sigma_p(q) for every q in [p, P.hi].

With x = 2^p (so p ln 2 = ln x), ln sigma_p = ln(x - 1)/p and
p^2 (ln sigma_p)' = x ln x/(x - 1) - ln(x - 1) = ln(x/(x - 1)) + ln x/(x - 1).
For p > 0, x > 1: both terms are positive, so sigma_p' = sigma_p (ln
sigma_p)' > 0.
"""

import pytest

sp = pytest.importorskip("sympy")

p, W = sp.symbols("p W", positive=True)


def test_log_slope_identity():
    # p^2 (ln sigma_p)' in terms of x = 2^p
    x = 2**p
    slope = sp.diff(sp.log(x - 1) / p, p) * p**2
    identity = sp.log(x / (x - 1)) + sp.log(x) / (x - 1)
    assert sp.simplify(sp.expand_log(slope - identity, force=True)) == 0


def test_log_slope_is_positive():
    # x = 1 + W, W = 2^p - 1 > 0 for p > 0: x/(x - 1) = 1 + 1/W
    assert sp.log(1 + 1 / W).is_positive
    assert (sp.log(1 + W) / W).is_positive


def test_slope_formula_is_the_derivative():
    # jets.d_sigma_p_scalar: sigma_p [2^p ln2/(p(2^p-1)) - ln(2^p-1)/p^2]
    sigma_p = (2**p - 1) ** (1 / p)
    u = 2**p - 1
    formula = sigma_p * (2**p * sp.log(2) / (p * u) - sp.log(u) / p**2)
    assert sp.simplify(sp.diff(sigma_p, p) - formula) == 0
