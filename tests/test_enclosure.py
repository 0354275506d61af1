"""Rigorous enclosures: the tau fixed-point iteration, the delta eif-element,
derivative enclosures from the atom formulas, boundary enclosures, and the
batch lane."""

import math

import numpy as np
import pytest

from critlat.interval import Box, DomainError, Interval
from critlat import batch as B
from critlat import enclosure as E
from critlat import jets
from critlat import moduli as M
from critlat.batch import (
    Job,
    subpave_convex_positive,
    subpave_delta_above,
    tau_enclose_batch,
)
from critlat.jets import (
    TAU_STEPS,
    delta_gradient,
    delta_p_deriv,
    delta_scalar,
    delta_sigma_derivs,
    delta_held_slopes,
    f_tau_scalar,
    phi_consts,
    phi_scalar,
    tau_p_resid_scalar,
    tau_pow_log,
    tpow,
)
from critlat.vints import VI

SQRT3 = math.sqrt(3.0)


def point_box(p: float, s: float) -> Box:
    return Box(Interval.point(p), Interval.point(s))


def lane(iv: Interval) -> VI:
    """iv as a one-lane VI: the jets formulas take float, ndarray and VI."""
    return VI(np.array([iv.lo]), np.array([iv.hi]))


def lane0(v: VI) -> Interval:
    return Interval(v.lo[0], v.hi[0])


class TestTauInterval:
    def test_point_box_at_sigma_p(self):
        p = 2.5
        sp = M.sigma_p(p)
        enc = E.tau_interval(Box(Interval.point(p), Interval.point(sp)))
        assert enc.tau.contains(0.0)
        assert enc.tau.width <= 1e-10

    def test_point_box_at_2_1(self):
        enc = E.tau_interval(point_box(2.0, 1.0))
        assert enc.tau.contains(2.0 - SQRT3)
        assert enc.tau.width < 1e-12

    def test_seed_recorded(self):
        enc = E.tau_interval(point_box(2.3, 1.3))
        assert E.DEFAULT_SEED == Interval(0.0, 0.36)
        assert enc.tau.lo >= 0.0 and enc.tau.hi <= 0.36

    def test_seed_holds_every_in_domain_tau(self):
        # in-domain tau lies in [0, tau_p], and tau_p < 0.36 iff the residual
        # h(0.36) = 2(1 - 0.36)^p - (1 + 0.36^p) is negative, h decreasing in
        # t: checked for every p > 1, the range the CLI accepts
        seed = E.DEFAULT_SEED.hi
        edges = np.linspace(1.0, 1.6, 61)
        assert np.all(tau_p_resid_scalar(VI(edges[:-1], edges[1:]), seed).hi < 0.0)
        # p >= 1.6: h(0.36) < 2 (1 - 0.36)^p - 1 <= 2 (1 - 0.36)^1.6 - 1
        base = 1.0 - Interval.point(seed)
        assert base.hi < 1.0
        assert (2.0 * base.pow(Interval.point(edges[-1])) - 1.0).hi < 0.0

    def test_stops_at_exact_fixed_point(self):
        # one more intersected step from the result returns it unchanged, on
        # seeded point, thin and wide boxes; the first box (a leaf of verify
        # --p 2.6 2.8) still narrows by one ulp after its width changes by
        # less than 1e-15
        rng = np.random.default_rng(41)
        boxes = [Box.of(2.7, 2.725, 1.0, 1.02)]
        for w in (0.0, 1e-9, 1e-4, 0.02):
            for p, f in rng.uniform((1.5, 0.0), (3.5, 0.9), (8, 2)):
                s = 1.0 + f * (M.sigma_p(p) - 1.0 - w)
                boxes.append(Box.of(p, p + w, s, s + w))
        for X in boxes:
            enc = E.tau_interval(X)
            P, T = lane(X.p), lane(enc.tau)
            Tn, empty = phi_scalar(P, *phi_consts(P, lane(X.sigma)), T).intersect(T)
            assert not empty[0] and lane0(Tn) == enc.tau, X
            assert enc.iterations <= TAU_STEPS

    def test_sampling_never_escapes(self):
        X = Box.of(2.29, 2.31, 1.19, 1.21)
        enc = E.tau_interval(X)
        rng = np.random.default_rng(17)
        ps = rng.uniform(X.p.lo, X.p.hi, 10_000)
        ss = rng.uniform(X.sigma.lo, X.sigma.hi, 10_000)
        taus = M.tau_point_vec(ps, ss)
        assert enc.tau.lo <= taus.min() and taus.max() <= enc.tau.hi

    def test_midpoint_inside(self):
        X = Box.of(2.1, 2.2, 1.3, 1.4)
        enc = E.tau_interval(X)
        pm, sm = X.mid
        assert enc.tau.contains(M.tau_point(pm, sm))

    def test_empty_on_out_of_domain_box(self):
        with pytest.raises(E.EmptyEnclosure):
            E.tau_interval(Box.of(2.0, 2.001, 1.9, 1.95))  # beyond sqrt3

    def test_monotone_narrowing(self):
        # widths never grow once past the first step (intersection per step)
        X = Box.of(2.3, 2.32, 1.25, 1.27)
        widths = []
        P, T = lane(X.p), lane(E.DEFAULT_SEED)
        consts = phi_consts(P, lane(X.sigma))
        for _ in range(30):
            T, _ = phi_scalar(P, *consts, T).intersect(T)
            widths.append(lane0(T).width)
        assert all(w2 <= w1 + 1e-15 for w1, w2 in zip(widths, widths[1:]))

    def test_refinement_nesting(self):
        outer = Box.of(2.3, 2.34, 1.2, 1.24)
        inner = Box.of(2.31, 2.33, 1.21, 1.23)
        to = E.tau_interval(outer)
        ti = E.tau_interval(inner)
        assert to.tau.lo <= ti.tau.lo and ti.tau.hi <= to.tau.hi


class TestDeltaEif:
    def test_point_box_2_1(self):
        X = point_box(2.0, 1.0)
        d = E.delta_eif(X, E.tau_interval(X))
        assert d.value.contains(SQRT3 / 2.0)
        assert d.value.width <= 1e-8
        assert d.fid == "delta"

    def test_point_box_at_curve(self):
        p = 2.5
        sp = M.sigma_p(p)
        X = Box(Interval.point(p), Interval.point(sp))
        d = E.delta_eif(X, E.tau_interval(X))
        assert d.value.contains(sp / 2.0)

    def test_isotone_widening(self):
        X1 = Box.of(2.3, 2.32, 1.2, 1.22)
        X2 = Box.of(2.29, 2.33, 1.19, 1.23)
        d1 = E.delta_eif(X1, E.tau_interval(X1))
        d2 = E.delta_eif(X2, E.tau_interval(X2))
        assert d2.value.contains_interval(d1.value)

    def test_refinement_chain(self):
        boxes = [
            Box.of(2.3, 2.3 + w, 1.2, 1.2 + w) for w in (0.08, 0.04, 0.02, 0.01)
        ]
        vals = [E.delta_eif(X, E.tau_interval(X)).value for X in boxes]
        for outer, inner in zip(vals, vals[1:]):
            assert outer.contains_interval(inner)

    def test_sampling_containment(self):
        X = Box.of(2.29, 2.31, 1.19, 1.21)
        d = E.delta_eif(X, E.tau_interval(X))
        rng = np.random.default_rng(23)
        ps = rng.uniform(X.p.lo, X.p.hi, 10_000)
        ss = rng.uniform(X.sigma.lo, X.sigma.hi, 10_000)
        deltas = M.delta_point_vec(ps, ss)
        assert d.value.lo <= deltas.min() and deltas.max() <= d.value.hi

    def test_refined_still_contains(self):
        X = Box.of(2.29, 2.31, 1.19, 1.21)
        enc = E.tau_interval(X)
        dn = E.delta_eif(X, enc)
        dr = E.delta_eif(X, enc, refine=True)
        assert dn.value.contains_interval(dr.value)
        rng = np.random.default_rng(29)
        ps = rng.uniform(X.p.lo, X.p.hi, 5000)
        ss = rng.uniform(X.sigma.lo, X.sigma.hi, 5000)
        deltas = M.delta_point_vec(ps, ss)
        assert dr.value.lo <= deltas.min() and deltas.max() <= dr.value.hi


def derivative_enclosures(X: Box) -> dict[str, Interval]:
    """dDelta/dsigma, d2Delta/dsigma2 and dDelta/dp enclosed over X by the
    atom formulas on one VI lane, keyed as in moduli.DeltaDerivatives."""
    args = lane(X.p), lane(X.sigma), lane(E.tau_interval(X).tau)
    dds, dds2 = delta_sigma_derivs(*args)
    return {"d_sigma": lane0(dds), "d_sigma2": lane0(dds2), "d_p": lane0(delta_p_deriv(*args))}


class TestDerivativeEifs:
    def test_point_derivatives_inside(self):
        X = Box.of(2.29, 2.31, 1.19, 1.21)
        d = M.derivatives(2.3, 1.2)
        for k, v in derivative_enclosures(X).items():
            assert v.contains(getattr(d, k)), k

    def test_p2_dsigma_contains_zero(self):
        assert derivative_enclosures(point_box(2.0, 1.3))["d_sigma"].contains(0.0)

    def test_sample_containment(self):
        X = Box.of(2.35, 2.37, 1.3, 1.32)
        d_p = derivative_enclosures(X)["d_p"]
        rng = np.random.default_rng(31)
        for _ in range(60):
            p = rng.uniform(X.p.lo, X.p.hi)
            s = rng.uniform(X.sigma.lo, X.sigma.hi)
            assert d_p.contains(M.derivatives(p, s).d_p), (p, s)

    def test_thin_strip_c_element(self):
        # near sigma = 1 at p = 2.4 the first derivative is sign-definite on
        # a strip not touching the edge: point samples fix the sign first,
        # then a subpaving of atom-formula enclosures certifies it
        X = Box.of(2.3999, 2.4001, 1.15, 1.152)
        signs = {np.sign(M.derivatives(p, s).d_sigma)
                 for p in (2.3999, 2.4001) for s in (1.15, 1.152)}
        assert signs == {-1.0}
        pc = np.linspace(X.p.lo, X.p.hi, 9)
        sc = np.linspace(X.sigma.lo, X.sigma.hi, 65)
        P = VI(np.repeat(pc[:-1], 64), np.repeat(pc[1:], 64))
        S = VI(np.tile(sc[:-1], 8), np.tile(sc[1:], 8))
        T, vac = tau_enclose_batch(P, S)
        assert not vac.any()
        dds, _ = delta_sigma_derivs(P, S, T)
        assert dds.hi.max() < 0.0

    def test_requires_interior(self):
        # the mean-value form needs tau bounded away from zero; on a box
        # straddling the sigma_p curve tau reaches zero, and refine keeps
        # the natural value exactly
        p = 2.5
        sp = M.sigma_p(p)
        X = Box.of(p - 0.01, p + 0.01, sp - 0.02, sp + 0.02)
        enc = E.tau_interval(X)
        assert enc.tau.lo == 0.0
        natural = E.delta_eif(X, enc).value
        refined = E.delta_eif(X, enc, refine=True).value
        assert (refined.lo, refined.hi) == (natural.lo, natural.hi)

    def test_refinement_chain(self):
        boxes = [Box.of(2.3, 2.3 + w, 1.2, 1.2 + w) for w in (0.04, 0.02, 0.01)]
        prev = None
        for X in boxes:
            encs = derivative_enclosures(X)
            if prev is not None:
                for k in encs:
                    assert prev[k].contains_interval(encs[k]), k
            prev = encs


class TestAtomFormulaEnclosures:
    def test_enclosure_contains_pointwise(self):
        X = Box.of(2.3, 2.33, 1.4, 1.45)
        encs = derivative_enclosures(X)
        dds, dds2 = encs["d_sigma"], encs["d_sigma2"]
        rng = np.random.default_rng(7)
        for _ in range(40):
            p = rng.uniform(X.p.lo, X.p.hi)
            s = rng.uniform(X.sigma.lo, X.sigma.hi)
            d = M.derivatives(p, s)
            assert dds.contains(d.d_sigma)
            assert dds2.contains(d.d_sigma2)

    def test_zero_touching_tau_needs_p_above_2(self):
        p = 1.8
        sp = M.sigma_p(p)
        X = Box(Interval.point(p), Interval(sp * 0.999, sp))
        enc = E.tau_interval(X)
        assert enc.tau.lo == 0.0
        with np.errstate(all="ignore"):  # the VI lane turns NaN
            dds, dds2 = delta_sigma_derivs(lane(X.p), lane(X.sigma), lane(enc.tau))
        assert dds2.invalid()[0]

    def test_gradient_is_both_derivatives_bit_for_bit(self):
        # delta_gradient takes the atoms that delta_sigma_derivs and
        # delta_p_deriv share once, and returns their values unchanged
        rng = np.random.default_rng(17)
        n = 2000
        p = rng.uniform(1.3, 4.5, n)
        sp = (2.0**p - 1.0) ** (1.0 / p)
        s = 1.0 + rng.uniform(0.0, 1.02, n) * (sp - 1.0)
        w = np.array([0.0, 1e-9, 1e-6, 1e-3, 2e-2])[np.arange(n) % 5]
        P, S = VI(p, p + w), VI(s, s + w)
        T, _ = tau_enclose_batch(P, S)
        with np.errstate(all="ignore"):
            got = delta_gradient(P, S, T)
            want = delta_sigma_derivs(P, S, T)[0], delta_p_deriv(P, S, T)
        nan = lambda x: np.where(np.isnan(x), np.nan, x).tobytes()
        for g, v in zip(got, want):
            assert nan(g.lo) == nan(v.lo) and nan(g.hi) == nan(v.hi)
        assert (~got[1].invalid()).sum() > n // 2
        X = Box.of(2.35, 2.37, 1.3, 1.32)
        args = lane(X.p), lane(X.sigma), lane(E.tau_interval(X).tau)
        got = delta_gradient(*args)
        want = delta_sigma_derivs(*args)[0], delta_p_deriv(*args)
        assert [(g.lo, g.hi) for g in got] == [(v.lo, v.hi) for v in want]
        t = M.tau_point(2.36, 1.31)
        assert delta_gradient(2.36, 1.31, t) == (
            delta_sigma_derivs(2.36, 1.31, t)[0], delta_p_deriv(2.36, 1.31, t))

    def test_numpy_floats_and_arrays_match_floats(self):
        # the float lane takes numpy float scalars, with the per-float
        # results bit for bit, and float arrays: numpy's pow and log round
        # some last bits unlike libm's, which cancellation in the formulas
        # lifts to about 1e-14 of a column's scale
        rng = np.random.default_rng(13)
        ps = rng.uniform(1.3, 4.5, 50)
        ss = np.array([1.0 + f * (M.sigma_p(p) - 1.0) for p, f in
                       zip(ps, rng.uniform(0.05, 0.95, 50))])
        taus = M.tau_point_vec(ps, ss)
        want = np.array([(*delta_sigma_derivs(p, s, t), delta_p_deriv(p, s, t))
                         for p, s, t in zip(ps.tolist(), ss.tolist(), taus.tolist())])
        scalars = np.array([(*delta_sigma_derivs(p, s, t), delta_p_deriv(p, s, t))
                            for p, s, t in zip(ps, ss, taus)])
        arrays = np.column_stack((*delta_sigma_derivs(ps, ss, taus),
                                  delta_p_deriv(ps, ss, taus)))
        assert isinstance(ps[0], np.float64)
        assert np.array_equal(scalars, want)
        assert np.all(np.abs(arrays - want) <= 1e-13 * np.abs(want).max(axis=0))


_COMPLEX_STEP = 1e-30


def _d_sigma3_step(p: float, s: float) -> float:
    """d3Delta/dsigma3 at (p, sigma): a complex step in sigma of the float
    d2Delta/dsigma2, tau following the surface by one Newton step as in
    moduli.derivatives."""
    h = _COMPLEX_STEP
    t0 = M.tau_point(p, s)
    tc = t0 - M._f_resid(p, complex(s, h), t0) / f_tau_scalar(p, s, t0)
    return delta_sigma_derivs(p, complex(s, h), tc)[1].imag / h


def _surface_references(n: int, seed: int):
    """(p, sigma, refs) at n points, p in [2.05, 4.5] and sigma in the
    domain, refs one row (d3Delta/dsigma3, d3Delta/dsigma2dp, dDelta/dsigma,
    d2Delta/dsigma2, dDelta/dp) per point.  d3Delta/dsigma3 is _d_sigma3_step,
    the rest are moduli.derivatives."""
    rng = np.random.default_rng(seed)
    ps = rng.uniform(2.05, 4.5, n)
    ss = np.array([1.0 + f * (M.sigma_p(p) - 1.0)
                   for p, f in zip(ps, rng.uniform(0.0, 0.98, n))])
    refs = []
    for p, s in zip(ps.tolist(), ss.tolist()):
        d = M.derivatives(p, s)
        refs.append((_d_sigma3_step(p, s), d.d_sigma2_p, d.d_sigma, d.d_sigma2, d.d_p))
    return ps, ss, np.array(refs)


def _third_derivs(p, s, t):
    """(d3Delta/dsigma3, d3Delta/dsigma2dp) from the slopes of d2Delta/dsigma2
    with u = tau^(p-2) held and its coefficient C1 (delta_held_slopes), and
    the derivatives of u along the surface: du/dsigma = (p-2) tau^(p-3) tau'
    and du/dp = tau^(p-2) ln tau + (p-2) tau^(p-3) tau_p.  Floats or VIs."""
    at, st = jets.delta_sigma_terms(p, s, t)
    h_s, h_p, c1 = delta_held_slopes(p, s, t, (at, st))
    tau_p = jets._p_slope(p, s, t, at).tau_p
    t3 = tpow(t, p - 3) * (p - 2)
    return h_s + c1 * (t3 * st.tau1), h_p + c1 * (tau_pow_log(t, p - 2) + t3 * tau_p)


class TestThirdDerivatives:
    """The atom formulas of the slopes of d2Delta/dsigma2 with its atom
    tau^(p-2) held (the slopes of the convexity columns' mean-value form)
    and of its coefficient C1, composed into d3Delta/dsigma3 and
    d3Delta/dsigma2dp (_third_derivs), with the first and second
    derivatives, on point and thin VI lanes: each enclosure holds the
    references at the lane's corner (p, sigma)."""

    @pytest.mark.parametrize(
        "p, s",
        [(2.3, 1.5), (2.7, 1.8), (2.6, 1.84), (3.5, 1.7), (2.05, 1.6), (2.7, 1.1),
         (2.01, 1.7)],
    )
    def test_held_slopes_carry_the_third_derivatives(self, p, s):
        # d3Delta/dsigma3 = h_s + C1 du/dsigma and d3Delta/dsigma2dp = h_p +
        # C1 du/dp: the held slopes and C1 account for every other atom
        refs = (_d_sigma3_step(p, s), M.derivatives(p, s).d_sigma2_p)
        for got, want in zip(_third_derivs(p, s, M.tau_point(p, s)), refs):
            assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    @classmethod
    def setup_class(cls):
        cls.ps, cls.ss, cls.refs = _surface_references(300, 41)

    def test_float_lane_matches_references(self):
        # and the first derivatives match complex steps of Delta itself
        h = _COMPLEX_STEP
        for k, (p, s) in enumerate(zip(self.ps.tolist(), self.ss.tolist())):
            t = M.tau_point(p, s)
            got = (*_third_derivs(p, s, t), *delta_gradient(p, s, t),
                   delta_sigma_derivs(p, s, t)[1])
            want = self.refs[k, [0, 1, 2, 4, 3]]
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12), (p, s)
            ft = f_tau_scalar(p, s, t)
            steps = []
            for pc, sc in ((p, complex(s, h)), (complex(p, h), s)):
                tc = t - M._f_resid(pc, sc, t) / ft
                steps.append(delta_scalar(pc, sc, tc).imag / h)
            assert np.allclose(steps, want[[2, 3]], rtol=1e-9, atol=1e-12), (p, s)

    @pytest.mark.parametrize("width", [0.0, 1e-9, 1e-6])
    def test_enclosures_contain_references(self, width):
        P = VI(self.ps, self.ps + width)
        S = VI(self.ss, self.ss + width)
        T, vac = tau_enclose_batch(P, S)
        assert not vac.any()
        with np.errstate(all="ignore"):  # as the batch entry points run them
            encs = (*_third_derivs(P, S, T), *delta_sigma_derivs(P, S, T),
                    delta_p_deriv(P, S, T))
            grad = delta_gradient(P, S, T)
        names = ("d_sigma3", "d_sigma2_p", "d_sigma", "d_sigma2", "d_p")
        for name, v, r in zip(names, encs, self.refs.T):
            assert np.all((v.lo <= r) & (r <= v.hi)), name
        for v, r in zip(grad, self.refs.T[[2, 4]]):
            assert np.all((v.lo <= r) & (r <= v.hi))
        if width == 0.0:  # point lanes enclose to a few thousand ulps
            for v, r in zip(encs, self.refs.T):
                assert np.all(v.hi - v.lo <= 1e-9 * np.maximum(1.0, np.abs(r)))

    def test_shared_terms_give_the_same_bits(self):
        # the convexity columns take the terms of d2Delta/dsigma2 on box and
        # center lanes, and hand a selection of the box lanes' terms to the
        # held slopes: the same bits as computing them afresh
        rng = np.random.default_rng(19)
        n = 2000
        p = rng.uniform(1.3, 4.5, n)
        sp = (2.0**p - 1.0) ** (1.0 / p)
        s = 1.0 + rng.uniform(0.0, 1.02, n) * (sp - 1.0)
        w = np.array([0.0, 1e-9, 1e-6, 1e-3, 2e-2])[np.arange(n) % 5]
        P, S = VI(p, p + w), VI(s, s + w)
        T, _ = tau_enclose_batch(P, S)
        q = np.flatnonzero(rng.uniform(size=n) < 0.3)
        nan = lambda x: np.where(np.isnan(x), np.nan, x).tobytes()
        with np.errstate(all="ignore"):
            at, st = jets.delta_sigma_terms(P, S, T)
            sub = [B._lanes(x, q) for x in (P, S, T)]
            got = delta_held_slopes(*sub, (B._lanes(at, q), B._lanes(st, q)))
            want = delta_held_slopes(*sub)
            d2 = delta_sigma_derivs(P, S, T)[1]
        assert nan(d2.lo) == nan(st.dds2.lo) and nan(d2.hi) == nan(st.dds2.hi)
        for g, v in zip(got, want):
            assert nan(g.lo) == nan(v.lo) and nan(g.hi) == nan(v.hi)
        assert (~got[1].invalid()).sum() > q.size // 2

    def test_tau_pow_log_turns_below_exponent_one(self):
        # tau^e ln tau falls to -1/(e e) at tau = exp(-1/e) and rises after;
        # exponents below 1 put the turn inside [0, 0.36], as p - 2 does
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(43)
        n = 3000
        e = rng.uniform(-0.3, 1.5, n)
        t = rng.uniform(0.0, 0.36, n)
        t[::5] = 0.0
        w = np.array([0.0, 1e-9, 1e-3, 0.1])[np.arange(n) % 4]
        E_, T_ = VI(e, e + w), VI(t, np.minimum(t + w[::-1], 0.36))
        with np.errstate(all="ignore"):
            got = tau_pow_log(T_, E_)
        def f(tau, ex):
            return mp.mpf(0) if tau == 0 else tau**ex * mp.log(tau)
        turned = 0
        for i in range(n):
            lo, hi = got.lo[i], got.hi[i]
            if np.isnan(lo):  # an exponent reaching 0 on a tau touching 0
                assert E_.lo[i] <= 0.0 and T_.lo[i] == 0.0
                continue
            tl, th = mp.mpf(T_.lo[i]), mp.mpf(T_.hi[i])
            el, eh = mp.mpf(E_.lo[i]), mp.mpf(E_.hi[i])
            taus = [tl, th, tl + (th - tl) / 3]
            if el > 0 and tl <= mp.exp(-1 / el) <= th:
                taus.append(mp.exp(-1 / el))
                turned += 1
            for tau in taus:
                for ex in (el, eh, (el + eh) / 2):
                    assert lo <= f(tau, ex) <= hi, i
        assert turned > 100


def both_lanes(scalar_fn, batch_fn, p_lo, p_hi):
    """The enclosure over [p_lo, p_hi] on the Interval lane and on a one-lane
    VI, each as a (lo, hi) pair: every generic formula is checked on both."""
    s = scalar_fn(Interval(p_lo, p_hi))
    v = batch_fn(VI(np.array([p_lo]), np.array([p_hi])))
    return [(s.lo, s.hi), (float(v.lo[0]), float(v.hi[0]))]


class TestBoundaryEnclosures:
    def test_sigma_p_enclosure(self):
        for p in (1.5, 2.0, 3.0):
            for lo, hi in both_lanes(E.sigma_p_enclosure, B.sigma_p_batch, p, p):
                assert lo <= M.sigma_p(p) <= hi
                assert hi - lo < 1e-13

    def test_tau_p_enclosure_tight(self):
        for lo, hi in both_lanes(E.tau_p_enclosure, B.tau_p_enclose_batch, 2.0, 2.0):
            assert lo <= 2.0 - SQRT3 <= hi
            assert hi - lo < 1e-13

    def test_edges_contain_closed_forms(self):
        lows = both_lanes(
            E.delta_edge_low_enclosure,
            lambda P: B.edge_low_batch(P, B.tau_p_enclose_batch(P)),
            2.3,
            2.4,
        )
        highs = both_lanes(
            E.delta_edge_high_enclosure, lambda P: B.sigma_p_batch(P) * 0.5, 2.3, 2.4
        )
        for p in np.linspace(2.3, 2.4, 7):
            for lo, hi in lows:
                assert lo <= M.delta_edge_low(p) <= hi
            for lo, hi in highs:
                assert lo <= M.delta_edge_high(p) <= hi

    def test_derivative_enclosures_contain_fd(self):
        h = 1e-6
        fd_sp = (M.sigma_p(2.4 + h) - M.sigma_p(2.4 - h)) / (2 * h)
        for lo, hi in both_lanes(E.d_sigma_p_enclosure, B.d_sigma_p_batch, 2.4, 2.4):
            assert lo - 1e-8 <= fd_sp <= hi + 1e-8
        fd_low = (M.delta_edge_low(2.4 + h) - M.delta_edge_low(2.4 - h)) / (2 * h)
        for lo, hi in both_lanes(
            E.d_delta_edge_low_enclosure,
            lambda P: B.d_edge_low_batch(P, B.tau_p_enclose_batch(P)),
            2.4,
            2.4,
        ):
            assert lo - 1e-9 <= fd_low <= hi + 1e-9

    def test_tau_p_lanes_are_independent(self):
        # a subpaving slice brackets tau_p in one keyed call on the distinct
        # p-intervals of its difference lanes, whichever jobs they come
        # from; each job ends as it would alone only if a lane's bracket
        # ignores the other lanes of its call
        rng = np.random.default_rng(20)
        lo = rng.uniform(1.05, 4.5, 200)
        lo[150:] = lo[rng.integers(0, 150, 50)]
        hi = lo + rng.choice([0.0, 1e-9, 1e-4, 0.05], 200)
        whole = B.tau_p_enclose_batch(VI(lo, hi))

        def bits(T, lanes):
            return T.lo[lanes].tobytes(), T.hi[lanes].tobytes()

        order = rng.permutation(200)
        shuffled = B.tau_p_enclose_batch(VI(lo[order], hi[order]))
        assert bits(shuffled, slice(None)) == bits(whole, order)
        for i in range(200):
            alone = B.tau_p_enclose_batch(VI(lo[i : i + 1], hi[i : i + 1]))
            assert bits(alone, slice(None)) == bits(whole, [i])

    def test_entry_points_equal_batch_lanes(self):
        # each scalar entry point is lane i of its batch twin, bit for bit,
        # on seeded p-intervals (a batch lane ignores the other lanes)
        lo, hi = _tau_p_lanes(60, 35)
        P = VI(lo, hi)
        tp = B.tau_p_enclose_batch(P)
        twins = {
            E.sigma_p_enclosure: B.sigma_p_batch(P),
            E.tau_p_enclosure: tp,
            E.delta_edge_low_enclosure: B.edge_low_batch(P, tp),
            E.delta_edge_high_enclosure: B.sigma_p_batch(P) * 0.5,
            E.d_sigma_p_enclosure: B.d_sigma_p_batch(P),
            E.d_delta_edge_low_enclosure: B.d_edge_low_batch(P, tp),
        }
        for fn, v in twins.items():
            for i in range(lo.size):
                r = fn(Interval(lo[i], hi[i]))
                assert _same_bits([r.lo, r.hi], [v.lo[i], v.hi[i]]), (fn.__name__, i)

    def test_p_at_most_1_rejected_on_scalar_lane(self):
        for fn in (E.sigma_p_enclosure, E.tau_p_enclosure, E.d_sigma_p_enclosure,
                   E.delta_edge_low_enclosure, E.d_delta_edge_low_enclosure):
            with pytest.raises(DomainError):
                fn(Interval(0.9, 1.2))


def _bisect_tau_p(p, max_steps=80):
    """The sign bisection of [0, 1/2] that jets.tau_p_scalar replaced, kept as
    the reference: lo moves only to midpoints with h.lo > 0 verified, hi only
    to midpoints with h.hi < 0, until no midpoint lies strictly inside its
    bracket or after max_steps steps; p is a VI."""
    lo, lo_cap = np.zeros(p.lo.shape), np.full(p.lo.shape, 0.5)
    hi, hi_cap = np.full(p.lo.shape, 0.5), np.zeros(p.lo.shape)
    with np.errstate(all="ignore"):
        for _ in range(max_steps):
            m_lo = 0.5 * (lo + lo_cap)
            m_hi = 0.5 * (hi + hi_cap)
            if not np.any((lo < m_lo) & (m_lo < lo_cap) | (hi_cap < m_hi) & (m_hi < hi)):
                break
            pos = tau_p_resid_scalar(p, m_lo).lo > 0.0
            neg = tau_p_resid_scalar(p, m_hi).hi < 0.0
            lo, lo_cap = np.where(pos, m_lo, lo), np.where(pos, lo_cap, m_lo)
            hi, hi_cap = np.where(neg, m_hi, hi), np.where(neg, hi_cap, m_hi)
    return lo, hi


def _tau_p_lanes(n, seed):
    """Seeded p-intervals in [1.05, 4.5]: points and widths 0.025 / 2^k."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(1.05, 4.5, n)
    w = 0.025 / 2.0 ** rng.integers(0, 40, n)
    w[rng.random(n) < 0.3] = 0.0
    return lo, lo + w


# lanes at the edges of the search: NaN, p <= 1, p -> 1, wide P
_EDGE_P = [
    (math.nan, 2.0), (2.0, math.nan), (0.5, 0.9), (1.0, 1.0),
    (1.0 + 2.0**-40, 1.0 + 2.0**-40), (50.0, 60.0), (1.05, 4.5),
]
# where the 80-step cap stops the bisection before adjacent floats
_HUGE_P = [(1e9, 1e9), (1e12, 1e12)]


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestTauPSearch:
    """jets.tau_p_scalar finds the ends of the sign bisection it replaced by a
    gallop-and-bisect search on the float bit patterns, bit for bit."""

    def test_vi_lane_equals_bisection(self):
        lo, hi = _tau_p_lanes(20000, 31)
        lo = np.concatenate([lo, [a for a, _ in _EDGE_P]])
        hi = np.concatenate([hi, [b for _, b in _EDGE_P]])
        got = B.tau_p_enclose_batch(VI(lo, hi))
        ref_lo, ref_hi = _bisect_tau_p(VI(lo, hi))
        assert _same_bits(got.lo, ref_lo) and _same_bits(got.hi, ref_hi)

    def test_interval_lane_equals_bisection(self):
        # the scalar entry point, one p-interval a call, on 1,000 lanes and
        # the edge lanes with p > 1; it refuses p <= 1
        lo, hi = _tau_p_lanes(1000, 32)
        lo = np.concatenate([lo, [a for a, _ in _EDGE_P[4:]]])
        hi = np.concatenate([hi, [b for _, b in _EDGE_P[4:]]])
        ref_lo, ref_hi = _bisect_tau_p(VI(lo, hi))
        for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
            got = E.tau_p_enclosure(Interval(a, b))
            assert (got.lo, got.hi) == (ref_lo[i], ref_hi[i]), (a, b)
        for a, b in _EDGE_P[2:4]:
            with pytest.raises(DomainError):
                E.tau_p_enclosure(Interval(a, b))

    def test_huge_p_bracket_lies_inside_the_capped_bisection(self):
        for a, b in _HUGE_P:
            got = B.tau_p_enclose_batch(VI(np.array([a]), np.array([b])))
            ref_lo, ref_hi = _bisect_tau_p(VI(np.array([a]), np.array([b])))
            assert ref_lo[0] <= got.lo[0] < got.hi[0] <= ref_hi[0]
            # the cap left the old bracket wider
            assert (got.lo[0], got.hi[0]) != (ref_lo[0], ref_hi[0])
            got = E.tau_p_enclosure(Interval(a, b))
            assert ref_lo[0] <= got.lo < got.hi <= ref_hi[0]

    def test_ends_are_transitions_around_the_root(self):
        # on each lane, lo is verified positive and the next float is not, hi
        # verified negative and the float before it not; the bracket holds the
        # 50-digit root at both p ends.  The scalar entry point runs the same
        # search on one VI lane, so the two brackets agree bit for bit.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        lo, hi = _tau_p_lanes(40, 33)
        V = B.tau_p_enclose_batch(VI(lo, hi))
        for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
            S = E.tau_p_enclosure(Interval(a, b))
            t_lo, t_hi = float(V.lo[i]), float(V.hi[i])
            assert _same_bits([S.lo, S.hi], [t_lo, t_hi]), (a, b)
            P = VI(np.array([a]), np.array([b]))
            r = [tau_p_resid_scalar(P, np.array([t])) for t in (
                t_lo, math.nextafter(t_lo, 1.0), t_hi, math.nextafter(t_hi, 0.0))]
            lo_of = [float(x.lo[0]) for x in r]
            hi_of = [float(x.hi[0]) for x in r]
            assert lo_of[0] > 0.0 and not lo_of[1] > 0.0, (a, b)
            assert hi_of[2] < 0.0 and not hi_of[3] < 0.0, (a, b)
            for q in (a, b):
                q = mpmath.mpf(q)
                root = mpmath.findroot(
                    lambda x: 2 * (1 - x) ** q - 1 - x**q, (0.01, 0.49), solver="bisect"
                )
                assert mpmath.mpf(t_lo) < root < mpmath.mpf(t_hi), (a, b)

    def test_an_exotic_lane_does_not_stretch_the_search(self, monkeypatch):
        calls = [0]
        resid = jets.tau_p_resid_scalar

        def counted(p, t):
            calls[0] += 1
            return resid(p, t)

        monkeypatch.setattr(jets, "tau_p_resid_scalar", counted)
        lo, hi = _tau_p_lanes(185, 34)

        def residual_calls(extra):
            calls[0] = 0
            B.tau_p_enclose_batch(VI(np.concatenate([lo, [a for a, _ in extra]]),
                                     np.concatenate([hi, [b for _, b in extra]])))
            return calls[0]

        ordinary = residual_calls([])
        assert ordinary <= 10  # the bisection made about 110
        for lane in _EDGE_P:
            assert residual_calls([lane]) <= ordinary + 3, lane
        # the gallop's first step scales with the rounding model, so a lane
        # whose transition lies 2^30-2^40 floats off the float root stays
        # far below the capped bisection's 160 calls
        for lane in _HUGE_P:
            assert residual_calls([lane]) <= 48, lane


class TestBatchLane:
    def test_pow_nonneg_one_pow_matches_two(self):
        # the former formula: pow on [lo, hi], then again on [hi, hi] for the
        # upper bound of zero-touching lanes
        def two_pows(x, o):
            touches = x.lo <= 0.0
            reg = x.pow(o)
            hi_safe = np.where(x.hi > 0.0, x.hi, 1.0)
            top = VI(hi_safe, hi_safe.copy()).pow(o).hi
            top = np.where(x.hi > 0.0, top, 0.0)
            lo = np.where(touches, 0.0, reg.lo)
            hi = np.where(touches, top, reg.hi)
            bad = (x.lo < 0.0) | ~(o.lo > 0.0)
            return np.where(bad, np.nan, lo), np.where(bad, np.nan, hi)

        rng = np.random.default_rng(21)
        n = 200_000
        edges = np.array([0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 5e-324,
                          2.2e-308, 1e-300, 1.0, 0.36, 1e300])

        def draw(lo, hi, frac):
            v = rng.uniform(lo, hi, n)
            pick = rng.random(n) < frac
            v[pick] = rng.choice(edges, pick.sum())
            return v

        a, b = draw(-0.1, 1.5, 0.3), draw(-0.1, 1.5, 0.3)
        flip = rng.random(n) < 0.05  # some inverted lanes too
        x = VI(np.where(flip, np.maximum(a, b), np.minimum(a, b)),
               np.where(flip, np.minimum(a, b), np.maximum(a, b)))
        e1, e2 = draw(-0.5, 4.0, 0.2), rng.uniform(-0.5, 4.0, n)
        o = VI(np.minimum(e1, e2), np.maximum(e1, e2))
        with np.errstate(all="ignore"):
            got = x.pow_nonneg(o)
            lo, hi = two_pows(x, o)
        assert got.lo.tobytes() == lo.tobytes()
        assert got.hi.tobytes() == hi.tobytes()

    def test_tau_batch_matches_scalar(self):
        P = VI(np.array([2.29, 2.0]), np.array([2.31, 2.0]))
        S = VI(np.array([1.19, 1.0]), np.array([1.21, 1.0]))
        T, vac = tau_enclose_batch(P, S)
        assert not vac.any()
        enc = E.tau_interval(Box.of(2.29, 2.31, 1.19, 1.21))
        # same math, per-op nudging only differs by ulps
        assert abs(T.lo[0] - enc.tau.lo) < 1e-9
        assert abs(T.hi[0] - enc.tau.hi) < 1e-9
        assert T.lo[1] <= 2.0 - SQRT3 <= T.hi[1]

    def test_vacuous_detection(self):
        P = VI(np.array([2.0]), np.array([2.001]))
        S = VI(np.array([1.9]), np.array([1.95]))
        _, vac = tau_enclose_batch(P, S)
        assert vac.all()

    def test_subpave_delta_above_is_true_claim(self):
        [done] = subpave_delta_above([Job(2.31, 2.33, 1.1, 1.3, 30000)], "high")
        assert done.hull is not None and done.hull[0] > 0.0
        rng = np.random.default_rng(11)
        ps = rng.uniform(2.31, 2.33, 4000)
        ss = rng.uniform(1.1, 1.3, 4000)
        excess = M.delta_point_vec(ps, ss) - (2.0**ps - 1.0) ** (1.0 / ps) / 2.0
        assert excess.min() > 0.0

    @pytest.mark.parametrize(
        "box, most_nodes",
        [
            # mono-low column at sigma = 1: 11,253 nodes by the natural form
            ((2.6, 2.625, 1.0, 1.02), 100),
            # mono-high column reaching the curve: 10,559 by the natural form
            ((2.6, 2.6125, 1.8404818500913165, 1.897712184595973), 2500),
        ],
    )
    def test_subpave_convex_mean_value_columns(self, box, most_nodes):
        [done] = subpave_convex_positive([Job(*box, 30000)])
        assert done.end == B.CERTIFIED and done.nodes <= most_nodes
        rng = np.random.default_rng(47)
        ps = rng.uniform(box[0], box[1], 2000)
        top = np.minimum(box[3], (2.0**ps - 1.0) ** (1.0 / ps) * (1.0 - 1e-9))
        ss = box[2] + rng.uniform(0.0, 1.0, 2000) * (top - box[2])
        _, d2 = delta_sigma_derivs(ps, ss, M.tau_point_vec(ps, ss))
        assert 0.0 < done.hull[0] <= d2.min() and d2.max() <= done.hull[1]

    def test_subpave_convex_is_true_claim(self):
        [done] = subpave_convex_positive([Job(2.33, 2.35, 1.75, 1.82, 30000)])
        assert done.hull is not None and done.hull[0] > 0.0
        for p in (2.33, 2.34, 2.35):
            for s in (1.75, 1.78, 1.81):
                assert M.derivatives(p, s).d_sigma2 > 0.0
