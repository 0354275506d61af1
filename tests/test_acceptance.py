"""Acceptance criteria, one test per criterion at its stated tolerance.

Run `pytest tests/test_acceptance.py -v` for the per-criterion pass/fail
lines; each test also prints an ACCEPT line with the measured figures.
"""

import io
import math
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest

from critlat.interval import Box, Interval
from critlat import enclosure as E
from critlat import elliptic as EL
from critlat import moduli as M
from critlat import verifier as V
from critlat.batch import tau_enclose_batch
from critlat.cli import main as cli_main
from critlat.jets import delta_p_deriv, delta_scalar, delta_sigma_derivs
from critlat.verifier import parse_certificate
from critlat.vints import VI

SQRT3 = math.sqrt(3.0)
GRID_P = np.linspace(1.4, 4.0, 30)


def run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


def test_criterion_1_p0_enclosure():
    t0 = time.perf_counter()
    code, out = run_cli(["p0", "--tol", "1e-3"])
    assert code == 0
    row = out.splitlines()[1].split(",")
    lo, hi = float(row[1]), float(row[2])
    assert 2.57 <= lo <= hi <= 2.58

    iv6 = V.enclose_p0(1e-6)
    g = lambda p: M.delta_edge_low(p) - M.delta_edge_high(p)
    a, b = 2.5, 2.65
    for _ in range(60):
        mid = 0.5 * (a + b)
        if g(a) * g(mid) <= 0.0:
            b = mid
        else:
            a = mid
    float_root = 0.5 * (a + b)
    assert iv6.lo <= float_root <= iv6.hi
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nACCEPT 1 PASS: p0 in [{lo}, {hi}] subset [2.57, 2.58]; "
          f"float root {float_root:.9f} inside tol-1e-6 enclosure; {elapsed:.2f}s")


def test_criterion_2_closed_form_anchors():
    assert abs(M.sigma_p(2.0) - SQRT3) < 1e-10
    assert abs(M.tau_p(2.0) - (2.0 - SQRT3)) < 1e-10
    for p in GRID_P:
        assert abs(M.tau_point(p, M.sigma_p(p))) < 1e-10
        assert abs(M.tau_point(p, 1.0) - M.tau_p(p)) < 1e-10
        sp = M.sigma_p(p)
        assert abs(M.delta_point(p, sp).delta - sp / 2.0) < 1e-10
        tp = M.tau_p(p)
        low = 4.0 ** (-1.0 / p) * (1.0 + tp) / (1.0 - tp)
        assert abs(M.delta_point(p, 1.0).delta - low) < 1e-10
    for s in np.linspace(1.0, SQRT3, 30):
        assert abs(M.delta_point(2.0, s).delta - SQRT3 / 2.0) < 1e-10
    print("\nACCEPT 2 PASS: closed-form anchors within 1e-10 on the 30-point grid")


def test_criterion_3_lattice_consistency():
    for p in GRID_P:
        d0 = M.lattice_det(M.lattice_basis("L0", p))
        assert abs(d0 - M.delta_point(p, M.sigma_p(p)).delta) < 1e-10
        d1 = M.lattice_det(M.lattice_basis("L1", p))
        assert abs(d1 - M.delta_point(p, 1.0).delta) < 1e-10
    # the historical p = 2 bases
    assert abs(M.lattice_det(M.lattice_basis("L0", 2.0)) - SQRT3 / 2.0) < 1e-12
    h = 2.0**-0.5
    x, y = math.sqrt(2.0 - SQRT3) / 2.0, math.sqrt(2.0 + SQRT3) / 2.0
    assert abs(abs(-h * y - h * x) - SQRT3 / 2.0) < 1e-12
    print("\nACCEPT 3 PASS: |det L0| = Delta(p, sigma_p), |det L1| = Delta(p, 1) "
          "to 1e-10; both p = 2 bases give sqrt(3)/2")


def test_criterion_4_enclosure_soundness_suite():
    rng = np.random.default_rng(20260808)
    n_boxes = 200
    n_samples = 10_000
    chains = 0
    boxes = []
    # per box, the sampled (min, max) of tau, Delta, dDelta/dsigma,
    # d2Delta/dsigma2 and dDelta/dp
    ranges = np.empty((n_boxes, 5, 2))
    for k in range(n_boxes):
        wp = rng.uniform(0.002, 0.05)
        ws = rng.uniform(0.002, 0.05)
        p_lo = rng.uniform(1.5, 3.5 - wp)
        sp_guard = M.sigma_p(p_lo)  # sigma_p is increasing; guard at p_lo
        s_lo = rng.uniform(1.0, sp_guard * 0.93 - ws)
        X = Box.of(p_lo, p_lo + wp, s_lo, s_lo + ws)
        boxes.append(X)

        enc = E.tau_interval(X)
        assert E.DEFAULT_SEED.contains_interval(enc.tau)
        assert enc.precheck  # Remark-1 gate holds on in-domain boxes
        ps = rng.uniform(X.p.lo, X.p.hi, n_samples)
        ss = rng.uniform(X.sigma.lo, X.sigma.hi, n_samples)
        taus = M.tau_point_vec(ps, ss)
        assert enc.tau.lo <= taus.min() and taus.max() <= enc.tau.hi

        # the references: the atom formulas on float arrays, which
        # criterion 5 checks against the decimal oracle
        deltas = delta_scalar(ps, ss, taus)
        for eif in (E.delta_eif(X, enc), E.delta_eif(X, enc, refine=True)):
            assert eif.value.lo <= deltas.min() and deltas.max() <= eif.value.hi
        samples = (taus, deltas, *delta_sigma_derivs(ps, ss, taus),
                   delta_p_deriv(ps, ss, taus))
        ranges[k] = [(a.min(), a.max()) for a in samples]

        if k % 40 == 0:
            # refinement consistency on a nested chain inside this box
            chain = [X]
            for _ in range(3):
                prev = chain[-1]
                pm, sm = prev.mid
                chain.append(
                    Box.of(
                        0.5 * (prev.p.lo + pm), 0.5 * (prev.p.hi + pm),
                        0.5 * (prev.sigma.lo + sm), 0.5 * (prev.sigma.hi + sm),
                    )
                )
            vals = [E.delta_eif(c, E.tau_interval(c)).value for c in chain]
            for outer, inner in zip(vals, vals[1:]):
                assert outer.contains_interval(inner)
            chains += 1

    # the lane that certifies: all boxes as one VI, as the subpavings do
    P = VI(np.array([X.p.lo for X in boxes]), np.array([X.p.hi for X in boxes]))
    S = VI(np.array([X.sigma.lo for X in boxes]), np.array([X.sigma.hi for X in boxes]))
    T, vacuous = tau_enclose_batch(P, S)
    assert not vacuous.any()
    encs = (T, delta_scalar(P, S, T), *delta_sigma_derivs(P, S, T), delta_p_deriv(P, S, T))
    names = ("tau", "delta", "d_sigma", "d_sigma2", "d_p")
    for name, v, (lo, hi) in zip(names, encs, ranges.transpose(1, 2, 0)):
        assert np.all((v.lo <= lo) & (hi <= v.hi)), name
    print(f"\nACCEPT 4 PASS: {n_boxes} random boxes, {n_samples} samples each, "
          "no escape from the VI enclosures of tau, delta, dDelta/dsigma, "
          "d2Delta/dsigma2 and dDelta/dp, nor from the Interval-lane tau and "
          f"delta (natural and refined); {chains} nested chains "
          "refinement-consistent; seed [0, 0.36] and precheck gate held")


def test_criterion_5_derivatives_vs_decimal_fd():
    # dyadic sample points and a power-of-two step make every stencil
    # abscissa exactly representable, so the only FD errors are truncation
    # (h^2 ~ 5.5e-17) and the decimal solver residual, both far below 1e-6
    h = 2.0**-27
    hd = Decimal(2) ** -27
    prec = 40
    snap = lambda x: round(x * 2**27) / 2**27

    def f_hp(p, s):
        return M.delta_point_hp(p, s, prec=prec)

    pts = []
    for p in np.linspace(1.6, 3.4, 5):
        sp = M.sigma_p(p)
        for frac in np.linspace(0.15, 0.85, 5):
            pts.append((snap(float(p)), snap(float(1.0 + frac * (sp - 1.0)))))
    assert len(pts) == 25

    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = prec
        for (p, s) in pts:
            d = M.derivatives(p, s)
            f00 = f_hp(p, s)
            fs1 = f_hp(p, s + h)
            fs_1 = f_hp(p, s - h)
            fp1 = f_hp(p + h, s)
            fp_1 = f_hp(p - h, s)
            fup = f_hp(p + h, s + h)
            fun = f_hp(p - h, s + h)
            fdp = f_hp(p + h, s - h)
            fdn = f_hp(p - h, s - h)

            fd = {
                "d_sigma": (fs1 - fs_1) / (2 * hd),
                "d_sigma2": (fs1 - 2 * f00 + fs_1) / (hd * hd),
                "d_p": (fp1 - fp_1) / (2 * hd),
                "d_sigma_p": (fup - fun - fdp + fdn) / (4 * hd * hd),
                "d_sigma2_p": (
                    (fup - 2 * fp1 + fdp) - (fun - 2 * fp_1 + fdn)
                ) / (2 * hd * hd * hd),
            }
            for key, ref in fd.items():
                ref_f = float(ref)
                got = getattr(d, key)
                rel = abs(got - ref_f) / max(abs(ref_f), 1e-9)
                worst = max(worst, rel)
                assert rel <= 1e-6, (key, p, s, got, ref_f)
    print(f"\nACCEPT 5 PASS: all five derivatives match decimal-precision "
          f"central differences at 25 interior points; worst rel err {worst:.2e}")


def test_criterion_6_certification_fixture(tmp_path):
    path = tmp_path / "fixture.json"
    t0 = time.perf_counter()
    code, _ = run_cli(
        ["verify", "--p", "2.3", "2.4", "--strip", "0.02",
         "--budget", "10000", "--out", str(path)]
    )
    elapsed = time.perf_counter() - t0
    assert code == 0
    doc = parse_certificate(path.read_text())
    assert doc["complete"] is True
    assert doc["totals"].get("Undecided", 0) == 0
    assert elapsed < 60.0

    # float soundness of every certified leaf at 10^3 points per leaf
    rng = np.random.default_rng(3)
    for leaf in doc["leaves"]:
        p_lo, p_hi = float(leaf["p"][0]), float(leaf["p"][1])
        s_lo, s_hi = float(leaf["sigma"][0]), float(leaf["sigma"][1])
        ps = rng.uniform(p_lo, p_hi, 1000)
        ss = rng.uniform(s_lo, s_hi, 1000)
        sp = (2.0**ps - 1.0) ** (1.0 / ps)
        inside = ss < sp * (1.0 - 1e-12)
        if not inside.any():
            continue
        deltas = M.delta_point_vec(ps[inside], ss[inside])
        if leaf["verdict"] == "CertifiedMonotoneLow":
            bound = np.array([M.delta_edge_low(p) for p in ps[inside]])
        elif leaf["verdict"] == "CertifiedMonotoneHigh":
            bound = sp[inside] / 2.0
        else:
            bound = np.array([M.boundary_min(p).value for p in ps[inside]])
        assert np.all(deltas > bound - 1e-12), leaf["id"]

    # the p ~ 2 run fails with the undecided leaves hugging the equality line
    with pytest.raises(V.BudgetExhausted) as ei:
        V.verify_strip(Interval(1.99, 2.01), "interior", strip=0.02, budget=40)
    cert = ei.value.certificate
    assert not cert.complete
    und = cert.undecided
    assert len(und) > 0

    def pdist(rec):
        iv = rec.box.p
        if iv.lo <= 2.0 <= iv.hi:
            return 0.0
        return min(abs(iv.lo - 2.0), abs(iv.hi - 2.0))

    worst = max(pdist(r) for r in und)
    assert worst <= 0.004  # concentrated at p ~ 2 (range half-width is 0.01)
    print(f"\nACCEPT 6 PASS: fixture complete in {elapsed:.1f}s with "
          f"{doc['totals']} over {len(doc['leaves'])} leaves; p~2 run exhausts "
          f"budget with undecided leaves within {worst:.4f} of p = 2")


def test_criterion_7_elliptic_curve_suite():
    hexL = EL.complexify(M.lattice_basis("L0", 2.0))
    E_hex = EL.weierstrass_curve(hexL)
    assert abs(E_hex.g2) <= 1e-8
    assert abs(E_hex.discriminant) > 0.0

    c2 = EL.eisenstein(hexL, 2, target=1e-4)
    pts_r = EL.lattice_points(hexL, c2.radius)
    pts_2r = EL.lattice_points(hexL, 2.0 * c2.radius)
    move = abs(complex(np.sum(pts_r**-4)) - complex(np.sum(pts_2r**-4)))
    assert move <= c2.tail

    sq = EL.ComplexLattice(1.0 + 0j, 1j)
    assert abs(EL.weierstrass_curve(sq).discriminant) > 0.0

    act = EL.multiplier_check(hexL, complex(0.5, SQRT3 / 2.0))
    m = np.array(act.matrix)
    assert np.array_equal(np.linalg.matrix_power(m, 6), np.eye(2, dtype=int))

    with pytest.raises(EL.ExponentTooSmall):
        EL.eisenstein(hexL, 1)
    print(f"\nACCEPT 7 PASS: |g2(hexagonal)| = {abs(E_hex.g2):.2e} <= 1e-8 with "
          f"two-radius move {move:.2e} <= tail {c2.tail:.2e}; discriminants "
          "nonzero; zeta_6 matrix has order 6; n = 1 rejected")


def test_criterion_8_lattes_suite():
    hexL = EL.complexify(M.lattice_basis("L0", 2.0))
    E_hex = EL.weierstrass_curve(hexL)

    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        z = complex(rng.uniform(0.03, 0.06), rng.uniform(0.03, 0.06))
        px = EL.weierstrass_p(hexL, z, target=2e-7)
        p2x = EL.weierstrass_p(hexL, 2.0 * z, target=2e-7)
        err = abs(EL.lattes_step(E_hex, px) - p2x)
        worst = max(worst, err)
        assert err < 1e-6

    roots = np.roots([4.0, 0.0, -E_hex.g2.real, -E_hex.g3.real])
    for r in roots:
        img = EL.lattes_step(E_hex, complex(r))
        assert EL.is_infinity(img) or abs(img) > 1e10
    E_syn = EL.EllipticCurve(7.0 + 0j, -3.0 + 0j, 100.0 + 0j, 0.0, 0.0)
    assert EL.is_infinity(EL.lattes_step(E_syn, 1.0 + 0j))

    lyaps = []
    for _ in range(20):
        z0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        _, lyap = EL.orbit_stats(E_hex, z0, 5000)
        lyaps.append(lyap)
        assert lyap > 0.0
    print(f"\nACCEPT 8 PASS: semiconjugacy with the p-series oracle to 1e-6 on "
          f"50 points (worst {worst:.2e}); 2-torsion maps to infinity; mean "
          f"log spherical derivative in [{min(lyaps):.3f}, {max(lyaps):.3f}] > 0 "
          "for 20 orbits of length 5000")


def test_criterion_9_determinism(tmp_path):
    argv = ["verify", "--p", "2.33", "2.35", "--strip", "0.02",
            "--budget", "600", "--policy", "full"]
    paths = [tmp_path / f"c{i}.json" for i in range(3)]
    assert run_cli(argv + ["--out", str(paths[0])])[0] == 0
    assert run_cli(argv + ["--out", str(paths[1])])[0] == 0
    assert run_cli(["--workers", "2"] + argv + ["--out", str(paths[2])])[0] == 0
    b0, b1, b2 = (p.read_bytes() for p in paths)
    assert b0 == b1 == b2
    print("\nACCEPT 9 PASS: byte-identical certificates across repeated runs "
          "and worker counts")
