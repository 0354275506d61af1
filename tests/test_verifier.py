"""Certification engine: per-cell certificates, strip verification, the p0
enclosure, and certificate documents."""

import json
import re
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from critlat.interval import Box, DomainError, Interval
from critlat import batch as B
from critlat import enclosure as E
from critlat import moduli as M
from critlat import verifier as V
from critlat.vints import VI


class TestCertifyBox:
    def test_interior_macroscopic(self):
        # point grid first: the interior excess over the min is macroscopic
        # (~1e-3 near p = 2.3, tapering toward p0) before the rigorous check
        ps = np.linspace(2.3, 2.35, 6)
        ss = np.linspace(1.3, 1.35, 6)
        for p in ps:
            for s in ss:
                assert M.delta_point(p, s).delta - M.boundary_min(p).value > 5e-4
        X = Box.of(2.3, 2.35, 1.3, 1.35)
        st = V.certify_box(X)
        assert st.verdict == V.VERDICT_INTERIOR
        assert st.witness is not None and st.witness.value.lo > 0.0

    def test_low_edge_never_interior_when_min_is_low(self):
        # where the minimum sits on the sigma = 1 side (p > p0), the boundary
        # value is attained at the touching edge, so no interior margin exists
        X = Box.of(2.6, 2.65, 1.0, 1.01)
        st = V.certify_box(X, band="low")
        assert st.verdict in (V.VERDICT_MONO_LOW, V.VERDICT_UNDECIDED)

    def test_low_edge_interior_when_min_is_high(self):
        # for 2 < p < p0 the minimum sits on the sigma_p side, so a touching
        # cell still carries the positive gap between the two boundary values
        X = Box.of(2.4, 2.45, 1.0, 1.01)
        st = V.certify_box(X, band="low")
        assert st.verdict in (V.VERDICT_INTERIOR, V.VERDICT_MONO_LOW,
                              V.VERDICT_UNDECIDED)
        assert st.verdict != V.VERDICT_UNDECIDED

    def test_p2_always_undecided(self):
        for w in (0.05, 0.01, 0.002):
            X = Box.of(2.0 - w, 2.0 + w, 1.2, 1.25)
            st = V.certify_box(X)
            assert st.verdict == V.VERDICT_UNDECIDED

    def test_monotone_high_near_curve(self):
        top = V._sigma_p_range(2.34, 2.36)[1]
        X = Box(Interval(2.34, 2.36), Interval(1.79, top))
        st = V.certify_box(X, band="high", sigma_top=top)
        assert st.verdict == V.VERDICT_MONO_HIGH
        assert st.witness.fid == "d_sigma2_column_high"
        assert st.witness.value.lo > 0.0

    def test_monotone_low_for_large_p(self):
        X = Box.of(2.7, 2.72, 1.0, 1.02)
        st = V.certify_box(X, band="low")
        assert st.verdict == V.VERDICT_MONO_LOW
        assert st.witness.fid == "d_sigma2_column_low"


# leaves whose first subpaving jobs, all in the first round, end in every way
_MIXED_LEAVES = [
    # (p_lo, p_hi, s_lo, s_hi), band, node budget: the first job's end
    ((2.7, 2.72, 1.0, 1.02), "low", 24000),  # convex column certifies
    ((2.55, 2.57, 1.0, 1.0 + 5e-7), "low", 24000),  # "high" certifies
    ((2.65, 2.66, 1.3, 1.3 + 5e-8), "mid", 24000),  # "low" certifies
    ((2.45, 2.46, 1.4, 1.821332860508517), "mid", 300),  # "high" over budget
    ((2.75, 2.76, 1.2, 1.5), "mid", 40),  # "low" over budget (above the cut)
    ((2.6, 2.7, 1.0, 1.0 + 5e-7), "low", 24000),  # column under its floor
    ((2.6, 2.62, 1.9, 1.95), "high", 24000),  # column beyond the curve
    ((2.3, 2.302, 1.2, 1.202), "mid", 24000),  # "high" certifies, in-domain
    ((2.75, 2.76, 1.02, 1.2), "mid", 100),  # split: column and "low" certify
]


class TestMergedRounds:
    def test_generation_matches_certify_box(self, monkeypatch):
        tasks = [
            (Box.of(a, b, c, d), band, V._sigma_p_range(a, b)[1], nb)
            for (a, b, c, d), band, nb in _MIXED_LEAVES
        ]
        lanes = [0]  # fixed-point lane-iterations on the VI lane
        phi = B.phi_scalar

        def counted_phi(*a):
            lanes[0] += a[-1].lo.size
            return phi(*a)

        monkeypatch.setattr(B, "phi_scalar", counted_phi)
        alone = []
        for X, band, top, nb in tasks:
            alone.append(V.certify_box(X, band=band, sigma_top=top, node_budget=nb))
        alone_lanes, lanes[0] = lanes[0], 0

        rounds = []  # per round, the fids of its jobs and how they ended
        subpave = V._subpave

        def spy(jobs):
            out = subpave(jobs)
            rounds.append(({fid for fid, _ in jobs}, {o.end for o in out}))
            return out

        monkeypatch.setattr(V, "_subpave", spy)
        merged = V._certify_rounds([V._certify_leaf(*t) for t in tasks])

        assert merged == alone
        # each lane stops at its own fixed point: merging adds no work
        assert lanes[0] == alone_lanes
        # the first round is one subpaving, of jobs of every fid
        fids, first_round = rounds[0]
        assert fids == set(B.FORMS)
        assert first_round == {B.CERTIFIED, B.BUDGET_HIT, B.FLOOR_HIT, B.VACUOUS}
        assert [st.verdict for st in alone[:3]] == [
            V.VERDICT_MONO_LOW, V.VERDICT_INTERIOR, V.VERDICT_INTERIOR]
        assert alone[7].witness.fid == "delta_minus_edge_high"
        assert "node budget hit" in alone[3].reason
        assert alone[4].reason.startswith("interior-low: node budget hit")
        assert "width floor hit" in alone[5].reason
        assert "no in-domain subcell" in alone[6].reason
        # the split leaf's two jobs ran in the first round, a column and a
        # difference
        split = alone[8]
        assert split.verdict == V.VERDICT_INTERIOR
        assert (split.column.fid, split.witness.fid) == (
            "d_sigma2_column_low", "delta_minus_edge_low")
        cut = split.column.box.sigma.hi
        assert split.column.box.sigma.lo == 1.0 and split.witness.box.sigma.lo == cut
        assert 1.02 < cut < 1.2 and split.witness.box.sigma.hi == 1.2
        assert all(st.column is None for st in alone[:8])

    def test_no_scalar_lane_in_verify_strip(self, monkeypatch):
        # certifying runs on the VI lane: no leaf encloses tau or tau_p on
        # the scalar Interval lane
        calls = []
        for name in ("tau_interval", "tau_p_enclosure"):
            fn = getattr(E, name)

            def spy(*a, _fn=fn, _name=name):
                calls.append(_name)
                return _fn(*a)

            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("critlat")
                        and getattr(mod, name, None) is fn):
                    monkeypatch.setattr(mod, name, spy)
        cert = V.verify_strip(Interval(2.31, 2.34), "interior", budget=500)
        assert cert.complete
        assert calls == []


# runs whose leaf budget binds: only some undecided cells split
_BINDING_BUDGETS = [
    *((Interval(1.99, 2.01), "full", b) for b in (13, 14, 16, 18, 20, 24, 30, 40)),
    *((Interval(1.995, 2.005), "interior", b) for b in (12, 20)),
]


def _document_and_work(p_range, policy, budget):
    """The certificate document of a verify run, complete or not."""
    try:
        cert = V.verify_strip(p_range, policy, budget=budget)
    except V.BudgetExhausted as e:
        cert = e.certificate
    return V.emit_certificate(cert)


class TestSchedule:
    # a run is one loop of rounds: after each round the cells are committed
    # in breadth-first order as far as their statuses are known, and an
    # undecided cell past them starts its halves in the next round when that
    # order is certain to make the split

    @pytest.fixture
    def work(self, monkeypatch):
        counts = {"calls": 0, "lanes": 0}
        tau = B.tau_enclose_batch

        def counted(P, S, *a, **k):
            counts["calls"] += 1
            counts["lanes"] += int(((P.lo != P.hi) | (S.lo != S.hi)).sum())
            return tau(P, S, *a, **k)

        monkeypatch.setattr(B, "tau_enclose_batch", counted)
        return counts

    def test_early_splits_change_no_document_and_waste_no_lane(self, work, monkeypatch):
        early = []
        for run in _BINDING_BUDGETS:
            work.update(calls=0, lanes=0)
            early.append((_document_and_work(*run), dict(work)))
        monkeypatch.setattr(V, "_split_is_certain", lambda *a: False)
        fewer_calls = 0
        for run, (doc, counts) in zip(_BINDING_BUDGETS, early):
            work.update(calls=0, lanes=0)
            assert _document_and_work(*run) == doc, run
            assert work["lanes"] == counts["lanes"], run
            assert counts["calls"] <= work["calls"], run
            fewer_calls += counts["calls"] < work["calls"]
        assert fewer_calls > 0  # some halves did start early

    @pytest.mark.parametrize("p_range, budget", [((1.99, 2.01), 24), ((1.95, 2.15), 40)])
    def test_one_loop_of_rounds_per_run(self, p_range, budget, monkeypatch):
        calls = []
        rounds = V._certify_rounds

        def spy(*a, **k):
            calls.append(1)
            return rounds(*a, **k)

        monkeypatch.setattr(V, "_certify_rounds", spy)
        with pytest.raises(V.BudgetExhausted):
            V.verify_strip(Interval(*p_range), "full", strip=0.02, budget=budget)
        assert len(calls) == 1

    def test_rule_counts_every_split_that_can_come_first(self):
        # L + sum over open cells r of (2^(g - g_r + 1) - 1) <= budget, the
        # cell itself among the open ones; deeper cells do not count
        open_ = Counter({3: 2, 4: 1, 5: 7})
        assert V._split_is_certain(10, open_, 4, 10 + 2 * 3 + 1)
        assert not V._split_is_certain(10, open_, 4, 10 + 2 * 3)
        assert V._split_is_certain(10, open_, 3, 12)

    def test_initial_ids_are_padded_so_leaves_tile_the_region(self):
        # 24 initial cells: a split of c1 once made c10, an initial cell's id,
        # and its record overwrote that cell's
        with pytest.raises(V.BudgetExhausted) as ei:
            V.verify_strip(Interval(1.95, 2.15), "full", strip=0.02, budget=40)
        cert = ei.value.certificate
        ids = [r.id for r in cert.leaves]
        assert len(ids) == len(set(ids)) == 40
        assert all(re.fullmatch(r"c\d\d[01]*", i) for i in ids)
        boxes = [tuple(map(Fraction, (r.box.p.lo, r.box.p.hi, r.box.sigma.lo, r.box.sigma.hi)))
                 for r in cert.leaves]
        for i, a in enumerate(boxes):
            for b in boxes[i + 1:]:
                assert not (max(a[0], b[0]) < min(a[1], b[1]) and max(a[2], b[2]) < min(a[3], b[3]))
        reg = cert.region
        area = (Fraction(reg.p.hi) - Fraction(reg.p.lo)) * (Fraction(reg.sigma.hi) - Fraction(reg.sigma.lo))
        assert sum((b[1] - b[0]) * (b[3] - b[2]) for b in boxes) == area


class TestPrescreen:
    @pytest.mark.parametrize(
        "name, box, band",
        [
            ("delta_point", (2.3, 2.35, 1.3, 1.35), "mid"),  # in _float_margins
            ("tau_point", (2.7, 2.72, 1.0, 1.02), "low"),  # in _float_dds2
        ],
    )
    def test_programming_error_propagates(self, monkeypatch, name, box, band):
        # a prescreen treats only numeric failures as ruling an attempt out
        def broken(*a):
            raise TypeError("broken")

        monkeypatch.setattr(V, name, broken)
        with pytest.raises(TypeError, match="broken"):
            V.certify_box(Box.of(*box), band=band)

    def test_failed_sample_rules_out_like_a_non_positive_one(self, monkeypatch):
        # a NaN margin from any sample, not only the first, skips the
        # attempt: min() drops a NaN that does not come first
        X = Box.of(2.3, 2.35, 1.3, 1.35)  # certifies interior when unpatched
        margins, n = V._float_margins, [0]

        def one_failed_sample(pm, sm):
            n[0] += 1
            return (float("nan"),) * 2 if n[0] == 2 else margins(pm, sm)

        monkeypatch.setattr(V, "_float_margins", one_failed_sample)
        monkeypatch.setattr(V, "_float_dds2", lambda pm, sm: float("nan"))
        st = V.certify_box(X)
        assert st.verdict == V.VERDICT_UNDECIDED
        ends = st.reason.split("; ")
        assert len(ends) == 3
        assert all("skipped by prescreen" in e for e in ends), st.reason


class TestSplit:
    # a mid-band interior-low attempt on P x [s_lo, s_hi] may run as a convex
    # column on P x [1, s*] and the difference on P x [s*, s_hi]

    def test_failed_split_names_both_ends(self):
        X = Box.of(2.6, 2.61, 1.02, 1.2)
        st = V.certify_box(X, sigma_top=V._sigma_p_range(2.6, 2.61)[1], node_budget=40)
        assert st.verdict == V.VERDICT_UNDECIDED and st.column is None
        assert st.reason.split("; ")[0] == (
            "interior-low: column [1, 1.09844] node budget hit (31 nodes), "
            "difference [1.09844, 1.2] node budget hit (31 nodes)")

    def test_column_certified_alone_is_not_enough(self):
        # the column certifies, the difference does not: the leaf stays
        # Undecided, and its reason says how each part ended
        X = Box.of(2.6, 2.625, 1.02, 1.15)
        st = V.certify_box(X, sigma_top=V._sigma_p_range(2.6, 2.625)[1], node_budget=160)
        assert st.verdict == V.VERDICT_UNDECIDED
        first = st.reason.split("; ")[0]
        assert first.startswith("interior-low: column [1, ")
        assert "certified (" in first and "difference [" in first
        assert first.endswith("node budget hit (127 nodes)")

    def test_cut_lies_below_the_curve_on_the_vi_lane(self, monkeypatch):
        # s* < sigma_p(p) for every p of the cell, checked against the VI
        # lower bound of sigma_p([p_lo]) (sigma_p increases); a bound at or
        # below s* drops the split
        cut = V._split_cut(2.75, 2.76, 1.02, 1.2)
        assert cut is not None and 1.02 < cut < 1.2
        sp = V.sigma_p_batch(VI.point(np.array([2.75])))
        assert sp.lo[0] <= M.sigma_p(2.75) <= sp.hi[0]
        for lo, split in ((cut, False), (np.nextafter(cut, 2.0), True)):
            monkeypatch.setattr(V, "sigma_p_batch", lambda P, _lo=lo: VI(
                np.array([_lo]), np.array([2.0])))
            assert (V._split_cut(2.75, 2.76, 1.02, 1.2) == cut) is split
        # so a cell whose column would pass sigma_p(p_lo) never splits
        monkeypatch.setattr(V, "sigma_p_batch", lambda P: VI(np.array([1.05]), np.array([2.0])))
        X = Box.of(2.75, 2.76, 1.02, 1.2)
        st = V.certify_box(X, sigma_top=V._sigma_p_range(2.75, 2.76)[1], node_budget=100)
        assert st.column is None

    def test_only_mid_band_low_attempts_split(self):
        # the same box in the low band runs its interior-low attempt whole
        X = Box.of(2.75, 2.76, 1.02, 1.2)
        for band in ("low", "high"):
            steps = V._certify_leaf(X, band, V._sigma_p_range(2.75, 2.76)[1], 100)
            jobs = next(steps)
            while not any(fid == "delta_minus_edge_low" for fid, _ in jobs):
                jobs = steps.send([B.Subpaving(None, B.BUDGET_HIT, 0)] * len(jobs))
            assert len(jobs) == 1 and (jobs[0][1].s_lo, jobs[0][1].s_hi) == (1.02, 1.2)


class TestPlanner:
    def test_first_high_band_cell_of_strip_one_skips_every_attempt(self):
        # verify --p 2.6 2.8: its first high-band cell splits without a
        # subpaving; the reason names the estimate or margin behind each skip
        s_lo, s_hi = V._sigma_p_range(2.6, 2.8)
        X = Box(Interval(2.6, 2.625), Interval(s_lo - 0.02, s_hi))
        st = V.certify_box(X, band="high", sigma_top=s_hi)
        assert st.verdict == V.VERDICT_UNDECIDED
        assert st.reason.split("; ") == [
            "mono-high: skipped by cost model (estimate 1.54e+05 > 96000 nodes)",
            "interior-low: skipped by cost model (estimate 2.62e+05 > 72000 nodes)",
            "interior-high: skipped by prescreen (margin -1.11e-16 <= 1e-07)",
        ]


class TestVerifyStrip:
    def test_small_interior_complete(self):
        cert = V.verify_strip(Interval(2.31, 2.34), "interior", strip=0.02, budget=500)
        assert cert.complete
        assert cert.totals.get(V.VERDICT_UNDECIDED, 0) == 0
        assert V.VERDICT_INTERIOR in cert.totals

    def test_small_full_complete(self):
        cert = V.verify_strip(Interval(2.33, 2.35), "full", strip=0.02, budget=2000)
        assert cert.complete
        # leaves tile the region in area
        area = sum(r.box.p.width * r.box.sigma.width for r in cert.leaves)
        reg = cert.region
        assert abs(area - reg.p.width * reg.sigma.width) < 1e-9

    def test_reversed_range_rejected(self):
        with pytest.raises(DomainError):
            V.verify_strip(Interval(2.3, 2.3), "full")
        with pytest.raises(Exception):
            V.verify_strip(Interval(2.4, 2.3), "full")

    def test_bad_policy_and_strip(self):
        with pytest.raises(DomainError):
            V.verify_strip(Interval(2.3, 2.4), "sideways")
        with pytest.raises(DomainError):
            V.verify_strip(Interval(2.3, 2.4), "full", strip=-0.1)
        with pytest.raises(DomainError):
            V.verify_strip(Interval(2.3, 2.4), "full", strip=float("nan"))

    def test_budget_exhaustion_near_2(self):
        with pytest.raises(V.BudgetExhausted) as ei:
            V.verify_strip(Interval(1.995, 2.005), "interior", strip=0.02, budget=12)
        cert = ei.value.certificate
        assert not cert.complete
        assert len(cert.undecided) > 0

    def test_leaf_soundness_sampling(self):
        cert = V.verify_strip(Interval(2.31, 2.335), "full", strip=0.02, budget=2000)
        rng = np.random.default_rng(10)
        for r in cert.leaves:
            ivp, ivs = r.box.p, r.box.sigma
            for _ in range(40):
                p = rng.uniform(ivp.lo, ivp.hi)
                s = rng.uniform(ivs.lo, ivs.hi)
                sp = M.sigma_p(p)
                if s >= sp * (1.0 - 1e-12):
                    continue  # beyond the curve: no claim
                d = M.delta_point(p, s).delta
                if r.status.verdict == V.VERDICT_INTERIOR:
                    assert d > M.boundary_min(p).value - 1e-12
                elif r.status.verdict == V.VERDICT_MONO_LOW:
                    if s > 1.0:
                        assert d > M.delta_edge_low(p) - 1e-12
                elif r.status.verdict == V.VERDICT_MONO_HIGH:
                    assert d > sp / 2.0 - 1e-12


class TestP0:
    def test_tol_1e3_inside_theorem_bracket(self):
        iv = V.enclose_p0(1e-3)
        assert 2.57 <= iv.lo and iv.hi <= 2.58

    def test_tol_1e6_contains_float_root(self):
        iv = V.enclose_p0(1e-6)
        assert iv.width <= 1e-6
        # independent float bisection on the boundary difference
        g = lambda p: M.delta_edge_low(p) - M.delta_edge_high(p)
        lo, hi = 2.5, 2.65
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if g(lo) * g(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        assert iv.lo - 1e-12 <= root <= iv.hi + 1e-12

    def test_bracket_ends_sign_definite(self):
        g_lo = V._g_enclosure(2.5)
        g_hi = V._g_enclosure(2.65)
        assert not g_lo.contains_zero()
        assert not g_hi.contains_zero()
        assert (g_lo.lo > 0.0) != (g_hi.lo > 0.0)

    def test_very_tight_tolerance(self):
        iv = V.enclose_p0(1e-9)
        assert iv.width <= 1e-9

    def test_bad_tolerance(self):
        with pytest.raises(DomainError):
            V.enclose_p0(0.0)
        with pytest.raises(DomainError):
            V.enclose_p0(float("nan"))

    def test_no_sign_change_error(self):
        with pytest.raises(V.NoSignChange):
            V.enclose_p0(1e-3, bracket=(2.6, 2.65))


class TestCertificateDocuments:
    def make_cert(self):
        return V.verify_strip(Interval(2.32, 2.34), "interior", strip=0.02, budget=400)

    def test_round_trip_bit_exact(self):
        cert = self.make_cert()
        doc = V.emit_certificate(cert, format="structured")
        parsed = V.parse_certificate(doc)
        assert parsed["complete"] == cert.complete
        assert parsed["totals"] == cert.totals
        for leaf, rec in zip(parsed["leaves"], cert.leaves):
            assert float(leaf["p"][0]) == rec.box.p.lo
            assert float(leaf["p"][1]) == rec.box.p.hi
            assert float(leaf["sigma"][0]) == rec.box.sigma.lo
            assert leaf["verdict"] == rec.status.verdict
            if rec.status.witness is not None:
                assert float(leaf["witness"]["value"][0]) == rec.status.witness.value.lo
                assert float(leaf["witness"]["value"][1]) == rec.status.witness.value.hi

    def test_format_3_leaf_schema(self):
        # a leaf holds what a verdict reads: where it is, what it claims, why,
        # and a split attempt's column next to its witness
        cert = V.verify_strip(Interval(2.75, 2.775), "full", strip=0.02, budget=100)
        doc = V.parse_certificate(V.emit_certificate(cert))
        assert doc["format_version"] == 3
        element = {"fid", "value", "box_p", "box_sigma"}
        split = 0
        for leaf in doc["leaves"]:
            assert leaf.keys() == {
                "id", "band", "p", "sigma", "verdict", "reason", "witness", "column"}
            if leaf["column"] is None:
                continue
            split += 1
            col, wit = leaf["column"], leaf["witness"]
            assert col.keys() == wit.keys() == element
            assert (col["fid"], wit["fid"]) == ("d_sigma2_column_low", "delta_minus_edge_low")
            assert leaf["verdict"] == V.VERDICT_INTERIOR and leaf["band"] == "mid"
            assert col["box_p"] == wit["box_p"] == leaf["p"]
            assert col["box_sigma"][0] == "1.0" and col["box_sigma"][1] == wit["box_sigma"][0]
            assert float(leaf["sigma"][0]) < float(wit["box_sigma"][0])
            assert wit["box_sigma"][1] == leaf["sigma"][1]
            assert float(col["value"][0]) > 0.0 and float(wit["value"][0]) > 0.0
        assert split == 1

    def test_empty_certificate_emits(self):
        cert = V.Certificate(
            region=Box(Interval(2.3, 2.4), Interval(1.0, 1.8)),
            policy={}, leaves=[], totals={}, complete=True,
            version="x", scheme=V.SCHEME,
        )
        doc = V.emit_certificate(cert)
        assert V.parse_certificate(doc)["leaves"] == []

    def test_tabular_summary(self):
        cert = self.make_cert()
        tab = V.emit_certificate(cert, format="tabular")
        lines = tab.strip().splitlines()
        assert lines[0] == "metric,value"
        assert any(l.startswith("leaves,") for l in lines)
        assert any(l.startswith("complete,1") for l in lines)

    def test_replay_reproduces_verdicts(self):
        cert = self.make_cert()
        doc = V.parse_certificate(V.emit_certificate(cert))
        for leaf in doc["leaves"]:
            assert V.replay_leaf(leaf) == leaf["verdict"]

    def test_timing_excluded_from_structured(self):
        cert = self.make_cert()
        doc = V.emit_certificate(cert)
        assert "timing" not in json.loads(doc)
        assert cert.timing > 0.0  # carried on the object, printed in tabular

    def test_deterministic_documents(self):
        c1 = self.make_cert()
        c2 = self.make_cert()
        assert V.emit_certificate(c1) == V.emit_certificate(c2)
