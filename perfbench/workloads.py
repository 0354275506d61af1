"""The four workloads: how each makes its inputs from a seed, warms up, runs
one pass and checks that pass's outputs.

Each pass is one closed-loop unit of work, run in this process with one
worker.  `run` calls the program through module attributes (``cli.main``,
``verifier.enclose_p0``, ...) so that interposed spans see every call.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr
from dataclasses import dataclass, field

import numpy as np

from critlat import cli
from critlat import elliptic as EL
from critlat import enclosure as E
from critlat import moduli as M
from critlat import verifier as V
from critlat.interval import Box

import checks


@dataclass
class Outcome:
    """Operations a pass attempted, those that failed or failed their check,
    and why."""

    attempted: int
    failed: int
    messages: list[str] = field(default_factory=list)


class Strip:
    """`critlat verify` on one p-strip through cli.main; one operation per
    pass.  The inputs are fixed: the seed only drives the check's samples."""

    WARMUP = ["--workers", "1", "verify", "--p", "2.33", "2.34", "--budget", "50"]
    GAUGE = "narrow"  # the calibrate.py unit that follows this workload's work

    def __init__(self, p_lo: str, p_hi: str):
        self.argv = ["--workers", "1", "verify", "--p", p_lo, p_hi,
                     "--strip", "0.02", "--budget", "10000"]

    def inputs(self, seed: int) -> list[str]:
        return list(self.argv)

    def warmup(self, inputs) -> None:
        with redirect_stderr(io.StringIO()):
            cli.main(self.WARMUP, out=io.StringIO())

    def run(self, inputs):
        out = io.StringIO()
        try:
            with redirect_stderr(io.StringIO()):
                code = cli.main(inputs, out=out)
        except Exception as e:  # counted as a failed operation
            return -1, repr(e)
        return code, out.getvalue()

    def check(self, inputs, output, rng) -> Outcome:
        fails = checks.check_certificate(*output, M, rng)
        return Outcome(1, int(bool(fails)), fails)

    def leaves(self, inputs, output, verdict: Outcome) -> int:
        return len(json.loads(output[1])["leaves"]) if output[0] == 0 else 0

    def nodes(self, inputs, output, counted: int) -> int:
        return counted


class ScalarP0:
    """enclose_p0(1e-6) plus a seeded sweep of small in-domain boxes on the
    scalar Interval lane.  The boxes are stratified over p in [1.3, 4.5]
    minus |p - 2| < 0.05, over the sigma range and over widths in
    [0.002, 0.02], so a new seed moves every box but keeps the mix of work
    (the node count varies by about 1% between seeds)."""

    N_BOXES = 300
    GAUGE = "narrow"
    PIECES = ((1.3, 1.95), (2.05, 4.5))

    def inputs(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        n = self.N_BOXES
        total = sum(b - a for a, b in self.PIECES)
        t = (np.arange(n) + rng.uniform(size=n)) / n * total
        wp, ws, frac = ((rng.permutation(n) + rng.uniform(size=n)) / n for _ in range(3))
        wp, ws = 0.002 + 0.018 * wp, 0.002 + 0.018 * ws
        boxes = np.empty((n, 4))
        for i in range(n):
            a, b = self.PIECES[0]
            ti = t[i]
            if ti >= b - a:
                ti -= b - a
                a, b = self.PIECES[1]
            p_lo = min(max(a + ti - 0.5 * wp[i], a), b - wp[i])
            top = 0.93 * M.sigma_p(p_lo) - ws[i]
            s_lo = 1.0 + frac[i] * (top - 1.0)
            boxes[i] = (p_lo, p_lo + wp[i], s_lo, s_lo + ws[i])
        return boxes

    def warmup(self, inputs) -> None:
        V.enclose_p0(1e-3)
        for b in inputs[:3]:
            self._box(b)

    @staticmethod
    def _box(b):
        X = Box.of(*b)
        enc = E.tau_interval(X)
        d = E.delta_eif(X, enc, refine=True).value
        lo = E.delta_edge_low_enclosure(X.p)
        hi = E.delta_edge_high_enclosure(X.p)
        row = (enc.tau.lo, enc.tau.hi, d.lo, d.hi, lo.lo, lo.hi, hi.lo, hi.hi)
        return row, enc.iterations

    def run(self, inputs):
        errors = {}
        try:
            iv = V.enclose_p0(1e-6)
            p0 = (iv.lo, iv.hi)
        except Exception as e:  # counted as a failed operation
            p0, errors[-1] = None, repr(e)
        rows = np.full((len(inputs), 8), np.nan)
        iters = np.zeros(len(inputs), dtype=int)
        for i, b in enumerate(inputs):
            try:
                rows[i], iters[i] = self._box(b)
            except Exception as e:  # counted as a failed operation
                errors[i] = repr(e)
        return p0, rows, iters, errors

    def check(self, inputs, output, rng) -> Outcome:
        p0, rows, _, errors = output
        msgs = [f"op {i}: {err}" for i, err in sorted(errors.items())]
        p0_fails = checks.check_p0(p0, M) if p0 is not None else []
        bad = set(checks.check_boxes(inputs, rows, M, rng).tolist()) | {i for i in errors if i >= 0}
        msgs += p0_fails + [f"box {i} {inputs[i].tolist()}: enclosure misses the point oracle"
                            for i in sorted(bad - set(errors))]
        failed = len(bad) + int(p0 is None or bool(p0_fails))
        return Outcome(1 + len(inputs), failed, msgs)

    def leaves(self, inputs, output, verdict: Outcome) -> int:
        # results that passed their check: p0 plus the boxes
        return verdict.attempted - verdict.failed

    def nodes(self, inputs, output, counted: int) -> int:
        return int(output[2].sum())


class Lattes:
    """Weierstrass curves of the L0/L1 critical lattices at a few p, seeded
    p(z)/p(2z) pairs on the hexagonal lattice checked against the doubling
    map, and seeded orbit statistics.  Heavy lattice sums and cheap
    iteration in one pass."""

    CURVES = (("L0", 2.0), ("L1", 2.0), ("L0", 2.5), ("L1", 2.5), ("L0", 3.0), ("L1", 3.0))
    N_PAIRS = 3
    N_ORBITS = 24
    ORBIT_STEPS = 5000
    GAUGE = "wide"

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        # |z| is fixed because weierstrass_p sizes its lattice sum from |z|:
        # a free modulus would change the work with the seed
        zs = [0.06 * complex(np.cos(a), np.sin(a))
              for a in rng.uniform(np.pi / 8, 3 * np.pi / 8, self.N_PAIRS)]
        starts = [complex(*rng.uniform(-2.0, 2.0, 2)) for _ in range(self.N_ORBITS)]
        return zs, starts

    def warmup(self, inputs) -> None:
        L = EL.complexify(M.lattice_basis("L0", 2.0))
        E_hex = EL.weierstrass_curve(L)
        EL.weierstrass_p(L, inputs[0][0], target=1e-3)
        EL.orbit_stats(E_hex, inputs[1][0], 100)

    def run(self, inputs):
        zs, starts = inputs
        curves, pairs, lyaps = [], [], []
        for kind, p in self.CURVES:
            try:
                curves.append(EL.weierstrass_curve(EL.complexify(M.lattice_basis(kind, p))))
            except Exception as e:  # counted as a failed operation
                curves.append(repr(e))
        E_hex = curves[0]
        L_hex = EL.complexify(M.lattice_basis("L0", 2.0))
        for z in zs:
            try:
                px = EL.weierstrass_p(L_hex, z, target=2e-7)
                p2x = EL.weierstrass_p(L_hex, 2.0 * z, target=2e-7)
                pairs.append(abs(EL.lattes_step(E_hex, px) - p2x))
            except Exception as e:  # counted as a failed operation
                pairs.append(repr(e))
        for z0 in starts:
            try:
                lyaps.append(EL.orbit_stats(E_hex, z0, self.ORBIT_STEPS)[1])
            except Exception as e:  # counted as a failed operation
                lyaps.append(repr(e))
        return curves, pairs, lyaps

    def check(self, inputs, output, rng) -> Outcome:
        curves, pairs, lyaps = output
        fails = {}  # operation index -> message
        for i, ((kind, p), c) in enumerate(zip(self.CURVES, curves)):
            if isinstance(c, str):
                fails[i] = f"curve {kind} p={p}: {c}"
            elif not (np.isfinite(c.g2) and np.isfinite(c.g3) and c.discriminant != 0):
                fails[i] = f"curve {kind} p={p}: non-finite or singular"
            elif i == 0 and not abs(c.g2) <= 1e-8:
                fails[i] = f"|g2(hexagonal)| = {abs(c.g2)!r} > 1e-8"
        base = len(curves)
        for i, (z, err) in enumerate(zip(inputs[0], pairs)):
            if not (isinstance(err, float) and err < 1e-6):
                fails[base + i] = f"pair at z={z}: error {err!r} not < 1e-6"
        base += len(pairs)
        for i, (z0, lyap) in enumerate(zip(inputs[1], lyaps)):
            if not (isinstance(lyap, float) and lyap > 0.0):
                fails[base + i] = f"orbit from {z0}: Lyapunov exponent {lyap!r} not > 0"
        return Outcome(base + len(lyaps), len(fails), [fails[k] for k in sorted(fails)])

    def leaves(self, inputs, output, verdict: Outcome) -> int:
        # results that passed their check: curves, pairs and orbits
        return verdict.attempted - verdict.failed

    def nodes(self, inputs, output, counted: int) -> int:
        # lattice points summed by the Eisenstein and p-series evaluations
        return counted


WORKLOADS = {
    "strip_sigp": Strip("2.3", "2.4"),
    "strip_one": Strip("2.6", "2.8"),
    "scalar_p0": ScalarP0(),
    "lattes": Lattes(),
}
