"""Timing spans and operator counters, interposed from outside the program.

A span wrapper replaces a function under every name that a critlat module
binds it to, because ``from .batch import subpave_delta_above`` copies the
function into the importing module's namespace: the caller looks up
``verifier.subpave_delta_above``, not ``batch.subpave_delta_above``.  Spans
record name, start, end and parent, stay in memory, and are written as JSONL
when the run ends.  The hot ``VI`` and ``Interval`` operators are aggregated
as counters instead of spans: only the outermost operator of a nested chain
is counted, so ``VI.pow`` is not also counted as the ``__mul__`` inside it.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter_ns

import numpy as np

# (span name, owning module, attribute, modules whose binding is replaced;
# None replaces every critlat binding of the function)
SPAN_POINTS = [
    ("cli.main", "cli", "main", None),
    ("verifier.verify_strip", "verifier", "verify_strip", None),
    ("verifier.leaf", "verifier", "_certify_leaf", None),
    ("verifier.certify_box", "verifier", "certify_box", None),
    ("verifier.emit", "verifier", "emit_certificate", None),
    ("moduli.prescreen", "verifier", "_float_margins", None),
    ("moduli.prescreen", "verifier", "_float_dds2", None),
    ("batch.subpave", "batch", "subpave_delta_above", None),
    ("batch.subpave", "batch", "subpave_convex_positive", None),
    ("batch.tau", "batch", "tau_enclose_batch", None),
    ("batch.tau_p", "batch", "tau_p_enclose_batch", None),
    ("batch.boundary", "batch", "sigma_p_batch", None),
    ("batch.boundary", "batch", "edge_low_batch", None),
    ("batch.boundary", "batch", "d_sigma_p_batch", None),
    ("batch.boundary", "batch", "d_edge_low_batch", None),
    # the atom formulas on the VI lane only: the scalar lane's calls stay
    # inside the enclosure spans
    ("jets.atoms", "jets", "delta_scalar", ("batch",)),
    ("jets.atoms", "jets", "delta_sigma_derivs", ("batch",)),
    ("jets.atoms", "jets", "delta_p_deriv", ("batch",)),
    ("enclosure.tau_interval", "enclosure", "tau_interval", None),
    ("enclosure.tau_p", "enclosure", "tau_p_enclosure", None),
    ("enclosure.boundary", "enclosure", "sigma_p_enclosure", None),
    ("enclosure.boundary", "enclosure", "delta_edge_low_enclosure", None),
    ("enclosure.boundary", "enclosure", "delta_edge_high_enclosure", None),
    ("enclosure.boundary", "enclosure", "d_sigma_p_enclosure", None),
    ("enclosure.boundary", "enclosure", "d_delta_edge_low_enclosure", None),
    ("enclosure.delta_eif", "enclosure", "delta_eif", None),
    ("elliptic.lattice_points", "elliptic", "lattice_points", None),
    ("elliptic.eisenstein", "elliptic", "eisenstein", None),
    ("elliptic.weierstrass_curve", "elliptic", "weierstrass_curve", None),
    ("elliptic.weierstrass_p", "elliptic", "weierstrass_p", None),
    ("elliptic.orbit_stats", "elliptic", "orbit_stats", None),
]

VI_OPS = {
    "pow": ("pow", "pow_nonneg"),
    "arith": (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__",
    ),
}
INTERVAL_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "exp", "log", "sqrt",
)


def _lanes(x) -> int:
    lo = getattr(x, "lo", None)
    return int(lo.size) if isinstance(lo, np.ndarray) else 1


def _interval_lanes(P, S) -> int:
    """Lanes that are boxes, not points: the subpaving nodes of a wave."""
    return int(np.count_nonzero((P.lo != P.hi) | (S.lo != S.hi)))


def _distinct(P) -> int:
    return int(np.unique(np.stack([P.lo, P.hi], axis=1), axis=0).shape[0])


# span attributes computed from (args, result) after the span has ended
_ATTRS = {
    "batch.tau": lambda a, out: {"lanes": _lanes(a[0]), "nodes": _interval_lanes(a[0], a[1])},
    "batch.tau_p": lambda a, out: {"lanes": _lanes(a[0]), "distinct": _distinct(a[0])},
    "batch.subpave": lambda a, out: {"ok": out is not None},
    "jets.atoms": lambda a, out: {"lanes": _lanes(a[0])},
    "enclosure.tau_interval": lambda a, out: {"iterations": out.iterations},
    "verifier.emit": lambda a, out: {"bytes": len(out.encode())},
    "elliptic.lattice_points": lambda a, out: {"points": int(out.size)},
    "elliptic.eisenstein": lambda a, out: {"terms": out.terms},
    "elliptic.orbit_stats": lambda a, out: {"steps": int(a[2])},
}


def _critlat_modules():
    return [m for k, m in list(sys.modules.items()) if k == "critlat" or k.startswith("critlat.")]


def replace_everywhere(orig, new, where=None) -> list:
    """Rebind every critlat name bound to `orig` (restricted to the modules
    named in `where`) to `new`; returns (module, name, orig) for undoing."""
    done = []
    for m in _critlat_modules():
        if where is not None and m.__name__.rsplit(".", 1)[-1] not in where:
            continue
        for name, value in list(vars(m).items()):
            if value is orig:
                setattr(m, name, new)
                done.append((m, name, orig))
    return done


def undo(patches: list) -> None:
    for owner, name, orig in reversed(patches):
        setattr(owner, name, orig)
    patches.clear()


class NodeCounter:
    """Counts the work units behind the `nodes` metric: box (non-point) lanes
    entering batch.tau_enclose_batch (the subpaving nodes of the strips) and
    points returned by elliptic.lattice_points (the lattice-sum size of
    lattes).  Each costs one numpy call per call, so the counter stays
    installed on untraced passes too: `nodes` is an end-to-end metric."""

    def __init__(self):
        self.nodes = 0
        self._patches: list = []

    def install(self) -> None:
        from critlat import batch, elliptic

        tau = batch.tau_enclose_batch
        points = elliptic.lattice_points

        def counted_tau(P, S, *a, **k):
            self.nodes += _interval_lanes(P, S)
            return tau(P, S, *a, **k)

        def counted_points(*a, **k):
            out = points(*a, **k)
            self.nodes += int(out.size)
            return out

        self._patches = replace_everywhere(tau, counted_tau) + replace_everywhere(points, counted_points)

    def uninstall(self) -> None:
        undo(self._patches)


class Recorder:
    """Spans and operator counters for one traced pass at a time."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start_ns, end_ns, parent, attrs]
        self.counters: dict[tuple[str, str], list[int]] = {}  # -> [calls, ns, lanes]
        self._stack: list[int] = []
        self._op_depth = 0
        self._patches: list = []

    def reset(self) -> None:
        self.spans = []
        self.counters = {}
        self._stack = []

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        import importlib

        for name, owner, attr, where in SPAN_POINTS:
            mod = importlib.import_module(f"critlat.{owner}")
            orig = getattr(mod, attr)
            self._patches += replace_everywhere(orig, self._span(name, orig), where)
        from critlat.interval import Interval
        from critlat.vints import VI

        for group, methods in VI_OPS.items():
            for meth in methods:
                self._count(VI, meth, "vints." + group, lanes=True)
        for meth in INTERVAL_OPS:
            self._count(Interval, meth, "interval.ops", lanes=False)

    def uninstall(self) -> None:
        undo(self._patches)

    def _span(self, name, fn):
        rec = self
        attrs = _ATTRS.get(name)

        def span(*a, **k):
            row = [len(rec.spans), name, perf_counter_ns(), 0,
                   rec._stack[-1] if rec._stack else None, None]
            rec.spans.append(row)
            rec._stack.append(row[0])
            try:
                out = fn(*a, **k)
            finally:
                row[3] = perf_counter_ns()
                rec._stack.pop()
            if attrs is not None:
                row[5] = attrs(a, out)
            return out

        return span

    def _count(self, cls, meth, group, lanes):
        rec = self
        orig = cls.__dict__[meth]

        def counted(*a, **k):
            if rec._op_depth:
                return orig(*a, **k)
            rec._op_depth = 1
            t0 = perf_counter_ns()
            try:
                out = orig(*a, **k)
            finally:
                rec._op_depth = 0
            dt = perf_counter_ns() - t0
            n = out.lo.size if lanes else 1
            bucket = ("le64" if n <= 64 else "ge1024" if n >= 1024 else "mid") if lanes else ""
            c = rec.counters.get((group, bucket))
            if c is None:
                rec.counters[(group, bucket)] = [1, dt, n]
            else:
                c[0] += 1
                c[1] += dt
                c[2] += n
            return out

        setattr(cls, meth, counted)
        self._patches.append((cls, meth, orig))

    # -- output -----------------------------------------------------------------

    def jsonl_lines(self, pass_id: int):
        for sid, name, t0, t1, parent, attrs in self.spans:
            row = {"pass": pass_id, "id": sid, "name": name, "start_ns": t0,
                   "end_ns": t1, "parent": parent}
            if attrs:
                row["attrs"] = attrs
            yield json.dumps(row)
        for (group, bucket), (calls, ns, lanes) in sorted(self.counters.items()):
            yield json.dumps({"pass": pass_id, "counter": group, "bucket": bucket,
                              "calls": calls, "ns": ns, "lanes": lanes})

    # -- per-layer metrics --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded since reset."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for row in spans:
            if row[4] is not None:
                child_ns[row[4]] += row[3] - row[2]
        by_name: dict[str, list[list]] = {}
        for row in spans:
            by_name.setdefault(row[1], []).append(row)

        def rows(name):
            return by_name.get(name, [])

        def total_s(name):
            return sum(r[3] - r[2] for r in rows(name)) * 1e-9

        def self_s(name):
            return sum(r[3] - r[2] - child_ns[r[0]] for r in rows(name)) * 1e-9

        def attr_sum(name, key):
            return sum(r[5][key] for r in rows(name) if r[5])

        def quantile(values, q):
            return float(np.quantile(values, q)) if values else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        def subpave_of(row):
            parent = row[4]
            while parent is not None and spans[parent][1] != "batch.subpave":
                parent = spans[parent][4]
            return parent

        def ok(row):  # a span whose call raised has no attributes
            return bool(row[5] and row[5]["ok"])

        wasted = sum(
            r[5]["nodes"] for r in rows("batch.tau")
            if r[5] and (sp := subpave_of(r)) is not None and not ok(spans[sp])
        )
        attempts = rows("batch.subpave")
        tau_lanes = attr_sum("batch.tau", "lanes")
        atom_lanes = attr_sum("jets.atoms", "lanes")
        tau_p_lanes = attr_sum("batch.tau_p", "lanes")

        def op(group, bucket):
            calls, ns, lanes = self.counters.get((group, bucket), (0, 0, 0))
            return calls, ns, lanes

        def ns_per_lane(group, bucket):
            _, ns, lanes = op(group, bucket)
            return ratio(ns, lanes)

        vpow_calls = sum(op("vints.pow", b)[0] for b in ("le64", "mid", "ge1024"))
        iv_calls, iv_ns, _ = op("interval.ops", "")
        steps = attr_sum("elliptic.orbit_stats", "steps")
        wp_ms = [(r[3] - r[2]) * 1e-6 for r in rows("elliptic.weierstrass_p")]
        return {
            "batch.tau_p.calls": len(rows("batch.tau_p")),
            "batch.tau_p.lanes": tau_p_lanes,
            "batch.tau_p.distinct_frac": ratio(attr_sum("batch.tau_p", "distinct"), tau_p_lanes),
            "batch.tau_p.self_s": self_s("batch.tau_p"),
            "batch.tau.calls": len(rows("batch.tau")),
            "batch.tau.lanes_per_call_p50": quantile([r[5]["lanes"] for r in rows("batch.tau") if r[5]], 0.5),
            "batch.tau.us_per_lane": ratio(total_s("batch.tau") * 1e6, tau_lanes),
            "batch.tau.self_s": self_s("batch.tau"),
            "batch.boundary.self_s": self_s("batch.boundary"),
            "batch.subpave.s": total_s("batch.subpave"),
            "batch.subpave.nodes_wasted": wasted,
            "verifier.attempts": len(attempts),
            "verifier.attempt_useful_frac": ratio(sum(map(ok, attempts)), len(attempts)),
            "verifier.certify_box.self_s": self_s("verifier.certify_box"),
            "verifier.leaf.p50_s": quantile([(r[3] - r[2]) * 1e-9 for r in rows("verifier.leaf")], 0.5),
            "moduli.prescreen.calls": len(rows("moduli.prescreen")),
            "moduli.prescreen.us_per_call": ratio(total_s("moduli.prescreen") * 1e6, len(rows("moduli.prescreen"))),
            "jets.atoms.self_s": self_s("jets.atoms"),
            "jets.atoms.us_per_lane": ratio(total_s("jets.atoms") * 1e6, atom_lanes),
            "vints.pow.calls": vpow_calls,
            "vints.pow.ns_per_lane.le64": ns_per_lane("vints.pow", "le64"),
            "vints.pow.ns_per_lane.ge1024": ns_per_lane("vints.pow", "ge1024"),
            "vints.arith.ns_per_lane.le64": ns_per_lane("vints.arith", "le64"),
            "vints.arith.ns_per_lane.ge1024": ns_per_lane("vints.arith", "ge1024"),
            "enclosure.tau_interval.calls": len(rows("enclosure.tau_interval")),
            "enclosure.tau_interval.ms": total_s("enclosure.tau_interval") * 1e3,
            "enclosure.tau_interval.iterations_p50": quantile(
                [r[5]["iterations"] for r in rows("enclosure.tau_interval") if r[5]], 0.5),
            "enclosure.tau_p.ms": total_s("enclosure.tau_p") * 1e3,
            "enclosure.boundary.ms": self_s("enclosure.boundary") * 1e3,
            "enclosure.delta_eif.ms": self_s("enclosure.delta_eif") * 1e3,
            "interval.ops.calls": iv_calls,
            "interval.ops.ns_per_op": ratio(iv_ns, iv_calls),
            "elliptic.lattice_points.calls": len(rows("elliptic.lattice_points")),
            "elliptic.lattice_points.points": attr_sum("elliptic.lattice_points", "points"),
            "elliptic.lattice_points.self_s": self_s("elliptic.lattice_points"),
            "elliptic.eisenstein.terms": attr_sum("elliptic.eisenstein", "terms"),
            "elliptic.weierstrass_curve.ms": total_s("elliptic.weierstrass_curve") * 1e3,
            "elliptic.weierstrass_p.p50_ms": quantile(wp_ms, 0.5),
            "elliptic.weierstrass_p.p90_ms": quantile(wp_ms, 0.9),
            "elliptic.lattes_step.ns": ratio(total_s("elliptic.orbit_stats") * 1e9, steps),
            "verifier.emit.s": total_s("verifier.emit"),
            "verifier.emit.bytes": attr_sum("verifier.emit", "bytes"),
            "cli.overhead_s": total_s("cli.main") - total_s("verifier.verify_strip"),
        }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median_low(d[k] for d in per_pass) for k in per_pass[0]}
