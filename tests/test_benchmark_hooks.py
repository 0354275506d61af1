"""The names the benchmark's tracer interposes at, and the calls its
workloads make, must exist in the program.

perfbench/spans.py rebinds each (module, attribute) of its SPAN_POINTS, and
its node counter wraps batch.tau_enclose_batch and elliptic.lattice_points.
A refactor that renames, aliases or drops one of them would silently leave a
layer untimed, so the tracer's table is checked here against the program.
A refactor that changes a signature the workloads call, or drops a result
attribute the tracer reads, would turn every pass into a failed operation,
so those calls are checked too.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_span_point_is_a_distinct_critlat_function():
    spans = load_spans()
    pairs = {(owner, attr) for _, owner, attr, _ in spans.SPAN_POINTS}
    functions = set()
    for owner, attr in sorted(pairs):
        fn = getattr(importlib.import_module(f"critlat.{owner}"), attr, None)
        assert callable(fn), f"critlat.{owner}.{attr} is missing"
        # defined in its owning module, not an alias of another function:
        # the tracer rebinds every name of the object, so an alias would
        # put one span around every caller of the aliased function
        assert fn.__module__ == f"critlat.{owner}", (owner, attr, fn.__module__)
        functions.add(fn)
    assert len(functions) == len(pairs)


def test_node_counter_targets_exist():
    from critlat import batch, elliptic

    assert callable(batch.tau_enclose_batch)
    assert callable(elliptic.lattice_points)


# (module, function, positional args, keyword args) of each call that
# perfbench/workloads.py and perfbench/checks.py make; the arguments are
# placeholders, only their count and names are bound
_BENCHMARK_CALLS = [
    ("cli", "main", ("argv",), {"out": "out"}),
    ("verifier", "enclose_p0", (1e-6,), {}),
    ("enclosure", "tau_interval", ("X",), {}),
    ("enclosure", "delta_eif", ("X", "enc"), {"refine": True}),
    ("enclosure", "delta_edge_low_enclosure", ("P",), {}),
    ("enclosure", "delta_edge_high_enclosure", ("P",), {}),
    ("moduli", "sigma_p", (2.5,), {}),
    ("moduli", "lattice_basis", ("L0", 2.0), {}),
    ("moduli", "tau_p_vec", ("p",), {}),
    ("moduli", "tau_point_vec", ("ps", "ss"), {}),
    ("moduli", "delta_point_vec", ("ps", "ss"), {}),
    ("moduli", "delta_edge_low", (2.5,), {}),
    ("moduli", "delta_edge_high", (2.5,), {}),
    ("elliptic", "complexify", ("L",), {}),
    ("elliptic", "weierstrass_curve", ("L",), {}),
    ("elliptic", "weierstrass_p", ("L", "z"), {"target": 2e-7}),
    ("elliptic", "lattes_step", ("E", "x"), {}),
    ("elliptic", "orbit_stats", ("E", "z0", 5000), {}),
]


@pytest.mark.parametrize("owner, attr, args, kwargs", _BENCHMARK_CALLS,
                         ids=[f"{o}.{a}" for o, a, _, _ in _BENCHMARK_CALLS])
def test_benchmark_call_binds(owner, attr, args, kwargs):
    fn = getattr(importlib.import_module(f"critlat.{owner}"), attr)
    inspect.signature(fn).bind(*args, **kwargs)


def test_traced_result_attributes_exist():
    # spans._ATTRS reads these off the results of the traced calls, and the
    # workloads read the curve's fields
    from critlat import elliptic, enclosure

    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert "iterations" in fields(enclosure.TauEnclosure)
    assert "tau" in fields(enclosure.TauEnclosure)
    assert "terms" in fields(elliptic.EisensteinSum)
    assert {"g2", "g3", "discriminant"} <= fields(elliptic.EllipticCurve)


def test_counted_operators_are_class_attributes():
    # Recorder.install reads cls.__dict__[meth] for every operator it
    # counts, so a dropped or inherited one would fail every traced pass
    from critlat.interval import Interval
    from critlat.vints import VI

    spans = load_spans()
    assert [m for m in spans.INTERVAL_OPS if m not in Interval.__dict__] == []
    vi_ops = [m for methods in spans.VI_OPS.values() for m in methods]
    assert [m for m in vi_ops if m not in VI.__dict__] == []
