"""The names the benchmark's tracer interposes at must exist in the program.

perfbench/spans.py rebinds each (module, attribute) of its SPAN_POINTS, and
its node counter wraps batch.tau_enclose_batch and elliptic.lattice_points.
A refactor that renames, aliases or drops one of them would silently leave a
layer untimed, so the tracer's table is checked here against the program.
"""

import importlib
import importlib.util
from pathlib import Path

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
