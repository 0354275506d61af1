"""critlat benchmark: one workload, one process, closed loop, one worker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  Set-up is
the import of the program and the benchmark, input generation and warm-up;
each part is repeated and its median taken (the import in fresh
interpreters).  Then passes run one at a time for S seconds: at least one,
and none that would be expected to end after S seconds.  Every pass's outputs
are checked.  Times are reported at the reference host's speed: the host is
gauged with `calibrate.py` during set-up and inside or between the passes,
and a raw time t becomes t * (reference unit time / mean unit time gauged
over the passes, or over set-up).  The raw seconds go to standard error.
The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.  A traced
run alternates untraced and traced passes (at least one of each) so that both
kinds see the same host; its spans go to
.bench_out/trace-<workload>-seed<N>.jsonl.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from before the program's import

import argparse
import hashlib
import json
import pickle
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 6  # fresh interpreters, besides this one
IMPORT_PROBE = """
import sys, time
t = time.perf_counter()
sys.path[:0] = ["src", "perfbench"]
import numpy, critlat, spans, workloads
print(time.perf_counter() - t)
"""
REFERENCE = HERE / "reference.json"
GAUGE_EVERY_S = 0.25  # pass time between two units gauged inside a pass
GAUGE_SHARE = 0.1  # gauging after a pass, as a share of the pass's time
GAUGE_S = 0.4  # the least gauging after a pass
SETUP_GAUGE_S = 0.25  # gauging after each set-up repeat


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("strip_sigp", "strip_one", "scalar_p0", "lattes"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_program():
    """Import critlat from ./src, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "critlat" / "__init__.py").is_file():
        raise SystemExit(f"error: no critlat source tree at {src}")
    sys.path.insert(0, str(src))
    import critlat

    if Path(critlat.__file__).resolve().parent != (src / "critlat").resolve():
        raise SystemExit(f"error: critlat imported from {critlat.__file__}, not {src}")


def _passes(wl, inputs, seconds, counter, gauge, rec=None):
    """Run passes one at a time for `seconds`: at least one, and no pass that
    would be expected to end after `seconds`.  With a recorder, untraced and
    traced passes alternate and there is at least one of each.  The host is
    gauged inside the untraced passes if the gauge's unit allows it (its time
    is taken out of the pass's), else after each pass.  Returns the untraced
    and the traced passes, each (wall, output, nodes, layer metrics, JSONL
    lines), the last two None on untraced passes; and the process's peak
    memory in MB after the first pass, read before any gauging between passes
    can raise it: the wide unit's arrays on top of what a lattes pass leaves
    in the heap would."""
    plain, traced = [], []
    peak_mb = None
    start = time.perf_counter()
    while True:
        tracing = rec is not None and len(traced) < len(plain)
        n0 = counter.nodes
        if tracing:
            rec.reset()
            rec.install()
            t = time.perf_counter()
            try:
                output = wl.run(inputs)
            finally:
                wall = time.perf_counter() - t
                rec.uninstall()
        elif gauge.in_pass:
            output, wall = gauge.inside(lambda: wl.run(inputs), GAUGE_EVERY_S)
        else:
            t = time.perf_counter()
            output = wl.run(inputs)
            wall = time.perf_counter() - t
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not gauge.in_pass or not gauge.units:
            gauge.sample(max(GAUGE_S, GAUGE_SHARE * wall))
        if tracing:
            traced.append((wall, output, counter.nodes - n0, rec.layer_metrics(),
                           list(rec.jsonl_lines(len(traced)))))
        else:
            plain.append((wall, output, counter.nodes - n0, None, None))
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds and (rec is None or traced):
            return plain, traced, peak_mb


def _import_seconds(gauge) -> list[float]:
    """Import times of the program and the benchmark in fresh interpreters;
    the host is gauged after each."""
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        gauge.sample(SETUP_GAUGE_S)
    return times


def _check_all(wl, inputs, outputs, rng):
    """Check every pass; identical outputs share one verdict.  Returns the
    verdict of each pass."""
    seen = {}
    verdicts = []
    for output in outputs:
        key = pickle.dumps(output)
        if key not in seen:
            seen[key] = wl.check(inputs, output, rng)
        verdicts.append(seen[key])
    return verdicts


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_program()
    import numpy as np

    import spans
    from workloads import WORKLOADS, Strip

    first_import = time.perf_counter() - T0
    wl = WORKLOADS[args.workload]
    ref_units = json.loads(REFERENCE.read_text())["gauge_unit_s"]
    setup_gauge = calibrate.Gauge("narrow")
    setup_gauge.sample(SETUP_GAUGE_S)
    import_s = [first_import] + _import_seconds(setup_gauge)
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = wl.inputs(args.seed)
        wl.warmup(inputs)
        setups.append(time.perf_counter() - t)
        setup_gauge.sample(SETUP_GAUGE_S)
    raw_setup = statistics.median(import_s) + statistics.median(setups)
    setup_s = raw_setup * ref_units["narrow"] / setup_gauge.unit_s

    counter = spans.NodeCounter()
    counter.install()
    try:
        gauge = calibrate.Gauge(wl.GAUGE)
        plain, traced, peak_mb = _passes(wl, inputs, args.seconds, counter, gauge,
                                spans.Recorder() if args.trace else None)
    finally:
        counter.uninstall()

    verdicts = _check_all(wl, inputs, [p[1] for p in plain + traced],
                          np.random.default_rng(args.seed))
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    messages = [m for v in {id(v): v for v in verdicts}.values() for m in v.messages]
    raw_wall = statistics.median(p[0] for p in plain)
    wall = raw_wall * ref_units[wl.GAUGE] / gauge.unit_s

    info = {"workload": args.workload, "seed": args.seed, "passes": len(plain),
            "traced_passes": len(traced), "pass_walls": [round(p[0], 4) for p in plain],
            "raw_wall_s": raw_wall, "raw_setup_s": raw_setup,
            "import_s": import_s, "setup_repeats_s": setups,
            "gauge_unit_s": gauge.unit_s, "setup_gauge_unit_s": setup_gauge.unit_s,
            "fail_frac": f"{failed}/{attempted} operations"}
    if isinstance(wl, Strip):
        digest = hashlib.sha256(plain[0][1][1].encode()).hexdigest()
        ref = json.loads(REFERENCE.read_text()).get(args.workload, {})
        info["cert_sha256"] = digest
        info["cert_identical_to_reference"] = digest == ref.get("cert_sha256")
    if args.trace:
        values = spans.median_metrics([p[3] for p in traced])
        values["trace.overhead_frac"] = statistics.median(p[0] for p in traced) / raw_wall - 1.0
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w") as fh:
            for p in traced:
                fh.write("\n".join(p[4]) + "\n")
        info["trace_file"] = str(path.relative_to(ROOT))
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall,
            "peak_rss_mb": peak_mb,
            "leaves": statistics.median_low(wl.leaves(inputs, p[1], v) for p, v in zip(plain, verdicts)),
            "nodes": statistics.median_low(wl.nodes(inputs, p[1], p[2]) for p in plain),
            "ok_frac": (attempted - failed) / attempted,
        }
        wanted = spec["end_to_end"]
    print("info " + json.dumps(info), file=sys.stderr)
    for msg in messages[:20]:
        print("check failed: " + msg, file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"{args.workload}: " + ", ".join(
        f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items())
        + f"; fail_frac {failed}/{attempted} operations")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
