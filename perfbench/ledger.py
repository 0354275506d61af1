"""Run the benchmark over several seeds and write a ledger entry.

    python3 perfbench/ledger.py --label seed --traced --out perfbench/ledger/BENCH_seed.json

Runs `perfbench/run.py` once per (seed, workload) for the workloads of
BENCHMARK.json, seeds 101 to 110, one process at a time, cycling through the
workloads so that slow drifts of the host spread over all of them.  For every
end-to-end metric it records the ten values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median next
to the metric's bound, and the same for the raw (ungauged) seconds of wall_s
and setup_s, with each run's duration.  With --traced it adds one traced run
per workload, seed 101, and records its per-layer metrics.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED0 = 101
RUNS = 10


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(result line, info line) of one benchmark process; the info line also
    gets the process's wall time as `run_s`."""
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result\n{proc.stderr}")
    info = {}
    for line in proc.stderr.splitlines():
        if line.startswith("info "):
            info = json.loads(line[5:])
    info["run_s"] = time.perf_counter() - t
    return json.loads(lines[-1]), info


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "bound": bound,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", help="ledger file to write")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    runs: dict[str, list] = {w: [] for w in names}
    for seed in range(SEED0, SEED0 + RUNS):
        for w in names:
            result, info = run_once(w, seed, seconds, 0)
            runs[w].append((seed, result, info))
            print(f"{w} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)

    entry = {
        "label": args.label,
        "date": datetime.date.today().isoformat(),
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "command": spec["command"],
        "run_seconds": seconds,
        "workloads": {},
    }
    worst = []
    for w in names:
        rows = runs[w]
        e2e = {}
        for m in spec["end_to_end"]:
            vals = [r[1]["metrics"][m["name"]]["value"] for r in rows]
            s = e2e[m["name"]] = summarize(vals, bounds[m["name"]])
            worst.append((s["spread"] / s["bound"], w, m["name"], s["spread"], s["bound"]))
        entry["workloads"][w] = {
            "seeds": [r[0] for r in rows],
            "pass_walls": [r[2].get("pass_walls") for r in rows],
            "raw": {k: summarize([r[2][f"raw_{k}"] for r in rows], bounds[k])
                    for k in ("wall_s", "setup_s")},
            "run_s": [round(r[2]["run_s"], 1) for r in rows],
            "all_correct": all(r[1]["correct"] for r in rows),
            "attempted": sum(r[1]["attempted"] for r in rows),
            "failed": sum(r[1]["failed"] for r in rows),
            "cert_identical_to_reference": sorted({str(r[2].get("cert_identical_to_reference")) for r in rows}),
            "end_to_end": e2e,
        }
        if args.traced:
            result, info = run_once(w, SEED0, seconds, 1)
            entry["workloads"][w]["per_layer"] = {
                "seed": SEED0, "correct": result["correct"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            }
            print(f"{w} traced: correct={result['correct']}", flush=True)
    for ratio, w, name, spread, bound in sorted(worst, reverse=True):
        print(f"spread {w}.{name}: {spread:.4f} = {ratio:.2f} of bound {bound}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
