#!/usr/bin/env python3
"""Repeatability report for the eventor benchmark.

Runs every workload in BENCHMARK.json once per seed (1 to 10) in each of
two sets (the same seeds in both), then prints for every workload and
end-to-end metric both sets' medians, both spreads and the verdict
against the metric's bound in BENCHMARK.json:

* spread = (Q3 - Q1) / median over a set's runs, with the quartiles of
  Python's statistics.quantiles(values, n=4). It must stay within the
  bound; "steady" means it is below a third of it.
* drift = how far the second set's median lies from the first's, either
  way, as a share of the first. It must stay within the bound.

One traced run at seed 1 in each set must report identical counts.*
values. Exits 1 when any verdict fails, any run is incorrect, or counts
differ.

Run from the repository root (it takes about 40 minutes):

    python3 perfbench/repeat.py
"""

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
SEEDS = range(1, 11)
TRACED_SEED = 1


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    ok = True
    values = {}  # (set, workload, metric) -> [values]
    counts = []  # one {counts.*} per set
    for s in range(SETS):
        for seed in SEEDS:
            for w in workloads:
                result, wall = run_once(spec, w, seed, trace=False)
                if not result["correct"] or result["failed"]:
                    ok = False
                    print(f"set {s + 1} {w} seed {seed}: INCORRECT "
                          f"({result['failed']} of {result['attempted']} failed)")
                for m in metrics:
                    v = result["metrics"][m["name"]]["value"]
                    values.setdefault((s, w, m["name"]), []).append(v)
                print(f"set {s + 1} {w:14s} seed {seed:3d} {wall:6.1f}s "
                      + " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                                 for m in metrics), flush=True)
        result, wall = run_once(spec, workloads[0], TRACED_SEED, trace=True)
        if not result["correct"]:
            ok = False
            print(f"set {s + 1} traced seed {TRACED_SEED}: INCORRECT")
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.startswith("counts.")})
        print(f"set {s + 1} traced seed {TRACED_SEED} {wall:6.1f}s {counts[-1]}", flush=True)

    print()
    head = f"{'workload':14s} {'metric':16s} {'bound':>6s}"
    for s in range(SETS):
        head += f" {'median' + str(s + 1):>14s} {'spread' + str(s + 1):>8s}"
    print(head + "   verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            line = f"{w:14s} {name:16s} {bound:6.3f}"
            verdicts = []
            meds = []
            for s in range(SETS):
                sp, med = spread(values[(s, w, name)])
                meds.append(med)
                line += f" {med:14.6g} {sp:8.4f}"
                if sp > bound:
                    verdicts.append(f"spread{s + 1}>bound")
                elif sp >= bound / 3:
                    verdicts.append(f"spread{s + 1}>=bound/3")
            drift = (meds[1] - meds[0]) / meds[0] if meds[0] else 0.0
            line += f" drift {drift:+.4f}"
            if abs(drift) > bound:
                verdicts.append("drift>bound")
            if any(">bound" in v for v in verdicts):
                ok = False
            print(line + "   " + (",".join(verdicts) or "steady"))

    same = all(c == counts[0] for c in counts)
    ok &= same
    print(f"counts at seed {TRACED_SEED}: {'identical' if same else 'DIFFER'} {counts[0]}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
