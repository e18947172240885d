#!/usr/bin/env python3
"""Steadiness check: are the benchmark's numbers steady enough to gate on?

    python3 perfbench/steadiness.py

Run from the repository root. Runs the benchmark command of BENCHMARK.json
(--trace 0, its run_seconds) ten times per workload, each run with another
seed, and does that twice with the same code (seeds 1-30, then 31-60). For
every end-to-end metric x workload it prints each set's median and spread
(the distance between the first and third quartile, as a share of the
median, with Python's statistics.quantiles(n=4)) and how far the second
set's median moved the worse way from the first set's, each against the
metric's bound. It also prints the range of each set's host facts (CPU
steal and the reference-kernel speed probe), so a host that drifted shows
beside them.

A row passes when both spreads are within the bound and the second median
is not worse than the first by more than the bound. "steady" marks spreads
under a third of the bound. Exit code 0 when every row passes, 1 otherwise.
The raw results are written to .bench_build/perfbench/steadiness.json.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench" / "steadiness.json"
RUNS = 10  # seeds per workload and set
SETS = 2
FIRST_SEED = 1


def run_once(spec, workload, seed):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs not correct")
    host = json.loads(lines[-2])["host"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["host.steal_share"] = host["steal_share"]
    values["host.ref_kernel_ns"] = statistics.mean(
        host["ref_kernel_ns_per_lane_add"])
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_shift(metric, base, other):
    """Share by which `other` is worse than `base` (negative: better)."""
    if metric["better"] == "lower":
        return (other - base) / base
    return (base - other) / base


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    # raw[set][workload] = list of metric dicts, one per run.
    raw = []
    seed = FIRST_SEED
    for s in range(SETS):
        raw.append({})
        for name in names:
            raw[s][name] = []
            for _ in range(RUNS):
                raw[s][name].append(run_once(spec, name, seed))
                seed += 1
                print(f"set {s + 1} {name}: {len(raw[s][name])}/{RUNS}",
                      file=sys.stderr)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(raw, indent=1))

    ok = True
    header = (f"{'workload':<15} {'metric':<20} {'bound':>6} "
              + " ".join(f"{'median' + str(s + 1):>12} {'spread' + str(s + 1):>8}"
                         for s in range(SETS))
              + f" {'worst shift':>11}  verdict")
    print(header)
    for name in names:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            cols, spreads, medians = [], [], []
            for s in range(SETS):
                vals = [r[key] for r in raw[s][name]]
                medians.append(statistics.median(vals))
                spreads.append(spread(vals))
                cols.append(f"{medians[-1]:>12.5g} {spreads[-1]:>8.3f}")
            shift = max((worse_shift(metric, medians[0], m)
                         for m in medians[1:]), default=0.0)
            row_ok = shift <= bound and all(sp <= bound for sp in spreads)
            steady = all(sp < bound / 3 for sp in spreads)
            verdict = ("FAIL" if not row_ok else
                       "steady" if steady else "ok")
            ok &= row_ok
            print(f"{name:<15} {key:<20} {bound:>6.3f} {' '.join(cols)} "
                  f"{shift:>11.3f}  {verdict}")
    # Host facts: a set whose speed probe or steal moved shows why.
    for name in names:
        for s in range(SETS):
            ref = [r["host.ref_kernel_ns"] for r in raw[s][name]]
            steal = [r["host.steal_share"] for r in raw[s][name]]
            print(f"host during set {s + 1} {name}: reference kernel "
                  f"{min(ref):.3f}-{max(ref):.3f} ns/lane-add, steal "
                  f"{min(steal):.2%}-{max(steal):.2%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
