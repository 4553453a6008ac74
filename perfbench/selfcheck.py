#!/usr/bin/env python3
"""Steadiness self-check: runs every workload of BENCHMARK.json over
seeds 1..10, in two sets of the same code, and reports every end-to-end
metric's median and quartile spread per workload and set.

    python3 perfbench/selfcheck.py

A metric passes when its spread, (q3 - q1) / median over the seeds of a
set, stays within its bound from BENCHMARK.json (setup_s excepted: its
spread is printed, not judged) and the second set's
median is not worse than the first set's by more than the bound. Exit
code 1 when any metric fails. Raw results are kept in
.bench_build/selfcheck.json.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import analysis  # noqa: E402

SEEDS = range(1, 11)
SETS = 2


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def worse_by(first, later, better):
    """Share by which `later` is worse than `first` (negative: better)."""
    if first == 0:
        return 0.0
    delta = (later - first) / first
    return delta if better == "lower" else -delta


def main():
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    specs = bench["end_to_end"]

    results = {}  # (set, workload) -> list of metric dicts
    for s in range(SETS):
        for w in workloads:
            t0 = time.monotonic()
            runs = [run_once(root, w, seed, bench["run_seconds"])["metrics"]
                    for seed in SEEDS]
            results[(s, w)] = runs
            print(f"set {s + 1} {w}: {len(runs)} runs in "
                  f"{time.monotonic() - t0:.0f} s", flush=True)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"{'metric':20s} " + " ".join(
            f"{'median' + str(s + 1):>12s} {'iqr' + str(s + 1):>7s}"
            for s in range(SETS)) + f" {'bound':>6s} {'drift':>7s}  verdict")
        for spec in specs:
            name, bound = spec["name"], spec["bound"]
            stats = [analysis.median_iqr(
                [r[name]["value"] for r in results[(s, w)]])
                for s in range(SETS)]
            drift = worse_by(stats[0][0], stats[1][0], spec["better"])
            spread = max(iqr for _, iqr in stats)
            # setup_s is held to its drift only: one set-up is too short to
            # average out the host's speed, so its spread is printed, not
            # judged.
            judged = name != "setup_s"
            fail = drift > bound or (judged and spread > bound)
            tight = not judged or spread < bound / 3
            verdict = "FAIL" if fail else ("ok" if tight else "ok (>1/3)")
            ok = ok and not fail
            print(f"{name:20s} " + " ".join(
                f"{m:12.6g} {iqr:7.3f}" for m, iqr in stats)
                + f" {bound:6.2f} {drift:7.3f}  {verdict}")

    out = os.path.join(root, ".bench_build", "selfcheck.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump({f"{s}:{w}": r for (s, w), r in results.items()}, f)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
