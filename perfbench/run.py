#!/usr/bin/env python3
"""Serving benchmark: builds the perfbench driver from source, runs one
workload through serve::Engine::run and prints its metrics.

    python3 perfbench/run.py --workload mixed_pressure --seed 1 --trace 0

Run from the repository root. --trace 0 prints the end-to-end metrics
(tracing off); --trace 1 prints the per-layer metrics from alternating
untraced and traced passes. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 1
when the build fails or an output check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import analysis  # noqa: E402

WORKLOADS = ("mixed_pressure", "offline_decode", "shared_prefix")
DEADLINE_S = 170.0
# The engine's global pool: one thread per CPU the process may use, at
# most 4, so results stay comparable across hosts.
POOL_THREADS = min(4, len(os.sched_getaffinity(0)))


def build_dir(root):
    return os.path.join(root, ".bench_build")


def build(root):
    """Configures (once) and builds the driver; returns its path. On a
    failed build prints the log tail to stderr and exits 1."""
    out = os.path.join(build_dir(root), "cmake")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_dir(root), "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if shutil.which(cmd[0]) is None:
                sys.exit(f"error: {cmd[0]} not found")
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=root).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                shutil.rmtree(out, ignore_errors=True)
                sys.exit(f"error: benchmark build failed (see {log_path})")
    return os.path.join(out, "perfbench")


def run_driver(binary, args, out_dir, deadline):
    """Runs the driver and returns its parsed JSON record."""
    env = dict(os.environ, KF_NUM_THREADS=str(POOL_THREADS))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.exit(f"error: driver exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("error: driver printed no result")
    return json.loads(lines[-1])


def median_of(passes, fn):
    return statistics.median(fn(p) for p in passes)


def end_to_end(rec, passes, failed, attempted):
    """Metric name -> (value, samples) for the untraced passes. Each time
    metric is its best pass: host contention only ever adds time, and it
    comes in bursts, so the fastest pass is the steadiest figure."""
    n = len(passes)
    check = rec["check"]

    def fastest(fn):
        return min(fn(p) for p in passes), f"fastest of {n} pass"

    def pct(key, p, scale):
        value, _ = fastest(lambda q: analysis.nearest_rank(q[key], p))
        return value * scale, f"{len(passes[0][key])} req, fastest of {n} pass"

    fail_frac = failed / attempted
    wall_s, wall_samples = fastest(lambda p: p["wall_s"])
    return {
        "setup_s": (statistics.median(rec["setup_s"]),
                    f"median of {len(rec['setup_s'])} set-ups"),
        "wall_s": (wall_s, wall_samples),
        "output_tok_per_s": (max(p["output_tokens"] / p["wall_s"]
                                 for p in passes), wall_samples),
        "ttft_p50_ms": pct("ttft_s", 50, 1e3),
        "ttft_p90_ms": pct("ttft_s", 90, 1e3),
        "tpot_p50_ms": pct("tpot_s", 50, 1e3),
        "tpot_p90_ms": pct("tpot_s", 90, 1e3),
        "failed_frac": (fail_frac, f"{attempted} req"),
        "ok_frac": (1.0 - fail_frac, f"{attempted} req"),
        "token_match_frac": (check["token_match"] / check["requests"],
                             f"{check['requests']} req"),
        "rouge2_fidelity": (check["rouge2_f1_mean"],
                            f"{check['rouge2_requests']} req"),
        "kv_peak_mb": (max(p["kv_peak_mb"] for p in passes),
                       f"max of {n} pass"),
        "peak_rss_mb": (rec["peak_rss_mb"], "1 process"),
    }


def per_layer(rec, untraced, traced):
    """Metric name -> (value, samples): counts from the first untraced
    pass, times from the traced passes (median over them)."""
    counts = untraced[0]["stats"]
    spans = []
    for p in traced:
        with open(p["trace_file"]) as f:
            spans.append(analysis.span_metrics(json.load(f)))
    nt = f"{len(traced)} traced pass"

    def traced_median(key):
        return statistics.median(s[key] for s in spans)

    out = {k: (traced_median(k), nt) for k in spans[0] if k != "wall_s"}
    prefill_s = out["serve.prefill_s"][0]
    decode_s = out["serve.decode_s"][0]
    cpu = analysis.computed_cpu_metrics(
        rec["model"], counts, prefill_s, decode_s,
        rec["prefill_key_tokens_mean"], rec["decode_key_tokens_mean"])
    out.update({k: (v, "computed") for k, v in cpu.items()})
    one = "1 untraced pass"
    prefix_total = counts["prefix_hits"] + counts["prefix_misses"]
    out.update({
        "serve.steps": (counts["steps"], one),
        "serve.batch_mean": (counts["decoded_tokens"] / counts["steps"]
                             if counts["steps"] else 0.0, one),
        "serve.queue_wait_p50_ms": (statistics.median(
            analysis.nearest_rank(p["queue_wait_s"], 50) for p in traced)
            * 1e3, nt),
        "serve.preemptions": (counts["preemptions"], one),
        "serve.replayed_tokens": (counts["resume_replayed_tokens"], one),
        "model.prefill_tokens": (counts["prefilled_tokens"], one),
        "model.prefill_tok_per_s": (counts["prefilled_tokens"] / prefill_s
                                    if prefill_s > 0 else 0.0, nt),
        "kvcache.decisions": (counts["eviction_decisions"], one),
        "kvcache.evicted_tokens": (counts["evicted_tokens"], one),
        "mem.peak_blocks": (counts["pool_peak_used_blocks"], one),
        "mem.frag_max": (counts["max_fragmentation"], one),
        "mem.prefix_hit_rate": (counts["prefix_hits"] / prefix_total
                                if prefix_total else 0.0, one),
        "mem.prefix_tokens_reused": (counts["prefix_tokens_reused"], one),
        "mem.cow_copies": (counts["prefix_cow_copies"], one),
        "mem.reservation_retries": (counts["reservation_retries"], one),
        "mem.alloc_failures": (counts["alloc_failures"], one),
        "obs.trace_overhead": (
            median_of(traced, lambda p: p["wall_s"])
            / median_of(untraced, lambda p: p["wall_s"]) - 1.0,
            f"{len(traced)} traced / {len(untraced)} untraced"),
        "obs.trace_dropped": (max(p["trace_dropped"] for p in traced), nt),
    })
    return out


def run_seconds(root):
    """The measuring time BENCHMARK.json sets for one run."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def main():
    root = os.path.dirname(HERE)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=run_seconds(root))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    binary = build(root)
    out_dir = os.path.join(build_dir(root), "out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    rec = run_driver(binary, args, out_dir, deadline)

    passes = rec["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    check = rec["check"]
    sent = rec["requests"] * len(passes)
    mismatched = len(check["mismatched_ids"])
    failed = min(sent, sum(rec["requests"] - p["ok"] for p in passes)
                 + mismatched + check["pass_mismatches"])
    correct = failed == 0

    if args.trace:
        table = per_layer(rec, untraced, traced)
        names = analysis.PER_LAYER
        units = dict(names)
        if table["obs.trace_dropped"][0] != 0:
            correct = False  # an incomplete trace gives wrong self times
    else:
        table = end_to_end(rec, untraced, failed, sent)
        names = analysis.END_TO_END
        units = {k: v[0] for k, v in names.items()}
        units["failed_frac"] = "ratio"

    print(f"workload {args.workload}  seed {args.seed}  isa {rec['isa']}  "
          f"threads {rec['threads']}  passes {len(untraced)} untraced + "
          f"{len(traced)} traced")
    print(f"requests sent {sent}  succeeded {sent - failed}  failed {failed}"
          f"  (check subset: {check['token_match']}/{check['requests']} "
          f"token-exact vs batch-of-one, {check['pass_mismatches']} "
          f"pass-to-pass mismatches)")
    print(f"{'metric':28s} {'value':>14s} {'unit':8s} samples")
    for name in units:
        value, samples = table[name]
        print(f"{name:28s} {value:14.6g} {units[name]:8s} {samples}")
    if not correct:
        print("OUTPUT CHECK FAILED: mismatched request ids "
              f"{check['mismatched_ids']}", file=sys.stderr)

    record = dict(rec, metrics={k: v[0] for k, v in table.items()},
                  correct=correct, failed=failed, attempted=sent)
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump(record, f)
    result = {
        "correct": correct,
        "attempted": sent,
        "failed": failed,
        "metrics": {k: {"value": float(table[k][0]), "unit": units[k]}
                    for k in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
