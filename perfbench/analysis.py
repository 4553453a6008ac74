"""Pure functions behind the benchmark's metrics: nearest-rank percentiles,
span self times from a Chrome trace, and the metric tables.

run.py feeds these the raw measurements the perfbench binary prints; the
unit tests in test_analysis.py exercise them on hand-built inputs.
"""

import math
import re
import statistics

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

# End-to-end metrics (tracing off): name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "output_tok_per_s": ("tok/s", "higher"),
    "ttft_p50_ms": ("ms", "lower"),
    "ttft_p90_ms": ("ms", "lower"),
    "tpot_p50_ms": ("ms", "lower"),
    "tpot_p90_ms": ("ms", "lower"),
    "ok_frac": ("ratio", "higher"),
    "token_match_frac": ("ratio", "higher"),
    "rouge2_fidelity": ("F1", "higher"),
    "kv_peak_mb": ("MiB", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

# Per-layer metrics (traced run): name -> unit. Layers are src/ modules.
PER_LAYER = {
    "serve.prefill_s": "s",
    "serve.decode_s": "s",
    "serve.other_s": "s",
    "serve.resume_s": "s",
    "serve.sched_s": "s",
    "serve.self_s": "s",
    "serve.steps": "count",
    "serve.batch_mean": "seqs",
    "serve.queue_wait_p50_ms": "ms",
    "serve.preemptions": "count",
    "serve.replayed_tokens": "count",
    "model.prefill_tokens": "count",
    "model.prefill_tok_per_s": "tok/s",
    "model.step_ms": "ms",
    "model.attn_project_s": "s",
    "model.attn_attend_s": "s",
    "model.self_s": "s",
    "kvcache.observe_s": "s",
    "kvcache.observe_share": "ratio",
    "kvcache.self_s": "s",
    "kvcache.decisions": "count",
    "kvcache.evicted_tokens": "count",
    "mem.peak_blocks": "count",
    "mem.frag_max": "ratio",
    "mem.prefix_hit_rate": "ratio",
    "mem.prefix_tokens_reused": "count",
    "mem.prefix_s": "s",
    "mem.self_s": "s",
    "mem.cow_copies": "count",
    "mem.reservation_retries": "count",
    "mem.alloc_failures": "count",
    "cpu.prefill_gflop_per_s": "GFLOP/s",
    "cpu.decode_gflop_per_s": "GFLOP/s",
    "cpu.decode_bytes_per_token": "B/token",
    "obs.trace_overhead": "ratio",
    "obs.trace_dropped": "count",
}

# Span name -> layer (src/ module) for self-time attribution. Names not
# listed fall back to their prefix before the first dot.
SPAN_LAYER = {
    "engine.run": "serve",
    "admit": "serve",
    "settle": "serve",
    "prefill": "serve",
    "resume_prefill": "serve",
    "resume_replay": "serve",
    "step_batch": "serve",
    "sample": "serve",
    "retire": "serve",
    "preempt.park": "serve",
    "prefill_chunk": "model",
    "attn.project": "model",
    "attn.attend": "model",
    "policy.observe": "kvcache",
    "prefix": "mem",
    "bench": "bench",
}

# The engine emits these as sequential pseudo-spans laid out from just
# before each step_batch span, carved from timing-sink deltas (category
# "kernel"); they are children of that step.
KERNEL_CATEGORY = "kernel"
SCHED_SPANS = ("admit", "settle", "retire", "preempt.park")


def nearest_rank(values, pct):
    """Nearest-rank percentile: the smallest value with at least pct% of
    the sample at or below it. pct in [0, 100]; raises on an empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= pct <= 100:
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_of(name):
    if name in SPAN_LAYER:
        return SPAN_LAYER[name]
    head = name.split(".", 1)[0]
    return SPAN_LAYER.get(head, head)


def complete_spans(trace):
    """The "X" (complete) events of a Chrome trace dict, as dicts with
    name, cat, tid, ts and end (microseconds)."""
    spans = []
    for ev in trace.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        ts = float(ev["ts"])
        spans.append({"name": ev["name"], "cat": ev.get("cat", ""),
                      "tid": ev.get("tid", 0), "ts": ts,
                      "end": ts + float(ev.get("dur", 0.0))})
    return spans


def place_kernel_spans(spans):
    """Clamps each kernel pseudo-span into the step_batch span it was carved
    from: the first step_batch on the same thread that ends after the
    pseudo-span starts. Pseudo-spans with no such step are left alone."""
    steps = {}
    for s in spans:
        if s["name"] == "step_batch":
            steps.setdefault(s["tid"], []).append(s)
    for tid_steps in steps.values():
        tid_steps.sort(key=lambda s: s["ts"])
    placed = []
    for s in spans:
        if s["cat"] == KERNEL_CATEGORY:
            owner = next((st for st in steps.get(s["tid"], [])
                          if st["end"] > s["ts"]), None)
            if owner is not None:
                ts = min(max(s["ts"], owner["ts"]), owner["end"])
                end = min(max(s["end"], ts), owner["end"])
                s = dict(s, ts=ts, end=end)
        placed.append(s)
    return placed


def self_times(spans):
    """Each span's self time: its duration minus the part of it covered by
    its direct children (spans on the same thread nested inside it).
    Returns a list of (span, self_us) in input order."""
    by_tid = {}
    for i, s in enumerate(spans):
        by_tid.setdefault(s["tid"], []).append(i)
    covered = [0.0] * len(spans)
    for idx in by_tid.values():
        # Parents before children: earlier start first, longer span first.
        idx.sort(key=lambda i: (spans[i]["ts"], -spans[i]["end"]))
        stack = []
        for i in idx:
            s = spans[i]
            while stack and spans[stack[-1]]["end"] <= s["ts"]:
                stack.pop()
            if stack:
                parent = spans[stack[-1]]
                covered[stack[-1]] += min(s["end"], parent["end"]) - s["ts"]
            stack.append(i)
    return [(s, max(0.0, (s["end"] - s["ts"]) - covered[i]))
            for i, s in enumerate(spans)]


def span_metrics(trace):
    """Time-based per-layer numbers from one traced Engine::run, in
    seconds unless the name says otherwise."""
    spans = place_kernel_spans(complete_spans(trace))
    total = {}
    self_total = {}
    layer_self = {}
    step_durs = []
    for s, self_us in self_times(spans):
        name = s["name"]
        dur = s["end"] - s["ts"]
        total[name] = total.get(name, 0.0) + dur
        self_total[name] = self_total.get(name, 0.0) + self_us
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + self_us
        if name == "step_batch":
            step_durs.append(dur)
    # Kernel pseudo-spans are summed unclamped: policy observe runs per
    # sequence in parallel, so its summed time can exceed the step wall.
    raw = {}
    for s in complete_spans(trace):
        if s["cat"] == KERNEL_CATEGORY:
            raw[s["name"]] = raw.get(s["name"], 0.0) + s["end"] - s["ts"]

    us = 1e-6
    wall = total.get("engine.run", 0.0) * us
    prefill = (total.get("prefill", 0.0) + total.get("resume_prefill", 0.0)) * us
    decode = (total.get("step_batch", 0.0) + total.get("sample", 0.0)) * us
    observe = raw.get("policy.observe", 0.0) * us
    return {
        "wall_s": wall,
        "serve.prefill_s": prefill,
        "serve.decode_s": decode,
        "serve.other_s": wall - prefill - decode,
        "serve.resume_s": total.get("resume_prefill", 0.0) * us,
        "serve.sched_s": sum(self_total.get(n, 0.0) for n in SCHED_SPANS) * us,
        "serve.self_s": layer_self.get("serve", 0.0) * us,
        "model.step_ms": (statistics.median(step_durs) * 1e-3
                          if step_durs else 0.0),
        "model.attn_project_s": raw.get("attn.project", 0.0) * us,
        "model.attn_attend_s": raw.get("attn.attend", 0.0) * us,
        "model.self_s": layer_self.get("model", 0.0) * us,
        "kvcache.observe_s": observe,
        "kvcache.observe_share": observe / decode if decode > 0 else 0.0,
        "kvcache.self_s": layer_self.get("kvcache", 0.0) * us,
        "mem.prefix_s": sum(v for n, v in self_total.items()
                            if layer_of(n) == "mem") * us,
        "mem.self_s": layer_self.get("mem", 0.0) * us,
    }


def computed_cpu_metrics(model, counts, prefill_s, decode_s,
                         prefill_key_mean, decode_key_mean):
    """FLOP and byte rates computed (not counted) from the model shape and
    the run's token counts: dense matmuls 2*params per token, attention
    4*d_model*keys per token per layer, fp32 weights and KV rows."""
    d = model["d_model"]
    layers = model["n_layers"]
    layer_params = 4 * d * d + 2 * d * model["d_ff"]
    dense = 2 * layers * layer_params + 2 * d * model["vocab_size"]
    prefill_flop = counts["prefilled_tokens"] * (
        dense + 4 * layers * d * prefill_key_mean)
    decode_flop = counts["decoded_tokens"] * (
        dense + 4 * layers * d * decode_key_mean)
    batch = counts["decoded_tokens"] / counts["steps"] if counts["steps"] else 0
    weight_bytes = 4 * (layers * layer_params + model["vocab_size"] * d)
    kv_bytes = layers * 2 * decode_key_mean * d * 4
    return {
        "cpu.prefill_gflop_per_s": (prefill_flop / prefill_s / 1e9
                                    if prefill_s > 0 else 0.0),
        "cpu.decode_gflop_per_s": (decode_flop / decode_s / 1e9
                                   if decode_s > 0 else 0.0),
        "cpu.decode_bytes_per_token": (weight_bytes / batch + kv_bytes
                                       if batch > 0 else 0.0),
    }


def median_iqr(values):
    """(median, (q3 - q1) / median) with Python's default quartiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else 0.0)
