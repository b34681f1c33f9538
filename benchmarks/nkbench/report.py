"""Reduction of spans and counters into the metrics of ``BENCHMARK.json``.

``BENCHMARK.json`` at the root of the checkout is the one list of metric
names and units. This module keeps only the layer calls timed by spans;
every other per-layer metric is computed below or counted by a workload.
"""

from __future__ import annotations

import json
from statistics import median

from . import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple(m["name"] for m in SPEC["end_to_end"])
PER_LAYER = tuple(m["name"] for m in SPEC["per_layer"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Layer calls timed by spans: each gets .calls and .busy_s.
SPANS = (
    "mempool.alloc", "mempool.alloc_large_page", "mempool.free",
    "scheduler.enqueue", "scheduler.batch_execute",
    "tensor.matmul_naive", "tensor.matmul_blocked", "tensor.matmul_parallel",
    "accel.write_tensor", "accel.submit", "accel.execute_next", "accel.read_tensor",
    "orchestrator.heartbeat_tick", "orchestrator.detect_failures",
    "orchestrator.submit_input", "orchestrator.process_step",
    "orchestrator.checkpoint_node",
    "orchestrator.envelope.encode", "orchestrator.envelope.decode",
    "rabab.embed",
)


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending sequence (q in [0, 100])."""
    if not sorted_values:
        return 0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def span_metrics(summary: dict, counters: dict, starts_ends) -> dict:
    """The per-layer metrics computed from one traced pass's spans."""
    empty = {"calls": 0, "busy_ns": 0, "self_ns": 0, "durations": []}
    span = {name: summary.get(name, empty) for name in SPANS}
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = span[name]["calls"]
        out[f"{name}.busy_s"] = span[name]["busy_ns"] / 1e9
    out["mempool.alloc.p99_us"] = percentile(span["mempool.alloc"]["durations"], 99) / 1e3
    batch = span["scheduler.batch_execute"]
    out["scheduler.batch_execute.p50_us"] = percentile(batch["durations"], 50) / 1e3
    out["scheduler.batch_execute.p99_us"] = percentile(batch["durations"], 99) / 1e3
    out["scheduler.sim_cycles_per_s"] = (
        counters.get("scheduler.sim_cycles", 0) / (batch["busy_ns"] / 1e9) if batch["busy_ns"] else 0.0)
    tensor_ns = sum(span[n]["busy_ns"] for n in SPANS if n.startswith("tensor."))
    out["tensor.macs_per_s"] = counters.get("tensor.macs", 0) / (tensor_ns / 1e9) if tensor_ns else 0.0
    out["accel.execute_next.self_s"] = span["accel.execute_next"]["self_ns"] / 1e9
    # The queue is FIFO and each execute_next runs one task, so the k-th
    # submit is served by the k-th execute_next.
    waits = sorted(start - end for (_s, end), (start, _e) in
                   zip(starts_ends("accel.submit"), starts_ends("accel.execute_next")))
    out["accel.queue_wait_p50_us"] = percentile(waits, 50) / 1e3
    out["tracing.spans"] = sum(s["calls"] for s in summary.values())
    return out


def layer_metrics(summary: dict, counters: dict, starts_ends) -> dict:
    """Per-layer values of one traced pass, before tracing.overhead_ratio.

    A name that is neither computed from spans nor counted by the workload
    belongs to a layer the workload does not touch, and reads 0.
    """
    out = span_metrics(summary, counters, starts_ends)
    return {name: out[name] if name in out else counters.get(name, 0)
            for name in PER_LAYER if name != "tracing.overhead_ratio"}


def step_medians(passes: list[dict], key: str) -> list[float]:
    """Each step's median time over every timed loop of the passes.

    The same seed gives every loop the same steps, so step i of one loop
    repeats step i of another. Taking the median per step, before any sum
    or percentile, keeps a host slowdown that hits a minority of the loops
    at any one step out of the result.
    """
    return [median(times) for times in zip(*(r[key] for p in passes for r in p["reps"]))]


def end_to_end(passes: list[dict], prefix: str = "") -> dict:
    """Set-up and memory are medians over passes; step times are step medians.

    Times are scaled to the reference host speed; ``prefix="raw_"`` gives
    the same metrics from the times as measured.
    """
    steps = sorted(step_medians(passes, prefix + "steps_ns"))
    busy_ns = sum(step_medians(passes, prefix + "work_ns"))
    return {
        "setup_s": median(p[prefix + "setup_ns"] / 1e9 for p in passes),
        "throughput_per_s": passes[0]["units"] / (busy_ns / 1e9),
        "step_p50_ms": percentile(steps, 50) / 1e6,
        "step_p99_ms": percentile(steps, 99) / 1e6,
        "peak_rss_mib": median(p["rss_kib"] / 1024 for p in passes),
    }
