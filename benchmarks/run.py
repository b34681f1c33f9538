"""neurokernel benchmark: one workload, one seed, measured for --seconds.

    python3 benchmarks/run.py --workload jobs --seed 1 --seconds 20 --trace 0

A run is PASSES passes, one after another, each in a fresh interpreter
(worker.py) and each given an equal share of --seconds, within which it
repeats the workload's timed loop. With --trace 0 the result holds the
end-to-end metrics (see BENCHMARK.json). With --trace 1 traced and
untraced passes alternate: the traced ones give the per-layer metrics, and
the ratio of traced to untraced busy time is the tracing overhead. Every
pass checks its outputs against oracles, and every loop of one seed must
produce the same digest.

End-to-end times are scaled to a reference host speed with a probe sampled
between steps (nkbench/hostspeed.py); the values as measured are printed
beside them and kept in the full result.

The last line of stdout is the JSON result; the exit code is 0 only when
every check passed. The full result, with the environment it ran in, is
also written to .bench_results/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

from nkbench import HELD_OUT_SEED, ROOT, WORKLOADS, environment, hostspeed, require_source
from nkbench.report import END_TO_END, PER_LAYER, UNITS, step_medians, end_to_end

PASSES = 5
RUN_LIMIT_S = 170
RESULTS = ROOT / ".bench_results"
WORKER = Path(__file__).resolve().with_name("worker.py")


def run_pass(args, traced: bool, end_ns: int, deadline: float, spans_out: Path | None) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0", "--end-ns", str(end_ns)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    timeout = max(1.0, deadline - time.monotonic())
    cmd += ["--spawned-ns", str(time.perf_counter_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"benchmark: a {args.workload} pass did not finish within the run limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"benchmark: a {args.workload} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="neurokernel benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_source()

    deadline = time.monotonic() + RUN_LIMIT_S
    start_ns = time.perf_counter_ns()
    spans_out = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
    passes: list[dict] = []
    for index in range(PASSES):
        traced = bool(args.trace) and index % 2 == 0
        end_ns = start_ns + round(args.seconds * 1e9 * (index + 1) / PASSES)
        passes.append(run_pass(args, traced, end_ns, deadline,
                               spans_out if traced and index == 0 else None))

    errors = [e for p in passes for e in p["errors"]]
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        errors.append(f"passes of seed {args.seed} disagree: {len(digests)} distinct digests")
    if len({(len(r["steps_ns"]), len(r["work_ns"])) for p in passes for r in p["reps"]}) > 1:
        errors.append(f"passes of seed {args.seed} disagree on the number of steps")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        on = [p for p in passes if p["traced"]]
        off = [p for p in passes if not p["traced"]]
        metrics = {name: median_low(p["layers"][name] for p in on) for name in on[0]["layers"]}
        metrics["tracing.overhead_ratio"] = (
            sum(step_medians(on, "work_ns")) / sum(step_medians(off, "work_ns")))
        names = PER_LAYER
        raw = {}
    else:
        metrics = end_to_end(passes)
        names = END_TO_END
        raw = end_to_end(passes, "raw_")
    probe_us = median(r["host_probe_ns"] for p in passes for r in p["reps"]) / 1e3

    env = environment()
    held_out = " (held-out seed)" if args.seed == HELD_OUT_SEED else ""
    print(f"neurokernel benchmark: workload={args.workload} seed={args.seed}{held_out} "
          f"trace={args.trace} passes={len(passes)} "
          f"loops={sum(len(p['reps']) for p in passes)} steps/loop={len(passes[0]['reps'][0]['steps_ns'])}")
    print("  " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  host probe median {probe_us:.4g} us (reference {hostspeed.REFERENCE_NS / 1e3:.4g} us)")
    for name in names:
        as_measured = f"   (as measured {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<40} {metrics[name]:>16.6g} {UNITS[name]}{as_measured}")
    print(f"  {'failed_ratio':<40} {failed / attempted:>16.6g} ratio ({failed} of {attempted} steps)")
    print(f"  digest {digests[0]}")
    for error in errors[:20]:
        print(f"  CHECK FAILED: {error}")

    correct = not errors and failed == 0
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "digests": digests, "errors": errors,
        "metrics": metrics, "metrics_as_measured": raw, "host_probe_us": probe_us,
        "passes": [{k: v for k, v in p.items() if k not in ("layers", "reps")}
                   | {"busy_s": [sum(r["raw_work_ns"]) / 1e9 for r in p["reps"]],
                      "host_probe_us": [r["host_probe_ns"] / 1e3 for r in p["reps"]]}
                   for p in passes],
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
