"""One pass of one workload in a fresh interpreter; prints a JSON line.

Started by run.py, which passes the monotonic time at which it spawned this
process and the time at which the pass must end. Set-up time runs from the
spawn to the first timed step, less the time spent generating inputs from
the seed (benchmark work, not program work). The pass then repeats the
timed loop on freshly built subsystems, sharing only the immutable loaded
inputs, until its time is up. Peak RSS is read after the first loop, before
the checks import numpy.

Times are kept twice: as measured (``raw_*``) and scaled to the reference
host speed with the probe samples taken between steps (see
``nkbench/hostspeed.py``); set-up is scaled by the median probe of the
first loop, which follows it.

    python3 benchmarks/worker.py --workload jobs --seed 1 --trace 0 \\
        --spawned-ns <ns> --end-ns <ns>
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path
from statistics import median_low

from nkbench import WORKLOADS, hostspeed, load_neurokernel
from nkbench.report import layer_metrics
from nkbench.trace import NullTracer, Tracer


def run_pass(workload: str, seed: int, trace: bool, spawned_ns: int, end_ns: int,
             spans_out: str | None = None) -> dict:
    module = WORKLOADS[workload]
    t0 = time.perf_counter_ns()
    inputs = module.generate(seed)
    generate_ns = time.perf_counter_ns() - t0

    nk = load_neurokernel()
    loaded = module.load(nk, inputs)
    reps, layers, errors = [], [], []
    digest = None
    while True:
        tracer = Tracer() if trace else NullTracer()
        started = time.perf_counter_ns()
        loop = module.Workload(nk, inputs, loaded, tracer)
        result = loop.run()
        steps_ns = result["steps_ns"]
        work_ns = result.get("work_ns", steps_ns)
        scale = hostspeed.factors(tracer.host_ns)
        owners = result.get("step_unit", range(len(steps_ns)))
        reps.append({"steps_ns": hostspeed.scaled(steps_ns, owners, scale),
                     "work_ns": hostspeed.scaled(work_ns, range(len(work_ns)), scale),
                     "raw_steps_ns": steps_ns, "raw_work_ns": work_ns,
                     "host_probe_ns": median_low(tracer.host_ns),
                     "attempted": result["attempted"], "failed": result["failed"]})
        if trace:
            layers.append(layer_metrics(tracer.summary(), loop.counters, tracer.starts_ends))
        if digest is None:
            raw_setup_ns = result["first_step_ns"] - spawned_ns - generate_ns
            setup_probe_ns = reps[0]["host_probe_ns"]
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            errors = loop.verify()
            digest = loop.digest()
            units = result["units"]
            if trace and spans_out:
                tracer.write(Path(spans_out))
        elif loop.digest() != digest:
            errors.append(f"repetition {len(reps)} of the pass changed the digest")
        loop_ns = time.perf_counter_ns() - started
        if time.perf_counter_ns() + loop_ns > end_ns:
            break

    out = {
        "setup_ns": raw_setup_ns * hostspeed.REFERENCE_NS / setup_probe_ns,
        "raw_setup_ns": raw_setup_ns,
        "rss_kib": rss_kib,
        "units": units,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": min(sum(r["attempted"] for r in reps), sum(r["failed"] for r in reps) + len(errors)),
        "errors": errors[:20],
        "digest": digest,
        "traced": trace,
        "reps": reps,
    }
    if trace:
        out["layers"] = {name: median_low(rep[name] for rep in layers) for name in layers[0]}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--end-ns", type=int, required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args()
    out = run_pass(args.workload, args.seed, bool(args.trace), args.spawned_ns, args.end_ns,
                   args.spans_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
