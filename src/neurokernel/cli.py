"""Single entry point exposing every subsystem demo, runner, and benchmark.

Reports go to stdout as CSV (or a single result line); diagnostics go to
stderr. Every subcommand that takes --seed is byte-reproducible for a
fixed seed, except the wall-clock nanos column of matmul-bench, which is
inherently timing. Exit codes: 0 success, 1 domain error (the kernel
error kind is printed), 2 usage error. Script and config files are read as
UTF-8 by ``config.read_text`` and split by ``config.directives``; a file
that cannot be read is one InvalidArgument, so it exits 1.
"""

from __future__ import annotations

import argparse
import csv
import operator
import sys
import time
from functools import reduce
from random import Random

from .accel import AccelDevice, AccelOp, AccelTask
from .compute import Opcode, simple_compute
from .config import config_from, directives, read_text, resolve_config
from .errors import InvalidArgument, KernelError
from .mempool import BlockPool, PoolConfig
from .orchestrator.runner import DEMO_SCENARIO, parse_scenario, run_scenario
from .rabab.engine import RababEngine
from .rabab.paths import Framebuffer, interpret_intent, parse_intent
from .scheduler import MlScheduler, MlTask, SchedulerConfig, cycles_work
from .selftest import run_all
from .tensor import (
    MatmulConfig,
    Tensor,
    matmul_blocked,
    matmul_naive,
    matmul_parallel,
)

_OP_NAMES = {"add": Opcode.ADD, "sub": Opcode.SUBTRACT, "mul": Opcode.MULTIPLY, "div": Opcode.DIVIDE}


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _cmd_compute(args) -> int:
    result = simple_compute(args.a, args.b, _OP_NAMES[args.op])
    print(result)
    return 0


def _cmd_matmul_bench(args) -> int:
    config = config_from(MatmulConfig, resolve_config(args.config),
                         block_size=args.block, worker_count=args.workers)
    rng = Random(args.seed)
    a = Tensor.random((args.n, args.n), rng)
    b = Tensor.random((args.n, args.n), rng)
    variants = (
        ("naive", lambda: matmul_naive(a, b)),
        ("blocked", lambda: matmul_blocked(a, b, config)),
        ("parallel", lambda: matmul_parallel(a, b, config)),
    )
    writer = _csv_writer()
    writer.writerow(["variant", "n", "block", "workers", "nanos", "checksum"])
    for name, run in variants:
        for _ in range(args.trials):
            start = time.perf_counter_ns()
            out = run()
            nanos = time.perf_counter_ns() - start
            # Left to right on every Python: sum() is compensated from 3.12 on.
            checksum = repr(reduce(operator.add, out.tolist(), 0.0))
            writer.writerow([name, args.n, config.block_size, config.worker_count, nanos, checksum])
    return 0


def _cmd_pool_demo(args) -> int:
    pool = BlockPool(config_from(PoolConfig, resolve_config(args.config)))
    handles: list = []
    for lineno, line in directives(read_text(args.ops)):
        parts = line.split()
        try:
            if parts[0] == "alloc" and len(parts) == 2:
                handles.append(pool.alloc(int(parts[1])))
            elif parts[0] == "free" and len(parts) == 2:
                index = int(parts[1])
                if not 1 <= index <= len(handles) or handles[index - 1] is None:
                    raise InvalidArgument(f"no live allocation #{index}")
                pool.free(handles[index - 1])
                handles[index - 1] = None
            elif parts[0] == "lpage" and len(parts) == 2:
                handles.append(pool.alloc_large_page(int(parts[1])))
            else:
                raise InvalidArgument(f"unrecognized op {line!r}")
        except ValueError:
            raise InvalidArgument(f"ops line {lineno}: malformed {line!r}") from None
        except KernelError as exc:
            raise type(exc)(f"ops line {lineno}: {exc.detail}") from None
    print(pool.bitmap_hex())
    return 0


def _cmd_accel_demo(args) -> int:
    rng = Random(args.seed)
    n = args.n
    a = Tensor.identity(n)
    b = Tensor.random((n, n), rng)
    dev = AccelDevice()
    ra = dev.allocate(8 * n * n)
    rb = dev.allocate(8 * n * n)
    rout = dev.allocate(8 * n * n)
    dev.write_tensor(ra, a)
    dev.write_tensor(rb, b)
    dev.submit(AccelTask(AccelOp.MATMUL, ra, (n, n), rb, (n, n), rout))
    dev.execute_next()
    device_out = dev.read_tensor(rout, (n, n))
    host_out = matmul_naive(a, b)
    match = device_out.tobytes() == host_out.tobytes()
    print(f"device==host: {'true' if match else 'false'}")
    return 0


def _cmd_sched_sim(args) -> int:
    config = config_from(SchedulerConfig, resolve_config(args.config),
                         deprioritize_threshold=args.threshold, quantum=args.quantum)
    sched = MlScheduler(config)
    tasks: dict[str, MlTask] = {}
    for lineno, line in directives(read_text(args.tasks)):
        parts = line.split()
        if len(parts) != 6 or parts[0] != "task" or parts[2] != "prio" or parts[4] != "cycles":
            raise InvalidArgument(f"tasks line {lineno}: expected 'task <id> prio <p> cycles <c>'")
        try:  # a quantum-sized step ends each slice where 1-cycle steps would
            task = MlTask(parts[1], cycles_work(int(parts[5]), config.quantum), priority=int(parts[3]))
        except ValueError:
            raise InvalidArgument(f"tasks line {lineno}: malformed numbers") from None
        sched.enqueue(task)
        tasks[task.id] = task
    completed: list[str] = []
    while len(sched):
        completed.extend(sched.batch_execute(config.batch_size))
    writer = _csv_writer()
    writer.writerow(["task_id", "completion_index", "final_priority", "consumed_cycles"])
    for index, task_id in enumerate(completed, start=1):
        task = tasks[task_id]
        writer.writerow([task_id, index, task.priority, task.consumed_cycles])
    return 0


def _cmd_orchestrate(args) -> int:
    text = DEMO_SCENARIO if args.scenario == "demo" else read_text(args.scenario)
    scenario = parse_scenario(text)
    events, summary, action = run_scenario(
        scenario, ticks=args.ticks, seed=args.seed, timeout_ticks=args.timeout
    )
    writer = _csv_writer()
    writer.writerow(["tick", "event", "detail"])
    for tick, event, detail in events:
        writer.writerow([tick, event, detail])
    if summary is not None:
        writer.writerow([args.ticks, "fused", summary])
        writer.writerow([args.ticks, "decision", action])
    return 0


def _cmd_rabab_demo(args) -> int:
    rng = Random(args.seed)
    engine = RababEngine()
    detector = engine.register_predicate("even-number-detector", lambda n: n % 2 == 0)
    writer = _csv_writer()
    writer.writerow(["iteration", "confidence"])
    for iteration in range(1, args.iterations + 1):
        sample = rng.randrange(0, 1000)
        engine.evolve_predicate(detector, sample, sample % 2 == 0)
        writer.writerow([iteration, repr(detector.confidence)])
    return 0


def _cmd_rabab_draw(args) -> int:
    fb = Framebuffer(args.width, args.height)
    interpret_intent(parse_intent(args.intent), fb)
    sys.stdout.write(fb.to_ppm())
    return 0


def _cmd_selftest(args) -> int:
    results = run_all(args.seed)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
        print(f"  {result.name}: {result.seconds:.2f}s", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neurokernel",
        description="Desk-scale simulator of an AI-native kernel's subsystems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="checked 64-bit arithmetic syscall")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--op", choices=sorted(_OP_NAMES), required=True)
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("matmul-bench", help="benchmark the multiply variants")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--block", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_cmd_matmul_bench)

    p = sub.add_parser("pool-demo", help="replay an alloc/free/lpage op script")
    p.add_argument("--ops", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_cmd_pool_demo)

    p = sub.add_parser("accel-demo", help="identity matmul on the simulated device")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_accel_demo)

    p = sub.add_parser("sched-sim", help="run a task script through the scheduler")
    p.add_argument("--tasks", required=True)
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--quantum", type=int, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_cmd_sched_sim)

    p = sub.add_parser("orchestrate", help="run a cluster scenario ('demo' builtin)")
    p.add_argument("--scenario", required=True)
    p.add_argument("--ticks", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=int, default=3)
    p.set_defaults(handler=_cmd_orchestrate)

    p = sub.add_parser("rabab-demo", help="even-number detector learning loop")
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_rabab_demo)

    p = sub.add_parser("rabab-draw", help="interpret a draw intent, emit PPM")
    p.add_argument("--intent", required=True, help='e.g. "pixel:100,50,#FF0000"')
    p.add_argument("--width", type=int, default=128)
    p.add_argument("--height", type=int, default=128)
    p.set_defaults(handler=_cmd_rabab_draw)

    p = sub.add_parser("selftest", help="run every acceptance property")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except KernelError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
