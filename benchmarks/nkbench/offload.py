"""``tensor-offload``: small matmuls through one AccelDevice, large ones on the host.

Small requests (n = 4..16 per dimension) go through the device in FIFO
batches of 8: ``write_tensor`` both operands, ``submit`` all eight, then
``execute_next`` and ``read_tensor`` each in turn. A request's latency runs
from the start of its batch to the end of its own read, as for a caller
that hands over a batch and collects the replies. Large square matmuls
(n = 64..128) run on the host, spread evenly over the naive, blocked and
parallel kernels, and a few ``scheduler.matmul_work`` tasks run to
completion through an MlScheduler with preemption. Each large matmul and
each scheduler task is one request of its own.

Large sizes are a fixed, evenly spaced set shuffled by the seed, so seeds
change values and order but not the total work. Generated operands are kept
as packed ``array('d')``, so the pass's peak RSS is mostly the program's
tensors rather than the benchmark's copies.
"""

from __future__ import annotations

import hashlib
import time
from array import array
from random import Random

N_SMALL = 2000
SMALL_DIMS = (4, 16)
DEVICE_BATCH = 8
N_LARGE = 24
LARGE_DIMS = (64, 128)
VARIANTS = ("naive", "blocked", "parallel")
BLOCK_SIZE = 32
WORKERS = 2
SCHED_SIZES = (8, 10, 12, 14, 16, 12)
SCHED_QUANTUM = 256


def _values(rng: Random, count: int) -> array:
    return array("d", (rng.uniform(-1.0, 1.0) for _ in range(count)))


def generate(seed: int, scale: float = 1.0) -> dict:
    rng = Random(f"tensor-offload-{seed}")
    n_small = max(DEVICE_BATCH, round(N_SMALL * scale))
    n_large = max(len(VARIANTS), round(N_LARGE * scale))
    lo, hi = (max(4, round(d * scale ** (1 / 3))) for d in LARGE_DIMS)

    small = []
    for _ in range(n_small):
        m, k, n = (rng.randint(*SMALL_DIMS) for _ in range(3))
        small.append(((m, k, n), _values(rng, m * k), _values(rng, k * n)))
    sizes = [lo + round((hi - lo) * i / max(1, n_large - 1)) for i in range(n_large)]
    large = [(n, VARIANTS[i % len(VARIANTS)]) for i, n in enumerate(sizes)]
    rng.shuffle(large)
    large = [(n, variant, _values(rng, n * n), _values(rng, n * n)) for n, variant in large]
    sched = [(n, _values(rng, n * n), _values(rng, n * n)) for n in SCHED_SIZES]

    # Units are device batches, large host matmuls and scheduler tasks; the
    # host and scheduler work is interleaved at seeded positions.
    units = [("batch", i) for i in range(0, n_small, DEVICE_BATCH)]
    extra = [("large", i) for i in range(len(large))] + [("sched", i) for i in range(len(sched))]
    positions = sorted(rng.sample(range(len(units) + len(extra)), len(extra)))
    rng.shuffle(extra)
    order, batches = [], iter(units)
    extra_at = dict(zip(positions, extra))
    for slot in range(len(units) + len(extra)):
        order.append(extra_at[slot] if slot in extra_at else next(batches))
    return {"small": small, "large": large, "sched": sched, "order": order}


def seq_matmul(np, a, b):
    """Left-to-right k accumulation in numpy: the same roundings as the kernels."""
    acc = np.zeros((a.shape[0], b.shape[1]))
    for p in range(a.shape[1]):
        acc += a[:, p : p + 1] * b[p : p + 1, :]
    return acc


def load(nk, inputs: dict) -> dict:
    """Operands as program tensors; immutable, so repeated passes share them."""
    from neurokernel.tensor import Tensor

    return {
        "small": [(Tensor((m, k), a), Tensor((k, n), b)) for (m, k, n), a, b in inputs["small"]],
        "large": [(Tensor((n, n), a), Tensor((n, n), b)) for n, _v, a, b in inputs["large"]],
        "sched": [(Tensor((n, n), a), Tensor((n, n), b)) for n, a, b in inputs["sched"]],
    }


class Workload:
    def __init__(self, nk, inputs: dict, loaded: dict, tracer):
        import neurokernel.accel as accel
        from neurokernel.scheduler import MlScheduler, SchedulerConfig
        from neurokernel.tensor import MatmulConfig

        self.inputs = inputs
        self.tracer = tracer
        self.accel = accel
        self.device = accel.AccelDevice()
        slot_bytes = 8 * SMALL_DIMS[1] ** 2
        self.slots = [
            tuple(self.device.allocate(slot_bytes) for _ in range(3)) for _ in range(DEVICE_BATCH)
        ]
        self.sched = MlScheduler(SchedulerConfig(quantum=SCHED_QUANTUM))
        self.small, self.large, self.sched_operands = loaded["small"], loaded["large"], loaded["sched"]
        self.configs = {"blocked": MatmulConfig(block_size=BLOCK_SIZE),
                        "parallel": MatmulConfig(worker_count=WORKERS)}
        self.DeviceBusy = nk.DeviceBusy
        self.KernelError = nk.KernelError

    def run(self) -> dict:
        from neurokernel.scheduler import DEFAULT_PRIORITY, MlTask, matmul_work
        from neurokernel.tensor import matmul_blocked, matmul_naive, matmul_parallel

        tracer, dev, accel = self.tracer, self.device, self.accel
        tracer.rebind(accel, "matmul_naive", "tensor.matmul_naive")
        write_tensor = tracer.wrap("accel.write_tensor", dev.write_tensor)
        submit = tracer.wrap("accel.submit", dev.submit)
        execute_next = tracer.wrap("accel.execute_next", dev.execute_next)
        read_tensor = tracer.wrap("accel.read_tensor", dev.read_tensor)
        kernels = {
            "naive": tracer.wrap("tensor.matmul_naive", matmul_naive),
            "blocked": tracer.wrap("tensor.matmul_blocked", matmul_blocked),
            "parallel": tracer.wrap("tensor.matmul_parallel", matmul_parallel),
        }
        enqueue = tracer.wrap("scheduler.enqueue", self.sched.enqueue)
        batch_execute = tracer.wrap("scheduler.batch_execute", self.sched.batch_execute)
        AccelTask, MATMUL = accel.AccelTask, accel.AccelOp.MATMUL
        DeviceBusy, KernelError = self.DeviceBusy, self.KernelError
        clock = time.perf_counter_ns

        small, large, slots = self.small, self.large, self.slots
        device_out: list = [None] * len(small)
        large_out: list = [None] * len(large)
        sched_out: list = [None] * len(self.sched_operands)
        self.sched_tasks: list = [None] * len(self.sched_operands)
        steps: list[int] = []   # per request, from the start of its unit
        work: list[int] = []    # per unit: batch, host matmul or scheduler task
        step_unit: list[int] = []  # per request, the index of its unit
        failed = busy_rejections = dispatches = 0

        first_step = clock()
        for kind, index in self.inputs["order"]:
            tracer.begin_step(len(steps))
            t0 = clock()
            try:
                if kind == "batch":
                    batch = range(index, min(index + DEVICE_BATCH, len(small)))
                    for (ra, rb, rout), r in zip(slots, batch):
                        a, b = small[r]
                        write_tensor(ra, a)
                        write_tensor(rb, b)
                        submit(AccelTask(MATMUL, ra, a.shape, rb, b.shape, rout))
                    for (_ra, _rb, rout), r in zip(slots, batch):
                        execute_next()
                        device_out[r] = read_tensor(rout, (small[r][0].shape[0], small[r][1].shape[1]))
                        steps.append(clock() - t0)
                elif kind == "large":
                    a, b = large[index]
                    variant = self.inputs["large"][index][1]
                    if variant == "naive":
                        large_out[index] = kernels[variant](a, b)
                    else:
                        large_out[index] = kernels[variant](a, b, self.configs[variant])
                    steps.append(clock() - t0)
                else:
                    a, b = self.sched_operands[index]
                    task = MlTask(f"mm{index}", matmul_work(
                        a, b, on_result=lambda t, i=index: sched_out.__setitem__(i, t)))
                    self.sched_tasks[index] = task
                    enqueue(task)
                    while not batch_execute(1):
                        dispatches += 1
                    dispatches += 1
                    steps.append(clock() - t0)
            except DeviceBusy:
                busy_rejections += 1
                failed += 1
            except KernelError:
                failed += 1
            work.append(clock() - t0)
            step_unit += [len(work) - 1] * (len(steps) - len(step_unit))
        tracer.restore()

        self.device_out, self.large_out, self.sched_out = device_out, large_out, sched_out
        macs = sum(m * k * n for (m, k, n), _a, _b in self.inputs["small"])
        macs += sum(n ** 3 for n, *_rest in self.inputs["large"])
        self.counters = {
            "tensor.macs": macs,
            "accel.bytes_staged": sum(8 * (m * k + k * n + m * n)
                                      for (m, k, n), _a, _b in self.inputs["small"]),
            "accel.device_busy_rejections": busy_rejections,
            "scheduler.dispatches": dispatches,
            "scheduler.preemptions": dispatches - len(self.sched_operands),
            "scheduler.deprioritized": sum(t.priority != DEFAULT_PRIORITY for t in self.sched_tasks),
            "scheduler.queue_depth_max": 1,
            "scheduler.sim_cycles": self.sched.perf.cpu_cycles,
        }
        return {"first_step_ns": first_step, "steps_ns": steps, "work_ns": work,
                "step_unit": step_unit, "units": len(steps), "attempted": len(steps) + failed, "failed": failed}

    def verify(self) -> list[str]:
        """Bit-exact against a numpy k-ordered oracle, close to numpy's own matmul."""
        import numpy as np
        from neurokernel.scheduler import ALLOC_CYCLES
        from neurokernel.tensor import matmul_naive

        errors = []

        def check(label, got, a_vals, b_vals, shape_a, shape_b):
            if got is None:
                errors.append(f"{label}: no result")
                return
            a = np.frombuffer(a_vals, dtype=np.float64).reshape(shape_a)
            b = np.frombuffer(b_vals, dtype=np.float64).reshape(shape_b)
            out = np.frombuffer(got.tobytes(), dtype="<f8").reshape(got.shape)
            if out.tobytes() != seq_matmul(np, a, b).tobytes():
                errors.append(f"{label}: not bit-equal to the k-ordered oracle")
            if not np.allclose(out, a @ b, rtol=1e-9, atol=1e-12):
                errors.append(f"{label}: outside tolerance of numpy matmul")

        for r, ((m, k, n), a, b) in enumerate(self.inputs["small"]):
            got = self.device_out[r]
            host = matmul_naive(*self.small[r])
            if got is None or got.tobytes() != host.tobytes():
                errors.append(f"device request {r}: differs from host matmul_naive")
            check(f"device request {r}", got, a, b, (m, k), (k, n))
        for i, (n, variant, a, b) in enumerate(self.inputs["large"]):
            check(f"{variant} {n}x{n} #{i}", self.large_out[i], a, b, (n, n), (n, n))
        for i, (n, a, b) in enumerate(self.inputs["sched"]):
            check(f"matmul_work {n}x{n} #{i}", self.sched_out[i], a, b, (n, n), (n, n))
            task = self.sched_tasks[i]
            if task is None or task.consumed_cycles != ALLOC_CYCLES + n ** 3:
                errors.append(f"matmul_work #{i}: cycle count breaks the cost model")
        return errors

    def digest(self) -> str:
        h = hashlib.sha256()
        for t in (*self.device_out, *self.large_out, *self.sched_out):
            h.update(t.tobytes() if t is not None else b"-")
        for task in self.sched_tasks:
            h.update(f"{task.id}:{task.consumed_cycles}:{task.priority};".encode()
                     if task is not None else b"-")
        return h.hexdigest()
