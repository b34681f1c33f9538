"""Runnable acceptance checks, one per subsystem property bundle.

Each check pairs the implementation with an independent oracle: an
index-arithmetic triple loop for the multiply paths, a brute-force bitmap
scan for the allocator, a stable sort for the scheduler queue, closed forms
for the Beta and smoothing updates, and a direct path interpreter for
canonicalization. `neurokernel selftest` prints one pass/fail line per
check and exits nonzero if any fails.
"""

from __future__ import annotations

import itertools
import math
import time
import tracemalloc
from array import array
from dataclasses import dataclass
from random import Random

from .accel import AccelDevice, AccelOp, AccelTask
from .compute import INT64_MAX, INT64_MIN, Opcode, simple_compute
from .errors import (
    ChecksumMismatch,
    InvalidArgument,
    OutOfMemory,
    Overflow,
    ResourceConsumed,
)
from .mempool import BlockPool, PoolConfig
from .orchestrator.cluster import Cluster, Liveness
from .orchestrator.envelope import MessageEnvelope, QoS, decode, encode
from .orchestrator.fusion import Modality
from .orchestrator.runner import DEMO_SCENARIO, parse_scenario, run_scenario
from .rabab.engine import RababEngine, cosine_similarity
from .rabab.paths import DrawPixel, Identity, Translate, canonicalize_path, paths_equivalent
from .scheduler import MlScheduler, MlTask, SchedulerConfig, TaskState, cycles_work, matmul_work
from .tensor import MatmulConfig, Tensor, matmul_blocked, matmul_naive, matmul_parallel


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


# -- compute ----------------------------------------------------------------


def check_compute(seed: int = 0) -> str:
    rng = Random(seed)
    for _ in range(2000):
        a = rng.randint(-(2**31), 2**31)
        b = rng.randint(-(2**31), 2**31)
        _require(
            simple_compute(a, b, Opcode.ADD) == simple_compute(b, a, Opcode.ADD),
            f"addition must commute for {a}, {b}",
        )
        if b != 0:
            q = simple_compute(a, b, Opcode.DIVIDE)
            trunc_mod = int(math.fmod(a, b))  # exact for these magnitudes
            _require(
                simple_compute(q, b, Opcode.MULTIPLY) == a - trunc_mod,
                f"divide/multiply must reconstruct a - (a mod b) for {a}, {b}",
            )
    for code in range(4, 256):
        try:
            simple_compute(1, 1, code)
        except InvalidArgument:
            continue
        raise AssertionError(f"opcode {code} must be rejected")
    for args in ((INT64_MAX, 1, Opcode.ADD), (INT64_MIN, -1, Opcode.DIVIDE)):
        try:
            simple_compute(*args)
        except Overflow:
            continue
        raise AssertionError(f"{args} must overflow")
    return "2000 random pairs, opcodes 4..255 rejected, boundary overflow checked"


# -- criterion 1: matmul oracle equivalence ----------------------------------


def _reference_matmul(a: Tensor, b: Tensor) -> bytes:
    """Flat-index triple loop, k innermost; shares no code with the tensor kernel."""
    (m, kk), n = a.shape, b.shape[1]
    ad, bd = a.tolist(), b.tolist()
    out = []
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(kk):
                acc += ad[i * kk + p] * bd[p * n + j]
            out.append(acc)
    return Tensor((m, n), out).tobytes()


# k either side of the tensor kernel's 64-wide slices of the inner dimension.
_SEAM_SHAPES = ((3, 64, 5), (3, 65, 5), (2, 130, 3))
# Above matmul_parallel's cutoff, in uneven bands: the worker-process path.
_POOL_SHAPE = (65, 65, 65)


def check_matmul(seed: int = 0) -> str:
    rng = Random(seed)
    block_sizes = (1, 2, 3, 8, 64)
    pairs = 200
    random_shapes = ((rng.randint(1, 16) for _ in range(3)) for _ in range(pairs))
    for m, k, n in itertools.chain(random_shapes, _SEAM_SHAPES):
        a = Tensor.random((m, k), rng)
        b = Tensor.random((k, n), rng)
        oracle = _reference_matmul(a, b)
        _require(matmul_naive(a, b).tobytes() == oracle, f"naive diverged on {m}x{k}x{n}")
        for bs in block_sizes:
            got = matmul_blocked(a, b, MatmulConfig(block_size=bs)).tobytes()
            _require(got == oracle, f"blocked(bs={bs}) diverged on {m}x{k}x{n}")
        for workers in range(1, 9):
            got = matmul_parallel(a, b, MatmulConfig(worker_count=workers)).tobytes()
            _require(got == oracle, f"parallel(w={workers}) diverged on {m}x{k}x{n}")
        results: list[Tensor] = []
        list(matmul_work(a, b, on_result=results.append)(None))  # drive every step directly
        _require(results[0].tobytes() == oracle, f"matmul_work diverged on {m}x{k}x{n}")
    m, k, n = _POOL_SHAPE
    a, b = Tensor.random((m, k), rng), Tensor.random((k, n), rng)
    oracle = _reference_matmul(a, b)
    for workers in (8, 2):  # the 2-band product runs on workers the 8-band one started
        got = matmul_parallel(a, b, MatmulConfig(worker_count=workers)).tobytes()
        _require(got == oracle, f"parallel(w={workers}) diverged on {m}x{k}x{n}")
    return f"{pairs} random pairs bit-identical across 5 block sizes and 8 worker counts"


# -- criterion 2: allocator soundness -----------------------------------------


def _scan_first_fit(bits: tuple[bool, ...], n_blocks: int, align: int = 1) -> int | None:
    """Brute-force lowest adequate run; the oracle the pool must agree with."""
    start = 0
    while start + n_blocks <= len(bits):
        if align > 1 and start % align:
            start += align - (start % align)
            continue
        if not any(bits[start : start + n_blocks]):
            return start
        start += 1
    return None


def _allocator_run(seed: int, op_count: int, check: bool) -> list:
    cfg = PoolConfig(pool_bytes=64 * 4096, block_bytes=4096, large_page_classes=(4 * 4096,))
    pool = BlockPool(cfg)
    rng = Random(seed)
    live: list = []
    trace: list = []
    for _ in range(op_count):
        roll = rng.random()
        bits = pool.bitmap() if check else ()
        if roll < 0.55 or not live:
            n = rng.randint(1, 4)
            expected = _scan_first_fit(bits, n) if check else None
            try:
                handle = pool.alloc(n)
            except OutOfMemory:
                trace.append(("alloc", n, "oom"))
                if check:
                    _require(expected is None, f"pool said OOM but a run of {n} exists")
                continue
            trace.append(("alloc", n, handle.first_block))
            live.append(handle)
            if check:
                _require(expected == handle.first_block, "placement is not first-fit")
                _require(
                    pool.read(handle) == bytes(n * 4096),
                    "fresh allocation must read as zeros",
                )
                pool.write(handle, 0, bytes([handle.first_block % 255 + 1]) * 16)
        elif roll < 0.85:
            idx = rng.randrange(len(live))
            handle = live.pop(idx)
            pool.free(handle)
            trace.append(("free", handle.first_block, handle.n_blocks))
        else:
            align = 4
            expected = _scan_first_fit(bits, 4, align) if check else None
            try:
                handle = pool.alloc_large_page(4 * 4096)
            except OutOfMemory:
                trace.append(("lpage", 4, "oom"))
                if check:
                    _require(expected is None, "pool said OOM but an aligned run exists")
                continue
            trace.append(("lpage", 4, handle.first_block))
            live.append(handle)
            if check:
                _require(expected == handle.first_block, "large page is not aligned first-fit")
                _require(handle.first_block % align == 0, "large page is misaligned")
        if check:
            bits = pool.bitmap()
            ranges = sorted((h.first_block, h.n_blocks) for h in live)
            for (f1, n1), (f2, _n2) in zip(ranges, ranges[1:]):
                _require(f1 + n1 <= f2, "live handles overlap")
            _require(
                sum(bits) == sum(n for _, n in ranges),
                "bitmap popcount diverged from the ledger",
            )
            _require(
                pool.free_blocks == pool.total_blocks - sum(n for _, n in ranges),
                "conservation violated",
            )
    return trace


def check_allocator(seed: int = 0) -> str:
    ops = 10_000
    trace = _allocator_run(seed, ops, check=True)
    replay = _allocator_run(seed, ops, check=False)
    _require(trace == replay, "replaying the op sequence changed placements")
    return f"{ops} randomized ops: non-overlap, conservation, zero-fill, first-fit, OOM oracle"


# -- criterion 3: zero-copy device staging ------------------------------------


def check_zero_copy(seed: int = 0) -> str:
    """A staging call's only payload-sized allocation is its destination, as tracemalloc counts it:
    write_tensor allocates under 4 KiB, read_tensor its result's storage and under 4 KiB more.
    Payloads are 8-128 KiB."""
    rng = Random(seed)
    entries = array("d", Tensor.random((128, 128), rng).tolist())
    dev = AccelDevice()
    region = dev.allocate(8 * len(entries))
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        for i in range(250):
            shape = (rng.randint(32, 128), rng.randint(32, 128))
            t, peaks = Tensor(shape, entries[: math.prod(shape)]), []
            for stage in (lambda: dev.write_tensor(region, t), lambda: dev.read_tensor(region, shape)):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                got = stage()
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            _require(got.tobytes() == t.tobytes(), f"round trip {i} corrupted")
            _require(peaks[0] < 4096 and peaks[1] < 8 * t.size + 4096,
                     f"staging {8 * t.size} bytes allocated {peaks[0]} to write, {peaks[1]} to read")
    finally:
        if not tracing:
            tracemalloc.stop()
    return "250 device round trips bit-exact; write_tensor and read_tensor allocate no payload copy"


# -- criterion 4: accelerator/host equality -----------------------------------


def _on_device(dev: AccelDevice, a: Tensor, b: Tensor) -> bytes:
    """a times b staged into dev, run there and read back; the regions are freed after."""
    (m, k), n = a.shape, b.shape[1]
    regions = ra, rb, rout = dev.allocate(8 * m * k), dev.allocate(8 * k * n), dev.allocate(8 * m * n)
    dev.write_tensor(ra, a)
    dev.write_tensor(rb, b)
    dev.execute_next()  # empty queue is a no-op
    dev.submit(AccelTask(AccelOp.MATMUL, ra, (m, k), rb, (k, n), rout))
    dev.execute_next()
    product = dev.read_tensor(rout, (m, n)).tobytes()
    for region in regions:
        dev.free(region)
    return product


def check_accel(seed: int = 0) -> str:
    rng = Random(seed)
    dev = AccelDevice()
    for n in range(1, 9):
        a, b = Tensor.identity(n), Tensor.random((n, n), rng)
        host = matmul_naive(a, b).tobytes()
        _require(_on_device(dev, a, b) == host, f"identity matmul n={n} diverged from host")
    for _ in range(20):
        m, k, n = (rng.randint(1, 8) for _ in range(3))
        a, b = Tensor.random((m, k), rng), Tensor.random((k, n), rng)
        host = matmul_naive(a, b).tobytes()
        got = _on_device(dev, a, b)
        _require(got == host, f"random matmul {m}x{k}x{n} diverged from host")
    x, y, out = dev.allocate(8), dev.allocate(8), dev.allocate(8)
    dev.write_tensor(x, Tensor.vector([1.0]))
    dev.write_tensor(y, Tensor.vector([2.0]))
    submitted = [
        dev.submit(AccelTask(AccelOp.ELEMWISE_SUM, x, (1,), y, (1,), out))
        for _ in range(100)
    ]
    executed = [dev.execute_next() for _ in range(100)]
    _require(executed == submitted, "completion order broke FIFO")
    return "identity and random matmuls equal host bit-exactly; 100-deep FIFO preserved"


# -- criterion 5: scheduler ----------------------------------------------------


def check_scheduler(seed: int = 0) -> str:
    rng = Random(seed)
    for round_no in range(1000):
        sched = MlScheduler()
        count = rng.randint(1, 16)
        tasks = []
        for i in range(count):
            task = MlTask(f"t{round_no}-{i}", cycles_work(1), priority=rng.randint(0, 5))
            sched.enqueue(task)
            tasks.append(task)
        oracle = [t.id for t in sorted(tasks, key=lambda t: t.priority)]  # stable sort
        got = []
        while True:
            task = sched.dequeue()
            if task is None:
                break
            got.append(task.id)
        _require(got == oracle, f"dequeue order diverged from the sort oracle: {got}")

    # Deprioritization must fire exactly when the cost-model replay says so.
    for _ in range(50):
        quantum = rng.randint(2, 20)
        threshold = rng.randint(1, 10) * quantum + rng.randint(0, quantum - 1)
        total = threshold + rng.randint(1, 3 * quantum)
        config = SchedulerConfig(
            deprioritize_threshold=threshold, quantum=quantum, batch_size=1
        )
        sched = MlScheduler(config)
        task = MlTask("hog", cycles_work(total), priority=10)
        sched.enqueue(task)
        fired_at = None
        slice_no = 0
        while task.state is not TaskState.DONE:
            sched.batch_execute(1)
            slice_no += 1
            if fired_at is None and task.priority != 10:
                fired_at = slice_no
        consumed = 0
        expected = None
        replay_slice = 0
        while consumed < total:  # independent replay of the cost model
            consumed = min(total, consumed + quantum)
            replay_slice += 1
            if expected is None and consumed > threshold:
                expected = replay_slice
        _require(
            fired_at == expected,
            f"penalty fired at slice {fired_at}, cost-model replay says {expected}",
        )
        _require(task.priority == 20, "penalty must be +10, applied once")

    # 100 randomized preemption points, every FP context restored bit-exactly.
    observations: list[tuple[list[float], list[float]]] = []

    def fp_work(values: list[float], steps: int):
        def work(fp):
            fp[: len(values)] = values
            for _ in range(steps):
                yield 1
            observations.append((values, list(fp[: len(values)])))

        return work

    for round_no in range(100):
        observations.clear()
        sched = MlScheduler(SchedulerConfig(quantum=rng.randint(1, 5)))
        for i in range(rng.randint(2, 5)):
            values = [rng.uniform(-1e6, 1e6) for _ in range(16)]
            sched.enqueue(MlTask(f"fp{i}", fp_work(values, rng.randint(1, 20))))
        while len(sched):
            sched.batch_execute(4)
        _require(len(observations) >= 2, "schedule must actually interleave tasks")
        for written, seen in observations:
            _require(written == seen, "FP context round trip lost bits")
    return "1000 queue orders vs sort oracle; threshold crossings replayed; FP contexts exact"


# -- criterion 6: orchestrator --------------------------------------------------


def check_orchestrator(seed: int = 0) -> str:
    rng = Random(seed)
    for _ in range(10_000):
        env = MessageEnvelope(
            msg_id=rng.randrange(2**64),
            source=rng.randrange(2**32),
            dest=rng.randrange(2**32),
            payload=bytes(rng.randrange(256) for _ in range(rng.randint(0, 64))),
            qos=QoS(rng.randrange(2)),
        )
        _require(decode(encode(env)) == env, "codec round trip is not the identity")

    payload = bytes(range(64))
    frame = encode(MessageEnvelope(msg_id=7, source=1, dest=2, payload=payload))
    header = len(frame) - len(payload) - 4
    detected = 0
    for byte_index in range(64):
        for bit in range(8):
            corrupt = bytearray(frame)
            corrupt[header + byte_index] ^= 1 << bit
            try:
                decode(bytes(corrupt))
            except ChecksumMismatch:
                detected += 1
    _require(detected == 512, f"only {detected}/512 single-bit flips detected")

    timeout = 3
    cluster = Cluster(timeout_ticks=timeout)
    cluster.add_node(1, {Modality.VISION})
    cluster.add_node(2, {Modality.VISION})
    for _ in range(5):
        cluster.heartbeat_tick()
    silence_tick = cluster.tick
    cluster.silence(1)
    failed_at = None
    while failed_at is None and cluster.tick < silence_tick + 3 * timeout:
        cluster.heartbeat_tick()
        newly = cluster.detect_failures()
        if cluster.tick <= silence_tick + 2 * timeout:
            _require(
                cluster.nodes[1].liveness is not Liveness.FAILED,
                f"node failed early at tick {cluster.tick}",
            )
        if 1 in newly:
            failed_at = cluster.tick
    _require(
        failed_at == silence_tick + 2 * timeout + 1,
        f"node failed at {failed_at}, expected {silence_tick + 2 * timeout + 1}",
    )

    cluster2 = Cluster()
    cluster2.add_node(1, {Modality.VISION, Modality.SENSOR})
    cluster2.add_node(2, {Modality.VISION})
    cluster2.heartbeat_tick()
    cluster2.submit_input(Modality.VISION, "person")
    cluster2.process_step()
    chk = cluster2.checkpoint_node(1)
    cluster2.submit_input(Modality.SENSOR, "3m")
    cluster2.process_step()
    cluster2.nodes[1].push_metrics(0.9, 0.9, 0.9)
    restored = cluster2.restore_node(chk)
    _require(restored.snapshot() == chk.snapshot, "restore is not a byte-exact round trip")

    events, summary, action = run_scenario(parse_scenario(DEMO_SCENARIO), ticks=8, seed=seed)
    _require(
        summary == "A person is standing 3 meters away, asking for help",
        f"unexpected fused summary {summary!r}",
    )
    _require(
        action == "Approach the person and respond verbally",
        f"unexpected decision {action!r}",
    )
    _require(any(e[1] == "processed" for e in events), "demo produced no events")
    return "10000 codec round trips; 512/512 flips caught; exact failure tick; byte-equal restore; demo strings match"


# -- criterion 7: rabab -----------------------------------------------------------


def check_rabab(seed: int = 0) -> str:
    rng = Random(seed)

    engine = RababEngine()
    detector = engine.register_predicate("even-number-detector", lambda n: n % 2 == 0)
    confidences = [detector.confidence]
    for _ in range(50):
        sample = rng.randrange(0, 1000)
        engine.evolve_predicate(detector, sample, sample % 2 == 0)
        confidences.append(detector.confidence)
    _require(detector.confidence == 51.0 / 52.0, "50 correct observations must give 51/52")
    _require(
        all(a <= b for a, b in zip(confidences, confidences[1:])),
        "confidence sequence must be monotone under correct labels",
    )

    for _ in range(100):
        engine2 = RababEngine()
        target = rng.random()
        steps = 0
        w = 0.0
        while steps < 100 and abs(w - target) >= 1e-3:
            w = engine2.graph.evolve("subject", "object", target)
            steps += 1
        _require(abs(w - target) < 1e-3, f"no convergence to {target} in 100 steps")

    for _ in range(1000):
        dim = rng.randint(2, 16)
        a = [rng.uniform(-10, 10) for _ in range(dim)]
        b = [rng.uniform(-10, 10) for _ in range(dim)]
        if all(x == 0 for x in a) or all(x == 0 for x in b):
            continue
        ab, ba = cosine_similarity(a, b), cosine_similarity(b, a)
        _require(ab == ba, "cosine similarity must be symmetric")
        _require(-1.0 <= ab <= 1.0, "cosine similarity must stay in [-1, 1]")
        scale = rng.uniform(0.1, 100.0)
        scaled = cosine_similarity(a, [scale * y for y in b])
        _require(abs(scaled - ab) <= 1e-9, "cosine must be invariant to positive scaling")

    double_consumes = 0
    for _ in range(1000):
        engine3 = RababEngine()
        resources = [engine3.allocate_linear(f"payload-{i}") for i in range(rng.randint(1, 6))]
        consumed = set()
        for _ in range(rng.randint(1, 12)):
            res = rng.choice(resources)
            if res in consumed:
                try:
                    engine3.consume_linear(res)
                except ResourceConsumed:
                    double_consumes += 1
                    continue
                raise AssertionError("double consume must raise ResourceConsumed")
            _require(engine3.consume_linear(res) == res.payload, "payload lost")
            consumed.add(res)
        _require(
            engine3.leaked_resources() == len(resources) - len(consumed),
            "leak count must equal allocations minus consumptions",
        )
    _require(double_consumes > 0, "programs must actually exercise double consumes")

    detail = _check_canonicalization()
    return (
        "confidence 51/52 exact and monotone; graph converges; cosine properties hold; "
        f"{double_consumes} double-consumes all faulted; {detail}"
    )


_SENTINEL = (7, 7, 7)
_PALETTE = ((255, 0, 0), (0, 0, 255))
_PATH_ALPHABET = (
    Identity(),
    Translate(1, 0),
    Translate(0, 1),
    DrawPixel(0, 0, _PALETTE[0]),
    DrawPixel(0, 0, _PALETTE[1]),
    DrawPixel(4, 4, _PALETTE[1]),
)


def _effect_signature(path, width: int = 8, height: int = 8):
    """Apply the path to uniform canvases by direct interpretation.

    Independent of canonicalize_path: equal signatures here means equal
    effect on every framebuffer state (the sentinel canvas exposes the
    drawn set, the palette canvases the overwrite behavior).
    """
    canvases = []
    for base in (_SENTINEL, *_PALETTE):
        grid = [[base] * width for _ in range(height)]
        tx = ty = 0
        for op in path:
            if isinstance(op, Translate):
                tx += op.dx
                ty += op.dy
            elif isinstance(op, DrawPixel):
                grid[op.y + ty][op.x + tx] = op.color
        canvases.append(tuple(tuple(row) for row in grid))
    return tuple(canvases)


def _check_canonicalization() -> str:
    by_form: dict = {}
    by_sig: dict = {}  # one representative path per effect
    total = 0
    for length in range(5):
        for path in itertools.product(_PATH_ALPHABET, repeat=length):
            total += 1
            form = canonicalize_path(path, width=8, height=8)
            sig = _effect_signature(path)
            _require(
                _effect_signature(form) == sig,
                f"canonical form of {path!r} changed the effect",
            )
            _require(
                canonicalize_path(form, width=8, height=8) == form,
                "canonicalization must be idempotent",
            )
            if form in by_form:
                _require(by_form[form] == sig, f"same form, different effect: {path!r}")
            else:
                by_form[form] = sig
            if sig in by_sig:
                _require(paths_equivalent(path, by_sig[sig], width=8, height=8),
                         f"same effect, not equivalent: {path!r}")
            else:
                by_sig[sig] = path
    return f"canonicalization agrees with the effect oracle on {total} paths"


CHECKS = (
    ("compute-checked-arithmetic", check_compute),
    ("matmul-oracle-equivalence", check_matmul),
    ("allocator-soundness", check_allocator),
    ("zero-copy-staging", check_zero_copy),
    ("accelerator-host-equality", check_accel),
    ("scheduler-order-and-contexts", check_scheduler),
    ("orchestrator-protocols", check_orchestrator),
    ("rabab-reasoning", check_rabab),
)


def run_all(seed: int = 0) -> list[CheckResult]:
    results = []
    for name, check in CHECKS:
        start = time.perf_counter()
        try:
            detail = check(seed)
            passed = True
        except AssertionError as exc:
            detail = str(exc)
            passed = False
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
