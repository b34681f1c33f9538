"""``jobs``: a stream of jobs through one BlockPool and one MlScheduler.

A step is one scheduling round: admit jobs, run ``batch_execute(4)``, then
free the blocks of the jobs that finished. A job is admitted when its
allocation succeeds and fewer than LIVE_CAP jobs are live; an
``OutOfMemory`` on admission is an expected refusal and the job stays at
the head of its queue for the next round. Large-page jobs wait in a queue
of their own, tried once per round before the small jobs, so a large page
waiting for an aligned run does not hold up the small jobs behind it (and
rounds do not split into cheap blocked rounds and costly ones).
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import deque
from random import Random

N_JOBS = 4000
LIVE_CAP = 450
ADMIT_PER_ROUND = 4
BATCH = 4
QUANTUM = 400
THRESHOLD = 1000
PENALTY = 10
CHUNK = 50
MIN_CYCLES, MAX_CYCLES = 50, 2000
SMALL_BLOCKS = (1, 12)
LARGE_PAGE_SHARE = 0.05
LARGE_PAGE_BYTES = 64 * 1024
BLOCK_BYTES = 4096
POOL_BLOCKS = 2048
# Every ORACLE_EVERY-th admission attempt snapshots the bitmap (outside the
# step time, packed one byte per block so the snapshots stay small next to
# the pool) so the placement or refusal can be replayed by brute force.
ORACLE_EVERY = 16


def generate(seed: int, scale: float = 1.0) -> dict:
    rng = Random(f"jobs-{seed}")
    n_jobs = max(16, round(N_JOBS * scale))
    large_blocks = LARGE_PAGE_BYTES // BLOCK_BYTES
    pool_blocks = max(4 * large_blocks, round(POOL_BLOCKS * scale / large_blocks) * large_blocks)
    jobs = []
    for _ in range(n_jobs):
        large = rng.random() < LARGE_PAGE_SHARE
        blocks = large_blocks if large else rng.randint(*SMALL_BLOCKS)
        jobs.append((large, blocks, rng.randint(0, 15), rng.randint(MIN_CYCLES, MAX_CYCLES)))
    return {
        "jobs": jobs,
        "pool_blocks": pool_blocks,
        "live_cap": max(8, round(LIVE_CAP * scale)),
    }


def _first_fit(bitmap, n_blocks: int, align: int):
    """Brute-force reference: lowest aligned start of n free blocks, or None."""
    for start in range(0, len(bitmap) - n_blocks + 1, align):
        if not any(bitmap[start : start + n_blocks]):
            return start
    return None


def load(nk, inputs: dict) -> None:
    """Jobs become MlTasks in the workload: tasks carry run state, so each loop builds its own."""
    return None


class Workload:
    def __init__(self, nk, inputs: dict, loaded: None, tracer):
        from neurokernel.mempool import BlockPool, PoolConfig
        from neurokernel.scheduler import MlScheduler, MlTask, SchedulerConfig, cycles_work

        self.inputs = inputs
        self.tracer = tracer
        self.pool = BlockPool(PoolConfig(pool_bytes=inputs["pool_blocks"] * BLOCK_BYTES))
        self.sched = MlScheduler(SchedulerConfig(
            deprioritize_threshold=THRESHOLD, batch_size=BATCH, quantum=QUANTUM))
        self.tasks = [
            MlTask(job_id, cycles_work(cycles, CHUNK), priority=prio)
            for job_id, (_large, _blocks, prio, cycles) in enumerate(inputs["jobs"])
        ]
        self.OutOfMemory = nk.OutOfMemory
        self.KernelError = nk.KernelError

    def run(self) -> dict:
        tracer, pool, sched = self.tracer, self.pool, self.sched
        alloc = tracer.wrap("mempool.alloc", pool.alloc)
        alloc_large = tracer.wrap("mempool.alloc_large_page", pool.alloc_large_page)
        free = tracer.wrap("mempool.free", pool.free)
        enqueue = tracer.wrap("scheduler.enqueue", sched.enqueue)
        batch_execute = tracer.wrap("scheduler.batch_execute", sched.batch_execute)
        bitmap = pool.bitmap
        OutOfMemory, KernelError = self.OutOfMemory, self.KernelError
        clock = time.perf_counter_ns

        jobs, tasks, cap = self.inputs["jobs"], self.tasks, self.inputs["live_cap"]
        waiting_large = deque(j for j, job in enumerate(jobs) if job[0])
        waiting = deque(j for j, job in enumerate(jobs) if not job[0])
        live: dict[int, object] = {}
        live_blocks = 0
        log: list[tuple] = []       # ("a", job, first, n) / ("f", job) in program order
        samples: list[tuple] = []   # (bitmap bytes, n_blocks, align, first or None)
        completed: list[int] = []
        steps: list[int] = []
        attempts = refusals = dispatches = depth_max = failed = 0
        occupancy_sum = 0

        first_step = clock()
        while waiting or waiting_large or live:
            tracer.begin_step(len(steps))
            t0 = clock()
            excluded = 0
            try:
                for queue, limit in ((waiting_large, 1), (waiting, ADMIT_PER_ROUND)):
                    admitted = 0
                    while queue and admitted < limit and len(live) < cap:
                        job = queue[0]
                        large, n_blocks, _prio, _cycles = jobs[job]
                        attempts += 1
                        snap = None
                        if attempts % ORACLE_EVERY == 0:
                            t_pause = clock()
                            snap = bytes(bitmap())
                            excluded += clock() - t_pause
                        try:
                            handle = alloc_large(LARGE_PAGE_BYTES) if large else alloc(n_blocks)
                        except OutOfMemory:
                            refusals += 1
                            if snap is not None:
                                samples.append((snap, n_blocks, n_blocks if large else 1, None))
                            break
                        if snap is not None:
                            samples.append((snap, n_blocks, n_blocks if large else 1,
                                            handle.first_block))
                        queue.popleft()
                        live[job] = handle
                        live_blocks += handle.n_blocks
                        log.append(("a", job, handle.first_block, handle.n_blocks))
                        enqueue(tasks[job])
                        admitted += 1
                depth = len(sched)
                depth_max = max(depth_max, depth)
                done = batch_execute(BATCH)
                dispatches += min(BATCH, depth)
                for job in done:
                    handle = live.pop(job)
                    free(handle)
                    live_blocks -= handle.n_blocks
                    log.append(("f", job))
                completed.extend(done)
                occupancy_sum += live_blocks
            except KernelError:
                failed += 1
                steps.append(clock() - t0 - excluded)
                break
            steps.append(clock() - t0 - excluded)

        self.completed, self.log, self.samples = completed, log, samples
        n_steps = max(1, len(steps))
        self.counters = {
            "mempool.attempts": attempts,
            "mempool.oom_refusals": refusals,
            "mempool.alloc_useful_ratio": (attempts - refusals) / attempts if attempts else 0.0,
            "mempool.occupancy_mean": occupancy_sum / n_steps / self.pool.total_blocks,
            "scheduler.dispatches": dispatches,
            "scheduler.preemptions": dispatches - len(completed),
            "scheduler.deprioritized": sum(
                t.priority != prio for t, (_l, _b, prio, _c) in zip(tasks, jobs)),
            "scheduler.queue_depth_max": depth_max,
            "scheduler.sim_cycles": sched.perf.cpu_cycles,
        }
        return {"first_step_ns": first_step, "steps_ns": steps, "units": len(completed),
                "attempted": len(steps), "failed": failed}

    def verify(self) -> list[str]:
        """Check every output against oracles independent of the program."""
        errors = []
        jobs = self.inputs["jobs"]
        if sorted(self.completed) != list(range(len(jobs))):
            errors.append("not every job completed exactly once")
        for task, (_large, _blocks, prio, cycles) in zip(self.tasks, jobs):
            if task.consumed_cycles != cycles:
                errors.append(f"job {task.id} consumed {task.consumed_cycles} of {cycles} cycles")
            # Cycle feedback: penalized exactly when the budget crosses the threshold.
            expected = prio + PENALTY if cycles > THRESHOLD else prio
            if task.priority != expected:
                errors.append(f"job {task.id} ended at priority {task.priority}, expected {expected}")
        # Slices of QUANTUM cycles: a job needs cycles // QUANTUM + 1 dispatches.
        expected_dispatches = sum(c // QUANTUM + 1 for *_rest, c in jobs)
        if self.counters["scheduler.dispatches"] != expected_dispatches:
            errors.append(f"{self.counters['scheduler.dispatches']} dispatches, "
                          f"expected {expected_dispatches}")
        if self.counters["scheduler.sim_cycles"] != sum(c for *_rest, c in jobs):
            errors.append("perf counter disagrees with the summed cycle budgets")

        owner = bytearray(self.pool.total_blocks)
        spans = {}
        for event in self.log:
            if event[0] == "a":
                _, job, first, n_blocks = event
                large = jobs[job][0]
                if n_blocks != jobs[job][1] or (large and first % n_blocks):
                    errors.append(f"job {job} got a misplaced or missized run at {first}")
                if any(owner[first : first + n_blocks]):
                    errors.append(f"job {job} overlaps a live allocation at block {first}")
                owner[first : first + n_blocks] = b"\1" * n_blocks
                spans[job] = (first, n_blocks)
            else:
                first, n_blocks = spans.pop(event[1])
                owner[first : first + n_blocks] = bytes(n_blocks)
        if spans or any(owner):
            errors.append("the grant/free log leaves allocations live after the run")
        if self.pool.live_handles or self.pool.free_blocks != self.pool.total_blocks \
                or any(self.pool.bitmap()):
            errors.append("pool did not end fully free")

        for snap, n_blocks, align, got in self.samples:
            want = _first_fit(snap, n_blocks, align)
            if want != got:
                errors.append(f"first-fit of {n_blocks} blocks: pool gave {got}, scan gives {want}")
        return errors

    def digest(self) -> str:
        placements = [e for e in self.log if e[0] == "a"]
        record = {
            "completion_order": self.completed,
            "final_priorities": [t.priority for t in self.tasks],
            "placements": placements,
            "refusals": self.counters["mempool.oom_refusals"],
        }
        return hashlib.sha256(json.dumps(record).encode()).hexdigest()
