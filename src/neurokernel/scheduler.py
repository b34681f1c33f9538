"""Priority scheduler for simulated ML tasks.

Lower priority value runs earlier; equal priorities run in arrival order.
The queue is a binary heap keyed on (priority, arrival sequence), and a
task's priority is read when it enters the queue: changing it while the
task is queued does not move the task.
Task work is a generator that yields the simulated cycle cost of each step
(the cost model: one cycle per scalar multiply-add, ten per allocation).
A task is preempted at the first step boundary on or past the quantum, its
floating-point context snapshotted and restored bit-exactly on resume.
Tasks whose consumed cycles cross the deprioritization threshold are
penalized once, before a preempted task re-enters the queue.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from .errors import InvalidArgument, TaskFault
from .tensor import Tensor, matmul_naive, validate_matmul_shapes

DEFAULT_PRIORITY = 10
DEPRIORITIZE_PENALTY = 10
FP_SLOTS = 16

MULADD_CYCLES = 1
ALLOC_CYCLES = 10


class TaskState(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    PREEMPTED = "preempted"
    DONE = "done"
    FAULTED = "faulted"


@dataclass(frozen=True)
class SchedulerConfig:
    deprioritize_threshold: int = 1_000_000
    batch_size: int = 4
    quantum: int = 10_000

    def __post_init__(self):
        for name in ("deprioritize_threshold", "batch_size", "quantum"):
            if getattr(self, name) < 1:
                raise InvalidArgument(f"{name} must be positive")


class PerfCounter:
    """Simulated CPU-cycle counter; never decreases except on reset."""

    def __init__(self):
        self.cpu_cycles = 0

    def add(self, cycles: int) -> None:
        self.cpu_cycles += cycles

    def reset(self) -> None:
        self.cpu_cycles = 0


class ExecContext:
    """What a work generator sees while running: the live FP register file."""

    __slots__ = ("fp", "task")

    def __init__(self, fp: list[float], task: "MlTask"):
        self.fp = fp
        self.task = task


WorkFn = Callable[[ExecContext], Iterator[int]]


class MlTask:
    """Schedulable unit of work with a 16-slot floating-point context."""

    def __init__(self, task_id, work: WorkFn, priority: int = DEFAULT_PRIORITY):
        self.id = task_id
        self.work = work
        self.priority = priority
        self.state = TaskState.QUEUED
        self.consumed_cycles = 0
        self.fp_context: list[float] = [0.0] * FP_SLOTS
        self._gen: Iterator[int] | None = None
        self._penalized = False

    def __repr__(self) -> str:
        return f"MlTask({self.id!r}, prio={self.priority}, {self.state.value})"


def cycles_work(total_cycles: int, chunk: int = 1) -> WorkFn:
    """Synthetic work burning a fixed cycle budget in chunk-sized steps."""
    if total_cycles < 1 or chunk < 1:
        raise InvalidArgument("cycles_work needs positive total and chunk")

    def work(ctx: ExecContext) -> Iterator[int]:
        remaining = total_cycles
        while remaining > 0:
            step = min(chunk, remaining)
            remaining -= step
            yield step

    return work


def matmul_work(a: Tensor, b: Tensor, on_result=None) -> WorkFn:
    """Matrix multiply as scheduler work, priced by the documented cost model.

    Shapes are checked when the work is built. The work costs ALLOC_CYCLES
    for the output allocation, then k multiply-adds per output element; its
    final step computes the product with matmul_naive and hands it to
    on_result, or raises Overflow.
    """
    validate_matmul_shapes(a, b)
    (m, kk), n = a.shape, b.shape[1]

    def work(ctx: ExecContext) -> Iterator[int]:
        yield ALLOC_CYCLES
        for _ in range(m * n):
            yield kk * MULADD_CYCLES
        product = matmul_naive(a, b)
        if on_result is not None:
            on_result(product)

    return work


class MlScheduler:
    """Priority queue with FIFO ties, batch execution, and FP-context isolation."""

    def __init__(self, config: SchedulerConfig | None = None):
        self.config = config or SchedulerConfig()
        self.perf = PerfCounter()
        self.fp_registers: list[float] = [0.0] * FP_SLOTS
        self._queue: list[tuple[int, int, MlTask]] = []  # heap of (priority, seq, task)
        self._queued: set = set()  # ids of the tasks in _queue
        self._seqs = itertools.count()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._queue)

    # -- queue ------------------------------------------------------------

    def enqueue(self, task: MlTask) -> None:
        """Queue a fresh task; its priority is read now, not when it is dequeued."""
        if task.state is not TaskState.QUEUED:
            raise InvalidArgument(
                f"only fresh tasks can be enqueued, task {task.id!r} is {task.state.value}"
            )
        if not isinstance(task.priority, int):
            raise InvalidArgument(f"task {task.id!r} priority must be an int, got {task.priority!r}")
        self._push((task.priority, next(self._seqs), task))

    def _push(self, entry: tuple[int, int, MlTask]) -> None:
        """Queue a task under its (priority, seq) key; the seq breaks ties FIFO."""
        task = entry[2]
        with self._lock:
            try:
                queued = task.id in self._queued
            except TypeError:
                raise InvalidArgument(f"task id {task.id!r} is not hashable") from None
            if queued:
                raise InvalidArgument(f"task id {task.id!r} is already queued")
            heapq.heappush(self._queue, entry)
            self._queued.add(task.id)

    def dequeue(self) -> MlTask | None:
        """Pop the lowest-priority-value task, FIFO among ties; None if empty."""
        with self._lock:
            if not self._queue:
                return None
            task = heapq.heappop(self._queue)[2]
            self._queued.discard(task.id)
            return task

    # -- execution --------------------------------------------------------

    def batch_execute(self, n: int) -> list:
        """Dequeue up to n tasks and give each one timeslice.

        Tasks that finish contribute their ids (in completion order); tasks
        that hit the quantum are preempted, deprioritized if they crossed
        the threshold, and re-queued. An empty queue yields an empty list.

        If a task's work raises or yields a cost below one cycle, that task
        is left FAULTED, the tasks of the batch not yet run go back under
        their original (priority, seq) keys, and TaskFault is raised from
        the original exception, carrying the ids completed before it.
        """
        if n < 1:
            raise InvalidArgument(f"batch size must be >= 1, got {n}")
        with self._lock:
            batch = [heapq.heappop(self._queue) for _ in range(min(n, len(self._queue)))]
            self._queued.difference_update(task.id for _, _, task in batch)
        completed = []
        for i, (_, _, task) in enumerate(batch):
            try:
                done = self._run_slice(task)
            except Exception as exc:  # work is caller code: any failure faults the task
                task.state = TaskState.FAULTED
                task._gen = None
                for entry in batch[i + 1:]:
                    self._push(entry)
                raise TaskFault(f"task {task.id!r} faulted: {exc!r}", task.id, completed) from exc
            self.adjust_scheduling(task)
            if done:
                completed.append(task.id)
            else:
                self._push((task.priority, next(self._seqs), task))
        return completed

    def _run_slice(self, task: MlTask) -> bool:
        if task.state is TaskState.QUEUED:
            task._gen = task.work(ExecContext(self.fp_registers, task))
            self.fp_registers[:] = task.fp_context  # fresh context load
            task.state = TaskState.RUNNING
        elif task.state is TaskState.PREEMPTED:
            self.restore_fp_context(task)
            task.state = TaskState.RUNNING
        else:
            raise InvalidArgument(f"task {task.id!r} is not runnable ({task.state.value})")

        used = 0
        while True:
            try:
                cost = next(task._gen)
            except StopIteration:
                task.fp_context = list(self.fp_registers)
                task.state = TaskState.DONE
                return True
            if cost < 1:
                raise InvalidArgument("work steps must consume at least one cycle")
            task.consumed_cycles += cost
            self.perf.add(cost)
            used += cost
            if used >= self.config.quantum:
                self.save_fp_context(task)
                task.state = TaskState.PREEMPTED
                return False

    def adjust_scheduling(self, task: MlTask) -> int:
        """Cycle-feedback deprioritization, applied once per threshold crossing."""
        if not task._penalized and task.consumed_cycles > self.config.deprioritize_threshold:
            task.priority += DEPRIORITIZE_PENALTY
            task._penalized = True
        return task.priority

    # -- floating-point context -------------------------------------------

    def save_fp_context(self, task: MlTask) -> None:
        if task.state is not TaskState.RUNNING:
            raise InvalidArgument(
                f"can only save the context of a running task, {task.id!r} is {task.state.value}"
            )
        task.fp_context = list(self.fp_registers)

    def restore_fp_context(self, task: MlTask) -> None:
        if task.state is not TaskState.PREEMPTED:
            raise InvalidArgument(
                f"can only restore a preempted task, {task.id!r} is {task.state.value}"
            )
        self.fp_registers[:] = task.fp_context

    def reset(self) -> None:
        with self._lock:
            self._queue.clear()
            self._queued.clear()
            self._seqs = itertools.count()
        self.perf.reset()
        self.fp_registers[:] = [0.0] * FP_SLOTS
