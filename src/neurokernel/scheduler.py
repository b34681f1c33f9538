"""Priority scheduler for simulated ML tasks.

Lower priority value runs earlier; equal priorities run in arrival order.
The queue is a binary heap keyed on (priority, arrival sequence), and a
task's priority is read when it enters the queue: changing it while the
task is queued does not move the task.
Task work is a generator that yields the simulated cycle cost of each step
(the cost model: one cycle per scalar multiply-add, ten per allocation).
A task is preempted at the first step boundary on or past the quantum, its
floating-point context snapshotted and restored bit-exactly on resume. A
timeslice is one loop over the generator; the cycles it used are added to
the task's consumed_cycles and the perf counter when the slice ends, also
when a step faults, so a fault still counts every step yielded before it.
Tasks whose consumed cycles cross the deprioritization threshold are
penalized once, before a preempted task re-enters the queue.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from .errors import InvalidArgument, TaskFault, check_count, check_type, shown
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
            check_count(getattr(self, name), name)


class PerfCounter:
    """Simulated CPU-cycle counter; it never decreases: only a timeslice's end adds to it."""

    def __init__(self):
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
    """Synthetic work burning a fixed cycle budget in chunk-sized steps, the last one short."""
    full, rest = divmod(check_count(total_cycles, "total_cycles"), check_count(chunk, "chunk"))
    tail = (rest,) if rest else ()

    def work(ctx: ExecContext) -> Iterator[int]:
        return itertools.chain(itertools.repeat(chunk, full), tail)

    return work


def matmul_work(a: Tensor, b: Tensor, on_result=None) -> WorkFn:
    """Matrix multiply as scheduler work, priced by the documented cost model.

    Shapes are checked when the work is built. The work costs ALLOC_CYCLES
    for the output allocation, then k multiply-adds per output element; its
    final step computes the product with matmul_naive and hands it to
    on_result, or raises Overflow.
    """
    validate_matmul_shapes(a, b)
    check_type(on_result, (Callable, type(None)), "on_result")
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
        self.config = (SchedulerConfig() if config is None
                       else check_type(config, SchedulerConfig, "scheduler config"))
        self.perf = PerfCounter()
        self.fp_registers: list[float] = [0.0] * FP_SLOTS
        self._queue: list[tuple[int, int, MlTask]] = []  # heap of (priority, seq, task)
        self._queued: set = set()  # ids of the tasks in _queue
        self._seqs = itertools.count()

    def __len__(self) -> int:
        return len(self._queue)

    # -- queue ------------------------------------------------------------

    def enqueue(self, task: MlTask) -> None:
        """Queue a fresh task; its priority is read now, not when it is dequeued."""
        if not isinstance(task, MlTask):
            check_type(task, MlTask, "enqueued task")
        if task.state is not TaskState.QUEUED:
            raise InvalidArgument(
                f"only fresh tasks can be enqueued, task {shown(task.id)} is {task.state.value}"
            )
        if type(task.priority) is not int:  # exact: check_type passes an int subclass other than bool
            check_type(task.priority, int, "task priority")
            raise InvalidArgument(f"task priority must be an int, not a subclass: {shown(task.priority)}")
        self._push((task.priority, next(self._seqs), task))

    def _push(self, entry: tuple[int, int, MlTask]) -> None:
        """Queue a task under its (priority, seq) key; the seq breaks ties FIFO."""
        task = entry[2]
        try:
            queued = task.id in self._queued
        except TypeError:
            raise InvalidArgument(f"task id {shown(task.id)} is not hashable") from None
        if queued:
            raise InvalidArgument(f"task id {shown(task.id)} is already queued")
        heapq.heappush(self._queue, entry)
        self._queued.add(task.id)

    def dequeue(self) -> MlTask | None:
        """Pop the lowest-priority-value task, FIFO among ties; None if empty."""
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
        the original exception, carrying the ids completed before it. A
        host fault that is not an Exception (KeyboardInterrupt, SystemExit)
        faults the task and re-queues the rest the same way, then passes
        through unchanged instead of as a TaskFault.
        """
        check_count(n, "batch size")
        batch = [heapq.heappop(self._queue) for _ in range(min(n, len(self._queue)))]
        self._queued.difference_update(task.id for _, _, task in batch)
        completed = []
        for i, (_, _, task) in enumerate(batch):
            try:
                done = self._run_slice(task)
            except BaseException as exc:  # work is caller code: any failure faults the task
                task.state = TaskState.FAULTED
                task._gen = None
                for entry in batch[i + 1:]:
                    self._push(entry)
                if not isinstance(exc, Exception):
                    raise
                raise TaskFault(f"task {shown(task.id)} faulted: {shown(exc)}", task.id, completed) from exc
            if not task._penalized and task.consumed_cycles > self.config.deprioritize_threshold:
                task.priority += DEPRIORITIZE_PENALTY  # once per task, on crossing the threshold
                task._penalized = True
            if done:
                completed.append(task.id)
            else:
                self._push((task.priority, next(self._seqs), task))
        return completed

    def _run_slice(self, task: MlTask) -> bool:
        """One timeslice: load the task's FP context, run it, save the context; True if done.

        The one place a context is loaded or saved. A fresh task's context is
        all zeros, so it starts from a clean register file.
        """
        if task.state is TaskState.QUEUED:
            task._gen = iter(task.work(ExecContext(self.fp_registers, task)))
        elif task.state is not TaskState.PREEMPTED:
            raise InvalidArgument(f"task {shown(task.id)} is not runnable ({task.state.value})")
        self.fp_registers[:] = task.fp_context
        task.state = TaskState.RUNNING

        used, quantum = 0, self.config.quantum
        try:
            for cost in task._gen:
                if cost < 1:
                    raise InvalidArgument("work steps must consume at least one cycle")
                used += cost
                if used >= quantum:
                    task.fp_context = list(self.fp_registers)
                    task.state = TaskState.PREEMPTED
                    return False
            task.fp_context = list(self.fp_registers)
            task.state = TaskState.DONE
            return True
        finally:  # the slice's cycles count once, at its end, however it ends
            task.consumed_cycles += used
            self.perf.cpu_cycles += used
