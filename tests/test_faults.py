"""Failure atomicity: a host fault at any line leaves the scheduler and the pool consistent.

The injector raises InjectedFault, a MemoryError, at the Nth "line" event in
a frame whose code lies in the package (sys.settrace), for every N the call
reaches. CPython raises a trace function's exception inside the traced
frame and stops tracing, so each run takes exactly one fault. A fault at a
line boundary stands for a real allocation failure and for a
KeyboardInterrupt landing between two lines.

After each fault the world is checked: the heap's ids are the queued-id set,
each task in the heap is QUEUED or PREEMPTED, and no task given to the
scheduler is QUEUED or PREEMPTED outside the heap or left RUNNING. ALLOWED
names the lines where a fault may leave the world otherwise, each with its
reason; test_every_allowance_names_a_line fails on one that names no line.
"""

from __future__ import annotations

import linecache
import os
import sys

import pytest

import neurokernel
from neurokernel.accel import AccelDevice, AccelOp, AccelTask
from neurokernel.mempool import BlockPool, PoolConfig
from neurokernel.orchestrator import Modality, Node
from neurokernel.orchestrator.cluster import METRIC_WINDOW
from neurokernel.scheduler import MlScheduler, MlTask, SchedulerConfig, TaskState, cycles_work
from neurokernel.tensor import Tensor

PACKAGE = os.path.dirname(neurokernel.__file__) + os.sep
SCHEDULER = os.path.join(PACKAGE, "scheduler.py")


class InjectedFault(MemoryError):
    """The fault the injector raises: a MemoryError, as a failed allocation would be."""


def fault_at(call, n: int):
    """Run call() with a fault at its n-th line event in package code.

    Returns the (file, line number) the fault was raised at, or None if the
    call ran fewer than n lines (and so ran to its end). Whatever the call
    raises after a fault is dropped: only the state it leaves is checked.
    """
    seen, where = 0, None

    def local(frame, event, _arg):
        nonlocal seen, where
        if event == "line":
            seen += 1
            if seen == n:
                where = frame.f_code.co_filename, frame.f_lineno
                raise InjectedFault(f"injected at line event {n}")
        return local

    def start(frame, event, _arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    sys.settrace(start)
    try:
        call()
    except BaseException:
        if where is None:
            raise
    finally:
        sys.settrace(None)
    return where


# -- the scheduler -------------------------------------------------------------

QUANTUM, THRESHOLD = 10, 5


class World:
    """A scheduler whose next batch_execute(4) resumes a preempted task,
    penalizes and re-queues two fresh ones, and completes a short one."""

    def __init__(self):
        self.sched = MlScheduler(SchedulerConfig(deprioritize_threshold=THRESHOLD, quantum=QUANTUM))
        self.tasks = [MlTask(name, cycles_work(cycles, chunk=5), priority=prio)
                      for name, cycles, prio in (("resumed", 30, 0), ("a", 20, 10), ("short", 3, 10),
                                                 ("b", 20, 10), ("waiting", 20, 30))]
        for task in self.tasks:
            self.sched.enqueue(task)
        self.sched.batch_execute(1)  # "resumed" is preempted and penalized: it now runs last of four
        self.handed_out = []

    def inconsistencies(self) -> list[str]:
        queue = self.sched._queue
        heap_ids = [task.id for _, _, task in queue]
        problems = []
        if len(heap_ids) != len(self.sched._queued) or set(heap_ids) != self.sched._queued:
            problems.append(f"heap ids {sorted(heap_ids)} != queued ids {sorted(self.sched._queued)}")
        if any(queue[(k - 1) // 2] > queue[k] for k in range(1, len(queue))):
            problems.append("the heap is out of order")
        in_heap = [task for _, _, task in queue]
        for task in in_heap:
            if task.state not in (TaskState.QUEUED, TaskState.PREEMPTED):
                problems.append(f"{task.id} is {task.state.value} in the heap")
        for task in self.tasks:
            waiting = task.state in (TaskState.QUEUED, TaskState.PREEMPTED)
            if task.state is TaskState.RUNNING:
                problems.append(f"{task.id} is left running")
            elif waiting and not any(t is task for t in in_heap + self.handed_out):
                problems.append(f"{task.id} is {task.state.value} outside the heap")
        return problems


def _dequeue(world):
    task = world.sched.dequeue()
    world.handed_out.append(task)


CALLS = {
    "enqueue": lambda w: w.sched.enqueue(MlTask("new", cycles_work(1))),
    "dequeue": _dequeue,
    "batch_execute": lambda w: w.sched.batch_execute(4),
}

# Lines where a fault may still leave a task in no queue, keyed by their
# source text, each with its reason. batch_execute takes its whole batch off
# the heap before it runs any of it, so that a re-queued task cannot run
# twice in one batch; until each task's own try, the unrun entries are held
# only in a local list. dequeue pops, then drops the id, then returns. A
# fault at these lines is a failed small allocation (the batch list, a
# generator, a loop tuple) or an interrupt between two lines; closing them
# needs a rollback path of its own.
ALLOWED = {
    "batch = [heapq.heappop(self._queue) for _ in range(min(n, len(self._queue)))]":
        "popping the batch: the entries popped so far are in the comprehension's list only",
    "self._queued.difference_update(task.id for _, _, task in batch)":
        "the batch is off the heap and its ids are not yet dropped",
    "for i, (priority, _, task) in enumerate(batch):":
        "between two tasks' slices: the unrun entries are in the batch list only",
    "try:  # the slice, the penalty and the re-push: a failure in any faults the task":
        "entering a task's slice: the unrun entries are in the batch list only",
    "self._queued.discard(task.id)":
        "dequeue: the task is off the heap and its id not yet dropped",
    "return task":
        "dequeue: the task is off the heap and not yet returned to the caller",
}


def sweep(name: str) -> dict[int, tuple[str, list[str]]]:
    """{n: (line text, problems)} for each fault point of CALLS[name] that leaves the world inconsistent."""
    found, n = {}, 1
    while True:
        world = World()
        where = fault_at(lambda: CALLS[name](world), n)
        if where is None:
            assert world.inconsistencies() == [], f"{name} without a fault"
            return found
        problems = world.inconsistencies()
        if problems:
            found[n] = (linecache.getline(*where).strip(), problems)
        n += 1


def test_the_world_runs_the_penalty_and_the_re_push():
    world = World()
    before = {task.id: task.priority for task in world.tasks}
    assert world.sched.batch_execute(4) == ["short"]
    penalized = [t.id for t in world.tasks if t.priority != before[t.id]]
    assert penalized == ["a", "b"]
    assert [task.id for _, _, task in sorted(world.sched._queue)] == ["resumed", "a", "b", "waiting"]


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_fault_at_any_line_leaves_the_scheduler_consistent(name):
    unallowed = {n: point for n, point in sweep(name).items() if point[0] not in ALLOWED}
    assert unallowed == {}


def test_every_allowance_names_a_line():
    with open(SCHEDULER, encoding="utf-8") as source:
        lines = {line.strip() for line in source}
    assert sorted(set(ALLOWED) - lines) == []


# -- the pool and the device's pool ---------------------------------------------


def _pool_write():
    pool = BlockPool(PoolConfig(2 * 4096, 4096, ()))
    handle = pool.alloc(1)
    return lambda: pool.write(handle, 0, b"ab"), lambda: pool.free(handle), lambda: pool.read(pool.alloc(1), 0, 4)


def _device_write():
    dev = AccelDevice()
    region = dev.allocate(16)
    return (lambda: dev.write_tensor(region, Tensor.vector([1.5, 2.5])), lambda: dev.free(region),
            lambda: dev.read_tensor(dev.allocate(16), (2,)).tobytes())


def _device_output():
    dev = AccelDevice()
    x, out = dev.allocate(16), dev.allocate(16)
    dev.write_tensor(x, Tensor.vector([1.5, 2.5]))
    dev.submit(AccelTask(AccelOp.ELEMWISE_SUM, x, (2,), x, (2,), out))
    return dev.execute_next, lambda: dev.free(out), lambda: dev.read_tensor(dev.allocate(16), (2,)).tobytes()


def _device_product():
    dev = AccelDevice()
    a, b, out = dev.allocate(32), dev.allocate(32), dev.allocate(32)
    dev.write_tensor(a, Tensor((2, 2), [1.5, 2.5, -0.5, 4.0]))
    dev.write_tensor(b, Tensor((2, 2), [0.25, -3.0, 2.0, 1.0]))
    dev.submit(AccelTask(AccelOp.MATMUL, a, (2, 2), b, (2, 2), out))
    return dev.execute_next, lambda: dev.free(out), lambda: dev.read_tensor(dev.allocate(32), (2, 2)).tobytes()


# Each builds a fresh (write, free, read a reallocation of the freed storage).
WRITERS = {"BlockPool.write": _pool_write, "AccelDevice.write_tensor": _device_write,
           "AccelDevice.execute_next": _device_output, "AccelDevice.execute_next (matmul)": _device_product}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_fault_in_write_leaves_no_block_dirty_after_free(writer):
    # Free storage reads as zero: free() zeroes the blocks of a handle that
    # a write marked, so the mark must be made before the storage changes.
    n = 1
    while True:
        write, free, reread = WRITERS[writer]()
        where = fault_at(write, n)
        free()
        assert not any(reread()), f"fault at {where}"
        if where is None:
            break
        n += 1
    assert n > 3


# -- the cluster ---------------------------------------------------------------


@pytest.mark.parametrize("before", range(METRIC_WINDOW + 1))
def test_a_fault_in_push_metrics_leaves_later_samples_accepted(before):
    # One window of (cpu, mem, io) samples takes each in one append, so a
    # fault cannot leave the three columns of unequal length. The window and
    # the stored load change together: right after the fault, the node's load
    # is the one a node restored from its snapshot computes from the window,
    # and the window is the one before the call or the one after it.
    samples = [(0.125, 0.25, 0.5), (0.75, 0.375, 0.0625), (1.0, 0.0, 0.5)]
    healed = Node(1, {Modality.VISION})
    for sample in samples:
        healed.push_metrics(*sample)
    n = 1
    while True:
        node, unfaulted = Node(1, {Modality.VISION}), Node(1, {Modality.VISION})
        for i in range(before):
            node.push_metrics(0.5, 0.5, i / 8)
            unfaulted.push_metrics(0.5, 0.5, i / 8)
        untouched = unfaulted.snapshot()
        unfaulted.push_metrics(0.25, 0.5, 0.75)
        where = fault_at(lambda: node.push_metrics(0.25, 0.5, 0.75), n)
        restored = Node.from_snapshot(node.snapshot(), 1, 1, 0)
        assert node._load == restored._load, f"fault at {where}"
        assert node.snapshot() in (untouched, unfaulted.snapshot()), f"fault at {where}"
        for sample in samples:
            node.push_metrics(*sample)
        assert (node.snapshot(), node._load) == (healed.snapshot(), healed._load), \
            f"fault at {where}"
        if where is None:
            break
        n += 1
    assert n > 3
