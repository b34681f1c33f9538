"""Simulated accelerator: a fixed 1 MiB device buffer and a serialized task queue.

Tasks reference regions of device memory and run one at a time, in
submission order, using the same naive tensor kernels as the host. That
reuse is deliberate: equality with host results is the device's test
oracle, since there is no real hardware behind it. Staging is zero-copy:
tensors move between their storage and a view of the buffer with one
memcpy each way, and only a read allocates, the tensor it returns.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from math import prod

from .errors import InvalidArgument, OutOfMemory, check_count, check_type, shown
from .tensor import (
    Tensor, _checked_shape, _load, _matmul_shape, _store, _sum_shape, elementwise_sum, matmul_naive,
)

DEVICE_BUFFER_BYTES = 1024 * 1024


class AccelOp(Enum):
    ELEMWISE_SUM = "elemwise_sum"
    MATMUL = "matmul"


@dataclass(frozen=True, eq=False)
class AccelRegion:
    """Ticket for a region of one device's buffer; equal only to itself, so the device accepts no copy."""

    offset: int
    size: int


@dataclass(frozen=True)
class AccelTask:
    """Binary tensor op over device regions; shapes are element counts."""

    op: AccelOp
    a: AccelRegion
    a_shape: tuple[int, ...]
    b: AccelRegion
    b_shape: tuple[int, ...]
    out: AccelRegion


class AccelDevice:
    """One simulated accelerator with its own buffer, ledger, and FIFO queue."""

    def __init__(self):
        try:
            self._buffer = memoryview(bytearray(DEVICE_BUFFER_BYTES))  # staging copies in and out of views
        except MemoryError:
            raise OutOfMemory("host cannot back the device buffer") from None
        self._regions: set[AccelRegion] = set()  # membership only: it iterates in address order
        self._used = 0  # regions are never freed, so each starts where the last ended
        # (id, task, a's shape, b's shape): the shapes submit checked, whatever the task's sequences become
        self._queue: deque[tuple[int, AccelTask, tuple[int, ...], tuple[int, ...]]] = deque()
        self._next_task = itertools.count(1)

    def allocate(self, size: int) -> AccelRegion:
        """The next region of the device buffer: it starts at the bump offset."""
        if DEVICE_BUFFER_BYTES - self._used < check_count(size, "region size"):
            raise OutOfMemory(
                f"no {shown(size)}-byte region free in the {DEVICE_BUFFER_BYTES}-byte buffer"
            )
        region = AccelRegion(self._used, size)
        self._regions.add(region)
        self._used += size  # last: a MemoryError in the add leaves the offset where it was
        return region

    def _check_region(self, region: AccelRegion, needed: int, role: str) -> None:
        # Per staged tensor, so the checker runs only on failure; the exact type
        # keeps a subclass's __eq__ out of the set lookup.
        if not (type(region) is AccelRegion and region in self._regions):
            check_type(region, AccelRegion, f"{role} region")
            raise InvalidArgument(f"{role} region {shown(region)} was not allocated on this device")
        if needed > region.size:
            raise InvalidArgument(
                f"{role} region holds {region.size} bytes but the task needs {needed}"
            )

    def submit(self, task: AccelTask) -> int:
        """Validate and enqueue a task; returns its id. Execution is FIFO."""
        if not isinstance(task, AccelTask):
            check_type(task, AccelTask, "device task")
        a_shape, b_shape = _checked_shape(task.a_shape), _checked_shape(task.b_shape)
        self._check_region(task.a, 8 * prod(a_shape), "input a")
        self._check_region(task.b, 8 * prod(b_shape), "input b")
        if task.op is AccelOp.ELEMWISE_SUM:
            out_shape = _sum_shape(a_shape, b_shape)
        elif task.op is AccelOp.MATMUL:
            out_shape = _matmul_shape(a_shape, b_shape)
        else:
            raise InvalidArgument(f"unknown device op {shown(task.op)}")
        self._check_region(task.out, 8 * prod(out_shape), "output")
        task_id = next(self._next_task)
        self._queue.append((task_id, task, a_shape, b_shape))
        return task_id

    def execute_next(self) -> int | None:
        """Run the FIFO head to completion in-device; returns its id.

        Returns None when the queue is empty. A device has one calling
        thread, so a task runs to its end before the next call can start.
        A task that raises has already left the queue: the next call runs
        the task after it.
        """
        if not self._queue:
            return None
        task_id, task, a_shape, b_shape = self._queue.popleft()
        a = _load(a_shape, self._buffer, task.a.offset)
        b = _load(b_shape, self._buffer, task.b.offset)
        if task.op is AccelOp.ELEMWISE_SUM:
            result = elementwise_sum(a, b)
        else:
            result = matmul_naive(a, b)
        _store(result, self._buffer, task.out.offset)
        return task_id

    # Host staging helpers; execution itself never leaves the device buffer.

    def write_tensor(self, region: AccelRegion, tensor: Tensor) -> None:
        if not isinstance(tensor, Tensor):
            check_type(tensor, Tensor, "tensor")
        self._check_region(region, 8 * tensor.size, "target")
        _store(tensor, self._buffer, region.offset)

    def read_tensor(self, region: AccelRegion, shape: tuple[int, ...]) -> Tensor:
        shape = _checked_shape(shape)
        self._check_region(region, 8 * prod(shape), "source")
        return _load(shape, self._buffer, region.offset)
