"""Simulated accelerator: 1 MiB of device memory and a serialized task queue.

Device memory is a BlockPool of 8-byte blocks, one float64 each: a region is
a pool handle, with the pool's first fit, reuse, zero-on-free and ticket
rule. Tasks run one at a time, in submission order, on the same naive
tensor kernels as the host; equality with host results is the device's test
oracle, since there is no real hardware behind it. Staging is zero-copy:
one memcpy each way between a tensor's storage and a view of the pool's
storage, and only a read allocates, the tensor it returns. allocate marks a
region written, so staging bypasses BlockPool.write and free always zeroes.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from math import prod

from .errors import InvalidArgument, check_count, check_type, shown
from .mempool import BlockHandle, BlockPool, PoolConfig
from .tensor import (
    Tensor, _checked_shape, _load, _matmul_shape, _store, _sum_shape, elementwise_sum, matmul_naive,
)

DEVICE_BUFFER_BYTES = 1024 * 1024


class AccelOp(Enum):
    ELEMWISE_SUM = "elemwise_sum"
    MATMUL = "matmul"


# Bound once: before Python 3.12, a member read through its class goes through EnumType.__getattr__.
_ELEMWISE_SUM, _MATMUL = AccelOp.ELEMWISE_SUM, AccelOp.MATMUL


@dataclass(frozen=True)
class AccelTask:
    """Binary tensor op over device regions; shapes are element counts."""

    op: AccelOp
    a: BlockHandle
    a_shape: tuple[int, ...]
    b: BlockHandle
    b_shape: tuple[int, ...]
    out: BlockHandle

    # One per request: fill the dict directly, as MessageEnvelope's __init__ does.
    def __init__(self, op: AccelOp, a: BlockHandle, a_shape: tuple, b: BlockHandle, b_shape: tuple, out: BlockHandle):
        fields = self.__dict__
        fields["op"] = op
        fields["a"] = a
        fields["a_shape"] = a_shape
        fields["b"] = b
        fields["b_shape"] = b_shape
        fields["out"] = out


class AccelDevice:
    """One simulated accelerator with its own memory pool and FIFO queue."""

    def __init__(self):
        self._pool = BlockPool(PoolConfig(DEVICE_BUFFER_BYTES, 8, ()))
        self._buffer = memoryview(self._pool._storage)  # staging copies in and out of views
        # (id, task, a's shape, b's shape): the shapes submit checked, whatever the task's sequences become
        self._queue: deque[tuple[int, AccelTask, tuple[int, ...], tuple[int, ...]]] = deque()
        self._next_task = itertools.count(1)

    def allocate(self, size: int) -> BlockHandle:
        """A region of at least size bytes: the pool's first fit of ⌈size / 8⌉ blocks, read as zero."""
        region = self._pool.alloc(-(-check_count(size, "region size") // 8))
        self._pool._live[region] = True  # written from the start: staging marks nothing, free always zeroes
        return region

    def free(self, region: BlockHandle) -> None:
        """Release a region; its storage reads as zero again. A queued task that names it is refused."""
        self._pool.free(region)

    def _offset(self, region: BlockHandle, needed: int, role: str) -> int:
        """The byte offset of a live region of at least needed bytes."""
        # Per staged tensor, so the checker runs only on failure; the exact type
        # keeps a subclass's __eq__ out of the set lookup.
        if not (type(region) is BlockHandle and region in self._pool._live):
            check_type(region, BlockHandle, f"{role} region")
            raise InvalidArgument(f"{role} region {shown(region)} is not live on this device")
        if needed > 8 * region.n_blocks:
            raise InvalidArgument(
                f"{role} region holds {8 * region.n_blocks} bytes but the task needs {needed}"
            )
        return 8 * region.first_block

    def submit(self, task: AccelTask) -> int:
        """Validate and enqueue a task; returns its id. Execution is FIFO."""
        if not isinstance(task, AccelTask):
            check_type(task, AccelTask, "device task")
        a_shape, b_shape = _checked_shape(task.a_shape), _checked_shape(task.b_shape)
        self._offset(task.a, 8 * prod(a_shape), "input a")
        self._offset(task.b, 8 * prod(b_shape), "input b")
        if task.op is _ELEMWISE_SUM:
            out_shape = _sum_shape(a_shape, b_shape)
        elif task.op is _MATMUL:
            out_shape = _matmul_shape(a_shape, b_shape)
        else:
            raise InvalidArgument(f"unknown device op {shown(task.op)}")
        self._offset(task.out, 8 * prod(out_shape), "output")
        task_id = next(self._next_task)
        self._queue.append((task_id, task, a_shape, b_shape))
        return task_id

    def execute_next(self) -> int | None:
        """Run the FIFO head to completion in-device; returns its id.

        Returns None when the queue is empty. A device has one calling
        thread, so a task runs to its end before the next call can start.
        A task that raises has already left the queue: the next call runs
        the task after it. A task one of whose regions was freed after
        submit raises InvalidArgument and touches no storage.
        """
        if not self._queue:
            return None
        task_id, task, a_shape, b_shape = self._queue.popleft()
        live = self._pool._live
        if not (task.a in live and task.b in live and task.out in live):
            raise InvalidArgument(f"device task {task_id} names a region freed since its submit")
        a = _load(a_shape, self._buffer, 8 * task.a.first_block)
        b = _load(b_shape, self._buffer, 8 * task.b.first_block)
        if task.op is _ELEMWISE_SUM:
            result = elementwise_sum(a, b)
        else:
            result = matmul_naive(a, b)
        _store(result, self._buffer, 8 * task.out.first_block)
        return task_id

    # Host staging helpers; execution itself never leaves the device buffer.

    def write_tensor(self, region: BlockHandle, tensor: Tensor) -> None:
        if not isinstance(tensor, Tensor):
            check_type(tensor, Tensor, "tensor")
        offset = self._offset(region, 8 * tensor.size, "target")
        _store(tensor, self._buffer, offset)

    def read_tensor(self, region: BlockHandle, shape: tuple[int, ...]) -> Tensor:
        shape = _checked_shape(shape)
        return _load(shape, self._buffer, self._offset(region, 8 * prod(shape), "source"))
