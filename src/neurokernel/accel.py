"""Simulated accelerator: a fixed 1 MiB device buffer and a serialized task queue.

Tasks reference regions of device memory and run one at a time, in
submission order, using the same naive tensor kernels as the host. That
reuse is deliberate: equality with host results is the device's test
oracle, since there is no real hardware behind it.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass
from enum import Enum
from math import prod

from .errors import DeviceBusy, InvalidArgument, OutOfMemory, check_count
from .tensor import Tensor, _checked_shape, elementwise_sum, matmul_naive

DEVICE_BUFFER_BYTES = 1024 * 1024

_DEVICE_IDS = itertools.count(1)


class AccelOp(Enum):
    ELEMWISE_SUM = "elemwise_sum"
    MATMUL = "matmul"


@dataclass(frozen=True)
class AccelRegion:
    id: int
    offset: int
    size: int
    device_id: int


@dataclass(frozen=True)
class AccelTask:
    """Binary tensor op over device regions; shapes are element counts."""

    op: AccelOp
    a: AccelRegion
    a_shape: tuple[int, ...]
    b: AccelRegion
    b_shape: tuple[int, ...]
    out: AccelRegion


def _shape_bytes(shape: tuple[int, ...]) -> int:
    return 8 * prod(shape)


class AccelDevice:
    """One simulated accelerator with its own buffer, ledger, and FIFO queue."""

    def __init__(self):
        self._device_id = next(_DEVICE_IDS)
        try:
            self._buffer = bytearray(DEVICE_BUFFER_BYTES)
        except MemoryError:
            raise OutOfMemory("host cannot back the device buffer") from None
        self._regions: dict[int, AccelRegion] = {}
        self._used = 0  # regions are never freed, so each starts where the last ended
        self._queue: deque[tuple[int, AccelTask]] = deque()
        self._next_region = itertools.count(1)
        self._next_task = itertools.count(1)
        self._busy = False
        self._lock = threading.Lock()

    def allocate(self, size: int) -> AccelRegion:
        """The next region of the device buffer: it starts at the bump offset."""
        check_count(size, "region size")
        with self._lock:
            if DEVICE_BUFFER_BYTES - self._used < size:
                raise OutOfMemory(
                    f"no {size}-byte region free in the {DEVICE_BUFFER_BYTES}-byte buffer"
                )
            region = AccelRegion(next(self._next_region), self._used, size, self._device_id)
            self._used += size
            self._regions[region.id] = region
            return region

    def _check_region(self, region: AccelRegion, needed: int, role: str) -> None:
        if not isinstance(region, AccelRegion):
            raise InvalidArgument(f"{role} region must be an AccelRegion, got {region!r}")
        if region.device_id != self._device_id or self._regions.get(region.id) != region:
            raise InvalidArgument(f"{role} region {region.id} is not live on this device")
        if needed > region.size:
            raise InvalidArgument(
                f"{role} region holds {region.size} bytes but the task needs {needed}"
            )

    def submit(self, task: AccelTask) -> int:
        """Validate and enqueue a task; returns its id. Execution is FIFO."""
        if not isinstance(task, AccelTask):
            raise InvalidArgument(f"not an AccelTask: {task!r}")
        a_shape, b_shape = _checked_shape(task.a_shape), _checked_shape(task.b_shape)
        self._check_region(task.a, _shape_bytes(a_shape), "input a")
        self._check_region(task.b, _shape_bytes(b_shape), "input b")
        if task.op is AccelOp.ELEMWISE_SUM:
            if a_shape != b_shape:
                raise InvalidArgument(
                    f"elementwise sum needs identical shapes, got {a_shape} and {b_shape}"
                )
            out_shape = a_shape
        elif task.op is AccelOp.MATMUL:
            if len(a_shape) != 2 or len(b_shape) != 2 or a_shape[1] != b_shape[0]:
                raise InvalidArgument(
                    f"matmul shapes do not conform: {a_shape} by {b_shape}"
                )
            out_shape = (a_shape[0], b_shape[1])
        else:
            raise InvalidArgument(f"unknown device op {task.op!r}")
        self._check_region(task.out, _shape_bytes(out_shape), "output")
        with self._lock:
            task_id = next(self._next_task)
            self._queue.append((task_id, task))
            return task_id

    def execute_next(self) -> int | None:
        """Run the FIFO head to completion in-device; returns its id.

        Returns None when the queue is empty. Raises DeviceBusy if another
        execution is mid-flight: the device has a single task context.
        """
        with self._lock:
            if self._busy:
                raise DeviceBusy("a task is already executing")
            if not self._queue:
                return None
            self._busy = True
            task_id, task = self._queue.popleft()
        try:
            a = self._read(task.a, tuple(task.a_shape))
            b = self._read(task.b, tuple(task.b_shape))
            if task.op is AccelOp.ELEMWISE_SUM:
                result = elementwise_sum(a, b)
            else:
                result = matmul_naive(a, b)
            raw = result.tobytes()
            self._buffer[task.out.offset : task.out.offset + len(raw)] = raw
        finally:
            self._busy = False
        return task_id

    def _read(self, region: AccelRegion, shape: tuple[int, ...]) -> Tensor:
        end = region.offset + _shape_bytes(shape)
        with memoryview(self._buffer)[region.offset : end] as raw:
            return Tensor.frombytes(shape, raw)

    # Host staging helpers; execution itself never leaves the device buffer.

    def write_tensor(self, region: AccelRegion, tensor: Tensor) -> None:
        if not isinstance(tensor, Tensor):
            raise InvalidArgument(f"not a Tensor: {tensor!r}")
        raw = tensor.tobytes()
        self._check_region(region, len(raw), "target")
        self._buffer[region.offset : region.offset + len(raw)] = raw

    def read_tensor(self, region: AccelRegion, shape: tuple[int, ...]) -> Tensor:
        shape = _checked_shape(shape)
        self._check_region(region, _shape_bytes(shape), "source")
        return self._read(region, shape)
