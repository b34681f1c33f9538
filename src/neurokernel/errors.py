"""Kernel-style error types shared by every subsystem."""


class KernelError(Exception):
    """Base class for all simulated kernel faults.

    Every public operation either returns a value or raises exactly one
    KernelError subclass. The CLI maps any KernelError to exit code 1 and
    prints its kind.
    """

    kind = "KernelError"

    def __init__(self, detail: str = ""):
        super().__init__(detail)
        self.detail = detail

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}" if self.detail else self.kind


class InvalidArgument(KernelError):
    """Rejected input; the userspace-visible EINVAL."""

    kind = "InvalidArgument"


class TaskFault(InvalidArgument):
    """A task's work raised, or yielded a step cost below one cycle.

    The task is left FAULTED and is not re-queued. completed lists, in
    completion order, the ids that finished earlier in the same batch, so
    the caller can still account for them. A subclass of InvalidArgument
    because the faulty work is caller input to the scheduler.
    """

    kind = "TaskFault"

    def __init__(self, detail: str, task_id, completed: list):
        super().__init__(detail)
        self.task_id = task_id
        self.completed = completed


class OutOfMemory(KernelError):
    """No allocation can satisfy the request; the userspace-visible ENOMEM."""

    kind = "OutOfMemory"


class Overflow(KernelError):
    """An exact result does not fit the declared numeric type."""

    kind = "Overflow"


class ShapeMismatch(KernelError):
    """Tensor operands whose dimensions do not conform."""

    kind = "ShapeMismatch"


class ResourceConsumed(KernelError):
    """A single-use resource was touched after its one permitted use."""

    kind = "ResourceConsumed"


class DeviceBusy(KernelError):
    """The accelerator already has a task mid-flight."""

    kind = "DeviceBusy"


class NodeUnreachable(KernelError):
    """No live node can serve the request."""

    kind = "NodeUnreachable"


class ChecksumMismatch(KernelError):
    """A message frame failed its integrity check."""

    kind = "ChecksumMismatch"
