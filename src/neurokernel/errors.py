"""Kernel-style error types shared by every subsystem, and the argument checkers.

Every public operation either returns a value or raises exactly one
KernelError subclass, and a refusal changes no state. tests/test_contract.py
sweeps every public callable with ill-typed and out-of-range arguments; a new
public name needs a row there.

A refusal is decided and worded here: ``check_type``, ``check_count`` (an int
in minimum..maximum, unbounded above when maximum is None), and ``shown``, the
one formatter of a caller's value in any message. A check run per job or per
message keeps an inline test and calls a checker only when it fails (the
timed-loop form); where that test is exact (``type(x) is T``), a subclass the
checker passes is refused by the branch's own raise.

A handle, region, linear token or predicate is a ticket: whoever handed it
out accepts that object and nothing else, by identity. A copy with the same
fields, a freed handle and another owner's ticket are each one InvalidArgument;
a consumed token is ResourceConsumed.

A host fault is not a refusal and is never wrapped. A KeyboardInterrupt or
SystemExit raised by a task's work passes through batch_execute unchanged,
after the task is left FAULTED and the rest of its batch is queued again. A
MemoryError in BlockPool.free comes before any state changes, so the handle
stays live; other operations are not yet ordered that way.
"""


class KernelError(Exception):
    """Base class for all simulated kernel faults.

    The CLI maps any KernelError to exit code 1 and prints its kind.
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


def shown(value) -> str:
    """repr(value) for a refusal message, never raising: an int past repr's digit
    limit (sys.get_int_max_str_digits) shows as its size, a value holding one as its type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a {type(value).__name__} too large to show"


def check_count(value, name: str, minimum: int = 1, maximum: int | None = None) -> int:
    """value, if an int in minimum..maximum (no upper bound if None); else InvalidArgument. A bool is not an int."""
    if type(value) is not int or value < minimum or (maximum is not None and value > maximum):
        wanted = f">= {minimum}" if maximum is None else f"in {minimum}..{maximum}"
        raise InvalidArgument(f"{name} must be an int {wanted}, got {shown(value)}")
    return value


def check_type(value, expected, name: str):
    """value, if an instance of expected (a type or a tuple of them); else InvalidArgument. A bool is not an int."""
    kinds = expected if type(expected) is tuple else (expected,)
    if isinstance(value, kinds) and (type(value) is not bool or bool in kinds):
        return value
    names = " or ".join(kind.__name__ for kind in kinds)
    raise InvalidArgument(f"{name} must be {names}, got {shown(value)}")


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
    """The accelerator already has a task mid-flight.

    Nothing in the package raises it now that a device has one calling
    thread; it stays exported until the benchmark harness stops importing it.
    """

    kind = "DeviceBusy"


class NodeUnreachable(KernelError):
    """No live node can serve the request."""

    kind = "NodeUnreachable"


class ChecksumMismatch(KernelError):
    """A message frame failed its integrity check."""

    kind = "ChecksumMismatch"
