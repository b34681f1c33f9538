"""neurokernel: a desk-scale, user-space simulator of an AI-native OS kernel.

Subsystems:

- compute: checked 64-bit arithmetic behind an opcode dispatch
- tensor: rank-1/2 float64 tensors; one kernel behind every matmul path
- mempool: bitmap block pool, large pages
- accel: simulated accelerator device, zero-copy staging, a serialized task queue
- scheduler: priority + FIFO ML task scheduler with FP-context isolation
- orchestrator: multi-modal nodes, envelopes, heartbeats, checkpoints
- rabab: evolvable predicates, knowledge graph, linear resources, paths
"""

__version__ = "0.1.0"

from .errors import (
    ChecksumMismatch,
    DeviceBusy,
    InvalidArgument,
    KernelError,
    NodeUnreachable,
    OutOfMemory,
    Overflow,
    ResourceConsumed,
    ShapeMismatch,
    TaskFault,
)

__all__ = [
    "ChecksumMismatch",
    "DeviceBusy",
    "InvalidArgument",
    "KernelError",
    "NodeUnreachable",
    "OutOfMemory",
    "Overflow",
    "ResourceConsumed",
    "ShapeMismatch",
    "TaskFault",
    "__version__",
]
