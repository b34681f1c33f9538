"""Host-speed probe, and the scaling of step times to a reference host speed.

A shared VM changes speed while a benchmark runs: in episodes of seconds and
in regimes, minutes long, about 2x apart. A run cannot avoid them, so the
workloads sample the host between steps instead. Before each step the
tracer runs ``probe_ns``, a fixed piece of Python work that does not touch
neurokernel, and keeps its time. Each step time is then scaled by
``REFERENCE_NS / p``, where ``p`` is the median probe time of the WINDOW
steps on either side of it: the step's time on a host as fast as the
reference. A change to the program moves the step times but not the probe,
so it still shows in full; a slower host moves both, and cancels.

The probe runs its loop twice and times the second run, with garbage
collection paused, so the program's heap and cache footprint do not leak
into it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import struct
import time

# Probe time, in ns, on the host that calibrated it (2-vCPU x86-64 Linux VM,
# Python 3.11.7, fast regime). Scaled times read as times on that host.
REFERENCE_NS = 25_000
WINDOW = 32
ITERATIONS = 30

_TABLE = dict.fromkeys(range(64), 0)
_SLOTS = [0] * 64
_DOC = {"node": 7, "seq": 3, "items": [1.5, 2.25, "x" * 8], "tags": {"a": 1, "b": [1, 2, 3]}}
_BLOB = bytes(range(256)) * 2


def _loop(n: int) -> float:
    """Interpreter work (dicts, lists, ints, floats) and the C builtins the
    workloads lean on (json, sha256, struct, formatting), in fixed amounts."""
    table, slots, x = _TABLE, _SLOTS, 0.0
    for i in range(n):
        k = i & 63
        table[k] = (table[k] + i) & 0xFFFF
        slots[k] = slots[(k * 7) & 63] ^ i
        x += (i * 0.37) % 1.3
    text = json.dumps(_DOC)
    json.loads(text)
    hashlib.sha256(_BLOB).digest()
    struct.pack("<8d", *([x] * 8))
    return len(f"{n}:{x:.3f}:{text[:4]}") + x


def probe_ns() -> int:
    """Time of one warm run of the fixed loop, in ns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _loop(ITERATIONS)
        t0 = time.perf_counter_ns()
        _loop(ITERATIONS)
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def _median(values: list[int]) -> int:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def factors(probes: list[int], window: int = WINDOW) -> list[float]:
    """For each probe, REFERENCE_NS over the median probe of its window."""
    return [REFERENCE_NS / _median(probes[max(0, i - window) : i + window + 1])
            for i in range(len(probes))]


def scaled(times: list[int], owners, scale: list[float]) -> list[float]:
    """Each time multiplied by the factor of the probe taken before it."""
    return [t * scale[owner] for t, owner in zip(times, owners)]
