"""In-memory spans recorded at the calls into each layer's public functions.

A span is ``[name, start_ns, end_ns, parent, step]``: ``parent`` is the
index of the enclosing span (-1 at the top) and ``step`` the workload's step
id when the call started. Spans stay in memory and are written out once,
when the run ends.

Workloads call ``tracer.begin_step`` before each step, which records the
step id and samples the host's speed (see ``hostspeed``), in traced and
untraced runs alike. They route every layer call through ``tracer.wrap``.
The untraced run uses ``NullTracer``, whose ``wrap`` hands back the
function itself, so the timed loop calls the program directly. Where one
layer calls another layer's public function from inside the program, the
traced run rebinds that one name in the caller's module and restores it
afterwards; no file of the program is edited.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .hostspeed import probe_ns


class NullTracer:
    """Tracing off: wrapping and rebinding are no-ops."""

    def __init__(self):
        self.step = -1
        self.host_ns: list[int] = []

    def begin_step(self, step: int) -> None:
        """Called between steps, outside their timing: one host-speed sample."""
        self.step = step
        self.host_ns.append(probe_ns())

    def wrap(self, name, fn):
        return fn

    def rebind(self, module, attr: str, name: str) -> None:
        pass

    def restore(self) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.step]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def rebind(self, module, attr: str, name: str) -> None:
        """Swap ``module.attr`` for a timing wrapper until ``restore``."""
        original = getattr(module, attr)
        self._rebound.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original))

    def restore(self) -> None:
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy and self nanoseconds, sorted durations.

        Self time is a span's duration minus the time its child spans
        cover. Calls nest on one thread, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _step in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _parent, _step) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0, "durations": []})
            entry["calls"] += 1
            entry["busy_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[index]
            entry["durations"].append(end - start)
        for entry in out.values():
            entry["durations"].sort()
        return out

    def starts_ends(self, name: str) -> list[tuple[int, int]]:
        return [(s[1], s[2]) for s in self.spans if s[0] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "step"],
                       "spans": self.spans}, fh, separators=(",", ":"))
