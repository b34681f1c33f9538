"""Benchmark harness for neurokernel: seeded workloads, oracles and spans.

The harness imports neurokernel from the checkout's own ``src/`` tree and
never from an installed copy, so the code measured is the code next to it.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "neurokernel" / "__init__.py"

# Seed kept out of development runs; a claimed gain is confirmed on it.
HELD_OUT_SEED = 9001


def require_source() -> None:
    """Exit with an error, before any output, outside a full checkout."""
    if not PACKAGE_INIT.is_file():
        raise SystemExit("benchmark: src/neurokernel is missing; run from a full checkout")


def load_neurokernel():
    """Import neurokernel from ``src/`` of this checkout, refusing any other copy."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import neurokernel

    if Path(neurokernel.__file__).resolve() != PACKAGE_INIT.resolve():
        raise SystemExit(
            f"benchmark: imported neurokernel from {neurokernel.__file__}, "
            f"expected {PACKAGE_INIT}"
        )
    return neurokernel


def git_commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


from . import cluster, jobs, offload  # noqa: E402  (stdlib-only at import)

WORKLOADS = {"jobs": jobs, "tensor-offload": offload, "cluster": cluster}
