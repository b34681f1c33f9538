"""Dense rank-1/rank-2 float64 tensors and the one matrix kernel over them.

Every matrix product (naive, blocked, parallel, the device's and the
scheduler's) runs through ``_mac``: B is transposed once into column lists
and each element is ``acc += x * y`` over ``zip(row, col)``. That fixes k's
summation order, left to right (float addition does not associate), so tiles
and row bands reproduce the naive product bit for bit on every Python;
``sum`` and ``math.fsum`` compensate and would not. Under CPython no variant
is faster: at n = 128 (2 cores, Python 3.11.7) naive took 0.11-0.15 s,
32-wide tiles 0.12-0.14 s and 2 or 4 GIL-bound row-band threads 0.10-0.12 s.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import isfinite, prod
from random import Random
from typing import Iterable, Sequence

from .errors import InvalidArgument, Overflow, ShapeMismatch

MAX_WORKERS = 8
DEFAULT_BLOCK_SIZE = 64


@dataclass(frozen=True)
class MatmulConfig:
    """Output tile edge for matmul_blocked and thread count for matmul_parallel."""

    block_size: int = DEFAULT_BLOCK_SIZE
    worker_count: int = 4

    def __post_init__(self):
        if self.block_size < 1:
            raise InvalidArgument(f"block_size must be >= 1, got {self.block_size}")
        if not 1 <= self.worker_count <= MAX_WORKERS:
            raise InvalidArgument(
                f"worker_count must be in 1..{MAX_WORKERS}, got {self.worker_count}"
            )


class Tensor:
    """Immutable row-major float64 tensor of rank 1 or 2.

    Construction rejects NaN and infinity, so any non-finite value produced
    by an operation is a float64 overflow and is reported as Overflow.
    """

    __slots__ = ("_shape", "_data")

    def __init__(self, shape: Sequence[int], data: Iterable[float]):
        shape = tuple(int(d) for d in shape)
        if len(shape) not in (1, 2):
            raise InvalidArgument(f"tensor rank must be 1 or 2, got shape {shape}")
        if any(d < 1 for d in shape):
            raise InvalidArgument(f"tensor dimensions must be positive, got {shape}")
        values = [float(x) for x in data]
        expected = prod(shape)
        if len(values) != expected:
            raise InvalidArgument(
                f"shape {shape} needs {expected} entries, got {len(values)}"
            )
        for x in values:
            if not isfinite(x):
                raise InvalidArgument("tensor entries must be finite (no NaN/Inf)")
        object.__setattr__(self, "_shape", shape)
        object.__setattr__(self, "_data", values)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def size(self) -> int:
        return len(self._data)

    @classmethod
    def vector(cls, values: Iterable[float]) -> "Tensor":
        values = list(values)
        return cls((len(values),), values)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "Tensor":
        if not rows:
            raise InvalidArgument("from_rows needs at least one row")
        width = len(rows[0])
        flat: list[float] = []
        for row in rows:
            if len(row) != width:
                raise InvalidArgument("ragged rows are not a tensor")
            flat.extend(row)
        return cls((len(rows), width), flat)

    @classmethod
    def zeros(cls, shape: Sequence[int]) -> "Tensor":
        return cls(shape, [0.0] * prod(shape))

    @classmethod
    def identity(cls, n: int) -> "Tensor":
        if n < 1:
            raise InvalidArgument(f"identity size must be positive, got {n}")
        data = [0.0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1.0
        return cls((n, n), data)

    @classmethod
    def random(cls, shape: Sequence[int], rng: Random) -> "Tensor":
        return cls(shape, [rng.uniform(-1.0, 1.0) for _ in range(prod(shape))])

    @classmethod
    def frombytes(cls, shape: Sequence[int], raw: bytes) -> "Tensor":
        shape = tuple(shape)
        n = prod(shape)
        if len(raw) != 8 * n:
            raise InvalidArgument(
                f"shape {shape} needs {8 * n} bytes, got {len(raw)}"
            )
        return cls(shape, struct.unpack(f"<{n}d", raw))

    def tobytes(self) -> bytes:
        """Little-endian float64 buffer; equality of buffers is bit equality."""
        return struct.pack(f"<{len(self._data)}d", *self._data)

    def tolist(self) -> list[float]:
        return list(self._data)

    def rows(self) -> list[list[float]]:
        if len(self._shape) == 1:
            return [list(self._data)]
        _, n = self._shape
        return [self._data[i * n : (i + 1) * n] for i in range(self._shape[0])]

    def item(self, i: int, j: int | None = None) -> float:
        if j is None:
            return self._data[i]
        return self._data[i * self._shape[1] + j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self._shape == other._shape and self._data == other._data

    __hash__ = None  # mutable-looking value type; not hashable

    def __repr__(self) -> str:
        shape = "x".join(str(d) for d in self._shape)
        return f"Tensor({shape}, {self._data!r})" if self.size <= 8 else f"Tensor({shape})"


def validate_matmul_shapes(a: Tensor, b: Tensor) -> None:
    """Check the inner dimensions conform; both operands must be rank 2."""
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise ShapeMismatch(f"matmul needs rank-2 tensors, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}: "
            f"column count {a.shape[1]} != row count {b.shape[0]}"
        )


def _finite_or_overflow(values: list[float], op_name: str) -> None:
    for v in values:
        if not isfinite(v):
            raise Overflow(f"{op_name} overflowed the float64 range")


def elementwise_sum(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(
            f"elementwise sum needs identical shapes, got {a.shape} and {b.shape}"
        )
    out = [x + y for x, y in zip(a._data, b._data)]
    _finite_or_overflow(out, "elementwise sum")
    return Tensor(a.shape, out)


def _columns(b: Tensor) -> list[list[float]]:
    """B transposed once: column j is every n-th entry from j."""
    n = b.shape[1]
    return [b._data[j::n] for j in range(n)]


def _mac(rows: list[list[float]], cols: list[list[float]]) -> list[list[float]]:
    """Every row times every column: the package's one multiply-accumulate loop."""
    out = []
    for row in rows:
        out_row = []
        for col in cols:
            acc = 0.0
            for x, y in zip(row, col):
                acc += x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def _product(rows: list[list[float]]) -> Tensor:
    """The kernel's output rows as a tensor; Overflow if any entry is not finite."""
    out = [x for row in rows for x in row]
    _finite_or_overflow(out, "matmul")
    return Tensor((len(rows), len(rows[0])), out)


def matmul_naive(a: Tensor, b: Tensor) -> Tensor:
    """Every row of a against every column of b in one kernel call."""
    validate_matmul_shapes(a, b)
    return _product(_mac(a.rows(), _columns(b)))


def matmul_blocked(a: Tensor, b: Tensor, config: MatmulConfig | None = None) -> Tensor:
    """The kernel over block_size x block_size output tiles; k is never split."""
    config = config or MatmulConfig()
    validate_matmul_shapes(a, b)
    bs = config.block_size
    rows, cols = a.rows(), _columns(b)
    out: list[list[float]] = [[] for _ in rows]
    for ii in range(0, len(rows), bs):
        for jj in range(0, len(cols), bs):
            for i, segment in enumerate(_mac(rows[ii : ii + bs], cols[jj : jj + bs]), ii):
                out[i] += segment
    return _product(out)


def _partition_rows(m: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous row ranges, one per worker; some may be empty."""
    base, rem = divmod(m, workers)
    bounds = []
    lo = 0
    for w in range(workers):
        hi = lo + base + (1 if w < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def matmul_parallel(a: Tensor, b: Tensor, config: MatmulConfig | None = None) -> Tensor:
    """The kernel over contiguous row bands, one per pool thread.

    The pool hands back every band, in order, or re-raises a worker's error;
    callers never see a partial result.
    """
    config = config or MatmulConfig()
    validate_matmul_shapes(a, b)
    rows, cols = a.rows(), _columns(b)
    bands = [rows[lo:hi] for lo, hi in _partition_rows(len(rows), config.worker_count) if lo < hi]
    with ThreadPoolExecutor(len(bands), thread_name_prefix="matmul-worker") as pool:
        products = list(pool.map(_mac, bands, [cols] * len(bands)))
    return _product([row for band in products for row in band])
