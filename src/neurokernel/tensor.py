"""Dense rank-1/rank-2 float64 tensors and the one matrix kernel over them.

A tensor packs its entries in an ``array('d')``, 8 bytes each, so
``tobytes`` and device staging (``_store``, ``_load``) copy bytes. Every
matrix product (naive, blocked, parallel, the device's and the scheduler's)
unboxes A's rows and B's columns once (``_operands``: the rows cut as tuples
in C, the columns sliced from one ``tolist()``) and runs through ``_mac``,
which walks k in slices of at most ``_WIDTH`` = 64 entries.
Each slice runs a straight-line kernel generated for its width w, compiled
on first use and cached (``_kernel``): it unpacks the w row entries into
locals and appends ``acc + r0 * c0 + r1 * c1 + ...`` for each column to one
row-major list, acc being the literal 0.0 on the first slice; ``_product``
packs that list into the product's exact storage (``struct.pack_into``).
Python evaluates ``+`` left to right and CPython never fuses a multiply with
an add, so every element is ``((0.0 + a0*b0) + a1*b1) + ...`` in ascending
k: the roundings of the loop ``acc += x * y`` it replaced, bit for bit on
every Python. Row bands split only rows, so they reproduce the naive
product too; ``sum`` and ``math.fsum`` compensate and would not. The
kernel's source is built from integers alone.

The width is bounded. One expression over the whole of k raises
RecursionError in the compiler at k = 3,000 (Python 3.11), and a kernel per
k costs compile time that grows with k (51 ms for one expression at
k = 1,000), while a 64-wide kernel compiles in about 1 ms. Kernel alone,
loop -> generated, best of 5 (2 cores, Python 3.11.7): n = 4 / 16 / 64 / 128
square in 0.0071 / 0.27 / 12-14 / 95-112 ms -> 0.0048 / 0.12-0.16 / 6.4 /
55-57 ms. The one loss measured is the degenerate 1 x 65,536 by 65,536 x 1
dot product, 2.6-3.8 -> 4.2-5.8 ms, where per-slice overhead dominates.

In one process, row bands are a driver, not a speed-up: naive and 32-row
bands took 5.24 and 5.30 ms at n = 64, 42.5 and 42.3 ms at n = 128 (median
of 25, 2 cores, Python 3.11.7). ``matmul_parallel`` runs them in separate
processes, where the GIL does not serialize them: the caller computes the
last band, and worker_count - 1 ``forkserver`` worker processes the others,
one band each over its own pipe (``_on_workers``). The first product to need
a worker starts it, and later products reuse it. Bands and B's columns travel
pickled as lists of floats, which round-trip exactly, and the workers run
the same ``_mac``, so the bands are bit-identical to naive. Each worker
re-imports the main module, which must be importable, its entry point
guarded by ``if __name__ == "__main__":``; a main read from stdin is not, so
its workers die at start (one KernelError).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, prod
from random import Random
from struct import pack_into
from typing import Iterable, Sequence

from .errors import (
    InvalidArgument, KernelError, OutOfMemory, Overflow, ShapeMismatch, check_count, check_type, shown,
)

MAX_WORKERS = 8
DEFAULT_BLOCK_SIZE = 64
_WIDTH = 64  # entries of k per generated kernel; bounds each expression and the cache
_MAX_ENTRIES = sys.maxsize // 8  # the most entries an array('d') can hold: 8 bytes each
_BYTEORDER = sys.byteorder  # of the array's native float64; tobytes() is little-endian


@dataclass(frozen=True)
class MatmulConfig:
    """Rows a band for matmul_blocked, and bands for matmul_parallel: one in the caller, one per other worker."""

    block_size: int = DEFAULT_BLOCK_SIZE
    worker_count: int = 4

    def __post_init__(self):
        check_count(self.block_size, "block_size")
        check_count(self.worker_count, "worker_count", 1, MAX_WORKERS)


class Tensor:
    """Row-major float64 tensor of rank 1 or 2, immutable through its surface:
    shape and size have no setter, and no public method changes the entries.

    Construction rejects NaN and infinity, so any non-finite value produced
    by an operation is a float64 overflow and is reported as Overflow.
    """

    __slots__ = ("_shape", "_data")

    def __init__(self, shape: Sequence[int], data: Iterable[float]):
        shape = _checked_shape(shape)
        check_type(data, Iterable, "tensor entries")
        try:  # array() would read a bytes initializer as raw float64s, not as ints
            values = array("d", iter(data) if isinstance(data, (bytes, bytearray)) else data)
        except (TypeError, ValueError, OverflowError):  # a str, None, an int past float64
            raise InvalidArgument("tensor entries must be real numbers") from None
        expected = prod(shape)
        if len(values) != expected:
            raise InvalidArgument(
                f"shape {shown(shape)} needs {expected} entries, got {len(values)}"
            )
        _require_finite(values)
        self._shape, self._data = shape, values

    @classmethod
    def _from_finite(cls, shape: tuple[int, ...], values: array) -> "Tensor":
        """Adopt values already checked: prod(shape) finite float64s, owned by no one else."""
        tensor = object.__new__(cls)
        tensor._shape, tensor._data = shape, values
        return tensor

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def size(self) -> int:
        return len(self._data)

    @classmethod
    def vector(cls, values: Iterable[float]) -> "Tensor":
        values = list(check_type(values, Iterable, "vector entries"))
        return cls((len(values),), values)

    @classmethod
    def identity(cls, n: int) -> "Tensor":
        shape = _checked_shape((n, n))
        data = _reserve(shape)
        data[:: n + 1] = array("d", [1.0]) * n
        return cls._from_finite(shape, data)

    @classmethod
    def random(cls, shape: Sequence[int], rng: Random) -> "Tensor":
        shape = _checked_shape(shape)
        check_type(rng, Random, "rng")
        data, uniform = _reserve(shape), rng.uniform
        try:  # a Random subclass may draw anything
            for i in range(len(data)):
                data[i] = uniform(-1.0, 1.0)
        except (TypeError, ValueError, OverflowError):
            raise InvalidArgument("tensor entries must be real numbers") from None
        _require_finite(data)
        return cls._from_finite(shape, data)

    def tobytes(self) -> bytes:
        """Little-endian float64 buffer; equality of buffers is bit equality, the one tensor equality."""
        return _little_endian(self._data).tobytes()

    def tolist(self) -> list[float]:
        return self._data.tolist()

    def __repr__(self) -> str:
        shape = "x".join(str(d) for d in self._shape)
        return f"Tensor({shape}, {self._data.tolist()!r})" if self.size <= 8 else f"Tensor({shape})"


def _checked_shape(shape: Sequence[int]) -> tuple[int, ...]:
    if type(shape) is tuple and len(shape) == 2:  # per task and staged tensor: the timed-loop form
        m, n = shape
        if type(m) is int and type(n) is int and m > 0 and n > 0 and m * n <= _MAX_ENTRIES:
            return shape
    try:
        shape = tuple(shape)
    except TypeError:
        raise InvalidArgument(f"tensor shape must be a sequence of ints, got {shown(shape)}") from None
    if len(shape) not in (1, 2):
        raise InvalidArgument(f"tensor rank must be 1 or 2, got shape {shown(shape)}")
    for d in shape:
        check_count(d, "tensor dimension")
    if prod(shape) > _MAX_ENTRIES:
        raise OutOfMemory(f"host cannot hold a tensor of shape {'x'.join(map(shown, shape))}")
    return shape


def _reserve(shape: tuple[int, ...]) -> array:
    """Zeroed storage for a tensor of this shape, in one allocation, or OutOfMemory."""
    try:
        return array("d", [0.0]) * prod(shape)
    except MemoryError:  # a count an array can hold, but this host cannot
        raise OutOfMemory(f"host cannot hold a tensor of shape {'x'.join(map(shown, shape))}") from None


def _require_finite(values: array, error=InvalidArgument, detail="tensor entries must be finite (no NaN/Inf)"):
    """Refuse NaN and infinity: either makes a float sum non-finite; only an overflowed sum walks each entry."""
    if not (isfinite(sum(values, 0.0)) or all(map(isfinite, values))):
        raise error(detail)


def _little_endian(values: array) -> array:
    """values as little-endian float64s: the array itself, or on a big-endian host a swapped copy."""
    if _BYTEORDER == "little":
        return values
    swapped = array("d", values)
    swapped.byteswap()
    return swapped


def _store(tensor: Tensor, view: memoryview, offset: int) -> None:
    """Copy a tensor's entries into a byte view at offset as tobytes() lays them out: one memcpy."""
    view[offset : offset + 8 * tensor.size] = memoryview(_little_endian(tensor._data)).cast("B")


def _load(shape: tuple[int, ...], view: memoryview, offset: int) -> Tensor:
    """The package's one decoder: the float64s at offset in a byte view, one memcpy into exact storage."""
    values = _reserve(shape)
    memoryview(values).cast("B")[:] = view[offset : offset + 8 * len(values)]
    if _BYTEORDER != "little":
        values.byteswap()
    _require_finite(values)
    return Tensor._from_finite(shape, values)


def validate_matmul_shapes(a: Tensor, b: Tensor) -> None:
    """Check both operands are Tensors of rank 2 whose inner dimensions conform."""
    if not (isinstance(a, Tensor) and isinstance(b, Tensor)):  # per product: the checker only on failure
        check_type(a, Tensor, "matmul operand a")
        check_type(b, Tensor, "matmul operand b")
    _matmul_shape(a.shape, b.shape)


def _matmul_shape(a_shape: tuple[int, ...], b_shape: tuple[int, ...]) -> tuple[int, int]:
    """The product's shape, if a_shape by b_shape conform; the host and the device refuse alike."""
    if len(a_shape) != 2 or len(b_shape) != 2:
        raise ShapeMismatch(f"matmul needs rank-2 tensors, got {a_shape} and {b_shape}")
    if a_shape[1] != b_shape[0]:
        raise ShapeMismatch(
            f"cannot multiply {a_shape[0]}x{a_shape[1]} by {b_shape[0]}x{b_shape[1]}: "
            f"column count {a_shape[1]} != row count {b_shape[0]}"
        )
    return a_shape[0], b_shape[1]


def _sum_shape(a_shape: tuple[int, ...], b_shape: tuple[int, ...]) -> tuple[int, ...]:
    """The sum's shape, if a_shape and b_shape are identical."""
    if a_shape != b_shape:
        raise ShapeMismatch(f"elementwise sum needs identical shapes, got {a_shape} and {b_shape}")
    return a_shape


def elementwise_sum(a: Tensor, b: Tensor) -> Tensor:
    if not (isinstance(a, Tensor) and isinstance(b, Tensor)):
        check_type(a, Tensor, "elementwise sum operand a")
        check_type(b, Tensor, "elementwise sum operand b")
    shape = _sum_shape(a.shape, b.shape)
    out = array("d", [x + y for x, y in zip(a._data, b._data)])
    _require_finite(out, Overflow, "elementwise sum overflowed the float64 range")
    return Tensor._from_finite(shape, out)


def _operands(a: Tensor, b: Tensor) -> tuple[list[tuple[float, ...]], list[list[float]], tuple[int, int]]:
    """Every product's prologue: the checked operands cut once for _mac, and the product's shape.

    A's rows are tuples of k entries cut in C straight from its storage; B is
    unboxed once (``tolist()``) and column j is every n-th entry from j.
    """
    validate_matmul_shapes(a, b)
    k, n = b._shape
    data = b._data.tolist()
    return list(zip(*[iter(a._data)] * k)), [data[j::n] for j in range(n)], (a._shape[0], n)


@lru_cache(maxsize=2 * _WIDTH)
def _kernel(w: int, carried: bool):
    """The compiled straight-line kernel for one slice of w entries of k.

    ``kernel(row, cols, accs, append)`` unpacks the w row entries into locals
    and appends ``acc + r0 * c0 + ...`` for each column, acc being its sum
    over the slices before, drawn from the iterator accs if ``carried``, else
    the literal 0.0: the same expression and roundings, with no accumulators.
    """
    r = ", ".join(f"r{p}" for p in range(w))
    c = ", ".join(f"c{p}" for p in range(w))
    terms = " + ".join(f"r{p} * c{p}" for p in range(w))
    loop, acc = ((f"({c},), acc in zip(cols, accs)", "acc") if carried else (f"{c}, in cols", "0.0"))
    source = (
        "def kernel(row, cols, accs, append):\n"
        f"    {r}, = row\n"
        f"    for {loop}:\n"
        f"        append({acc} + {terms})\n"
    )
    namespace: dict = {}
    exec(compile(source, f"<matmul kernel, width {w}{', carried' if carried else ''}>", "exec"), namespace)
    return namespace["kernel"]


def _mac(rows: list[tuple[float, ...]], cols: list[list[float]]) -> list[float]:
    """Every row times every column, row-major in one list: the package's one multiply-accumulate kernel.

    k is walked in slices of at most _WIDTH entries, in ascending order; each
    output's partial sum starts at 0.0 and is carried from slice to slice.
    """
    k, out = len(cols[0]), []
    if k <= _WIDTH:  # one slice: the rows and columns as they are, no copies
        kernel, append = _kernel(k, False), out.append
        for row in rows:
            kernel(row, cols, None, append)
        return out
    for lo in range(0, k, _WIDTH):
        hi = lo + _WIDTH
        kernel, segment = _kernel(min(_WIDTH, k - lo), lo > 0), [col[lo:hi] for col in cols]
        # zip(cols, accs) stops on cols first, so each row takes exactly its own sums from one iterator.
        accs, out = iter(out), []
        append = out.append
        for row in rows:
            kernel(row[lo:hi], segment, accs, append)
    return out


def _product(parts: list[list[float]], shape: tuple[int, int]) -> Tensor:
    """The kernel's row-major output, in consecutive parts, as a tensor; Overflow if any entry is not finite."""
    out, offset = _reserve(shape), 0  # exact; packed in C, where array() converts entry by entry
    for part in parts:
        pack_into(f"{len(part)}d", out, offset, *part)
        offset += 8 * len(part)
    if not isfinite(sum(map(sum, parts), 0.0)):  # _require_finite's test, by parts
        _require_finite(out, Overflow, "matmul overflowed the float64 range")
    return Tensor._from_finite(shape, out)


def matmul_naive(a: Tensor, b: Tensor) -> Tensor:
    """Every row of a against every column of b in one kernel call."""
    rows, cols, shape = _operands(a, b)
    return _product([_mac(rows, cols)], shape)


def _bands(rows: list, height: int) -> list:
    """rows in consecutive bands of height rows, in order; the last band is shorter if height does not divide them."""
    return [rows[lo : lo + height] for lo in range(0, len(rows), height)]


def matmul_blocked(a: Tensor, b: Tensor, config: MatmulConfig | None = None) -> Tensor:
    """The kernel over bands of block_size rows of a; k is never split."""
    config = MatmulConfig() if config is None else check_type(config, MatmulConfig, "matmul config")
    rows, cols, shape = _operands(a, b)
    return _product([_mac(band, cols) for band in _bands(rows, config.block_size)], shape)


# Row bands go to worker processes from this many multiply-adds (m*k*n) on, an
# earlier process pool's break-even (0.63-1.13x at n = 48). Squares, 2 workers
# against naive, median of 25 (2 cores, Python 3.11.7, second core free): 1.46-
# 1.54x at n = 64, 1.48-1.57x at 72, 1.57-1.75x at 88 and 1.67-1.76x at 128.
_POOL_MIN_MACS = 64 ** 3
_workers: list = []  # (process, pipe) pairs, started on demand and kept until a failure


def _serve(pipe) -> None:
    """A worker's loop: receive a band and B's columns, send back their _mac, until the pipe closes."""
    while True:
        try:
            band, cols = pipe.recv()
        except EOFError:  # the caller closed its end, or exited
            return
        pipe.send(_mac(band, cols))


def _close_workers() -> None:
    """Stop every worker; the next pooled call starts fresh ones, so no result left in a pipe is read."""
    for process, pipe in _workers:
        pipe.close()
        process.kill()
        process.join()
    _workers.clear()


def _on_workers(bands: list[list[tuple[float, ...]]], cols: list[list[float]]) -> list[list[float]]:
    """``_mac`` of each band against cols, in band order: the last band here, each other in a worker process.

    Every band is sent before this process runs its own and received after,
    so no thread runs beside the caller. Workers start when a call first
    needs them (``multiprocessing`` is imported only then) and serve later
    calls. Any failure closes every worker: a worker's pipe that fails (the
    worker died, or never started) is one KernelError, and any other
    exception, the caller's own band's too, passes through.
    """
    import multiprocessing
    from pickle import dumps

    *sent, last = bands
    try:
        # forkserver forks each worker from a single-threaded server, never
        # from this process and its threads; the worker re-imports __main__.
        context = multiprocessing.get_context("forkserver")
        while len(_workers) < len(sent):
            pipe, theirs = context.Pipe()
            # A daemon: multiprocessing's exit hook stops it when this process exits.
            process = context.Process(target=_serve, args=(theirs,), daemon=True)
            process.start()
            theirs.close()  # held here too, a dead worker's pipe would not fail
            _workers.append((process, pipe))
        pipes = [pipe for _, pipe in _workers[: len(sent)]]
        for band, pipe in zip(sent, pipes):
            pipe.send_bytes(dumps((band, cols)))  # a failed send() would keep a BytesIO view GC cannot close
        mine = _mac(last, cols)
        return [pipe.recv() for pipe in pipes] + [mine]
    except (EOFError, OSError) as exc:
        _close_workers()
        raise KernelError(f"a matmul worker process died: {exc!r}") from exc
    except BaseException:
        _close_workers()
        raise


def matmul_parallel(a: Tensor, b: Tensor, config: MatmulConfig | None = None) -> Tensor:
    """The kernel over bands of ceil(m / worker_count) rows of a: the last here, each other in a worker process.

    Below _POOL_MIN_MACS, or with one band, the product runs in this process.
    Callers get every band, in order, or one exception; never a partial
    result.
    """
    config = MatmulConfig() if config is None else check_type(config, MatmulConfig, "matmul config")
    rows, cols, shape = _operands(a, b)
    bands = _bands(rows, -(-len(rows) // config.worker_count))
    in_process = len(bands) == 1 or len(rows) * len(cols[0]) * len(cols) < _POOL_MIN_MACS
    return _product([_mac(rows, cols)] if in_process else _on_workers(bands, cols), shape)
