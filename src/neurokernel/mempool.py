"""Fixed-block memory pool with large-page classes, tracked by a byte map.

The pool carves a zeroed byte arena into fixed blocks, tracks them with one
byte per block, and places allocations first-fit: the lowest run of n free
blocks is the first match of n zero bytes, found in C by bytearray.find.
Large pages come out of the same arena but must start on an offset aligned
to their own size; a misaligned match restarts the search at the next
aligned offset. Sharing one arena keeps conservation checkable across both
allocators. Every free block's storage is zero: write() is the only path
that changes storage, so free() zeroes only the blocks of a handle that was
written. Also home to the zero-copy SharedBuffer used for device
interchange.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

from .errors import InvalidArgument, OutOfMemory, check_count

DEFAULT_POOL_BYTES = 8 * 1024 * 1024
DEFAULT_BLOCK_BYTES = 4096
# Desk-scale stand-ins for the 2 MiB / 1 GiB huge-page classes.
DEFAULT_LARGE_PAGE_CLASSES = (64 * 1024, 1024 * 1024)

_POOL_IDS = itertools.count(1)


@dataclass(frozen=True)
class PoolConfig:
    pool_bytes: int = DEFAULT_POOL_BYTES
    block_bytes: int = DEFAULT_BLOCK_BYTES
    large_page_classes: tuple[int, ...] = DEFAULT_LARGE_PAGE_CLASSES

    def __post_init__(self):
        check_count(self.block_bytes, "block_bytes")
        if check_count(self.pool_bytes, "pool_bytes") % self.block_bytes != 0:
            raise InvalidArgument(
                f"pool_bytes {self.pool_bytes} must be a positive multiple of "
                f"block_bytes {self.block_bytes}"
            )
        if not isinstance(self.large_page_classes, (tuple, list, set, frozenset)):
            raise InvalidArgument(f"large_page_classes must be a collection, got {self.large_page_classes!r}")
        classes = tuple(sorted({check_count(c, "large page class") for c in self.large_page_classes}))
        for cls_bytes in classes:
            if cls_bytes % self.block_bytes != 0:
                raise InvalidArgument(
                    f"large page class {cls_bytes} must be a positive multiple of "
                    f"block_bytes {self.block_bytes}"
                )
        object.__setattr__(self, "large_page_classes", classes)


@dataclass(frozen=True)
class BlockHandle:
    """Ticket for a live allocation; valid between its alloc and free."""

    id: int
    first_block: int
    n_blocks: int
    pool_id: int


class BlockPool:
    """Fixed-block arena with a one-byte-per-block allocation map."""

    def __init__(self, config: PoolConfig | None = None):
        self.config = config or PoolConfig()
        self._pool_id = next(_POOL_IDS)
        self._n_blocks = self.config.pool_bytes // self.config.block_bytes
        self._bitmap = bytearray(self._n_blocks)  # 1 = allocated
        self._allocated = 0
        try:
            self._storage = bytearray(self.config.pool_bytes)
        except MemoryError:
            raise OutOfMemory(
                f"host cannot back a {self.config.pool_bytes}-byte pool"
            ) from None
        self._ledger: dict[int, tuple[int, int]] = {}
        self._written: set[int] = set()  # ids of live handles whose storage write() changed
        self._next_handle = itertools.count(1)
        self._lock = threading.Lock()

    # -- stats ------------------------------------------------------------

    @property
    def total_blocks(self) -> int:
        return self._n_blocks

    @property
    def allocated_blocks(self) -> int:
        return self._allocated

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self.allocated_blocks

    @property
    def live_handles(self) -> int:
        """Handles allocated and not yet freed; the jobs benchmark's leak check reads it."""
        return len(self._ledger)

    def bitmap(self) -> tuple[bool, ...]:
        """Snapshot of the allocation map; True means allocated."""
        with self._lock:
            return tuple(map(bool, self._bitmap))

    def bitmap_hex(self) -> str:
        """Bitmap packed MSB-first, so the hex string reads in block order."""
        with self._lock:  # one binary digit per block; the shift pads the last byte with zeros
            digits = self._bitmap.translate(bytes.maketrans(b"\x00\x01", b"01"))
        return (int(digits, 2) << -len(digits) % 8).to_bytes((len(digits) + 7) // 8, "big").hex()

    # -- allocation -------------------------------------------------------

    def _find_run(self, n_blocks: int, align_blocks: int = 1) -> int | None:
        """Lowest-indexed run of n free blocks starting on the alignment."""
        if n_blocks > self._n_blocks:
            return None
        hole = bytes(n_blocks)
        i = self._bitmap.find(hole)
        while i > 0 and i % align_blocks:
            # No free run starts before i, so the next candidate is the next aligned offset.
            i = self._bitmap.find(hole, i - i % align_blocks + align_blocks)
        return i if i >= 0 else None

    def _take_run(self, first: int, n_blocks: int) -> BlockHandle:
        self._bitmap[first : first + n_blocks] = b"\x01" * n_blocks
        self._allocated += n_blocks
        handle = BlockHandle(next(self._next_handle), first, n_blocks, self._pool_id)
        self._ledger[handle.id] = (first, n_blocks)
        return handle

    def alloc(self, n_blocks: int) -> BlockHandle:
        """First-fit allocation of a contiguous run; contents read as zero."""
        check_count(n_blocks, "n_blocks")
        with self._lock:
            first = self._find_run(n_blocks)
            if first is None:
                raise OutOfMemory(
                    f"no contiguous run of {n_blocks} free blocks "
                    f"({self.total_blocks - self._allocated} free in total)"
                )
            return self._take_run(first, n_blocks)

    def alloc_large_page(self, class_bytes: int) -> BlockHandle:
        """Allocate one large page: a class-aligned run of class/block blocks."""
        if check_count(class_bytes, "class_bytes") not in self.config.large_page_classes:
            raise InvalidArgument(
                f"{class_bytes} is not a registered large-page class "
                f"{self.config.large_page_classes}"
            )
        n_blocks = class_bytes // self.config.block_bytes
        with self._lock:
            first = self._find_run(n_blocks, align_blocks=n_blocks)
            if first is None:
                raise OutOfMemory(
                    f"no {class_bytes}-aligned run of {n_blocks} free blocks"
                )
            return self._take_run(first, n_blocks)

    def _entry(self, handle: BlockHandle) -> tuple[int, int]:
        """(first block, block count) of a handle live in this pool."""
        if type(handle) is not BlockHandle or type(handle.id) is not int:
            raise InvalidArgument(f"not a BlockHandle: {handle!r}")
        if handle.pool_id != self._pool_id:
            raise InvalidArgument("handle belongs to a different pool")
        entry = self._ledger.get(handle.id)
        if entry is None:
            raise InvalidArgument(f"handle {handle.id} is not live in this pool")
        return entry

    def free(self, handle: BlockHandle) -> None:
        """Release a live handle; blocks it wrote are zeroed, so free storage stays zero."""
        with self._lock:
            first, n_blocks = self._entry(handle)
            self._bitmap[first : first + n_blocks] = bytes(n_blocks)
            self._allocated -= n_blocks
            if handle.id in self._written:
                self._written.remove(handle.id)
                bb = self.config.block_bytes
                start = first * bb
                self._storage[start : start + n_blocks * bb] = bytes(n_blocks * bb)
            del self._ledger[handle.id]

    # -- data access ------------------------------------------------------

    def _span(self, handle: BlockHandle, offset: int, length: int | None) -> tuple[int, int]:
        """Storage (start, length) of an access; a length of None runs to the end."""
        first, n_blocks = self._entry(handle)
        span = n_blocks * self.config.block_bytes
        check_count(offset, "offset", 0)
        if length is None:
            length = max(0, span - offset)
        if check_count(length, "length", 0) + offset > span:
            raise InvalidArgument(
                f"access [{offset}, {offset + length}) outside {span}-byte allocation"
            )
        return first * self.config.block_bytes + offset, length

    def read(self, handle: BlockHandle, offset: int = 0, length: int | None = None) -> bytes:
        with self._lock:
            start, length = self._span(handle, offset, length)
            return bytes(self._storage[start : start + length])

    def write(self, handle: BlockHandle, offset: int, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray)):
            raise InvalidArgument(f"data must be bytes, got {type(data).__name__}")
        with self._lock:
            start, length = self._span(handle, offset, len(data))
            self._storage[start : start + length] = data
            self._written.add(handle.id)


class SharedBufferView:
    """Window onto a SharedBuffer; all views alias the same storage."""

    def __init__(self, buffer: "SharedBuffer"):
        self._buffer = buffer

    def write(self, offset: int, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray)):
            raise InvalidArgument(f"data must be bytes, got {type(data).__name__}")
        self._buffer._check_range(offset, len(data))
        self._buffer._storage[offset : offset + len(data)] = data

    def read(self, offset: int, length: int) -> bytes:
        self._buffer._check_range(offset, length)
        return bytes(self._buffer._storage[offset : offset + length])

    @property
    def size(self) -> int:
        return self._buffer.size


class SharedBuffer:
    """Fixed-size byte buffer shared by aliasing views.

    copy_counter counts staging copies made by the buffer itself (only
    snapshot() stages); aliased view reads and writes leave it at zero,
    which is what makes "zero-copy" an assertable property.
    """

    def __init__(self, size: int = 4096):
        check_count(size, "buffer size")
        self._storage = bytearray(size)
        self.size = size
        self.copy_counter = 0

    def _check_range(self, offset: int, length: int) -> None:
        if check_count(offset, "offset", 0) + check_count(length, "length", 0) > self.size:
            raise InvalidArgument(
                f"access [{offset}, {offset + length}) outside {self.size}-byte buffer"
            )

    def view(self) -> SharedBufferView:
        return SharedBufferView(self)

    def snapshot(self) -> bytes:
        """Copy the whole buffer out; the one operation that stages bytes."""
        self.copy_counter += 1
        return bytes(self._storage)
