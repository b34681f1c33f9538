"""Fixed-block memory pool with large-page classes, tracked by a byte map.

The pool carves a zeroed byte arena into fixed blocks, tracks them with one
byte per block, and places allocations first-fit: the lowest run of n free
blocks is the first match of n zero bytes, found in C by bytearray.find.
Large pages come out of the same arena but must start on an offset aligned
to their own size; a misaligned match restarts the search at the next
aligned offset. Sharing one arena keeps conservation checkable across both
allocators. Every free block's storage is zero. The live map holds each live
handle's written mark: write() is the one writer that sets it before it
changes storage, the device marks its regions when it allocates them, and
free() zeroes only the blocks of a handle whose mark is set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgument, OutOfMemory, check_count, check_type, shown

DEFAULT_POOL_BYTES = 8 * 1024 * 1024
DEFAULT_BLOCK_BYTES = 4096
# Desk-scale stand-ins for the 2 MiB / 1 GiB huge-page classes.
DEFAULT_LARGE_PAGE_CLASSES = (64 * 1024, 1024 * 1024)


@dataclass(frozen=True)
class PoolConfig:
    pool_bytes: int = DEFAULT_POOL_BYTES
    block_bytes: int = DEFAULT_BLOCK_BYTES
    large_page_classes: tuple[int, ...] = DEFAULT_LARGE_PAGE_CLASSES

    def __post_init__(self):
        check_count(self.block_bytes, "block_bytes")
        if check_count(self.pool_bytes, "pool_bytes") % self.block_bytes != 0:
            raise InvalidArgument(
                f"pool_bytes {shown(self.pool_bytes)} must be a positive multiple of "
                f"block_bytes {shown(self.block_bytes)}"
            )
        check_type(self.large_page_classes, (tuple, list, set, frozenset), "large_page_classes")
        classes = tuple(sorted({check_count(c, "large page class") for c in self.large_page_classes}))
        for cls_bytes in classes:
            if cls_bytes % self.block_bytes != 0:
                raise InvalidArgument(
                    f"large page class {shown(cls_bytes)} must be a positive multiple of "
                    f"block_bytes {shown(self.block_bytes)}"
                )
        object.__setattr__(self, "large_page_classes", classes)


@dataclass(frozen=True, eq=False)
class BlockHandle:
    """Ticket for a live allocation, valid between its alloc and free.

    Equal only to itself: the pool accepts the object it handed out, never a copy.
    """

    first_block: int
    n_blocks: int


class BlockPool:
    """Fixed-block arena with a one-byte-per-block allocation map."""

    def __init__(self, config: PoolConfig | None = None):
        self.config = PoolConfig() if config is None else check_type(config, PoolConfig, "pool config")
        self._n_blocks = self.config.pool_bytes // self.config.block_bytes
        self._allocated = 0
        try:
            self._bitmap = bytearray(self._n_blocks)  # 1 = allocated
            self._storage = bytearray(self.config.pool_bytes)
        except (MemoryError, OverflowError):  # OverflowError: a size past the address space
            raise OutOfMemory(
                f"host cannot back a {shown(self.config.pool_bytes)}-byte pool"
            ) from None
        # Each live handle, in allocation order, mapped to its written mark: whether free() zeroes it.
        self._live: dict[BlockHandle, bool] = {}

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
        return len(self._live)

    def bitmap(self) -> tuple[bool, ...]:
        """Snapshot of the allocation map; True means allocated."""
        return tuple(map(bool, self._bitmap))

    def bitmap_hex(self) -> str:
        """Bitmap packed MSB-first, so the hex string reads in block order."""
        # One binary digit per block; the shift pads the last byte with zeros.
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
        handle, taken = BlockHandle(first, n_blocks), b"\x01" * n_blocks
        self._live[handle] = False  # before the map and counter: a MemoryError leaves the pool as it was
        self._bitmap[first : first + n_blocks] = taken
        self._allocated += n_blocks
        return handle

    def alloc(self, n_blocks: int) -> BlockHandle:
        """First-fit allocation of a contiguous run; contents read as zero."""
        first = self._find_run(check_count(n_blocks, "n_blocks"))
        if first is None:
            raise OutOfMemory(
                f"no contiguous run of {shown(n_blocks)} free blocks "
                f"({self.total_blocks - self._allocated} free in total)"
            )
        return self._take_run(first, n_blocks)

    def alloc_large_page(self, class_bytes: int) -> BlockHandle:
        """Allocate one large page: a class-aligned run of class/block blocks."""
        if check_count(class_bytes, "class_bytes") not in self.config.large_page_classes:
            raise InvalidArgument(
                f"{shown(class_bytes)} is not a registered large-page class "
                f"{shown(self.config.large_page_classes)}"
            )
        n_blocks = class_bytes // self.config.block_bytes
        first = self._find_run(n_blocks, align_blocks=n_blocks)
        if first is None:
            raise OutOfMemory(
                f"no {shown(class_bytes)}-aligned run of {n_blocks} free blocks"
            )
        return self._take_run(first, n_blocks)

    def _entry(self, handle: BlockHandle) -> tuple[int, int]:
        """(first block, block count) of a handle this pool allocated and has not freed."""
        # Per job, so the checker runs only on failure; the exact type keeps a subclass's __eq__ out.
        if not (type(handle) is BlockHandle and handle in self._live):
            check_type(handle, BlockHandle, "handle")
            raise InvalidArgument(f"handle {shown(handle)} is not live in this pool")
        return handle.first_block, handle.n_blocks

    def free(self, handle: BlockHandle) -> None:
        """Release a live handle; blocks it wrote are zeroed, so free storage stays zero.

        The zero buffer, the largest allocation, is built before any state
        changes, so a MemoryError there leaves the handle live.
        """
        first, n_blocks = self._entry(handle)
        bb = self.config.block_bytes
        zeros = bytes(n_blocks * bb) if self._live[handle] else None
        self._bitmap[first : first + n_blocks] = bytes(n_blocks)
        self._allocated -= n_blocks
        if zeros is not None:
            self._storage[first * bb : (first + n_blocks) * bb] = zeros
        del self._live[handle]

    # -- data access ------------------------------------------------------

    def _span(self, handle: BlockHandle, offset: int, length: int | None) -> tuple[int, int]:
        """Storage (start, length) of an access; a length of None runs to the end."""
        first, n_blocks = self._entry(handle)
        span = n_blocks * self.config.block_bytes
        check_count(offset, "offset", 0, span)
        length = span - offset if length is None else check_count(length, "length", 0, span - offset)
        return first * self.config.block_bytes + offset, length

    def read(self, handle: BlockHandle, offset: int = 0, length: int | None = None) -> bytes:
        start, length = self._span(handle, offset, length)
        return memoryview(self._storage)[start : start + length].tobytes()  # one copy, not two

    def write(self, handle: BlockHandle, offset: int, data: bytes) -> None:
        check_type(data, (bytes, bytearray), "data")
        start, length = self._span(handle, offset, len(data))
        self._live[handle] = True  # first: a fault after it costs free() only a redundant zeroing
        self._storage[start : start + length] = data

