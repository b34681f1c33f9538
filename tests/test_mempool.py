import time
import tracemalloc
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, consumes, invariant, multiple, rule

from neurokernel import mempool
from neurokernel.errors import InvalidArgument, OutOfMemory
from neurokernel.mempool import BlockPool, PoolConfig
from neurokernel.selftest import _scan_first_fit

KIB = 1024
MIB = 1024 * 1024


def small_pool(blocks=4, classes=()):
    return BlockPool(
        PoolConfig(pool_bytes=blocks * 4096, block_bytes=4096, large_page_classes=classes)
    )


class TestPoolInit:
    def test_desk_default_block_count(self):
        pool = BlockPool(PoolConfig(pool_bytes=8 * MIB, block_bytes=4096))
        assert pool.free_blocks == 2048
        assert pool.total_blocks == 2048

    def test_full_scale_block_count(self):
        pool = BlockPool(PoolConfig(pool_bytes=512 * MIB, block_bytes=4096))
        assert pool.free_blocks == 131072

    def test_misaligned_pool_rejected(self):
        with pytest.raises(InvalidArgument):
            PoolConfig(pool_bytes=4097 * 3, block_bytes=4096)

    def test_misaligned_class_rejected(self):
        with pytest.raises(InvalidArgument):
            PoolConfig(pool_bytes=8 * MIB, block_bytes=4096, large_page_classes=(5000,))

    def test_fresh_pool_reads_zero(self):
        pool = small_pool()
        handle = pool.alloc(4)
        assert pool.read(handle) == bytes(4 * 4096)


class TestFirstFit:
    def test_empty_pool_allocates_at_zero(self):
        pool = BlockPool(PoolConfig(pool_bytes=2048 * 4096, block_bytes=4096))
        assert pool.alloc(1).first_block == 0

    def test_freed_slot_is_reused_first(self):
        pool = small_pool(blocks=8)
        first = pool.alloc(1)
        pool.alloc(1)
        pool.free(first)
        assert pool.alloc(1).first_block == 0

    def test_fragmentation_oom_despite_enough_total(self):
        # Blocks 0 and 2 allocated: blocks 1 and 3 are free but non-adjacent.
        pool = small_pool(blocks=4)
        keep0 = pool.alloc(1)
        hole = pool.alloc(1)
        keep2 = pool.alloc(1)
        pool.free(hole)
        assert {keep0.first_block, keep2.first_block} == {0, 2}
        assert pool.free_blocks == 2
        with pytest.raises(OutOfMemory):
            pool.alloc(2)

    def test_alloc_zero_blocks_rejected(self):
        with pytest.raises(InvalidArgument):
            small_pool().alloc(0)


class TestFree:
    def test_round_trip_restores_fresh_stats(self):
        pool = small_pool(blocks=8)
        handle = pool.alloc(3)
        pool.free(handle)
        assert pool.free_blocks == 8
        assert pool.live_handles == 0
        assert pool.bitmap() == (False,) * 8

    def test_double_free_rejected(self):
        pool = small_pool()
        handle = pool.alloc(1)
        pool.free(handle)
        with pytest.raises(InvalidArgument):
            pool.free(handle)

    def test_foreign_handle_rejected(self):
        other = small_pool()
        handle = other.alloc(1)
        with pytest.raises(InvalidArgument):
            small_pool().free(handle)

    @pytest.mark.parametrize("stray", ["copy", "copy with bad fields", "moved copy", "freed", "foreign"])
    def test_only_a_live_handle_this_pool_allocated_is_accepted(self, stray):
        pool = small_pool()
        handle = pool.alloc(1)
        pool.write(handle, 0, b"ab")
        if stray == "freed":
            other = pool.alloc(1)
            pool.free(other)
        elif stray == "foreign":
            other = small_pool().alloc(1)  # the same fields, from another pool
        else:
            fields = {"copy": {}, "copy with bad fields": {"first_block": None, "n_blocks": "x"},
                      "moved copy": {"first_block": 2}}[stray]
            other = replace(handle, **fields)
        before = (pool.bitmap(), pool.allocated_blocks, pool.live_handles)
        for use in (pool.free, pool.read, lambda h: pool.write(h, 0, b"cd")):
            with pytest.raises(InvalidArgument):
                use(other)
        assert (pool.bitmap(), pool.allocated_blocks, pool.live_handles) == before
        assert pool.read(handle, 0, 2) == b"ab"
        pool.free(handle)
        assert pool.live_handles == 0

    def test_free_allocates_before_it_commits(self, monkeypatch):
        pool = small_pool()
        handle = pool.alloc(2)
        pool.write(handle, 0, b"\xff")

        def scarce(size=0):
            if size == 2 * 4096:  # the zero buffer for the handle's storage
                raise MemoryError
            return bytes(size)

        monkeypatch.setattr(mempool, "bytes", scarce, raising=False)
        with pytest.raises(MemoryError):
            pool.free(handle)
        monkeypatch.undo()
        assert pool.live_handles == 1
        assert pool.allocated_blocks == sum(pool.bitmap()) == 2
        assert pool.read(handle, 0, 1) == b"\xff"
        pool.free(handle)
        assert pool.bitmap() == (False,) * 4
        assert pool.read(pool.alloc(2)) == bytes(2 * 4096)

    @pytest.mark.parametrize("alloc", [lambda pool: pool.alloc(2), lambda pool: pool.alloc_large_page(2 * 4096)],
                             ids=["alloc", "alloc_large_page"])
    def test_an_allocation_commits_only_once_its_handle_is_live(self, alloc):
        class Full(dict):
            def __setitem__(self, key, value):
                raise MemoryError

        pool = small_pool(classes=(2 * 4096,))
        pool._live = Full()
        with pytest.raises(MemoryError):
            alloc(pool)
        assert (pool.allocated_blocks, pool.live_handles) == (0, 0)
        assert pool.bitmap() == (False,) * 4
        pool._live = {}
        assert alloc(pool).first_block == 0

    def test_freed_blocks_are_zeroed_before_reuse(self):
        pool = small_pool()
        handle = pool.alloc(1)
        pool.write(handle, 0, b"\xff" * 4096)
        pool.free(handle)
        again = pool.alloc(1)
        assert again.first_block == handle.first_block
        assert pool.read(again) == bytes(4096)

    def test_a_live_handle_carries_its_written_mark(self):
        pool = small_pool()
        first, second = pool.alloc(1), pool.alloc(2)
        assert pool._live == {first: False, second: False}
        pool.write(second, 4096, b"\x01")
        assert pool._live == {first: False, second: True}
        pool.free(second)
        assert pool._live == {first: False}

    def test_a_read_copies_its_bytes_once(self):
        pool = small_pool(blocks=32)
        handle = pool.alloc(32)
        pool.write(handle, 0, b"\x07" * 4096)
        pool.read(handle)  # fills any cache before the count
        tracemalloc.start()
        try:
            data = pool.read(handle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data[:4097] == b"\x07" * 4096 + b"\x00"
        assert peak < len(data) + (4 << 10), peak


class TestLargePages:
    def test_empty_pool_first_fit(self):
        pool = BlockPool(PoolConfig(pool_bytes=8 * MIB, block_bytes=4096,
                                    large_page_classes=(64 * KIB,)))
        handle = pool.alloc_large_page(64 * KIB)
        assert handle.first_block == 0
        assert handle.n_blocks == 16

    def test_skips_to_next_aligned_run(self):
        pool = BlockPool(PoolConfig(pool_bytes=8 * MIB, block_bytes=4096,
                                    large_page_classes=(64 * KIB,)))
        pool.alloc(1)  # occupies block 0, breaking the first aligned run
        assert pool.alloc_large_page(64 * KIB).first_block == 16

    def test_unregistered_class_rejected(self):
        pool = small_pool(blocks=16, classes=(8 * 4096,))
        with pytest.raises(InvalidArgument):
            pool.alloc_large_page(3 * 4096)

    def test_aligned_oom(self):
        # 8-block pool, class of 4 blocks: block 4 allocated kills the
        # second aligned run, block 0..3 hosts the first.
        pool = small_pool(blocks=8, classes=(4 * 4096,))
        pool.alloc_large_page(4 * 4096)
        pool.alloc(1)  # lands at block 4
        with pytest.raises(OutOfMemory):
            pool.alloc_large_page(4 * 4096)


def test_randomized_invariants_against_brute_force():
    pool = small_pool(blocks=32, classes=(4 * 4096,))
    rng = Random(13)
    live = []
    for _ in range(2000):
        bits = pool.bitmap()
        roll = rng.random()
        if roll < 0.55 or not live:
            n = rng.randint(1, 5)
            expected = _scan_first_fit(bits, n)
            try:
                handle = pool.alloc(n)
            except OutOfMemory:
                assert expected is None
                continue
            assert handle.first_block == expected
            live.append(handle)
        elif roll < 0.85:
            pool.free(live.pop(rng.randrange(len(live))))
        else:
            expected = _scan_first_fit(bits, 4, align=4)
            try:
                handle = pool.alloc_large_page(4 * 4096)
            except OutOfMemory:
                assert expected is None
                continue
            assert handle.first_block == expected
            live.append(handle)
        ranges = sorted((h.first_block, h.n_blocks) for h in live)
        for (f1, n1), (f2, _) in zip(ranges, ranges[1:]):
            assert f1 + n1 <= f2, "overlapping handles"
        assert sum(pool.bitmap()) == sum(n for _, n in ranges)
        assert pool.free_blocks + pool.allocated_blocks == pool.total_blocks


def test_fresh_allocations_read_zero_after_random_writes():
    # free() zeroes only the handles write() touched: every block a fresh
    # allocation gets must still read as zero.
    pool = small_pool(blocks=32, classes=(4 * 4096,))
    rng = Random(21)
    live = []
    for _ in range(2000):
        roll = rng.random()
        if roll < 0.4 or not live:
            try:
                handle = pool.alloc_large_page(4 * 4096) if roll < 0.1 else pool.alloc(rng.randint(1, 5))
            except OutOfMemory:
                continue
            assert pool.read(handle) == bytes(handle.n_blocks * 4096)
            live.append(handle)
        elif roll < 0.75:
            handle = live[rng.randrange(len(live))]
            offset = rng.randrange(handle.n_blocks * 4096)
            data = bytes([rng.randint(1, 255)]) * rng.randint(1, handle.n_blocks * 4096 - offset)
            pool.write(handle, offset, data)
            assert pool.read(handle, offset, len(data)) == data
        else:
            pool.free(live.pop(rng.randrange(len(live))))


class PoolModel(RuleBasedStateMachine):
    """BlockPool against a set of allocated blocks and brute-force first-fit."""

    N_BLOCKS = 48
    PAGE_BLOCKS = (4, 16)

    live = Bundle("live")
    freed = Bundle("freed")

    def __init__(self):
        super().__init__()
        self.pool = small_pool(blocks=self.N_BLOCKS,
                               classes=tuple(n * 4096 for n in self.PAGE_BLOCKS))
        self.used: set[int] = set()

    def _place(self, allocate, n_blocks, align):
        bits = [i in self.used for i in range(self.N_BLOCKS)]
        expected = _scan_first_fit(bits, n_blocks, align)
        if expected is None:
            with pytest.raises(OutOfMemory):
                allocate()
            return multiple()
        handle = allocate()
        assert (handle.first_block, handle.n_blocks) == (expected, n_blocks)
        assert self.pool.read(handle) == bytes(n_blocks * 4096)  # freed blocks were zeroed
        self.pool.write(handle, 0, b"\xff" * n_blocks * 4096)
        self.used.update(range(expected, expected + n_blocks))
        return handle

    @rule(target=live, n_blocks=st.integers(1, N_BLOCKS + 2))
    def alloc(self, n_blocks):
        return self._place(lambda: self.pool.alloc(n_blocks), n_blocks, 1)

    @rule(target=live, n_blocks=st.sampled_from(PAGE_BLOCKS))
    def alloc_large_page(self, n_blocks):
        return self._place(lambda: self.pool.alloc_large_page(n_blocks * 4096), n_blocks, n_blocks)

    @rule(target=freed, handle=consumes(live))
    def free(self, handle):
        self.pool.free(handle)
        self.used.difference_update(range(handle.first_block, handle.first_block + handle.n_blocks))
        return handle

    @rule(handle=freed)
    def double_free(self, handle):
        with pytest.raises(InvalidArgument):
            self.pool.free(handle)

    @invariant()
    def stats_match_model(self):
        assert self.pool.bitmap() == tuple(i in self.used for i in range(self.N_BLOCKS))
        assert self.pool.allocated_blocks == len(self.used)
        assert self.pool.free_blocks == self.N_BLOCKS - len(self.used)


TestPoolModel = PoolModel.TestCase
TestPoolModel.settings = settings(max_examples=60, stateful_step_count=60, deadline=None)


class TestFullScale:
    def test_fill_and_drain_512_mib_pool_in_bounded_time(self):
        pool = BlockPool(PoolConfig(pool_bytes=512 * MIB, block_bytes=4096))
        deadline = time.perf_counter() + 10.0
        handles = []
        with pytest.raises(OutOfMemory):
            while True:
                handles.append(pool.alloc(1))
                assert time.perf_counter() < deadline, f"{len(handles)} blocks filled"
        assert len(handles) == pool.total_blocks == 131072
        assert pool.free_blocks == 0
        for handle in handles:
            pool.free(handle)
        assert time.perf_counter() < deadline
        assert pool.free_blocks == pool.total_blocks
        assert pool.bitmap_hex() == "00" * (131072 // 8)

    def test_request_larger_than_pool_is_refused(self):
        with pytest.raises(OutOfMemory):
            small_pool().alloc(10**15)


def _packed_hex(bits) -> str:
    """The map packed MSB-first by a loop over the blocks, as hex: the oracle."""
    out = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        if bit:
            out[i // 8] |= 0x80 >> (i % 8)
    return out.hex()


class TestBitmapHex:
    def test_msb_first_packing(self):
        pool = small_pool(blocks=8)
        pool.alloc(4)
        assert pool.bitmap_hex() == "f0"

    @given(st.lists(st.booleans(), min_size=1, max_size=200).filter(lambda bits: len(bits) % 8))
    @settings(deadline=None)
    def test_matches_the_per_block_loop(self, allocated):
        pool = small_pool(blocks=len(allocated))
        handles = [pool.alloc(1) for _ in allocated]
        for handle, keep in zip(handles, allocated):
            if not keep:
                pool.free(handle)
        assert pool.bitmap() == tuple(allocated)
        assert pool.bitmap_hex() == _packed_hex(allocated)
