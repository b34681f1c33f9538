import os
import signal
import struct
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from array import array
from decimal import Decimal
from fractions import Fraction
from math import copysign
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import neurokernel.tensor as tensor
from neurokernel.accel import AccelDevice, AccelOp, AccelTask
from neurokernel.errors import InvalidArgument, KernelError, Overflow, ShapeMismatch
from neurokernel.scheduler import matmul_work
from neurokernel.selftest import _reference_matmul
from neurokernel.tensor import (
    MatmulConfig,
    Tensor,
    elementwise_sum,
    matmul_blocked,
    matmul_naive,
    matmul_parallel,
    validate_matmul_shapes,
    _bands,
)


def _device_read(shape: tuple, raw: bytes) -> Tensor:
    """What a device read decodes from raw bytes: the package's one decoder, tensor._load."""
    dev = AccelDevice()
    region = dev.allocate(len(raw))
    dev._buffer[8 * region.first_block : 8 * region.first_block + len(raw)] = raw
    return dev.read_tensor(region, shape)


class TestConstruction:
    # Also infinities that cancel to NaN, and finite entries that overflow beside a NaN or an infinity.
    @pytest.mark.parametrize("entries", [
        [1.0, float("nan")], [float("inf"), 0.0], [float("inf"), float("-inf")],
        [1.7e308, 1.7e308, float("nan")], [-1.7e308, -1.7e308, float("inf")], [float("-inf"), 1e308],
    ])
    def test_rejects_nan_and_inf(self, entries):
        with pytest.raises(InvalidArgument, match="finite"):
            Tensor((len(entries),), entries)

    def test_rejects_shape_data_mismatch(self):
        with pytest.raises(InvalidArgument):
            Tensor((2, 2), [1.0, 2.0, 3.0])

    def test_rejects_rank_3(self):
        with pytest.raises(InvalidArgument):
            Tensor((1, 1, 1), [1.0])

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(InvalidArgument):
            Tensor((0,), [])

    def test_immutable(self):
        t = Tensor.vector([1.0])
        with pytest.raises(AttributeError):
            t.shape = (2,)

    def test_bytes_round_trip(self):
        t = Tensor.random((3, 4), Random(1))
        assert _device_read((3, 4), t.tobytes()).tobytes() == t.tobytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_a_read_refuses_non_finite_bytes(self, bad):
        with pytest.raises(InvalidArgument):
            _device_read((3,), struct.pack("<3d", 1.0, bad, 2.0))

    # A read checks its shape before it touches the buffer: the 8-byte region
    # is never the reason, since rank and dimensions are refused first.
    @pytest.mark.parametrize("shape", [(1, 1, 1), (0,), (0, 2), (-1, 2), (-1, -1)])
    def test_a_read_refuses_bad_shapes(self, shape):
        with pytest.raises(InvalidArgument):
            _device_read(shape, bytes(8))

    def test_a_flipped_byte_order_writes_and_reads_the_other_order(self, monkeypatch):
        # No CI host is big-endian. With the module's byte order flipped,
        # tobytes() byte-swaps on a little-endian host (and stops swapping on
        # a big-endian one), so it writes big-endian float64s either way.
        t = Tensor.random((3, 4), Random(2))
        assert t.tobytes() == struct.pack(f"<{t.size}d", *t.tolist())
        monkeypatch.setattr(tensor, "_BYTEORDER", "big" if sys.byteorder == "little" else "little")
        raw = t.tobytes()
        assert raw == struct.pack(f">{t.size}d", *t.tolist())
        assert _device_read((3, 4), raw).tolist() == t.tolist()

    @pytest.mark.parametrize("entry, value", [
        (Decimal("1.5"), 1.5), (Fraction(1, 4), 0.25), (True, 1.0), (-3, -3.0),
        (type("Real", (), {"__float__": lambda self: 2.5})(), 2.5),
        (type("Index", (), {"__index__": lambda self: 7})(), 7.0),
    ], ids=["Decimal", "Fraction", "bool", "int", "__float__", "__index__"])
    def test_an_entry_is_anything_isfinite_takes(self, entry, value):
        assert Tensor((1,), [entry]).tolist() == [value]

    @pytest.mark.parametrize("data", [b"\x01\x02", bytearray(b"\x01\x02"), memoryview(b"\x01\x02")],
                             ids=["bytes", "bytearray", "memoryview"])
    def test_a_bytes_initializer_is_a_sequence_of_ints(self, data):
        assert Tensor((2,), data).tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("entries", [
        [1.7e308, 1.7e308], [-1.7e308, -1e308, 5.0], [1e308, 1e308, -1e308],
    ])
    def test_finite_entries_whose_sum_overflows_are_taken(self, entries):
        assert Tensor((len(entries),), entries).tolist() == entries


class TestShapeValidation:
    def test_conformant(self):
        validate_matmul_shapes(Tensor((2, 3), [0.0] * 6), Tensor((3, 2), [0.0] * 6))

    def test_mismatch_carries_both_shapes(self):
        with pytest.raises(ShapeMismatch) as exc:
            validate_matmul_shapes(Tensor((2, 3), [0.0] * 6), Tensor((2, 3), [0.0] * 6))
        assert "2x3" in exc.value.detail

    def test_scalar_case(self):
        validate_matmul_shapes(Tensor((1, 1), [0.0]), Tensor((1, 1), [0.0]))

    def test_rank_1_rejected(self):
        with pytest.raises(ShapeMismatch):
            validate_matmul_shapes(Tensor.vector([1.0]), Tensor((1, 1), [0.0]))


class TestElementwiseSum:
    def test_additive_identity(self):
        a = Tensor.vector([1.0, 2.0, 3.0])
        assert elementwise_sum(a, Tensor.vector([0.0, 0.0, 0.0])).tobytes() == a.tobytes()

    def test_direct_addition(self):
        out = elementwise_sum(Tensor.vector([1.0, 2.0]), Tensor.vector([3.0, 4.0]))
        assert out.tolist() == [4.0, 6.0]

    def test_inverse_gives_zeros(self):
        a = Tensor.random((2, 2), Random(7))
        negated = Tensor((2, 2), [-x for x in a.tolist()])
        assert elementwise_sum(a, negated).tobytes() == bytes(8 * 4)  # +0.0 each

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            elementwise_sum(Tensor.vector([1.0]), Tensor.vector([1.0, 2.0]))

    def test_commutative_bit_exactly(self):
        rng = Random(14)
        a, b = Tensor.random((3, 5), rng), Tensor.random((3, 5), rng)
        assert elementwise_sum(a, b).tobytes() == elementwise_sum(b, a).tobytes()

    def test_overflow_to_inf_is_reported(self):
        big = Tensor.vector([1e308])
        with pytest.raises(Overflow):
            elementwise_sum(big, big)

    def test_finite_entries_whose_sum_overflows_are_no_overflow(self):
        a = Tensor.vector([1.5e308, 1.5e308])
        assert elementwise_sum(a, Tensor.vector([0.0, 0.0])).tobytes() == a.tobytes()


class TestMatmulNaive:
    def test_identity(self):
        a = Tensor((2, 2), [3.5, -1.0, 0.25, 9.0])
        assert matmul_naive(Tensor.identity(2), a).tobytes() == a.tobytes()

    def test_hand_expanded_product(self):
        # Hand expansion of the triple loop:
        # [1*5+2*7, 1*6+2*8; 3*5+4*7, 3*6+4*8] = [19, 22; 43, 50]
        a = Tensor((2, 2), [1.0, 2.0, 3.0, 4.0])
        b = Tensor((2, 2), [5.0, 6.0, 7.0, 8.0])
        assert matmul_naive(a, b).tolist() == [19.0, 22.0, 43.0, 50.0]

    def test_row_times_column_is_dot_product(self):
        a = Tensor((1, 3), [1.0, 2.0, 3.0])
        b = Tensor((3, 1), [4.0, 5.0, 6.0])
        out = matmul_naive(a, b)
        assert out.shape == (1, 1)
        assert out.tolist() == [32.0]

    def test_against_numpy_oracle(self):
        # Different algorithm (BLAS), so tolerance-based.
        rng = Random(11)
        for _ in range(25):
            m, k, n = rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12)
            a = Tensor.random((m, k), rng)
            b = Tensor.random((k, n), rng)
            expected = np.reshape(a.tolist(), a.shape) @ np.reshape(b.tolist(), b.shape)
            got = np.reshape(matmul_naive(a, b).tolist(), (m, n))
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)

    def test_matmul_overflow(self):
        a = Tensor((2, 2), [1e300, 1e300, 1.0, 1.0])
        b = Tensor((2, 2), [1e300, 0.0, 1e300, 0.0])
        with pytest.raises(Overflow):
            matmul_naive(a, b)
        for variant in (matmul_blocked, matmul_parallel):
            with pytest.raises(Overflow):
                variant(a, b, MatmulConfig(block_size=1, worker_count=2))


class TestMatmulBlocked:
    def test_single_block_degenerates_to_naive(self):
        rng = Random(3)
        a, b = Tensor.random((5, 4), rng), Tensor.random((4, 6), rng)
        got = matmul_blocked(a, b, MatmulConfig(block_size=64))
        assert got.tobytes() == matmul_naive(a, b).tobytes()

    def test_block_3_bit_equal_on_8x8(self):
        rng = Random(4)
        a, b = Tensor.random((8, 8), rng), Tensor.random((8, 8), rng)
        got = matmul_blocked(a, b, MatmulConfig(block_size=3))
        assert got.tobytes() == matmul_naive(a, b).tobytes()

    def test_identity_with_block_2(self):
        a = Tensor.random((4, 4), Random(5))
        assert matmul_blocked(Tensor.identity(4), a, MatmulConfig(block_size=2)).tobytes() == a.tobytes()

    def test_zero_block_size_rejected(self):
        with pytest.raises(InvalidArgument):
            MatmulConfig(block_size=0)


class TestMatmulParallel:
    def test_single_worker_degenerates_to_naive(self):
        rng = Random(8)
        a, b = Tensor.random((6, 3), rng), Tensor.random((3, 6), rng)
        got = matmul_parallel(a, b, MatmulConfig(worker_count=1))
        assert got.tobytes() == matmul_naive(a, b).tobytes()

    def test_eight_workers_bit_equal_on_16x16(self):
        rng = Random(9)
        a, b = Tensor.random((16, 16), rng), Tensor.random((16, 16), rng)
        got = matmul_parallel(a, b, MatmulConfig(worker_count=8))
        assert got.tobytes() == matmul_naive(a, b).tobytes()

    def test_worker_count_9_rejected(self):
        with pytest.raises(InvalidArgument):
            MatmulConfig(worker_count=9)

    def test_worker_count_0_rejected(self):
        with pytest.raises(InvalidArgument):
            MatmulConfig(worker_count=0)

    def test_more_workers_than_rows(self):
        rng = Random(10)
        a, b = Tensor.random((2, 5), rng), Tensor.random((5, 2), rng)
        got = matmul_parallel(a, b, MatmulConfig(worker_count=8))
        assert got.tobytes() == matmul_naive(a, b).tobytes()


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(args, timeout, **kwargs):
    """A fresh interpreter on this checkout's package; its main is args[0]."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env=env, **kwargs)


def test_a_tensor_too_large_for_the_host_is_one_out_of_memory():
    # In a child capped at 100 MiB of address space. Past an array's
    # capacity, a shape is refused before any allocation. The last two fit an
    # array but not this host: their storage is reserved in one allocation,
    # before random() draws an entry, so each fails as one OutOfMemory while
    # the child's high-water mark stays far below the cap. It used to draw
    # entries into a list until the cap raised MemoryError, which uncapped
    # takes the host's memory. VmHWM, not ru_maxrss: the latter carries the
    # high-water mark of the process that forked the child.
    code = textwrap.dedent("""
        import resource, sys
        from random import Random
        from neurokernel.errors import OutOfMemory
        from neurokernel.tensor import Tensor
        resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))
        for make in (lambda: Tensor.random((10**400,), Random(1)), lambda: Tensor.identity(2**31),
                     lambda: Tensor.random((2**30, 2**31), Random(1)), lambda: Tensor.identity(2**20),
                     lambda: Tensor.random((2**40,), Random(1))):
            try:
                make()
            except OutOfMemory:
                continue
            raise SystemExit("no OutOfMemory")
        if sys.platform.startswith("linux"):
            with open("/proc/self/status") as status:
                print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
    """)
    done = _run_python(["-c", code], timeout=60)
    assert done.returncode == 0, done.stderr
    if sys.platform.startswith("linux"):
        assert int(done.stdout) < 50 << 10, f"VmHWM {done.stdout.strip()} kB"


@pytest.mark.parametrize("make", ["array", "matmul_naive", "read_tensor"])
def test_a_tensor_stores_8_bytes_an_entry(make):
    # Packed float64: 131,072 bytes for 128 x 128 entries, plus a constant:
    # the tensor, its shape, the array header, and the kernel's temporaries
    # that CPython keeps on its free lists (at most 80 lists and 100 floats).
    # A list of floats took 32 bytes an entry.
    n = 128
    a = Tensor.random((n, n), Random(15))
    entries, dev = array("d", a.tolist()), AccelDevice()
    region = dev.allocate(8 * n * n)
    dev.write_tensor(region, a)
    build = {"array": lambda: Tensor((n, n), entries), "matmul_naive": lambda: matmul_naive(a, a),
             "read_tensor": lambda: dev.read_tensor(region, (n, n))}[make]
    build()  # compiles the kernel and fills any cache before the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept.shape == (n, n)
    assert grown <= 8 * n * n + (16 << 10), grown


@pytest.fixture
def pool_calls(monkeypatch):
    """(band count, band heights) of each product split between the caller and worker processes."""
    calls = []
    on_workers = tensor._on_workers

    def spy(bands, cols):
        calls.append((len(bands), [len(band) for band in bands]))
        return on_workers(bands, cols)

    monkeypatch.setattr(tensor, "_on_workers", spy)
    return calls


class TestProcessPool:
    """matmul_parallel from _POOL_MIN_MACS multiply-adds on: the last band in the caller, the others in workers."""

    # ceil(70 / workers) rows a band, the last band shorter.
    @pytest.mark.parametrize("workers, heights", [
        (2, [35, 35]), (3, [24, 24, 22]), (8, [9, 9, 9, 9, 9, 9, 9, 7]),
    ])
    def test_uneven_bands_across_the_seam_bit_equal_naive(self, pool_calls, workers, heights):
        rng = Random(workers)
        a, b = Tensor.random((70, 130), rng), Tensor.random((130, 70), rng)
        got = matmul_parallel(a, b, MatmulConfig(worker_count=workers))
        assert pool_calls == [(len(heights), heights)]
        assert got.tobytes() == matmul_naive(a, b).tobytes()

    def test_the_cutoff(self, pool_calls):
        rng = Random(12)
        config = MatmulConfig(worker_count=2)
        for m, k, n in ((63, 64, 65), (64, 64, 64)):  # 262,080 and 262,144 multiply-adds
            a, b = Tensor.random((m, k), rng), Tensor.random((k, n), rng)
            assert matmul_parallel(a, b, config).tobytes() == matmul_naive(a, b).tobytes()
        assert tensor._POOL_MIN_MACS == 64 ** 3
        assert pool_calls == [(2, [32, 32])]

    def test_overflow_only_in_a_worker_band(self, pool_calls):
        data = Tensor.random((70, 70), Random(13)).tolist()
        rows = [data[lo : lo + 70] for lo in range(0, 4900, 70)]
        rows[0] = [1e300] * 70  # in the first band, which a worker computes
        a, b = Tensor((70, 70), sum(rows, [])), Tensor((70, 70), [1e10] * 4900)
        matmul_naive(Tensor((35, 70), sum(rows[35:], [])), b)  # the caller's band is finite
        with pytest.raises(Overflow):
            matmul_parallel(a, b, MatmulConfig(worker_count=2))
        assert pool_calls == [(2, [35, 35])]

    @staticmethod
    def _squares(seed):
        rng = Random(seed)
        a, b = Tensor.random((64, 64), rng), Tensor.random((64, 64), rng)
        return a, b, matmul_naive(a, b).tobytes()

    def test_a_killed_idle_worker_is_one_kernel_error_then_fresh_workers(self):
        a, b, expected = self._squares(14)
        config = MatmulConfig(worker_count=2)
        assert matmul_parallel(a, b, config).tobytes() == expected
        victim = tensor._workers[0][0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(10)
        assert not victim.is_alive()
        with pytest.raises(KernelError) as caught:
            matmul_parallel(a, b, config)
        assert type(caught.value) is KernelError
        assert isinstance(caught.value.__cause__, (EOFError, OSError))
        assert matmul_parallel(a, b, config).tobytes() == expected
        assert tensor._workers[0][0] is not victim

    def test_an_error_in_the_callers_own_band_passes_through_and_closes_every_worker(self, monkeypatch):
        class OwnBandFailed(Exception):
            pass

        def failing_mac(rows, cols):
            raise OwnBandFailed

        a, b, expected = self._squares(16)
        config = MatmulConfig(worker_count=3)
        assert matmul_parallel(a, b, config).tobytes() == expected
        workers = [process for process, _ in tensor._workers]
        assert len(workers) == 2
        monkeypatch.setattr(tensor, "_mac", failing_mac)  # this process only; the workers run their own
        with pytest.raises(OwnBandFailed):
            matmul_parallel(a, b, config)
        monkeypatch.undo()
        assert tensor._workers == []
        assert not any(process.is_alive() for process in workers)
        assert matmul_parallel(a, b, config).tobytes() == expected

    def test_a_main_read_from_stdin_is_one_kernel_error(self):
        # Workers re-import __main__, and "<stdin>" cannot be re-read: each dies at start.
        script = textwrap.dedent("""
            from random import Random
            from neurokernel import tensor
            from neurokernel.errors import KernelError
            from neurokernel.tensor import MatmulConfig, Tensor, matmul_parallel
            a = Tensor.random((64, 64), Random(0))
            try:
                matmul_parallel(a, a, MatmulConfig(worker_count=2))
            except KernelError as exc:
                print(type(exc).__name__, isinstance(exc.__cause__, (EOFError, OSError)), tensor._workers)
        """)
        proc = _run_python(["-"], timeout=60, input=script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "KernelError True []\n"

    def test_workers_start_on_demand_and_stay(self):
        a, b, expected = self._squares(15)
        tensor._close_workers()
        held = []
        for workers in (2, 8, 2):
            assert matmul_parallel(a, b, MatmulConfig(worker_count=workers)).tobytes() == expected
            held.append(len(tensor._workers))
        assert held == [1, 7, 7]  # one band a call runs in the caller

    def test_a_pooled_product_leaves_no_thread_running(self):
        a, b, expected = self._squares(17)
        tensor._close_workers()  # the product starts its workers
        before = threading.active_count()
        assert matmul_parallel(a, b, MatmulConfig(worker_count=4)).tobytes() == expected
        assert threading.active_count() == before

    def test_no_worker_outlives_its_interpreter(self):
        code = textwrap.dedent("""
            from random import Random
            from neurokernel import tensor
            from neurokernel.tensor import MatmulConfig, Tensor, matmul_parallel
            a = Tensor.random((64, 64), Random(0))
            matmul_parallel(a, a, MatmulConfig(worker_count=3))
            print(*(process.pid for process, _ in tensor._workers))
        """)
        proc = _run_python(["-c", code], timeout=30)
        assert proc.returncode == 0, proc.stderr
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_the_pool_does_not_hold_up_interpreter_exit(self):
        proc = _run_python(["-m", "neurokernel.cli", "matmul-bench", "--n", "96",
                            "--workers", "2", "--trials", "1"], timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert [line.split(",")[0] for line in proc.stdout.splitlines()] == [
            "variant", "naive", "blocked", "parallel"]


@given(st.integers(1, 40), st.integers(1, 45))
def test_bands_cover_every_row_once_in_order_in_full_height_bands(m, height):
    bands = _bands(list(range(m)), height)
    assert sum(bands, []) == list(range(m))
    assert all(len(band) == height for band in bands[:-1])
    assert 1 <= len(bands[-1]) <= height


def _device_product(a, b):
    dev = AccelDevice()
    ra, rb, rout = (dev.allocate(8 * size) for size in (a.size, b.size, a.shape[0] * b.shape[1]))
    dev.write_tensor(ra, a)
    dev.write_tensor(rb, b)
    dev.submit(AccelTask(AccelOp.MATMUL, ra, a.shape, rb, b.shape, rout))
    dev.execute_next()
    return dev.read_tensor(rout, (a.shape[0], b.shape[1]))


def _work_product(a, b):
    results = []
    list(matmul_work(a, b, on_result=results.append)(None))
    return results[0]


# Every route to the kernel; blocked and parallel with settings that split a
# into several row bands.
PRODUCT_PATHS = {
    "naive": matmul_naive,
    "blocked": lambda a, b: matmul_blocked(a, b, MatmulConfig(block_size=2)),
    "parallel": lambda a, b: matmul_parallel(a, b, MatmulConfig(worker_count=3)),
    "matmul_work": _work_product,
    "device": _device_product,
}


@pytest.mark.parametrize("op", [matmul_naive, matmul_blocked, matmul_parallel, elementwise_sum, matmul_work],
                         ids=lambda op: op.__name__)
def test_a_non_tensor_operand_is_refused_by_name(op):
    with pytest.raises(InvalidArgument, match="Tensor"):
        op(Tensor.identity(1), [[1.0]])


class TestKernelSeam:
    """Depths either side of the kernel's 64-wide slices of k, bit for bit."""

    @pytest.mark.parametrize("path", sorted(PRODUCT_PATHS))
    @pytest.mark.parametrize("k", [1, 63, 64, 65, 127, 128, 129, 200])
    def test_every_path_equals_the_reference(self, path, k):
        rng = Random(k)
        a, b = Tensor.random((3, k), rng), Tensor.random((k, 4), rng)
        assert PRODUCT_PATHS[path](a, b).tobytes() == _reference_matmul(a, b)

    @pytest.mark.parametrize("path", sorted(PRODUCT_PATHS))
    @pytest.mark.parametrize("k", [2, 130])
    def test_all_negative_zero_terms_sum_to_positive_zero(self, path, k):
        # Even p: -0.0 * positive; odd p: 0.0 * negative. Every term is -0.0.
        a = Tensor((2, k), [-0.0, 0.0] * k)
        b = Tensor((k, 2), [1.0, 2.0, -1.0, -2.0] * (k // 2))
        assert all(copysign(1.0, x * y) == -1.0 for x, y in zip(a.tolist()[:k], b.tolist()[::2]))
        got = PRODUCT_PATHS[path](a, b)
        assert got.tobytes() == _reference_matmul(a, b)
        assert all(copysign(1.0, x) == 1.0 for x in got.tolist())

    @pytest.mark.parametrize("path", sorted(PRODUCT_PATHS))
    def test_finite_entries_whose_sum_overflows_are_no_overflow(self, path):
        # Each row sums to 1.5e308 and the product to inf, which only sends
        # the finiteness check to its exact walk.
        a, b = Tensor((2, 1), [1.5e308, 1.5e308]), Tensor((1, 1), [1.0])
        assert PRODUCT_PATHS[path](a, b).tolist() == [1.5e308, 1.5e308]

    @pytest.mark.parametrize("path", sorted(PRODUCT_PATHS))
    def test_overflow_in_the_last_slice_is_reported(self, path):
        # The first 128 terms sum to 1.664e308; the 129th pushes it past 1.8e308.
        k = 129
        a = Tensor((1, k), [1e300] * k)
        b = Tensor((k, 1), [1.3e6] * (k - 1) + [1e8])
        with pytest.raises(Overflow):
            PRODUCT_PATHS[path](a, b)

    # No shrink phase: shrinking up to 2,400 drawn entries took over three
    # minutes on a failing kernel. The failing example is reported unshrunk.
    @settings(max_examples=60, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.data())
    def test_host_paths_equal_the_reference(self, data):
        m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, 200))
        entries = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        a = Tensor((m, k), data.draw(st.lists(entries, min_size=m * k, max_size=m * k)))
        b = Tensor((k, n), data.draw(st.lists(entries, min_size=k * n, max_size=k * n)))
        oracle = _reference_matmul(a, b)
        for name in ("naive", "blocked", "parallel", "matmul_work"):
            assert PRODUCT_PATHS[name](a, b).tobytes() == oracle, name
