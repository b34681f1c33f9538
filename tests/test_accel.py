import struct
import sys
import tracemalloc
from dataclasses import replace
from itertools import accumulate
from random import Random

import pytest

from neurokernel import tensor
from neurokernel.accel import AccelDevice, AccelOp, AccelTask
from neurokernel.errors import InvalidArgument, OutOfMemory, ShapeMismatch
from neurokernel.tensor import Tensor, elementwise_sum, matmul_naive


def loaded_device(*tensors):
    dev = AccelDevice()
    regions = []
    for t in tensors:
        region = dev.allocate(8 * t.size)
        dev.write_tensor(region, t)
        regions.append(region)
    return dev, regions


def offset(region):
    """A region's first byte in the device buffer."""
    return 8 * region.first_block


def allocate_remainder(dev, used):
    """Check that exactly the bytes past used are free: one more is OOM, the rest fit there."""
    with pytest.raises(OutOfMemory):
        dev.allocate(1048576 - used + 1)
    assert offset(dev.allocate(1048576 - used)) == used


class TestInit:
    def test_devices_are_independent(self):
        dev1, dev2 = AccelDevice(), AccelDevice()
        dev1.allocate(1024)
        allocate_remainder(dev2, 0)
        allocate_remainder(dev1, 1024)


class TestAllocate:
    def test_whole_buffer(self):
        region = AccelDevice().allocate(1048576)
        assert (offset(region), 8 * region.n_blocks) == (0, 1048576)

    def test_exhausted_device_reports_oom(self):
        dev = AccelDevice()
        dev.allocate(1048576)
        with pytest.raises(OutOfMemory):
            dev.allocate(1)

    def test_zero_size_rejected(self):
        with pytest.raises(InvalidArgument):
            AccelDevice().allocate(0)

    def test_offsets_are_the_running_sum_of_sizes_rounded_up_to_blocks(self):
        dev = AccelDevice()
        rng = Random(3)
        sizes = [rng.randint(1, 4096) for _ in range(64)]
        offsets = [offset(dev.allocate(size)) for size in sizes]
        spans = [-(-size // 8) * 8 for size in sizes]  # whole 8-byte blocks
        assert offsets == list(accumulate(spans, initial=0))[:-1]
        allocate_remainder(dev, sum(spans))

    def test_regions_are_disjoint_under_random_sizes(self):
        dev = AccelDevice()
        rng = Random(2)
        regions = [dev.allocate(rng.randint(1, 4096)) for _ in range(64)]
        spans = sorted((offset(r), 8 * r.n_blocks) for r in regions)
        for (o1, s1), (o2, _) in zip(spans, spans[1:]):
            assert o1 + s1 <= o2


class TestSubmitExecute:
    def test_sum_with_zero_region_is_identity(self):
        x = Tensor.vector([1.5, -2.0, 3.25])
        zero = Tensor((3,), [0.0] * 3)
        dev, (rx, rz) = loaded_device(x, zero)
        rout = dev.allocate(8 * 3)
        dev.submit(AccelTask(AccelOp.ELEMWISE_SUM, rx, (3,), rz, (3,), rout))
        dev.execute_next()
        assert dev.read_tensor(rout, (3,)) == x

    def test_identity_matmul(self):
        a = Tensor((2, 2), [2.0, 3.0, 5.0, 7.0])
        dev, (ri, ra) = loaded_device(Tensor.identity(2), a)
        rout = dev.allocate(8 * 4)
        dev.submit(AccelTask(AccelOp.MATMUL, ri, (2, 2), ra, (2, 2), rout))
        dev.execute_next()
        assert dev.read_tensor(rout, (2, 2)) == a

    def test_fifo_completion_order(self):
        x = Tensor.vector([1.0])
        dev, (rx,) = loaded_device(x)
        rout = dev.allocate(8)
        ids = [
            dev.submit(AccelTask(AccelOp.ELEMWISE_SUM, rx, (1,), rx, (1,), rout))
            for _ in range(3)
        ]
        executed = [dev.execute_next() for _ in range(3)]
        assert executed == ids

    def test_execute_on_empty_queue_returns_none(self):
        assert AccelDevice().execute_next() is None

    def test_device_equals_host_bit_exactly(self):
        rng = Random(21)
        for _ in range(10):
            m, k, n = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8)
            a, b = Tensor.random((m, k), rng), Tensor.random((k, n), rng)
            dev, (ra, rb) = loaded_device(a, b)
            rout = dev.allocate(8 * m * n)
            dev.submit(AccelTask(AccelOp.MATMUL, ra, (m, k), rb, (k, n), rout))
            dev.execute_next()
            assert dev.read_tensor(rout, (m, n)).tobytes() == matmul_naive(a, b).tobytes()

    def test_a_region_reused_after_free_reads_zero_then_round_trips(self):
        t = Tensor.random((3, 5), Random(23))
        dev, (old,) = loaded_device(t)
        dev.free(old)
        region = dev.allocate(8 * t.size)
        assert offset(region) == offset(old)
        assert dev.read_tensor(region, (3, 5)).tobytes() == bytes(8 * t.size)
        dev.write_tensor(region, t)
        assert dev.read_tensor(region, (3, 5)).tobytes() == t.tobytes()

    def test_a_task_runs_on_the_shapes_submit_checked(self):
        a, b = Tensor.random((2, 2), Random(24)), Tensor.random((2, 2), Random(25))
        dev, (ra, rb, rout) = loaded_device(a, b, Tensor.identity(2))
        a_shape = [2, 2]
        dev.submit(AccelTask(AccelOp.MATMUL, ra, a_shape, rb, (2, 2), rout))
        a_shape[:] = [2, 1]  # the task's sequence changes after the checks
        assert dev.execute_next() == 1
        assert dev.read_tensor(rout, (2, 2)).tobytes() == matmul_naive(a, b).tobytes()

    @pytest.mark.parametrize("flipped", [False, True], ids=["native", "flipped"])
    def test_staging_lays_out_little_endian_float64s_in_either_byte_order(self, monkeypatch, flipped):
        # No CI host is big-endian. Flipping the tensor module's byte order
        # makes staging swap on a little-endian host (and stop swapping on a
        # big-endian one), so the device then holds big-endian float64s.
        # Staging reads the order at call time, as tobytes() does.
        if flipped:
            monkeypatch.setattr(tensor, "_BYTEORDER", "big" if sys.byteorder == "little" else "little")
        order = ">" if flipped else "<"
        a, b = Tensor.random((3, 4), Random(26)), Tensor.random((4, 2), Random(27))
        dev = AccelDevice()
        ra, rb, rout = dev.allocate(8 * 12), dev.allocate(8 * 8), dev.allocate(8 * 6)
        dev.write_tensor(ra, a)
        dev.write_tensor(rb, b)
        assert dev._buffer[offset(ra) : offset(ra) + 8 * 12] == struct.pack(f"{order}12d", *a.tolist())
        dev.submit(AccelTask(AccelOp.MATMUL, ra, (3, 4), rb, (4, 2), rout))
        dev.execute_next()
        product = matmul_naive(a, b)
        assert dev._buffer[offset(rout) : offset(rout) + 8 * 6] == struct.pack(f"{order}6d", *product.tolist())
        assert dev.read_tensor(ra, (3, 4)) == a
        assert dev.read_tensor(rout, (3, 2)).tobytes() == product.tobytes()

    def test_device_sum_equals_host(self):
        rng = Random(22)
        a, b = Tensor.random((4, 4), rng), Tensor.random((4, 4), rng)
        dev, (ra, rb) = loaded_device(a, b)
        rout = dev.allocate(8 * 16)
        dev.submit(AccelTask(AccelOp.ELEMWISE_SUM, ra, (4, 4), rb, (4, 4), rout))
        dev.execute_next()
        assert dev.read_tensor(rout, (4, 4)).tobytes() == elementwise_sum(a, b).tobytes()


class TestValidation:
    def test_foreign_region_rejected(self):
        x = Tensor.vector([1.0])
        dev, (rx,) = loaded_device(x)
        other_dev, (foreign,) = loaded_device(x)
        rout = dev.allocate(8)
        with pytest.raises(InvalidArgument):
            dev.submit(AccelTask(AccelOp.ELEMWISE_SUM, foreign, (1,), rx, (1,), rout))

    @pytest.mark.parametrize("stray", ["copy", "foreign"])
    def test_only_a_region_this_device_allocated_is_accepted(self, stray):
        x = Tensor.vector([1.0])
        dev, (rx,) = loaded_device(x)
        other = replace(rx) if stray == "copy" else loaded_device(x)[1][0]  # the same fields either way
        with pytest.raises(InvalidArgument):
            dev.write_tensor(other, Tensor.vector([2.0]))
        with pytest.raises(InvalidArgument):
            dev.read_tensor(other, (1,))
        for task in (AccelTask(AccelOp.ELEMWISE_SUM, other, (1,), rx, (1,), rx),
                     AccelTask(AccelOp.ELEMWISE_SUM, rx, (1,), rx, (1,), other)):
            with pytest.raises(InvalidArgument):
                dev.submit(task)
        assert dev.execute_next() is None
        assert dev.read_tensor(rx, (1,)).tolist() == [1.0]

    def test_shape_mismatch_rejected_at_submit(self):
        a = Tensor((2, 3), [0.0] * 6)
        b = Tensor((2, 3), [0.0] * 6)
        with pytest.raises(ShapeMismatch):
            matmul_naive(a, b)
        dev, (ra, rb) = loaded_device(a, b)
        rout = dev.allocate(8 * 6)
        with pytest.raises(ShapeMismatch):  # the host's refusal, not a device-only one
            dev.submit(AccelTask(AccelOp.MATMUL, ra, (2, 3), rb, (2, 3), rout))
        assert dev.execute_next() is None

    def test_sum_shape_mismatch_rejected_at_submit(self):
        a = Tensor((2, 3), [0.0] * 6)
        b = Tensor((3, 2), [0.0] * 6)
        with pytest.raises(ShapeMismatch):
            elementwise_sum(a, b)
        dev, (ra, rb) = loaded_device(a, b)
        rout = dev.allocate(8 * 6)
        with pytest.raises(ShapeMismatch):
            dev.submit(AccelTask(AccelOp.ELEMWISE_SUM, ra, (2, 3), rb, (3, 2), rout))
        assert dev.execute_next() is None

    def test_undersized_region_rejected(self):
        dev = AccelDevice()
        small = dev.allocate(8)
        with pytest.raises(InvalidArgument):
            dev.submit(AccelTask(AccelOp.ELEMWISE_SUM, small, (4,), small, (4,), small))

    def test_poisoned_buffer_rejected_on_read(self):
        a = Tensor((2, 2), [0.0] * 4)
        dev, (ra,) = loaded_device(a)
        dev._buffer[offset(ra) + 8 : offset(ra) + 16] = struct.pack("<d", float("nan"))
        with pytest.raises(InvalidArgument):
            dev.read_tensor(ra, (2, 2))

    @pytest.mark.parametrize("op", [AccelOp.MATMUL, AccelOp.ELEMWISE_SUM])
    @pytest.mark.parametrize("poisoned", [0, 1])
    def test_poisoned_operand_rejected_on_execute(self, op, poisoned):
        a = Tensor.identity(2)
        dev, regions = loaded_device(a, a)
        target = regions[poisoned]
        dev._buffer[offset(target) : offset(target) + 8] = struct.pack("<d", float("nan"))
        rout = dev.allocate(8 * 4)
        dev.submit(AccelTask(op, regions[0], (2, 2), regions[1], (2, 2), rout))
        with pytest.raises(InvalidArgument):
            dev.execute_next()
        assert dev.execute_next() is None

    @pytest.mark.parametrize("freed", ["a", "b", "out"])
    def test_a_task_whose_region_was_freed_is_refused_and_writes_nothing(self, freed):
        # The freed blocks go to a new region before the task runs: the task
        # must not read or write them, and it leaves the queue.
        a, b = Tensor.random((2, 2), Random(29)), Tensor.random((2, 2), Random(30))
        dev, (ra, rb) = loaded_device(a, b)
        rout = dev.allocate(8 * 4)
        dev.submit(AccelTask(AccelOp.MATMUL, ra, (2, 2), rb, (2, 2), rout))
        gone = {"a": ra, "b": rb, "out": rout}[freed]
        dev.free(gone)
        reused = dev.allocate(8 * 4)
        assert offset(reused) == offset(gone)
        dev.write_tensor(reused, Tensor.identity(2))
        pool = dev._pool

        def state():
            return bytes(pool._bitmap), pool.allocated_blocks, pool.live_handles, tuple(pool._live.values()), \
                bytes(pool._storage)

        before = state()
        with pytest.raises(InvalidArgument):
            dev.execute_next()
        assert dev.execute_next() is None
        assert state() == before

    def test_undersized_output_rejected(self):
        a = Tensor((2, 2), [0.0] * 4)
        dev, (ra, rb) = loaded_device(a, a)
        tiny = dev.allocate(8)
        with pytest.raises(InvalidArgument):
            dev.submit(AccelTask(AccelOp.MATMUL, ra, (2, 2), rb, (2, 2), tiny))


@pytest.mark.parametrize("call", ["write_tensor", "read_tensor"])
def test_staging_allocates_no_payload_copy(call):
    # Zero-copy: a staging call's only payload-sized allocation is its
    # destination. write_tensor copies the tensor's storage straight into the
    # device buffer; read_tensor copies the region straight into the storage
    # of the tensor it returns, 8 bytes an entry. The constant covers views,
    # the tensor object and its shape.
    n = 128
    t = Tensor.random((n, n), Random(28))
    dev = AccelDevice()
    region = dev.allocate(8 * n * n)
    dev.write_tensor(region, t)
    stage = {"write_tensor": lambda: dev.write_tensor(region, t),
             "read_tensor": lambda: dev.read_tensor(region, (n, n))}[call]
    stage()  # fills any cache before the count
    tracemalloc.start()
    try:
        kept = stage()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if call == "write_tensor":
        assert peak < 4 << 10, peak
    else:
        assert kept == t
        assert peak <= 8 * n * n + (4 << 10), peak
