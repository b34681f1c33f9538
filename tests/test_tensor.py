from random import Random

import numpy as np
import pytest

from neurokernel.errors import InvalidArgument, Overflow, ShapeMismatch
from neurokernel.tensor import (
    MatmulConfig,
    Tensor,
    elementwise_sum,
    matmul_blocked,
    matmul_naive,
    matmul_parallel,
    validate_matmul_shapes,
    _partition_rows,
)


class TestConstruction:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidArgument):
            Tensor((2,), [1.0, float("nan")])
        with pytest.raises(InvalidArgument):
            Tensor((2,), [float("inf"), 0.0])

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
        assert Tensor.frombytes((3, 4), t.tobytes()) == t


class TestShapeValidation:
    def test_conformant(self):
        validate_matmul_shapes(Tensor.zeros((2, 3)), Tensor.zeros((3, 2)))

    def test_mismatch_carries_both_shapes(self):
        with pytest.raises(ShapeMismatch) as exc:
            validate_matmul_shapes(Tensor.zeros((2, 3)), Tensor.zeros((2, 3)))
        assert "2x3" in exc.value.detail

    def test_scalar_case(self):
        validate_matmul_shapes(Tensor.zeros((1, 1)), Tensor.zeros((1, 1)))

    def test_rank_1_rejected(self):
        with pytest.raises(ShapeMismatch):
            validate_matmul_shapes(Tensor.vector([1.0]), Tensor.zeros((1, 1)))


class TestElementwiseSum:
    def test_additive_identity(self):
        a = Tensor.vector([1.0, 2.0, 3.0])
        assert elementwise_sum(a, Tensor.vector([0.0, 0.0, 0.0])) == a

    def test_direct_addition(self):
        out = elementwise_sum(Tensor.vector([1.0, 2.0]), Tensor.vector([3.0, 4.0]))
        assert out.tolist() == [4.0, 6.0]

    def test_inverse_gives_zeros(self):
        a = Tensor.random((2, 2), Random(7))
        negated = Tensor((2, 2), [-x for x in a.tolist()])
        assert elementwise_sum(a, negated) == Tensor.zeros((2, 2))

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


class TestMatmulNaive:
    def test_identity(self):
        a = Tensor.from_rows([[3.5, -1.0], [0.25, 9.0]])
        assert matmul_naive(Tensor.identity(2), a) == a

    def test_hand_expanded_product(self):
        # Hand expansion of the triple loop:
        # [1*5+2*7, 1*6+2*8; 3*5+4*7, 3*6+4*8] = [19, 22; 43, 50]
        a = Tensor.from_rows([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor.from_rows([[5.0, 6.0], [7.0, 8.0]])
        assert matmul_naive(a, b).rows() == [[19.0, 22.0], [43.0, 50.0]]

    def test_row_times_column_is_dot_product(self):
        a = Tensor((1, 3), [1.0, 2.0, 3.0])
        b = Tensor((3, 1), [4.0, 5.0, 6.0])
        out = matmul_naive(a, b)
        assert out.shape == (1, 1)
        assert out.item(0, 0) == 32.0

    def test_against_numpy_oracle(self):
        # Different algorithm (BLAS), so tolerance-based.
        rng = Random(11)
        for _ in range(25):
            m, k, n = rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12)
            a = Tensor.random((m, k), rng)
            b = Tensor.random((k, n), rng)
            expected = np.array(a.rows()) @ np.array(b.rows())
            got = np.array(matmul_naive(a, b).rows())
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)

    def test_matmul_overflow(self):
        a = Tensor.from_rows([[1e300, 1e300], [1.0, 1.0]])
        b = Tensor.from_rows([[1e300, 0.0], [1e300, 0.0]])
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
        assert matmul_blocked(Tensor.identity(4), a, MatmulConfig(block_size=2)) == a

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


def test_row_partition_covers_every_row_exactly_once():
    for m in range(1, 20):
        for workers in range(1, 9):
            bounds = _partition_rows(m, workers)
            covered = []
            for lo, hi in bounds:
                covered.extend(range(lo, hi))
            assert covered == list(range(m))
