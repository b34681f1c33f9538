"""Acceptance gate: every stated criterion at its stated tolerance and budget.

Each test runs one criterion through the packaged selftest checks (which
carry the independent oracles) and prints one pass/fail line. Criterion 8,
``neurokernel selftest --seed 0`` end to end, is the ``selftest`` case of
test_golden.py: exit 0, stdout equal to its golden, under 2 minutes.
"""

import time

from neurokernel.selftest import (
    check_accel,
    check_allocator,
    check_matmul,
    check_orchestrator,
    check_rabab,
    check_scheduler,
    check_zero_copy,
)

SEED = 0


def _run(name, check, budget_seconds):
    start = time.perf_counter()
    try:
        detail = check(SEED)
    except AssertionError as exc:
        print(f"FAIL {name}: {exc}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS {name} ({elapsed:.2f}s): {detail}")
    assert elapsed < budget_seconds, f"{name} took {elapsed:.2f}s, budget {budget_seconds}s"


def test_criterion_1_matmul_oracle_equivalence():
    # 200 random pairs, dims <= 16, block sizes {1,2,3,8,64}, workers 1..8,
    # bit-identical to the naive oracle, under 5 s.
    _run("criterion-1 matmul-oracle-equivalence", check_matmul, 5.0)


def test_criterion_2_allocator_soundness():
    # 10,000 seeded ops: non-overlap, conservation, zero-fill, first-fit
    # determinism on replay, OOM iff the brute-force scan agrees; under 10 s.
    _run("criterion-2 allocator-soundness", check_allocator, 10.0)


def test_criterion_3_zero_copy():
    # 250 device round trips of 8-128 KiB tensors, bit-exact; traced by
    # tracemalloc, write_tensor allocates under 4 KiB and read_tensor one
    # payload (the tensor it returns) plus under 4 KiB.
    _run("criterion-3 zero-copy-staging", check_zero_copy, 10.0)


def test_criterion_4_accelerator_host_equality():
    # Identity and random matmuls up to 8x8 equal host results bit-exactly;
    # FIFO completion order over 100 submissions.
    _run("criterion-4 accelerator-host-equality", check_accel, 10.0)


def test_criterion_5_scheduler():
    # 1,000 random task sets vs the sort oracle; deprioritization fires
    # exactly at the replayed threshold crossing; 100 randomized preemption
    # points restore fp contexts bit-exactly.
    _run("criterion-5 scheduler-order-and-contexts", check_scheduler, 30.0)


def test_criterion_6_orchestrator():
    # 10,000 codec round trips; all 512 single-bit flips of a 64-byte
    # payload detected; failure at exactly t + 2*timeout + 1; byte-equal
    # checkpoint restore; exact demo strings; under 10 s.
    _run("criterion-6 orchestrator-protocols", check_orchestrator, 10.0)


def test_criterion_7_rabab():
    # Confidence exactly 51/52 and monotone; graph convergence < 1e-3 in
    # <= 100 updates; cosine properties over 1,000 pairs; 1,000 randomized
    # linear programs; canonicalization vs the effect oracle on all paths
    # of length <= 4; under 30 s.
    _run("criterion-7 rabab-reasoning", check_rabab, 30.0)
