import math
import time
from random import Random

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from neurokernel.errors import InvalidArgument, KernelError, Overflow, ShapeMismatch, TaskFault
from neurokernel.scheduler import (
    ALLOC_CYCLES,
    MlScheduler,
    MlTask,
    SchedulerConfig,
    TaskState,
    cycles_work,
    matmul_work,
)
from neurokernel.tensor import Tensor, matmul_naive


def make_task(task_id, cycles=1, priority=10):
    return MlTask(task_id, cycles_work(cycles), priority=priority)


class TestQueueOrder:
    def test_fifo_tie(self):
        sched = MlScheduler()
        sched.enqueue(make_task("A"))
        sched.enqueue(make_task("B"))
        assert sched.dequeue().id == "A"
        assert sched.dequeue().id == "B"

    def test_priority_order(self):
        sched = MlScheduler()
        sched.enqueue(make_task("A", priority=10))
        sched.enqueue(make_task("B", priority=5))
        assert sched.dequeue().id == "B"
        assert sched.dequeue().id == "A"

    def test_duplicate_id_rejected(self):
        sched = MlScheduler()
        sched.enqueue(make_task("A"))
        with pytest.raises(InvalidArgument):
            sched.enqueue(make_task("A"))

    def test_dequeue_empty_is_not_a_fault(self):
        assert MlScheduler().dequeue() is None

    def test_done_task_cannot_be_enqueued(self):
        sched = MlScheduler()
        task = make_task("A")
        sched.enqueue(task)
        sched.batch_execute(1)
        assert task.state is TaskState.DONE
        with pytest.raises(InvalidArgument):
            sched.enqueue(task)

    def test_fifo_stable_under_interleaved_enqueue_dequeue(self):
        sched = MlScheduler()
        sched.enqueue(make_task("a"))
        sched.enqueue(make_task("b"))
        assert sched.dequeue().id == "a"
        sched.enqueue(make_task("c"))
        sched.enqueue(make_task("d", priority=5))
        assert [sched.dequeue().id for _ in range(3)] == ["d", "b", "c"]

    def test_unhashable_id_rejected(self):
        with pytest.raises(InvalidArgument):
            MlScheduler().enqueue(make_task(["not", "hashable"]))

    def test_non_integer_priority_rejected(self):
        sched = MlScheduler()
        sched.enqueue(make_task("A"))
        with pytest.raises(InvalidArgument):
            sched.enqueue(make_task("B", priority="high"))
        assert len(sched) == 1

    def test_priority_soundness_random(self):
        rng = Random(5)
        sched = MlScheduler()
        tasks = [make_task(i, priority=rng.randint(0, 4)) for i in range(40)]
        for t in tasks:
            sched.enqueue(t)
        drained = []
        while True:
            task = sched.dequeue()
            if task is None:
                break
            remaining_best = min(
                (t.priority for t in tasks if t.id not in drained and t.id != task.id),
                default=task.priority,
            )
            assert task.priority <= remaining_best
            drained.append(task.id)
        assert drained == [t.id for t in sorted(tasks, key=lambda t: t.priority)]


class TestBatchExecute:
    def test_short_tasks_all_complete(self):
        sched = MlScheduler()
        for name in ("a", "b", "c"):
            sched.enqueue(make_task(name, cycles=5))
        assert sched.batch_execute(4) == ["a", "b", "c"]
        assert len(sched) == 0

    def test_long_task_is_preempted_and_requeued(self):
        sched = MlScheduler(SchedulerConfig(quantum=10))
        task = make_task("long", cycles=25)
        sched.enqueue(task)
        assert sched.batch_execute(1) == []
        assert task.state is TaskState.PREEMPTED
        assert len(sched) == 1

    def test_batch_zero_rejected(self):
        with pytest.raises(InvalidArgument):
            MlScheduler().batch_execute(0)

    def test_empty_queue_gives_empty_list(self):
        assert MlScheduler().batch_execute(4) == []

    def test_liveness_drains_in_finite_calls(self):
        sched = MlScheduler(SchedulerConfig(quantum=7))
        for i in range(5):
            sched.enqueue(make_task(i, cycles=50))
        calls = 0
        while len(sched):
            sched.batch_execute(4)
            calls += 1
            assert calls < 100
        assert sched.dequeue() is None

    def test_perf_counter_accumulates_all_cycles(self):
        sched = MlScheduler(SchedulerConfig(quantum=8))
        sched.enqueue(make_task("x", cycles=30))
        sched.enqueue(make_task("y", cycles=12))
        while len(sched):
            sched.batch_execute(2)
        assert sched.perf.cpu_cycles == 42


class TestAdjustScheduling:
    def test_crossing_raises_priority_by_ten(self):
        sched = MlScheduler(SchedulerConfig(deprioritize_threshold=100, quantum=100))
        task = make_task("hog", cycles=200)
        sched.enqueue(task)
        sched.batch_execute(1)  # consumes 100, not yet over threshold
        assert task.priority == 10
        sched.batch_execute(1)  # crosses to 200 > 100
        assert task.priority == 20

    def test_below_threshold_unchanged(self):
        sched = MlScheduler(SchedulerConfig(deprioritize_threshold=1000, quantum=100))
        task = make_task("light", cycles=50)
        sched.enqueue(task)
        sched.batch_execute(1)
        assert task.priority == 10

    @pytest.mark.parametrize("threshold, written, final", [
        (5, "x", [20, 20, 20]),  # the penalty adds to the queued key and overwrites "x"
        (1_000_000, None, [None, 10, 10]),  # nothing writes the priority back
    ])
    def test_the_queued_key_is_the_priority_the_scheduler_reads(self, threshold, written, final):
        sched = MlScheduler(SchedulerConfig(deprioritize_threshold=threshold, quantum=10))
        tasks = [make_task(i, cycles=20) for i in range(3)]
        for task in tasks:
            sched.enqueue(task)
        tasks[0].priority = written
        completed = []
        while len(sched):
            completed.extend(sched.batch_execute(3))
        assert completed == [0, 1, 2]
        assert all(task.state is TaskState.DONE for task in tasks)
        assert [task.priority for task in tasks] == final

    def test_penalty_applied_at_most_once(self):
        sched = MlScheduler(SchedulerConfig(deprioritize_threshold=10, quantum=100))
        task = make_task("hog", cycles=500)
        sched.enqueue(task)
        while task.state is not TaskState.DONE:
            sched.batch_execute(1)
        assert task.priority == 20


class TestFpContext:
    def test_round_trip_across_preemption(self):
        observed = {}

        def writer(values, name):
            def work(fp):
                fp[:3] = values
                yield 1
                yield 1
                observed[name] = list(fp[:3])

            return work

        sched = MlScheduler(SchedulerConfig(quantum=1))
        first = [math.pi, math.e, math.tau]
        second = [1.0, 2.0, 3.0]
        sched.enqueue(MlTask("first", writer(first, "first")))
        sched.enqueue(MlTask("second", writer(second, "second")))
        while len(sched):
            sched.batch_execute(2)
        assert observed["first"] == first  # bit-exact despite interleaving
        assert observed["second"] == second

    def test_randomized_preemption_points(self):
        rng = Random(31)
        for _ in range(20):
            log = []

            def fp_work(values, steps):
                def work(fp):
                    fp[:] = values
                    for _ in range(steps):
                        yield 1
                    log.append((values, list(fp)))

                return work

            sched = MlScheduler(SchedulerConfig(quantum=rng.randint(1, 4)))
            for i in range(rng.randint(2, 4)):
                values = [rng.uniform(-1e9, 1e9) for _ in range(16)]
                sched.enqueue(MlTask(i, fp_work(values, rng.randint(1, 15))))
            while len(sched):
                sched.batch_execute(3)
            for written, seen in log:
                assert written == seen


class TestWorkBuilders:
    def test_cycles_work_validates(self):
        with pytest.raises(InvalidArgument):
            cycles_work(0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 200)), min_size=1, max_size=8),
           st.integers(1, 50), st.integers(1, 300), st.integers(1, 5))
    def test_quantum_sized_chunks_schedule_like_one_cycle_steps(self, tasks, quantum, threshold,
                                                               batch):
        """sched-sim's quantum-sized steps against the 1-cycle oracle."""
        def run(chunk):
            sched = MlScheduler(SchedulerConfig(deprioritize_threshold=threshold,
                                                batch_size=batch, quantum=quantum))
            queued = [MlTask(i, cycles_work(cycles, chunk), priority=prio)
                      for i, (prio, cycles) in enumerate(tasks)]
            for task in queued:
                sched.enqueue(task)
            completed = []
            while len(sched):
                completed.extend(sched.batch_execute(batch))
            return completed, [(t.priority, t.consumed_cycles) for t in queued]

        assert run(quantum) == run(1)

    def test_zero_cost_steps_rejected(self):
        def bad_work(fp):
            yield 0

        sched = MlScheduler()
        sched.enqueue(MlTask("bad", bad_work))
        with pytest.raises(InvalidArgument):
            sched.batch_execute(1)

    def test_zero_cost_step_faults_only_that_task(self):
        def bad_work(fp):
            yield 0

        sched = MlScheduler()
        bad = MlTask("bad", bad_work)
        sched.enqueue(bad)
        sched.enqueue(make_task("ok"))
        with pytest.raises(TaskFault):
            sched.batch_execute(2)
        assert bad.state is TaskState.FAULTED
        assert sched.batch_execute(2) == ["ok"]

    def test_matmul_work_costs_and_result(self):
        a = Tensor((2, 2), [1.0, 2.0, 3.0, 4.0])
        b = Tensor((2, 2), [5.0, 6.0, 7.0, 8.0])
        results = []
        sched = MlScheduler()
        task = MlTask("mm", matmul_work(a, b, on_result=results.append))
        sched.enqueue(task)
        assert sched.batch_execute(1) == ["mm"]
        assert results[0] == matmul_naive(a, b)
        assert task.consumed_cycles == 2 * 2 * 2 + ALLOC_CYCLES

    def test_matmul_work_rejects_nonconforming_shapes(self):
        # 2x2 by 3x2 must not run and silently drop the third row of b.
        a = Tensor((2, 2), [1.0, 2.0, 3.0, 4.0])
        b = Tensor((3, 2), [1.0, 0.0, 0.0, 1.0, 5.0, 5.0])
        with pytest.raises(ShapeMismatch):
            matmul_work(a, b)

    def test_matmul_work_overflow_faults_with_overflow_at_the_last_step(self):
        a = Tensor((1, 2), [1e200, 1e200])
        b = Tensor((2, 1), [1e200, 1e200])
        results = []
        sched = MlScheduler(SchedulerConfig(quantum=1))
        task = MlTask("mm", matmul_work(a, b, on_result=results.append))
        sched.enqueue(task)
        # One slice for the allocation, one for the single output element.
        assert sched.batch_execute(1) == []
        assert sched.batch_execute(1) == []
        with pytest.raises(TaskFault) as info:
            sched.batch_execute(1)
        assert type(info.value.__cause__) is Overflow
        assert task.state is TaskState.FAULTED
        assert task.consumed_cycles == ALLOC_CYCLES + 2
        assert results == []

    def test_matmul_work_yields_the_cost_model_sequence(self):
        rng = Random(4)
        a = Tensor.random((3, 5), rng)
        b = Tensor.random((5, 2), rng)
        gen = matmul_work(a, b)(None)
        assert list(gen) == [ALLOC_CYCLES] + [5] * (3 * 2)


class TestWorkFault:
    @staticmethod
    def failing(fp):
        yield 1
        raise RuntimeError("work failed")

    def test_fault_keeps_the_rest_of_the_batch(self):
        sched = MlScheduler()
        bad = MlTask("bad", self.failing)
        sched.enqueue(bad)
        for name in ("b", "c", "d"):
            sched.enqueue(make_task(name))
        with pytest.raises(KernelError) as info:
            sched.batch_execute(4)
        assert type(info.value) is TaskFault
        assert isinstance(info.value.__cause__, RuntimeError)
        assert info.value.task_id == "bad"
        assert info.value.completed == []
        assert bad.state is TaskState.FAULTED
        assert len(sched) == 3
        assert sched.batch_execute(4) == ["b", "c", "d"]

    def test_unrun_tasks_keep_their_queue_position(self):
        sched = MlScheduler(SchedulerConfig(quantum=5))
        sched.enqueue(make_task("done", cycles=1))
        sched.enqueue(make_task("long", cycles=20))
        sched.enqueue(MlTask("bad", self.failing))
        sched.enqueue(make_task("unrun"))
        sched.enqueue(make_task("waiting"))
        with pytest.raises(TaskFault) as info:
            sched.batch_execute(4)
        # Ids completed before the fault are reported, so callers can account for them.
        assert info.value.completed == ["done"]
        # "unrun" keeps its original key, ahead of "waiting"; "long" was preempted
        # and re-queued behind both.
        assert [sched.dequeue().id for _ in range(3)] == ["unrun", "waiting", "long"]

    @pytest.mark.parametrize("fault", ["raise", "zero-cost step"])
    def test_a_fault_mid_slice_counts_every_step_before_it(self, fault):
        def work(fp):
            yield 3
            yield 4
            if fault == "raise":
                raise RuntimeError("work failed")
            yield 0

        sched = MlScheduler()
        task = MlTask("bad", work)
        sched.enqueue(task)
        with pytest.raises(TaskFault):
            sched.batch_execute(1)
        assert task.consumed_cycles == 7
        assert sched.perf.cpu_cycles == 7

    def test_a_failed_re_push_faults_the_task_and_keeps_the_rest(self):
        sched = MlScheduler(SchedulerConfig(quantum=2))

        def takes_its_own_id(fp):
            sched.enqueue(make_task("a"))  # while "a" runs, its id is free to take
            yield 1
            yield 1

        a = MlTask("a", takes_its_own_id)
        sched.enqueue(a)
        sched.enqueue(make_task("b"))
        with pytest.raises(TaskFault) as info:
            sched.batch_execute(2)
        assert isinstance(info.value.__cause__, InvalidArgument)
        assert (info.value.task_id, a.state) == ("a", TaskState.FAULTED)
        assert sched.batch_execute(2) == ["b", "a"]

    def test_faulted_task_cannot_be_enqueued_again(self):
        sched = MlScheduler()
        bad = MlTask("bad", self.failing)
        sched.enqueue(bad)
        with pytest.raises(TaskFault):
            sched.batch_execute(1)
        with pytest.raises(InvalidArgument):
            sched.enqueue(bad)

    def test_a_host_fault_passes_through_and_keeps_the_unrun_tasks(self):
        def interrupted(fp):
            yield 1
            raise KeyboardInterrupt

        sched = MlScheduler()
        a = MlTask("a", interrupted)
        sched.enqueue(a)
        sched.enqueue(make_task("b"))
        sched.enqueue(make_task("c"))
        with pytest.raises(KeyboardInterrupt):
            sched.batch_execute(3)
        assert a.state is TaskState.FAULTED
        assert len(sched) == 2
        assert sched.batch_execute(3) == ["b", "c"]


class SchedulerModel(RuleBasedStateMachine):
    """MlScheduler against a list of queue entries in arrival order.

    The model's next task is the first entry of that list stably sorted by
    priority. A task of c unit steps finishes (or, if faulty, raises) in a
    slice that starts with fewer than QUANTUM cycles left; otherwise the
    slice burns QUANTUM cycles and the task re-enters at the back.
    """

    QUANTUM = 4
    THRESHOLD = 9

    def __init__(self):
        super().__init__()
        self.sched = MlScheduler(SchedulerConfig(quantum=self.QUANTUM,
                                                 deprioritize_threshold=self.THRESHOLD))
        self.entries = []  # [seq, priority, task, cycles left, cycles in total], in arrival order
        self.seq = 0
        self.faulty = set()

    def _append(self, priority, task, left, cycles):
        self.entries.append([self.seq, priority, task, left, cycles])
        self.seq += 1

    def _pop_model(self):
        entry = sorted(self.entries, key=lambda e: e[1])[0]
        self.entries.remove(entry)
        return entry

    @staticmethod
    def faulty_work(cycles):
        def work(fp):
            for _ in range(cycles):
                yield 1
            raise RuntimeError("work failed")

        return work

    @rule(priority=st.integers(0, 3), cycles=st.integers(1, 20), faulty=st.booleans())
    def enqueue(self, priority, cycles, faulty):
        work = self.faulty_work(cycles) if faulty else cycles_work(cycles)
        task = MlTask(self.seq, work, priority=priority)
        self.sched.enqueue(task)
        if faulty:
            self.faulty.add(task.id)
        self._append(priority, task, cycles, cycles)

    @precondition(lambda self: self.entries)
    @rule(data=st.data())
    def enqueue_duplicate_id(self, data):
        task_id = data.draw(st.sampled_from([e[2].id for e in self.entries]))
        with pytest.raises(InvalidArgument):
            self.sched.enqueue(make_task(task_id))

    @rule()
    def dequeue(self):
        task = self.sched.dequeue()
        if not self.entries:
            assert task is None
        else:
            assert task is self._pop_model()[2]

    @rule(n=st.integers(1, 4))
    def batch_execute(self, n):
        batch = [self._pop_model() for _ in range(min(n, len(self.entries)))]
        completed, priorities, fault = [], [], None
        for i, (_, priority, task, left, cycles) in enumerate(batch):
            used = min(left, self.QUANTUM)
            if left < self.QUANTUM and task.id in self.faulty:
                fault = task
                self.entries.extend(batch[i + 1:])
                self.entries.sort(key=lambda e: e[0])
                break
            before = cycles - left
            if before <= self.THRESHOLD < before + used:
                priority += 10
            priorities.append((task, priority))
            if left < self.QUANTUM:
                completed.append(task.id)
            else:
                self._append(priority, task, left - used, cycles)
        if fault is None:
            assert self.sched.batch_execute(n) == completed
        else:
            with pytest.raises(TaskFault) as info:
                self.sched.batch_execute(n)
            assert (info.value.task_id, info.value.completed) == (fault.id, completed)
            assert fault.state is TaskState.FAULTED
        for task, priority in priorities:
            assert task.priority == priority

    @invariant()
    def length_matches(self):
        assert len(self.sched) == len(self.entries)


TestSchedulerModel = SchedulerModel.TestCase
TestSchedulerModel.settings = settings(max_examples=60, stateful_step_count=60, deadline=None)


def test_twenty_thousand_tasks_drain_in_bounded_time():
    rng = Random(20)
    sched = MlScheduler()
    tasks = [make_task(i, cycles=rng.randint(1, 3), priority=rng.randint(0, 9))
             for i in range(20_000)]
    deadline = time.perf_counter() + 10.0
    for task in tasks:
        sched.enqueue(task)
    completed = []
    while len(sched):
        completed.extend(sched.batch_execute(4))
        assert time.perf_counter() < deadline, f"{len(completed)} tasks drained"
    assert completed == [t.id for t in sorted(tasks, key=lambda t: t.priority)]
