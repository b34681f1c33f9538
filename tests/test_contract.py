"""The error contract, swept over every public callable of the package.

errors.py states it: every public operation returns a value or raises
exactly one KernelError, and a refusal changes no state. Each row of CALLS
is one valid call, built on a fresh World. The sweep swaps each argument,
one at a time, for each value of bad_values(), and each field of a record
argument (RECORDS) through dataclasses.replace. A swap must be refused with
InvalidArgument, or with OutOfMemory where OUT_OF_MEMORY names a size no
host can hold; it may return a value only where PLAIN or RETURNS says so.
After a refusal the world's fingerprint is unchanged and the valid call
still succeeds on it. An unchanged dataclasses.replace copy of one of the
TICKETS (a pool or device handle, token or predicate) is refused the same way: what
handed a ticket out accepts only that object. REFUSED holds the bad values a
swap does not reach. TIMED names the per-job and per-message sites, whose valid call enters no
checker in errors.py. No function of the package reads an enum member
through its class (test_no_function_reads_an_enum_member_through_its_class),
and only Node._record writes a node's latest inputs, so the snapshot's
rendering of them, which _record clears, cannot go stale
(test_only_record_writes_a_nodes_latest_inputs).
A record built per call whose __init__ is hand-written builds what the
generated one would (TestRecordInits), and the timed paths' call structure is
counted under sys.setprofile (a device matmul runs once through
accel.matmul_naive, the name a profiler rebinds).

A public name is a function or class defined in a module of the package
whose name does not start with "_", and each public method of such a class.
test_every_public_callable_has_a_row fails on one without a row; EXEMPT
names the only exceptions, each with its reason. A row shows a callable
keeps the contract, not that the program needs it:
test_every_package_function_is_entered_by_a_golden_run runs every
test_golden case in this process under sys.setprofile, and fails on any
function defined at module or class level in the package (private ones and
hand-written dunders too) that none enters, unless UNCALLED names it with
the path that does.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import io
import pkgutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from enum import Enum
from functools import partial
from random import Random

import pytest

import neurokernel
import neurokernel.errors
import test_golden
from neurokernel.accel import AccelDevice, AccelOp, AccelTask
from neurokernel.cli import main
from neurokernel.compute import Opcode, simple_compute
from neurokernel.config import config_from, directives, parse_config, read_text, resolve_config
from neurokernel.errors import InvalidArgument, KernelError, OutOfMemory, check_count, check_type, shown
from neurokernel.mempool import BlockHandle, BlockPool, PoolConfig
from neurokernel.orchestrator import (
    DEMO_SCENARIO,
    Checkpoint,
    Cluster,
    FusedRepresentation,
    MessageEnvelope,
    Modality,
    Node,
    QoS,
    Scenario,
    decide,
    decode,
    encode,
    fuse,
    modality_process,
    parse_scenario,
    run_scenario,
)
from neurokernel.orchestrator.fusion import modality_label
from neurokernel.rabab import (
    RED,
    DrawPixel,
    Framebuffer,
    Identity,
    KnowledgeGraph,
    LinearResource,
    Predicate,
    RababEngine,
    Translate,
    apply_path,
    canonicalize_path,
    cosine_similarity,
    embed,
    interpret_intent,
    parse_intent,
    paths_equivalent,
)
from neurokernel.scheduler import (
    MlScheduler,
    MlTask,
    PerfCounter,
    SchedulerConfig,
    cycles_work,
    matmul_work,
)
from neurokernel.tensor import (
    MatmulConfig,
    Tensor,
    elementwise_sum,
    matmul_blocked,
    matmul_naive,
    matmul_parallel,
    validate_matmul_shapes,
)


NAN, HUGE = float("nan"), 10**5000


class Unshowable:
    """A value whose repr raises, as caller code may."""

    def __repr__(self):
        raise RuntimeError("this value cannot be shown")


def bad_values() -> list:
    """Fresh each time, since a call may mutate the list or the dict.

    1.0 equals a valid count or id, so only a type check refuses it; NaN
    fails every comparison. 0 and -1 sit just below a count's or an id's
    lower bound. HUGE is past every bound, past float64, and past
    the digits repr() converts, so a message that shows it without
    errors.shown raises ValueError; one that shows an Unshowable raises
    RuntimeError.
    """
    return [None, "x", True, 1.0, NAN, HUGE, 0, -1, b"x", [1], {}, Unshowable()]


# Record arguments whose fields are swapped one at a time as well.
RECORDS = (MessageEnvelope, FusedRepresentation, LinearResource, Predicate, BlockHandle,
           AccelTask, Checkpoint, DrawPixel)

V = Modality.VISION


class World:
    """Fresh objects for one call: each row's receiver and arguments come from here."""

    def __init__(self):
        self.pool = BlockPool(PoolConfig(8 * 4096, 4096, (4 * 4096,)))
        self.handle = self.pool.alloc(1)
        self.sched = MlScheduler()
        self.sched.enqueue(MlTask("queued", cycles_work(1)))
        self.task = MlTask("fresh", cycles_work(1))
        self.dev = AccelDevice()
        self.region = self.dev.allocate(8)
        self.dev.write_tensor(self.region, Tensor.vector([2.0]))
        self.dev_task = AccelTask(AccelOp.ELEMWISE_SUM, self.region, (1,), self.region, (1,), self.region)
        self.t = Tensor.identity(2)
        self.cluster = Cluster()
        self.cluster.add_node(1, {V})
        self.cluster.add_node(2, {Modality.AUDIO})
        self.cluster.heartbeat_tick()
        self.cluster.submit_input(V, "person")
        self.cluster.process_step()
        self.chk = self.cluster.checkpoint_node(1)
        self.node = self.cluster.nodes[1]
        self.envelope = MessageEnvelope(1, 0, 1, b"{}")
        self.frame = encode(self.envelope)
        self.fused = fuse({V: modality_process(V, b"person")})
        self.scenario = parse_scenario(DEMO_SCENARIO)
        self.engine = RababEngine()
        self.pred = self.engine.register_predicate("four", lambda value: value == 4)  # takes any value
        self.token = self.engine.allocate_linear("payload")
        self.graph = KnowledgeGraph()
        self.graph.evolve("a", "b", 0.5)
        self.fb = Framebuffer(8, 8)
        self.path = [Translate(1, 0), DrawPixel(1, 1, RED)]

    def fingerprint(self) -> tuple:
        cluster = self.cluster
        return (
            self.pool.bitmap(), self.pool.live_handles, self.pool.read(self.handle), len(self.sched),
            self.dev.read_tensor(self.region, (1,)).tobytes(),
            bytes(self.dev._pool._bitmap), self.dev._pool.allocated_blocks, self.dev._pool.live_handles,
            tuple(self.dev._pool._live.values()), len(self.dev._queue),
            cluster.tick, [(n.snapshot(), tuple(n._inbox), n.liveness, n.silenced)
                           for n in cluster.nodes.values()],
            self.engine.leaked_resources(), (self.pred.alpha, self.pred.beta),
            dict(self.graph._edges), list(self.fb._pixels),
        )


def call(fn, *args, **kwargs):
    return fn, args, kwargs


# One valid call per public callable, named as test_every_public_callable_has_a_row names it.
CALLS = {
    # A checker's other arguments are literals at every call site in the package.
    "errors.check_count": lambda w: call(partial(check_count, name="n", minimum=1), 3),
    "errors.check_type": lambda w: call(partial(check_type, expected=int, name="n"), 3),
    "errors.shown": lambda w: call(shown, 3),
    "compute.simple_compute": lambda w: call(simple_compute, 7, 2, Opcode.DIVIDE),
    "config.read_text": lambda w: call(read_text, __file__),
    "config.directives": lambda w: call(directives, "a # b\n"),
    "config.parse_config": lambda w: call(parse_config, "quantum = 5\n"),
    "config.resolve_config": lambda w: call(resolve_config, None),
    "config.config_from": lambda w: call(config_from, SchedulerConfig, {"quantum": 5}, batch_size=2),
    "tensor.MatmulConfig": lambda w: call(MatmulConfig, 2, 2),
    "tensor.Tensor": lambda w: call(Tensor, (2,), [1.0, 2.0]),
    "tensor.Tensor.vector": lambda w: call(Tensor.vector, [1.0]),
    "tensor.Tensor.identity": lambda w: call(Tensor.identity, 2),
    "tensor.Tensor.random": lambda w: call(Tensor.random, (2,), Random(1)),
    "tensor.Tensor.tobytes": lambda w: call(w.t.tobytes),
    "tensor.Tensor.tolist": lambda w: call(w.t.tolist),
    "tensor.validate_matmul_shapes": lambda w: call(validate_matmul_shapes, w.t, w.t),
    "tensor.elementwise_sum": lambda w: call(elementwise_sum, w.t, w.t),
    "tensor.matmul_naive": lambda w: call(matmul_naive, w.t, w.t),
    "tensor.matmul_blocked": lambda w: call(matmul_blocked, w.t, w.t, MatmulConfig(1)),
    "tensor.matmul_parallel": lambda w: call(matmul_parallel, w.t, w.t, MatmulConfig(1, 2)),
    "mempool.PoolConfig": lambda w: call(PoolConfig, 8 * 4096, 4096, (4 * 4096,)),
    "mempool.BlockHandle": lambda w: call(BlockHandle, 0, 1),
    "mempool.BlockPool": lambda w: call(BlockPool, PoolConfig(8 * 4096)),
    "mempool.BlockPool.bitmap": lambda w: call(w.pool.bitmap),
    "mempool.BlockPool.bitmap_hex": lambda w: call(w.pool.bitmap_hex),
    "mempool.BlockPool.alloc": lambda w: call(w.pool.alloc, 1),
    "mempool.BlockPool.alloc_large_page": lambda w: call(w.pool.alloc_large_page, 4 * 4096),
    "mempool.BlockPool.free": lambda w: call(w.pool.free, w.handle),
    "mempool.BlockPool.read": lambda w: call(w.pool.read, w.handle),
    "mempool.BlockPool.write": lambda w: call(w.pool.write, w.handle, b"ab"),
    "accel.AccelTask": lambda w: call(AccelTask, AccelOp.MATMUL, w.region, (1, 1), w.region, (1, 1), w.region),
    "accel.AccelDevice": lambda w: call(AccelDevice),
    "accel.AccelDevice.allocate": lambda w: call(w.dev.allocate, 8),
    "accel.AccelDevice.free": lambda w: call(w.dev.free, w.region),
    "accel.AccelDevice.submit": lambda w: call(w.dev.submit, w.dev_task),
    "accel.AccelDevice.execute_next": lambda w: call(w.dev.execute_next),
    "accel.AccelDevice.write_tensor": lambda w: call(w.dev.write_tensor, w.region, Tensor.vector([3.0])),
    "accel.AccelDevice.read_tensor": lambda w: call(w.dev.read_tensor, w.region, (1,)),
    "scheduler.SchedulerConfig": lambda w: call(SchedulerConfig, 1000, 2, 100),
    "scheduler.PerfCounter": lambda w: call(PerfCounter),
    "scheduler.MlTask": lambda w: call(MlTask, "t", cycles_work(1), 3),
    "scheduler.cycles_work": lambda w: call(cycles_work, 5, chunk=2),
    "scheduler.matmul_work": lambda w: call(matmul_work, w.t, w.t, on_result=[].append),
    "scheduler.MlScheduler": lambda w: call(MlScheduler, SchedulerConfig()),
    "scheduler.MlScheduler.enqueue": lambda w: call(w.sched.enqueue, w.task),
    "scheduler.MlScheduler.dequeue": lambda w: call(w.sched.dequeue),
    "scheduler.MlScheduler.batch_execute": lambda w: call(w.sched.batch_execute, 1),
    "orchestrator.envelope.MessageEnvelope": lambda w: call(MessageEnvelope, 1, 0, 1, b"{}", QoS.BULK),
    "orchestrator.envelope.encode": lambda w: call(encode, w.envelope),
    "orchestrator.envelope.decode": lambda w: call(decode, w.frame),
    "orchestrator.fusion.FusedRepresentation": lambda w: call(FusedRepresentation, (), "A person is present"),
    "orchestrator.fusion.modality_label": lambda w: call(modality_label, V, b"person"),
    "orchestrator.fusion.modality_process": lambda w: call(modality_process, V, b"person"),
    "orchestrator.fusion.fuse": lambda w: call(fuse, {V: ("person", (1.0,))}),
    "orchestrator.fusion.decide": lambda w: call(decide, w.fused),
    "orchestrator.cluster.Checkpoint": lambda w: call(Checkpoint, 1, 1, b"{}"),
    "orchestrator.cluster.Node": lambda w: call(Node, 3, {V}),
    "orchestrator.cluster.Node.push_metrics": lambda w: call(w.node.push_metrics, 0.1, 0.2, 0.3),
    "orchestrator.cluster.Node.drain_inbox": lambda w: call(w.node.drain_inbox),
    "orchestrator.cluster.Node.snapshot": lambda w: call(w.node.snapshot),
    "orchestrator.cluster.Node.from_snapshot": lambda w: call(Node.from_snapshot, w.chk.snapshot, 1, 1),
    "orchestrator.cluster.Cluster": lambda w: call(Cluster, 3),
    "orchestrator.cluster.Cluster.add_node": lambda w: call(w.cluster.add_node, 3, {V}),
    "orchestrator.cluster.Cluster.node": lambda w: call(w.cluster.node, 1),
    "orchestrator.cluster.Cluster.silence": lambda w: call(w.cluster.silence, 1),
    "orchestrator.cluster.Cluster.unsilence": lambda w: call(w.cluster.unsilence, 1),
    "orchestrator.cluster.Cluster.heartbeat_tick": lambda w: call(w.cluster.heartbeat_tick),
    "orchestrator.cluster.Cluster.detect_failures": lambda w: call(w.cluster.detect_failures),
    "orchestrator.cluster.Cluster.last_failover_events": lambda w: call(w.cluster.last_failover_events),
    "orchestrator.cluster.Cluster.submit_input": lambda w: call(w.cluster.submit_input, V, "person"),
    "orchestrator.cluster.Cluster.process_step": lambda w: call(w.cluster.process_step),
    "orchestrator.cluster.Cluster.balance_load": lambda w: call(w.cluster.balance_load, V),
    "orchestrator.cluster.Cluster.checkpoint_node": lambda w: call(w.cluster.checkpoint_node, 1),
    "orchestrator.cluster.Cluster.restore_node": lambda w: call(w.cluster.restore_node, w.chk),
    "orchestrator.cluster.Cluster.collect_outputs": lambda w: call(w.cluster.collect_outputs),
    "orchestrator.runner.Scenario": lambda w: call(Scenario),
    "orchestrator.runner.parse_scenario": lambda w: call(parse_scenario, DEMO_SCENARIO),
    "orchestrator.runner.run_scenario": lambda w: call(run_scenario, w.scenario, 3, seed=0, timeout_ticks=3),
    "rabab.engine.Predicate": lambda w: call(Predicate, "p", bool),
    "rabab.engine.KnowledgeGraph": lambda w: call(KnowledgeGraph),
    "rabab.engine.KnowledgeGraph.evolve": lambda w: call(w.graph.evolve, "a", "c", 0.5),
    "rabab.engine.embed": lambda w: call(embed, b"x"),
    "rabab.engine.cosine_similarity": lambda w: call(cosine_similarity, [1.0, 0.0], [1.0, 1.0]),
    "rabab.engine.LinearResource": lambda w: call(LinearResource, "x"),
    "rabab.engine.RababEngine": lambda w: call(RababEngine),
    "rabab.engine.RababEngine.register_predicate": lambda w: call(w.engine.register_predicate, "odd", bool),
    "rabab.engine.RababEngine.evolve_predicate": lambda w: call(w.engine.evolve_predicate, w.pred, 4, True),
    "rabab.engine.RababEngine.allocate_linear": lambda w: call(w.engine.allocate_linear, "x"),
    "rabab.engine.RababEngine.consume_linear": lambda w: call(w.engine.consume_linear, w.token),
    "rabab.engine.RababEngine.leaked_resources": lambda w: call(w.engine.leaked_resources),
    "rabab.paths.Identity": lambda w: call(Identity),
    "rabab.paths.Translate": lambda w: call(Translate, 1, 0),
    "rabab.paths.DrawPixel": lambda w: call(DrawPixel, 1, 1, RED),
    "rabab.paths.Framebuffer": lambda w: call(Framebuffer, 8, 8),
    "rabab.paths.Framebuffer.to_ppm": lambda w: call(w.fb.to_ppm),
    "rabab.paths.interpret_intent": lambda w: call(interpret_intent, DrawPixel(1, 1, RED), w.fb),
    "rabab.paths.parse_intent": lambda w: call(parse_intent, "pixel:1,2,#FF0000"),
    "rabab.paths.apply_path": lambda w: call(apply_path, w.path, w.fb),
    "rabab.paths.canonicalize_path": lambda w: call(canonicalize_path, w.path, 8, 8),
    "rabab.paths.paths_equivalent": lambda w: call(paths_equivalent, w.path, [DrawPixel(2, 1, RED)], 8, 8),
}

# Public names with no row, each with its reason.
EXEMPT = {
    "cli": "the command line: test_cli runs each subcommand and checks its exit code and stderr",
    "selftest": "the acceptance checks: they call the rows above, and test_golden pins their output",
    "errors.KernelError": "an exception class: raising it is the contract",
    "errors.InvalidArgument": "an exception class",
    "errors.TaskFault": "an exception class",
    "errors.OutOfMemory": "an exception class",
    "errors.Overflow": "an exception class",
    "errors.ShapeMismatch": "an exception class",
    "errors.ResourceConsumed": "an exception class",
    "errors.DeviceBusy": "an exception class",
    "errors.NodeUnreachable": "an exception class",
    "errors.ChecksumMismatch": "an exception class",
    "compute.Opcode": "an Enum: a lookup of its values, not an operation",
    "accel.AccelOp": "an Enum",
    "scheduler.TaskState": "an Enum",
    "orchestrator.envelope.QoS": "an Enum",
    "orchestrator.fusion.Modality": "an Enum",
    "orchestrator.cluster.Liveness": "an Enum",
}


def _public_names():
    """(name, object) of each public function, class and method, name as in CALLS."""
    for info in pkgutil.walk_packages(neurokernel.__path__, "neurokernel."):
        module = importlib.import_module(info.name)
        prefix = info.name.removeprefix("neurokernel.")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue  # private, or imported from elsewhere
            if inspect.isfunction(obj):
                yield f"{prefix}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{prefix}.{name}", obj
                for attr, member in vars(obj).items():
                    method = inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod))
                    if method and not attr.startswith("_"):
                        yield f"{prefix}.{name}.{attr}", member


def _exemption(name: str) -> str | None:
    for exempt, reason in EXEMPT.items():
        if name == exempt or name.startswith(exempt + "."):
            return reason
    return None


def test_every_public_callable_has_a_row():
    public = dict(_public_names())
    missing = sorted(name for name in public if name not in CALLS and _exemption(name) is None)
    assert missing == [], f"public callables without a contract row: {missing}"
    stale = sorted(set(CALLS) - set(public))
    assert stale == [], f"rows for names that are not public callables: {stale}"


def test_only_exception_classes_and_enums_are_exempt_by_name():
    public = dict(_public_names())
    for name, reason in EXEMPT.items():
        if name in ("cli", "selftest"):
            continue
        assert issubclass(public[name], (KernelError, Enum)), (name, reason)


# Package functions no golden run enters, each with the path that does.
UNCALLED = {
    "cli.entrypoint": "the installed console script: CI's Selftest step runs it",
    "config.parse_config": "a --config file or NEUROKERNEL_CONFIG: test_cli runs both",
    "errors.TaskFault.__init__": "a task whose slice faults in batch_execute: test_scheduler runs several",
    "mempool.BlockPool.live_handles": "the jobs benchmark's leak check (benchmarks/nkbench/jobs.py)",
    "tensor._serve": "a matmul worker's loop: it runs in the worker process, which the profile does not see",
    "tensor._close_workers": "a pooled product's failure path: TestProcessPool kills a worker",
    "tensor.Tensor.__repr__": "pytest's assertion messages show a tensor through it",
    "scheduler.MlTask.__repr__": "pytest's assertion messages show a task through it",
}


def _package_functions():
    """(name, code) of each function defined at module or class level in the package's files.

    Private ones and hand-written dunders too, named as in CALLS; a property is
    its getter, a cached function the one it wraps. Dataclass-generated
    methods are left out: their code is not in the package's files.
    """
    for info in pkgutil.walk_packages(neurokernel.__path__, "neurokernel."):
        module = importlib.import_module(info.name)
        prefix = info.name.removeprefix("neurokernel.")
        for name, obj in vars(module).items():
            members = [(f"{prefix}.{name}", obj)]
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members += [(f"{prefix}.{name}.{attr}", member) for attr, member in vars(obj).items()]
            for qualified, member in members:
                fn = member.fget if isinstance(member, property) else member
                fn = inspect.unwrap(getattr(fn, "__func__", fn))  # a classmethod's, or an lru_cache's
                if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                    yield qualified, fn.__code__


def _entered_by_the_golden_runs(tmp_path) -> set:
    """The code objects entered while every test_golden case runs in this process."""
    runs = [(test_golden.case_argv(case, tmp_path), code) for case, (*_, code) in test_golden.CASES.items()]
    runs += [(argv, 0) for argv, _keep, _budget in test_golden.TIMED.values()]
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    neurokernel.tensor._kernel.cache_clear()  # a warm cache would not enter the function it wraps
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            codes = [main(argv) for argv, _code in runs]
        finally:
            sys.setprofile(None)
    assert codes == [code for _argv, code in runs]
    return entered


def test_every_package_function_is_entered_by_a_golden_run(tmp_path):
    functions = dict(_package_functions())
    entered = _entered_by_the_golden_runs(tmp_path)
    never = sorted(name for name, code in functions.items() if code not in entered and name not in UNCALLED)
    assert never == [], f"package functions no program path enters: {never}"
    stale = sorted(name for name in UNCALLED if name not in functions or functions[name] in entered)
    assert stale == [], f"UNCALLED entries that name nothing, or a function a golden run enters: {stale}"


KERNEL_ERRORS = sorted((obj for obj in vars(neurokernel.errors).values()
                        if inspect.isclass(obj) and issubclass(obj, KernelError)), key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", KERNEL_ERRORS, ids=lambda cls: cls.__name__)
def test_a_kernel_error_prints_its_class_name_and_detail(cls):
    task = ("t", []) if cls is neurokernel.errors.TaskFault else ()  # its task id and completed list
    assert str(cls("no run of 3 free blocks", *task)) == f"{cls.__name__}: no run of 3 free blocks"
    assert str(cls("", *task)) == cls.__name__


def test_a_callers_subclass_of_a_kernel_error_prints_its_own_name():
    class PoolExhausted(OutOfMemory):
        pass

    assert str(PoolExhausted("pool 1")) == "PoolExhausted: pool 1"


# Plain records: building one checks nothing; the operations that take one check its fields.
PLAIN = {
    "accel.AccelTask", "mempool.BlockHandle", "scheduler.MlTask",
    "orchestrator.envelope.MessageEnvelope", "orchestrator.fusion.FusedRepresentation",
    "orchestrator.cluster.Checkpoint", "rabab.engine.Predicate", "rabab.engine.LinearResource",
    "rabab.paths.Translate", "rabab.paths.DrawPixel",
}

EVERY = "every bad value"

# The swaps a row survives, keyed by argument (a position, a keyword, or a
# (position, field) pair), each with the bad values that return a value.
# Every other swap must be refused with InvalidArgument, or with OutOfMemory
# where OUT_OF_MEMORY says so.
RETURNS = {
    "errors.check_count": {0: (HUGE,)},  # counts have no upper bound; each caller sets its own
    "errors.check_type": {0: (HUGE, 0, -1)},  # any int is an int
    "errors.shown": {0: EVERY},  # it formats any value
    "compute.simple_compute": {0: (0, -1), 1: (-1,), 2: (0,)},  # int64 operands; opcode 0 is ADD
    "config.directives": {0: ("x",)},  # any str is text
    "config.resolve_config": {0: (None,)},  # no flag: the environment, or no file
    "config.config_from": {1: ({},), "batch_size": (None, HUGE)},  # None: the flag is unset
    "tensor.MatmulConfig": {0: (HUGE,)},
    "tensor.Tensor.vector": {0: (b"x", [1])},  # bytes are a sequence of ints
    "tensor.Tensor.random": {0: (b"x", [1])},  # a shape is any sequence of ints
    "tensor.matmul_blocked": {2: (None,)},  # None: the default config
    "tensor.matmul_parallel": {2: (None,)},
    "mempool.PoolConfig": {0: (HUGE,)},  # BlockPool refuses it with OutOfMemory
    "mempool.BlockPool": {0: (None,)},
    "mempool.BlockPool.write": {1: (b"x",)},
    "accel.AccelDevice.read_tensor": {1: ([1],)},
    "accel.AccelDevice.submit": {(0, "a_shape"): ([1],), (0, "b_shape"): ([1],)},
    "scheduler.SchedulerConfig": {0: (HUGE,), 1: (HUGE,), 2: (HUGE,)},
    "scheduler.cycles_work": {0: (HUGE,), "chunk": (HUGE,)},  # lazy: it costs what it runs
    "scheduler.MlScheduler": {0: (None,)},
    "scheduler.MlScheduler.batch_execute": {0: (HUGE,)},  # at most the queue runs
    # 0 is a u64 message id and the coordinator's address.
    "orchestrator.envelope.encode": {(0, "payload"): (b"x",), (0, "msg_id"): (0,), (0, "source"): (0,),
                                     (0, "dest"): (0,)},
    "orchestrator.cluster.Cluster.submit_input": {1: ("x",)},
    "orchestrator.fusion.modality_label": {1: (b"x",)},
    "orchestrator.fusion.modality_process": {1: (b"x",)},
    "orchestrator.fusion.decide": {(0, "outputs"): EVERY, (0, "summary"): ("x",)},  # it reads the summary
    "orchestrator.cluster.Node": {1: ({},)},  # an empty collection: no modalities
    "orchestrator.cluster.Node.push_metrics": {0: (1.0, 0), 1: (1.0, 0), 2: (1.0, 0)},  # samples in [0, 1]
    "orchestrator.cluster.Node.from_snapshot": {2: (HUGE,)},  # any tick at or after the input
    "orchestrator.cluster.Cluster": {0: (HUGE,)},
    "orchestrator.cluster.Cluster.add_node": {1: ({},)},
    # A restore reads the checkpoint's node id and snapshot; seq only orders replicas.
    "orchestrator.cluster.Cluster.restore_node": {(0, "seq"): EVERY},
    "orchestrator.runner.run_scenario": {"seed": (HUGE, 0, -1), "timeout_ticks": (HUGE,)},  # any int seeds
    "rabab.engine.KnowledgeGraph.evolve": {0: ("x",), 1: ("x",), 2: (1.0, 0)},  # a target in [0, 1]
    "rabab.engine.embed": {0: (b"x",)},
    "rabab.engine.RababEngine.register_predicate": {0: ("x",)},
    "rabab.engine.RababEngine.evolve_predicate": {1: EVERY, 2: (True,)},  # the value goes to the rule
    "rabab.engine.RababEngine.allocate_linear": {0: EVERY},  # a payload is anything
    "rabab.paths.interpret_intent": {(0, "x"): (0,), (0, "y"): (0,)},
    # An empty collection is the empty path; a size draws nothing.
    "rabab.paths.apply_path": {0: ({},)},
    "rabab.paths.canonicalize_path": {0: ({},), 1: (HUGE,), 2: (HUGE,)},
    "rabab.paths.paths_equivalent": {0: ({},), 1: ({},), 2: (HUGE,), 3: (HUGE,)},
}

# Sizes no host can hold: the HUGE swap of these arguments is one OutOfMemory.
OUT_OF_MEMORY = {
    "tensor.Tensor.identity": {0},
    "mempool.BlockPool.alloc": {0},
    "accel.AccelDevice.allocate": {0},
    "rabab.paths.Framebuffer": {0, 1},
}


def _swaps(args: tuple, kwargs: dict):
    """(key, i): the argument, or the (argument, field) of a record in it, swapped for bad_values()[i]."""
    for slot in [*range(len(args)), *kwargs]:
        original = args[slot] if isinstance(slot, int) else kwargs[slot]
        fields = [f.name for f in dataclasses.fields(original)] if type(original) in RECORDS else []
        for key in [slot, *((slot, field) for field in fields)]:
            for i in range(len(bad_values())):
                yield key, i


def _swapped(args: tuple, kwargs: dict, key, value):
    """args and kwargs with the swap made; a record is replaced, never changed in place."""
    slot, field = key if isinstance(key, tuple) else (key, None)
    original = args[slot] if isinstance(slot, int) else kwargs[slot]
    if field is not None:
        value = dataclasses.replace(original, **{field: value})
    if isinstance(slot, int):
        return args[:slot] + (value,) + args[slot + 1:], kwargs
    return args, {**kwargs, slot: value}


def _expected(name: str, key, value):
    """The KernelError a swap must raise, or None where it returns a value."""
    allowed = EVERY if name in PLAIN else RETURNS.get(name, {}).get(key, ())
    if allowed is EVERY or any(type(v) is type(value) and (v == value or v != v != value) for v in allowed):
        return None
    if value is HUGE and key in OUT_OF_MEMORY.get(name, ()):
        return OutOfMemory
    return InvalidArgument


def _escapes(name: str) -> list[str]:
    """What the valid call and each swap of it did outside the contract."""
    fn, args, kwargs = CALLS[name](World())
    fn(*args, **kwargs)  # the valid call, on a fresh world
    escapes = []
    for key, i in list(_swaps(args, kwargs)):
        value = bad_values()[i]
        expected = _expected(name, key, value)
        where = f"argument {key!r} = {shown(value)}"
        world = World()
        fn, args, kwargs = CALLS[name](world)
        swapped_args, swapped_kwargs = _swapped(args, kwargs, key, value)
        before = world.fingerprint()
        try:
            fn(*swapped_args, **swapped_kwargs)
        except KernelError as exc:
            if type(exc) is not expected:
                wanted = "a value" if expected is None else expected.__name__
                escapes.append(f"{where}: {type(exc).__name__}: {exc}, not {wanted}")
            elif world.fingerprint() != before:
                escapes.append(f"{where}: refused, but the state changed")
            else:
                fn(*args, **kwargs)  # the valid call still succeeds
        except Exception as exc:
            escapes.append(f"{where}: {type(exc).__name__}: {exc}")
        else:
            if expected is not None:
                escapes.append(f"{where}: returned a value, not {expected.__name__}")
    return escapes


def test_every_allowance_names_a_swap_of_its_row():
    for table in (PLAIN, RETURNS, OUT_OF_MEMORY):
        assert set(table) <= set(CALLS), sorted(set(table) - set(CALLS))
    for name, allowed in [*RETURNS.items(), *OUT_OF_MEMORY.items()]:
        fn, args, kwargs = CALLS[name](World())
        keys = {key for key, _i in _swaps(args, kwargs)}
        assert set(allowed) <= keys, (name, sorted(map(repr, set(allowed) - keys)))


@pytest.fixture(autouse=True)
def _no_config_in_the_environment(monkeypatch):
    monkeypatch.delenv("NEUROKERNEL_CONFIG", raising=False)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_every_bad_argument_is_refused_with_one_kernel_error_and_no_state_change(name):
    assert _escapes(name) == []


# Records handed out as tickets: the giver accepts the object it handed out, never a copy.
TICKETS = (BlockHandle, LinearResource, Predicate)


def _tickets(args: tuple, kwargs: dict):
    """(key, record) of each ticket in the arguments, or in a field of a record argument."""
    for slot in [*range(len(args)), *kwargs]:
        original = args[slot] if isinstance(slot, int) else kwargs[slot]
        if type(original) in TICKETS:
            yield slot, original
        elif type(original) in RECORDS:
            for field in dataclasses.fields(original):
                if type(getattr(original, field.name)) in TICKETS:
                    yield (slot, field.name), getattr(original, field.name)


def test_an_unchanged_copy_of_a_ticket_is_refused():
    covered, escapes = set(), []
    for name in sorted(set(CALLS) - PLAIN):
        for key, record in list(_tickets(*CALLS[name](World())[1:])):
            covered.add(type(record))
            world = World()
            fn, args, kwargs = CALLS[name](world)
            copy = dataclasses.replace(dict(_tickets(args, kwargs))[key])
            swapped_args, swapped_kwargs = _swapped(args, kwargs, key, copy)
            where = f"{name} argument {key!r}"
            before = world.fingerprint()
            try:
                fn(*swapped_args, **swapped_kwargs)
            except KernelError as exc:
                if type(exc) is not InvalidArgument:
                    escapes.append(f"{where}: {type(exc).__name__}: {exc}, not InvalidArgument")
                elif world.fingerprint() != before:
                    escapes.append(f"{where}: refused, but the state changed")
                else:
                    fn(*args, **kwargs)  # the ticket handed out still works
            except Exception as exc:
                escapes.append(f"{where}: {type(exc).__name__}: {exc}")
            else:
                escapes.append(f"{where}: the copy was accepted")
    assert covered == set(TICKETS)
    assert escapes == []


class StrDraws(Random):
    """A Random subclass whose uniform draws a str, as caller code may."""

    def uniform(self, a, b):
        return "x"


# Bad values a swap does not reach: inside a tuple or a list, on an object that
# is not a record, just past a bound, a float equal to the one int accepted, or
# a value a caller's Random subclass draws. Each is one InvalidArgument and
# changes nothing.
REFUSED = {
    "node-id-past-u32": lambda w: w.cluster.add_node(2**32, {V}),
    "large-page-class-float": lambda w: PoolConfig(large_page_classes=(65536.0,)),
    "large-page-float": lambda w: w.pool.alloc_large_page(4 * 4096.0),  # equal to a registered class
    "priority-bool": lambda w: w.sched.enqueue(MlTask("b", cycles_work(1), priority=True)),
    "dim-float": lambda w: Tensor((2.9,), [1.0, 2.0]),
    "dim-bool": lambda w: Tensor((True,), [1.0]),
    "dim-str": lambda w: Tensor(("2",), [1.0, 2.0]),
    "entry-str": lambda w: Tensor((2,), ["a", "b"]),
    "entry-numeric-str": lambda w: Tensor((2,), ["1.5", "2"]),
    "entry-huge-int": lambda w: Tensor((1,), [HUGE]),
    "entry-bytes": lambda w: Tensor((1,), [b"x"]),
    "entry-none": lambda w: Tensor((1,), [None]),
    "entry-complex": lambda w: Tensor((1,), [1j]),
    "entry-signalling-nan": lambda w: Tensor((1,), [Decimal("sNaN")]),
    "read-str-shape": lambda w: w.dev.read_tensor(w.region, ("1",)),
    "submit-str-shape": lambda w: w.dev.submit(
        AccelTask(AccelOp.ELEMWISE_SUM, w.region, ("a", 1), w.region, ("a", 1), w.region)),
    "submit-float-shape": lambda w: w.dev.submit(
        AccelTask(AccelOp.ELEMWISE_SUM, w.region, (0.5, 2), w.region, (0.5, 2), w.region)),
    "submit-bool-shape-a": lambda w: w.dev.submit(
        AccelTask(AccelOp.MATMUL, w.region, (True, 1), w.region, (1, 1), w.region)),
    "submit-bool-shape-b": lambda w: w.dev.submit(
        AccelTask(AccelOp.MATMUL, w.region, (1, 1), w.region, (1, True), w.region)),
    "draw-bool-channel": lambda w: interpret_intent(DrawPixel(1, 1, (True, 0, 0)), w.fb),
    "path-draw-bool": lambda w: apply_path([DrawPixel(True, 0, RED)], w.fb),
    "path-color-none": lambda w: canonicalize_path([DrawPixel(1, 1, None)], 8, 8),
    "path-outside-huge-size": lambda w: canonicalize_path([DrawPixel(-1, 0, RED)], HUGE, HUGE),
    "cosine-entry-nan": lambda w: cosine_similarity([1.0, NAN], [1.0, 1.0]),
    "fuse-output-not-a-pair": lambda w: fuse({V: ("person",)}),
    "random-draws-a-str": lambda w: Tensor.random((2,), StrDraws(1)),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_a_bad_value_no_swap_reaches_is_one_invalid_argument(name):
    world = World()
    before = world.fingerprint()
    with pytest.raises(InvalidArgument):
        REFUSED[name](world)
    assert world.fingerprint() == before


# Records built per call, whose hand-written __init__ fills the instance dict: one valid instance's fields each.
_RECORD_VALUES = {
    MessageEnvelope: (7, 0, 3, b'{"modality": "vision", "tag": "x"}', QoS.REALTIME),
    Checkpoint: (3, 2, b"{}"),
    AccelTask: (AccelOp.MATMUL, BlockHandle(0, 2), (1, 2), BlockHandle(2, 2), (2, 1), BlockHandle(4, 1)),
}


@pytest.mark.parametrize("cls", list(_RECORD_VALUES), ids=lambda cls: cls.__name__)
class TestRecordInits:
    """A record's hand-written __init__ builds what the generated one would."""

    def test_parameters_are_the_fields(self, cls):
        params = list(inspect.signature(cls.__init__).parameters.values())[1:]
        assert [(p.name, p.default) for p in params] == [
            (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(cls)]

    def test_an_instance_is_the_generated_one(self, cls):
        values = _RECORD_VALUES[cls]
        generated = object.__new__(cls)
        for field, value in zip(dataclasses.fields(cls), values):
            object.__setattr__(generated, field.name, value)
        record = cls(*values)
        assert record == generated and hash(record) == hash(generated) and repr(record) == repr(generated)
        assert vars(record) == vars(generated)

    def test_it_stays_frozen(self, cls):
        record = cls(*_RECORD_VALUES[cls])
        for field in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, 1)
        first = dataclasses.fields(cls)[0].name
        changed = dataclasses.replace(record, **{first: 99})
        assert type(changed) is cls and changed != record and getattr(changed, first) == 99
        assert dataclasses.replace(changed, **{first: getattr(record, first)}) == record


def _square_task(w: World) -> AccelTask:
    """A 1x1 by 1x1 product on the world's one-entry region: the device's per-request shapes are rank 2."""
    return AccelTask(AccelOp.MATMUL, w.region, (1, 1), w.region, (1, 1), w.region)


def _queued_product(w: World):
    """execute_next with that product queued."""
    w.dev.submit(_square_task(w))
    return call(w.dev.execute_next)


# Sites run once per job, staged tensor or cluster message: each tests its
# arguments inline and calls into errors.py only when that test fails.
TIMED = {
    "enqueue": lambda w: call(w.sched.enqueue, w.task),
    "free": lambda w: call(w.pool.free, w.handle),
    "push_metrics": lambda w: call(w.node.push_metrics, 0.1, 0.2, 0.3),
    "submit_input": lambda w: call(w.cluster.submit_input, V, "person"),
    "balance_load": lambda w: call(w.cluster.balance_load, V),
    "process_step": lambda w: call(w.cluster.process_step),
    "modality_label": lambda w: call(modality_label, V, b"person"),
    "encode": lambda w: call(encode, w.envelope),
    "decode": lambda w: call(decode, w.frame),
    "write_tensor": lambda w: call(w.dev.write_tensor, w.region, Tensor.vector([3.0])),
    "execute_next": lambda w: call(w.dev.execute_next),
    "submit": lambda w: call(w.dev.submit, _square_task(w)),
    "execute_next (matmul)": _queued_product,
    "read_tensor": lambda w: call(w.dev.read_tensor, w.region, (1, 1)),
    "matmul_naive": lambda w: call(matmul_naive, w.t, w.t),
    "elementwise_sum": lambda w: call(elementwise_sum, w.t, w.t),
}


@pytest.mark.parametrize("name", sorted(TIMED))
def test_a_valid_call_at_a_timed_site_enters_no_checker(name):
    fn, args, kwargs = TIMED[name](World())
    entered = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename == neurokernel.errors.__file__:
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    assert entered == []


def _calls(fn, *args) -> list:
    """The code objects of the Python-level calls made by fn(*args), fn's own first."""
    codes = []

    def profile(frame, event, _arg):
        if event == "call":
            codes.append(frame.f_code)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return codes


def _idle_cluster() -> Cluster:
    """48 idle nodes, as many as the cluster workload runs; the per-node paths below run once per node a tick."""
    cluster = Cluster()
    for node_id in range(1, 49):
        cluster.add_node(node_id, {list(Modality)[node_id % len(Modality)]})
    return cluster


def test_process_step_over_idle_nodes_makes_no_python_call():
    cluster = _idle_cluster()
    assert _calls(cluster.process_step) == [Cluster.process_step.__code__]


def test_checkpoint_node_builds_no_generator():
    cluster = _idle_cluster()
    cluster.nodes[5].push_metrics(0.1, 0.2, 0.3)
    names = [code.co_name for code in _calls(cluster.checkpoint_node, 5)]
    assert names[0] == "checkpoint_node" and "<genexpr>" not in names


def test_a_device_product_runs_once_through_accel_matmul_naive_and_cuts_each_operand_once(monkeypatch):
    # The device multiplies with the host's kernel, looked up as accel.matmul_naive when the task
    # runs, so a profiler that rebinds that name times every device product.
    a, b = Tensor.random((3, 4), Random(5)), Tensor.random((4, 2), Random(6))
    dev = AccelDevice()
    ra, rb, rout = dev.allocate(8 * 12), dev.allocate(8 * 8), dev.allocate(8 * 6)
    dev.write_tensor(ra, a)
    dev.write_tensor(rb, b)
    dev.submit(AccelTask(AccelOp.MATMUL, ra, (3, 4), rb, (4, 2), rout))
    operands = []
    monkeypatch.setattr(neurokernel.accel, "matmul_naive", lambda x, y: operands.append((x, y)) or matmul_naive(x, y))
    codes = _calls(dev.execute_next)
    assert [(x.tobytes(), y.tobytes()) for x, y in operands] == [(a.tobytes(), b.tobytes())]
    assert codes.count(matmul_naive.__code__) == codes.count(validate_matmul_shapes.__code__) == 1
    assert dev.read_tensor(rout, (3, 2)).tobytes() == matmul_naive(a, b).tobytes()


def _enum_member_reads():
    """file:line of each <Enum>.<MEMBER> read inside a function or lambda body.

    Before Python 3.12, EnumType defines __getattr__, so such a read is not
    specialised and costs 90-135 ns; a module-level binding costs about 20.
    Module level and default arguments run once and are allowed. cli and
    selftest are the command line and the acceptance checks, not timed paths.
    """
    for info in pkgutil.walk_packages(neurokernel.__path__, "neurokernel."):
        if info.name in ("neurokernel.cli", "neurokernel.selftest"):
            continue
        module = importlib.import_module(info.name)
        enums = {name: obj for name, obj in vars(module).items()
                 if inspect.isclass(obj) and issubclass(obj, Enum) and obj.__module__.startswith("neurokernel.")}
        tree = ast.parse(inspect.getsource(module))
        bodies = [node.body for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.Lambda))]
        sites = {(node.lineno, f"{node.value.id}.{node.attr}")
                 for body in bodies for stmt in (body if isinstance(body, list) else [body])
                 for node in ast.walk(stmt)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in enums and node.attr in enums[node.value.id].__members__}
        yield from (f"{module.__file__}:{line}: {read}" for line, read in sorted(sites))


def test_no_function_reads_an_enum_member_through_its_class():
    sites = list(_enum_member_reads())
    assert sites == [], "bind these members once at module level:\n" + "\n".join(sites)


# The functions that may write a .latest attribute, each with its reason.
LATEST_WRITERS = {
    "Node.__init__": "binds the empty dict beside its rendering, the empty string",
    "Node._record": "the one writer: it clears the rendering, then stores the entry",
}
_DICT_WRITES = {"update", "pop", "popitem", "clear", "setdefault", "__setitem__", "__delitem__", "__ior__"}


def _scoped(tree, scope=()):
    """(dotted class and function names around it, node) for every node under tree."""
    for child in ast.iter_child_nodes(tree):
        inner = (*scope, child.name) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
        yield ".".join(inner), child
        yield from _scoped(child, inner)


def _latest_writes():
    """(scope, file:line) of each write to a .latest attribute in the package.

    A write is a rebinding or deletion of the attribute, a store or deletion
    through a subscript of it, or a call of one of its dict methods that
    changes it.
    """
    def is_latest(expr):
        return isinstance(expr, ast.Attribute) and expr.attr == "latest"

    for info in pkgutil.walk_packages(neurokernel.__path__, "neurokernel."):
        module = importlib.import_module(info.name)
        for scope, node in _scoped(ast.parse(inspect.getsource(module))):
            stored = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
            if (stored and is_latest(node) or stored and isinstance(node, ast.Subscript) and is_latest(node.value)
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DICT_WRITES and is_latest(node.func.value)):
                yield scope, f"{module.__file__}:{node.lineno}"


def test_only_record_writes_a_nodes_latest_inputs():
    writes = list(_latest_writes())
    assert [site for scope, site in writes if scope not in LATEST_WRITERS] == []
    assert {scope for scope, _ in writes} == set(LATEST_WRITERS)  # each allowance names a writer
