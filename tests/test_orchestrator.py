import builtins
import dataclasses
import hashlib
import inspect
import json
import math
import pickle
import re
import struct
from collections import deque
from itertools import cycle
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from neurokernel.errors import ChecksumMismatch, InvalidArgument, KernelError, NodeUnreachable
from neurokernel.orchestrator import (
    DEMO_SCENARIO,
    FUSION_ORDER,
    Checkpoint,
    Cluster,
    Liveness,
    MessageEnvelope,
    Modality,
    Node,
    QoS,
    decide,
    decode,
    encode,
    fuse,
    modality_process,
    parse_scenario,
    run_scenario,
)
from neurokernel.orchestrator import fusion
from neurokernel.orchestrator.cluster import _request
from neurokernel.orchestrator.envelope import MAGIC
from neurokernel.rabab import embed


def _left_to_right(values) -> float:
    total = 0.0
    for x in values:
        total += x
    return total


def _load(windows) -> float:
    """The predicted load of (cpu, mem, io) sample windows, recomputed."""
    load = 0.0
    for weight, window in zip((0.5, 0.3, 0.2), windows):
        load += weight * (_left_to_right(window) / len(window)) if window else 0.0
    return load


class TestEnvelopeCodec:
    def test_round_trip_identity(self):
        env = MessageEnvelope(msg_id=42, source=1, dest=2, payload=b"hello", qos=QoS.REALTIME)
        assert decode(encode(env)) == env

    @given(
        msg_id=st.integers(min_value=0, max_value=2**64 - 1),
        source=st.integers(min_value=0, max_value=2**32 - 1),
        dest=st.integers(min_value=0, max_value=2**32 - 1),
        payload=st.binary(max_size=256),
        qos=st.sampled_from([QoS.REALTIME, QoS.BULK]),
    )
    def test_round_trip_random(self, msg_id, source, dest, payload, qos):
        env = MessageEnvelope(msg_id=msg_id, source=source, dest=dest, payload=payload, qos=qos)
        assert decode(encode(env)) == env

    def test_single_bit_flips_detected(self):
        payload = bytes(range(64))
        frame = encode(MessageEnvelope(msg_id=1, source=1, dest=2, payload=payload))
        header = len(frame) - len(payload) - 4
        for byte_index in range(0, 64, 7):
            for bit in range(8):
                corrupted = bytearray(frame)
                corrupted[header + byte_index] ^= 1 << bit
                with pytest.raises(ChecksumMismatch):
                    decode(bytes(corrupted))

    @pytest.mark.parametrize("qos_byte", range(2, 256))  # every byte past the last QoS value
    def test_unknown_qos_byte_rejected(self, qos_byte):
        frame = bytearray(encode(MessageEnvelope(msg_id=1, source=1, dest=2, payload=b"x")))
        frame[4] = qos_byte  # the byte after the magic
        with pytest.raises(InvalidArgument, match=f"^InvalidArgument: unknown qos byte {qos_byte}$"):
            decode(bytes(frame))

    def test_bad_magic_rejected(self):
        frame = bytearray(encode(MessageEnvelope(msg_id=1, source=1, dest=2, payload=b"x")))
        frame[0] = ord("X")
        with pytest.raises(InvalidArgument):
            decode(bytes(frame))

    def test_truncated_frame_rejected(self):
        with pytest.raises(InvalidArgument):
            decode(b"NKE1\x01")

    def test_length_mismatch_rejected(self):
        frame = encode(MessageEnvelope(msg_id=1, source=1, dest=2, payload=b"abc"))
        with pytest.raises(InvalidArgument):
            decode(frame + b"!")


def _decode_or_refuse(data: bytes) -> None:
    """decode returns an envelope or raises one of its two kinds; nothing else escapes."""
    try:
        env = decode(data)
    except (InvalidArgument, ChecksumMismatch):
        return
    assert isinstance(env, MessageEnvelope)
    assert encode(env) == data  # only a canonical frame is accepted


_frames = st.builds(
    MessageEnvelope,
    msg_id=st.integers(min_value=0, max_value=2**64 - 1),
    source=st.integers(min_value=0, max_value=2**32 - 1),
    dest=st.integers(min_value=0, max_value=2**32 - 1),
    payload=st.binary(max_size=64),
    qos=st.sampled_from([QoS.REALTIME, QoS.BULK]),
).map(encode)


class TestEnvelopeFuzz:
    @given(st.binary(max_size=96) | st.binary(max_size=96).map(lambda b: MAGIC + b"\x01\x00" + b))
    def test_arbitrary_bytes(self, data):
        _decode_or_refuse(data)

    @given(_frames, st.data())
    def test_truncated_frame_is_invalid(self, frame, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(InvalidArgument):
            decode(frame[:cut])

    @given(_frames, st.data())
    def test_mutated_frame(self, frame, data):
        mutated = bytearray(frame)
        edits = data.draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=len(frame) - 1),
                      st.integers(min_value=0, max_value=255)),
            min_size=1, max_size=4,
        ))
        for index, value in edits:
            mutated[index] = value
        _decode_or_refuse(bytes(mutated))


class TestFailureDetection:
    def make_cluster(self, timeout=3):
        cluster = Cluster(timeout_ticks=timeout)
        cluster.add_node(1, {Modality.VISION})
        cluster.add_node(2, {Modality.VISION})
        return cluster

    def silence_and_count(self, cluster, node_id, silent_ticks):
        cluster.heartbeat_tick()  # last beat
        cluster.silence(node_id)
        for _ in range(silent_ticks):
            cluster.heartbeat_tick()
            cluster.detect_failures()
        return cluster.nodes[node_id].liveness

    def test_silenced_past_double_timeout_fails(self):
        assert self.silence_and_count(self.make_cluster(), 1, 7) is Liveness.FAILED

    def test_exactly_double_timeout_is_not_yet_failed(self):
        assert self.silence_and_count(self.make_cluster(), 1, 6) is not Liveness.FAILED

    def test_short_silence_stays_alive(self):
        assert self.silence_and_count(self.make_cluster(), 1, 2) is Liveness.ALIVE

    def test_suspect_phase_between_timeouts(self):
        assert self.silence_and_count(self.make_cluster(), 1, 4) is Liveness.SUSPECT

    def test_suspect_recovers_on_resumed_heartbeats(self):
        cluster = self.make_cluster()
        cluster.heartbeat_tick()
        cluster.silence(1)
        for _ in range(4):
            cluster.heartbeat_tick()
        cluster.detect_failures()
        assert cluster.nodes[1].liveness is Liveness.SUSPECT
        cluster.unsilence(1)
        cluster.heartbeat_tick()
        cluster.detect_failures()
        assert cluster.nodes[1].liveness is Liveness.ALIVE

    def test_heartbeat_sequences_strictly_increase(self):
        cluster = self.make_cluster()
        seqs = []
        for _ in range(5):
            assert cluster.heartbeat_tick() is None
            seqs.append(cluster.nodes[1].heartbeat_seq)
        assert seqs == sorted(set(seqs)) == [1, 2, 3, 4, 5]

    def test_failover_reroutes_pending_work(self):
        cluster = self.make_cluster()
        cluster.heartbeat_tick()
        cluster.nodes[1].push_metrics(0.0, 0.0, 0.0)
        cluster.nodes[2].push_metrics(0.9, 0.9, 0.9)
        target, msg_id = cluster.submit_input(Modality.VISION, "person")
        assert target == 1
        cluster.silence(1)
        for _ in range(7):
            cluster.heartbeat_tick()
        failed = cluster.detect_failures()
        assert failed == [1]
        assert cluster.last_failover_events() == [(msg_id, 2)]
        assert cluster.nodes[2].pending == 1
        records = cluster.process_step()
        assert records == [(2, Modality.VISION, "person", "person")]


def _canonical(state) -> bytes:
    return json.dumps(state, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _packed(*samples) -> str:
    """A snapshot's "metrics": the hex of each (cpu, mem, io) sample as three little-endian float64s."""
    return b"".join(struct.pack("<ddd", *map(float, sample)) for sample in samples).hex()


def _window(snapshot: bytes) -> list:
    """The (cpu, mem, io) samples a snapshot's "metrics" holds, in window order."""
    return list(struct.iter_unpack("<ddd", bytes.fromhex(json.loads(snapshot)["metrics"])))


def _add_unserved_record(state):
    """A consistent record for audio, which node 1 does not serve."""
    state["latest"]["audio"] = [1, "help", modality_process(Modality.AUDIO, b"help")[0]]


class TestCheckpoints:
    def build(self):
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION, Modality.SENSOR})
        cluster.add_node(2, {Modality.AUDIO})
        cluster.heartbeat_tick()
        cluster.submit_input(Modality.VISION, "person")
        cluster.process_step()
        return cluster

    def test_round_trip_is_byte_exact(self):
        cluster = self.build()
        chk = cluster.checkpoint_node(1)
        cluster.submit_input(Modality.SENSOR, "3m")
        cluster.process_step()
        cluster.nodes[1].push_metrics(0.5, 0.5, 0.5)
        assert cluster.nodes[1].snapshot() != chk.snapshot
        cluster.restore_node(chk)
        assert cluster.nodes[1].snapshot() == chk.snapshot

    def test_restore_onto_replacement_serves_old_modalities(self):
        cluster = self.build()
        chk = cluster.checkpoint_node(1)
        cluster.silence(1)
        for _ in range(7):
            cluster.heartbeat_tick()
        cluster.detect_failures()
        replacement = cluster.restore_node(chk, target_id=9)
        assert replacement.modalities == {Modality.VISION, Modality.SENSOR}
        assert cluster.balance_load(Modality.SENSOR) == 9

    def test_restore_keeps_the_replicas_held_for_peers(self):
        cluster = self.build()
        cluster.add_node(3, {Modality.AUDIO})
        own = cluster.checkpoint_node(1)
        held = {2: cluster.checkpoint_node(2), 3: cluster.checkpoint_node(3)}
        assert cluster.nodes[1].checkpoint_store == held
        cluster.restore_node(own)
        assert cluster.nodes[1].checkpoint_store == held
        # A replacement id held nothing, so it starts with an empty store.
        assert cluster.restore_node(own, target_id=9).checkpoint_store == {}

    def test_rollback_processes_the_queued_message(self):
        cluster = self.build()
        chk = cluster.checkpoint_node(1)
        assert cluster.submit_input(Modality.VISION, "obstacle") == (1, 2)
        cluster.restore_node(chk)
        assert cluster.nodes[1].pending == 1
        label = modality_process(Modality.VISION, b"obstacle")[0]
        assert cluster.process_step() == [(1, Modality.VISION, "obstacle", label)]
        assert cluster.checkpoint_node(1).seq == 2  # the checkpoint number carried over too

    def test_restore_refused_when_a_queued_message_is_not_served(self):
        cluster = self.build()
        vision = cluster.checkpoint_node(1)
        assert cluster.submit_input(Modality.AUDIO, "help") == (2, 2)
        before = dict(cluster.nodes)
        with pytest.raises(InvalidArgument):
            cluster.restore_node(vision, target_id=2)
        assert cluster.nodes == before  # Node compares by identity
        assert [env.msg_id for env in cluster.nodes[2].drain_inbox()] == [2]

    def test_corrupt_checkpoint_rejected(self):
        cluster = self.build()
        chk = cluster.checkpoint_node(1)
        bad = type(chk)(node_id=chk.node_id, seq=chk.seq, snapshot=b"{not json")
        with pytest.raises(InvalidArgument):
            cluster.restore_node(bad)

    @pytest.mark.parametrize("corrupt", [
        lambda state: state.pop("heartbeat_seq"),
        lambda state: state.update(metrics={"cpu": [0.5], "io": [0.5], "mem": [0.5]}),  # the old form
        lambda state: state["latest"].update(smell=[1, "x", "x"]),
        lambda state: state.update(latest=5),
        lambda state: state.update(metrics=_packed((1.5, 0.5, 0.5))),  # push_metrics refuses it
        lambda state: state.update(metrics=_packed((0.5, math.nan, 0.5))),
        lambda state: state.update(heartbeat_seq="x"),
        lambda state: state.update(heartbeat_seq=True),
        lambda state: state.update(heartbeat_seq=2.5),
        lambda state: state.update(heartbeat_seq=-4),
        lambda state: state["latest"]["vision"].__setitem__(1, 5),
        lambda state: state["latest"]["vision"].__setitem__(2, ["person"]),
        lambda state: state["latest"]["vision"].append([1.0, 0.0]),
        lambda state: state.update(last_outputs={"vision": {"label": "person", "tensor": []}}),
        lambda state: state["latest"]["vision"].__setitem__(0, True),
        lambda state: state["latest"]["vision"].__setitem__(2, "someone"),
        lambda state: state.update(metrics=_packed(*[(0.5, 0.5, 0.5)] * 4)),
        lambda state: state.update(metrics=_packed((0.5, 0.5, 0.5))[:-2]),  # not whole samples
        lambda state: state.update(metrics=_packed((0.5, 0.5, 0.5))[:-1]),  # not whole bytes
        lambda state: state.update(metrics="zz" * 24),
        # bytes.fromhex reads these two as the same bits; the round trip refuses the spelling.
        lambda state: state.update(metrics=_packed((0.25, 0.5, 1.0)).upper()),
        lambda state: state.update(metrics=" ".join(re.findall("..", _packed((0.25, 0.5, 1.0))))),
        _add_unserved_record,
        lambda state: state["latest"]["vision"].__setitem__(0, 10**9),
        lambda state: state["latest"].update(vision=[1, "", ""]),
    ], ids=["no-heartbeat-seq", "metric-arrays", "unknown-modality", "latest-not-a-dict",
            "metric-out-of-range", "metric-nan", "heartbeat-seq-str", "heartbeat-seq-bool",
            "heartbeat-seq-float", "heartbeat-seq-negative", "int-tag", "list-label",
            "stored-tensor", "stored-outputs", "bool-tick", "wrong-label",
            "four-sample-window", "metric-hex-length", "metric-hex-odd-length", "metric-not-hex",
            "metric-hex-uppercase", "metric-hex-spaced", "unserved-modality", "tick-after-the-clock",
            "empty-tag"])
    @pytest.mark.parametrize("target_id", [None, 9])
    def test_malformed_snapshot_rejected_and_nodes_unchanged(self, corrupt, target_id):
        cluster = self.build()
        chk = cluster.checkpoint_node(1)
        state = json.loads(chk.snapshot)
        corrupt(state)
        # Canonical bytes, so only the corruption can be what is refused.
        bad = Checkpoint(chk.node_id, chk.seq, _canonical(state))
        before = dict(cluster.nodes)
        with pytest.raises(InvalidArgument) as refused:
            cluster.restore_node(bad, target_id=target_id)
        assert refused.value.detail == "unknown or corrupt checkpoint"
        assert cluster.nodes == before  # Node compares by identity

    def test_snapshot_format(self):
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION, Modality.LANGUAGE})
        cluster.add_node(2, {Modality.AUDIO})
        node = cluster.nodes[1]
        cluster.heartbeat_tick()
        cluster.submit_input(Modality.VISION, "person")
        cluster.process_step()
        first = cluster.checkpoint_node(1)
        assert first.snapshot == _canonical({
            "heartbeat_seq": 1, "latest": {"vision": [1, "person", "person"]},
            "metrics": "", "modalities": ["language", "vision"],
            "node_id": 1,
        })
        assert cluster.checkpoint_node(1).snapshot == first.snapshot
        # A replaced record for a modality seen before, a new one, new
        # metrics and a new heartbeat: all must show, and nothing else.
        cluster.heartbeat_tick()
        node.push_metrics(0.25, 0.5, 1.0)
        cluster.submit_input(Modality.VISION, 'say"hi"')
        cluster.submit_input(Modality.LANGUAGE, "日本語")
        cluster.process_step()
        cluster.process_step()
        second = cluster.checkpoint_node(1)
        assert second.snapshot == _canonical({
            "heartbeat_seq": 2,
            "latest": {"language": [2, "日本語", "日本語"], "vision": [2, 'say"hi"', 'say"hi"']},
            # 0.25, 0.5 and 1.0 as little-endian float64s.
            "metrics": "000000000000d03f000000000000e03f000000000000f03f",
            "modalities": ["language", "vision"],
            "node_id": 1,
        })
        restored = cluster.restore_node(first)
        assert cluster.checkpoint_node(1).snapshot == first.snapshot == restored.snapshot()

    def test_checkpoint_replicated_to_peer(self):
        cluster = self.build()
        chk = cluster.checkpoint_node(1)
        assert cluster.nodes[2].checkpoint_store[1] is chk

    def test_peer_keeps_only_the_newest_replica_per_node(self):
        cluster = self.build()
        cluster.add_node(3, {Modality.AUDIO})
        for _ in range(5):
            newest = {nid: cluster.checkpoint_node(nid) for nid in (1, 2, 3)}
        assert cluster.nodes[1].checkpoint_store == {2: newest[2], 3: newest[3]}
        assert cluster.nodes[2].checkpoint_store == {1: newest[1]}
        assert cluster.nodes[3].checkpoint_store == {}
        assert {chk.seq for chk in newest.values()} == {5}

    def test_no_peer_means_unreachable(self):
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION})
        with pytest.raises(NodeUnreachable):
            cluster.checkpoint_node(1)
        cluster.add_node(2, {Modality.VISION})
        assert cluster.checkpoint_node(1).seq == 1  # the refused one took no number

    def test_checkpoint_unknown_node_rejected(self):
        with pytest.raises(InvalidArgument):
            Cluster().checkpoint_node(99)


class TestNodeTable:
    def test_nodes_kept_in_id_order_whatever_the_arrival(self):
        cluster = Cluster()
        cluster.add_node(5, {Modality.VISION})
        cluster.add_node(3, {Modality.AUDIO})
        chk = cluster.checkpoint_node(5)
        cluster.restore_node(chk, target_id=1)
        assert list(cluster.nodes) == [1, 3, 5]
        # The peer is the lowest-id live node other than the checkpointed one.
        assert cluster.checkpoint_node(5) is cluster.nodes[1].checkpoint_store[5]
        assert cluster.checkpoint_node(1) is cluster.nodes[3].checkpoint_store[1]

    # Accepted, "x" broke every later add_node and submit_input.
    @pytest.mark.parametrize("node_id", ["x", True, 1.5], ids=["str", "bool", "float"])
    def test_an_id_that_is_not_an_int_is_refused(self, node_id):
        cluster = Cluster()
        cluster.add_node(2, {Modality.VISION})
        before = dict(cluster.nodes)
        with pytest.raises(InvalidArgument):
            cluster.add_node(node_id, {Modality.AUDIO})
        assert cluster.nodes == before
        cluster.add_node(3, {Modality.AUDIO})
        assert list(cluster.nodes) == [2, 3]
        assert cluster.submit_input(Modality.AUDIO, "help") == (3, 1)

    @pytest.mark.parametrize("modalities", ["vision", {"vision"}, [Modality.AUDIO, "audio"], 5],
                             ids=["str", "set-of-str", "mixed", "int"])
    def test_a_modality_that_is_not_a_modality_is_refused(self, modalities):
        cluster = Cluster()
        cluster.add_node(2, {Modality.VISION})
        before = dict(cluster.nodes)
        with pytest.raises(InvalidArgument):
            cluster.add_node(1, modalities)
        assert cluster.nodes == before
        assert cluster.balance_load(Modality.VISION) == 2


def _agree(live, twin, name, *args):
    """name(*args) on a cluster and on its twin: the same value, or the same refusal, re-raised."""
    try:
        expected = getattr(twin, name)(*args)
    except KernelError as refused:
        with pytest.raises(KernelError) as caught:
            getattr(live, name)(*args)
        assert (type(caught.value), caught.value.detail) == (type(refused), refused.detail), name
        raise
    got = getattr(live, name)(*args)
    if isinstance(got, Node):
        assert got.snapshot() == expected.snapshot(), name
    else:
        assert got == expected, name
    return got


def _beating(cluster, node_id) -> bool:
    """The node has the coordinator records restore_node gives: Alive, not silenced, beat now."""
    node = cluster.nodes[node_id]
    return (node.liveness is Liveness.ALIVE and not node.silenced
            and node.last_heartbeat == cluster.tick)


_SNAPSHOT_TAGS = (
    "person", "3m", "help", "hello", 'say"hi"', "back\\slash", '\\"', "café",
    "日本語", "emoji\U0001F600", "tab\there", "line\u2028sep", "nul\x00byte",
)


class TestReplayOracle:
    """A node restored from a checkpoint, then given the same inputs, is the node that never stopped.

    The twin cluster gets every call the cluster gets, and after each
    checkpoint of a beating node it restores that node from the checkpoint.
    Both must then give the same records, outputs and snapshots.
    """

    @pytest.mark.parametrize("seed", [1, 2])
    def test_long_run_with_failover_and_restores(self, seed):
        rng = Random(seed)
        modalities = list(Modality)
        live, twin = Cluster(timeout_ticks=3), Cluster(timeout_ticks=3)
        for node_id in range(1, 13):
            _agree(live, twin, "add_node", node_id, set(rng.sample(modalities, rng.randint(1, 3))))
        kills = {40: 4, 95: 7, 160: 11}
        latest = {}
        restores = failovers = 0
        for tick in range(1, 241):
            if tick in kills:
                _agree(live, twin, "silence", kills[tick])
            _agree(live, twin, "heartbeat_tick")
            for node_id, node in live.nodes.items():
                if node.liveness is not Liveness.FAILED and not node.silenced:
                    sample = rng.random(), rng.random(), rng.random()
                    node.push_metrics(*sample)
                    twin.nodes[node_id].push_metrics(*sample)
            for _ in range(rng.randint(1, 4)):
                try:
                    _agree(live, twin, "submit_input", rng.choice(modalities), rng.choice(_SNAPSHOT_TAGS))
                except NodeUnreachable:
                    pass
            _agree(live, twin, "detect_failures")
            failovers += len(_agree(live, twin, "last_failover_events"))
            _agree(live, twin, "process_step")
            _agree(live, twin, "collect_outputs")
            if tick == 120:  # roll node 3 back to an older checkpoint, same id
                _agree(live, twin, "restore_node", latest[3][0])
            if tick == 150:  # bring failed node 4 back under a replacement id
                assert live.nodes[4].liveness is Liveness.FAILED
                _agree(live, twin, "restore_node", latest[4][-1], 99)
            if tick % 5 == 0:
                for node_id in [nid for nid, n in live.nodes.items() if n.liveness is not Liveness.FAILED]:
                    chk = _agree(live, twin, "checkpoint_node", node_id)  # the same snapshot
                    latest.setdefault(node_id, []).append(chk)
                    if _beating(live, node_id):
                        twin.restore_node(chk)
                        restores += 1
        assert restores > 450 and failovers > 0
        assert len(latest[99]) > 10
        assert {nid: n.snapshot() for nid, n in twin.nodes.items()} == {
            nid: n.snapshot() for nid, n in live.nodes.items()}


class TestBoundedCheckpoints:
    """A node's snapshot does not grow with its uptime."""

    def run(self, ticks):
        """Node 1 serves vision and audio, one input of each per tick; its snapshot and checkpoint sizes."""
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION, Modality.AUDIO})
        cluster.add_node(2, set())
        sizes = []
        for tick in range(1, ticks + 1):
            cluster.heartbeat_tick()
            cluster.nodes[1].push_metrics(0.25, 0.5, 0.75)
            cluster.submit_input(Modality.VISION, "person")
            cluster.submit_input(Modality.AUDIO, "help")
            cluster.process_step()
            cluster.process_step()
            if tick % 5 == 0:
                sizes.append(len(cluster.checkpoint_node(1).snapshot))
        return cluster.nodes[1].snapshot(), sizes

    def test_snapshot_size_does_not_depend_on_the_tick_count(self):
        short, short_sizes = self.run(100)
        long, long_sizes = self.run(2000)
        # Only the counters differ: the heartbeat number and the two records'
        # ticks, each one digit longer at 2,000 than at 100.
        assert re.sub(rb"\d+", b"#", long) == re.sub(rb"\d+", b"#", short)
        assert len(long) == len(short) + 3
        # So total checkpoint bytes grow linearly: 20 times the ticks, at most
        # 20 times the bytes plus the longer counters.
        assert len(long_sizes) == 20 * len(short_sizes)
        assert max(long_sizes) - min(short_sizes) <= 9
        assert sum(long_sizes) < 21 * sum(short_sizes)


_served = st.sets(st.sampled_from(list(Modality)), min_size=1).map(
    lambda served: sorted(served, key=lambda m: m.value))


def _ticks(served):
    """Ticks of work for node 1: an optional metric sample, then up to two inputs."""
    unit = st.floats(0.0, 1.0)
    tag = st.sampled_from(_SNAPSHOT_TAGS) | st.text(min_size=1, max_size=6)
    return st.lists(st.tuples(st.none() | st.tuples(unit, unit, unit),
                              st.lists(st.tuples(st.sampled_from(served), tag), max_size=2)),
                    max_size=8)


def _two_nodes(served) -> Cluster:
    """Node 1 serves ``served``; node 2 serves nothing, so it is node 1's peer and gets no input."""
    cluster = Cluster()
    cluster.add_node(1, served)
    cluster.add_node(2, set())
    return cluster


def _feed(cluster, ticks) -> list:
    """Run the ticks of work; each tick's records, outputs and node 1's predicted load."""
    seen = []
    for sample, inputs in ticks:
        cluster.heartbeat_tick()
        if sample is not None:
            cluster.nodes[1].push_metrics(*sample)
        for modality, tag in inputs:
            cluster.submit_input(modality, tag)
        records = cluster.process_step() + cluster.process_step()
        seen.append((records, cluster.collect_outputs(), cluster.nodes[1].predicted_load()))
    return seen


@st.composite
def _checkpointed_runs(draw):
    """A two-node cluster after a generated run, and a checkpoint of its node 1."""
    served = draw(_served)
    cluster = _two_nodes(served)
    _feed(cluster, draw(_ticks(served)))
    return cluster, cluster.checkpoint_node(1)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**64) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _slots(value):
    """Every (container, key) pair inside a decoded JSON value, depth first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in list(items):
        yield value, key
        yield from _slots(child)


def _renamed(snapshot: bytes, node_id: int) -> bytes:
    """The snapshot a node restored onto node_id writes: only the id differs."""
    return _canonical({**json.loads(snapshot), "node_id": node_id})


def _restore_or_refuse(cluster, chk, target_id) -> None:
    """restore_node rebuilds exactly the snapshot, or refuses and changes nothing."""
    before = dict(cluster.nodes)
    try:
        node = cluster.restore_node(chk, target_id=target_id)
    except InvalidArgument as refused:
        assert refused.detail == "unknown or corrupt checkpoint"
        assert cluster.nodes == before  # Node compares by identity
        return
    assert node.snapshot() == _renamed(chk.snapshot, node.id)
    # An accepted node keeps working: no operation on it raises outside KernelError.
    cluster.heartbeat_tick()
    cluster.checkpoint_node(node.id)
    outputs = cluster.collect_outputs()
    if outputs:
        fuse(outputs)


class TestSnapshotFuzz:
    """restore_node accepts exactly the bytes Node.snapshot() writes."""

    @given(_checkpointed_runs(), st.sampled_from([None, 9]))
    @settings(deadline=None)
    def test_generated_snapshot_round_trips(self, run, target_id):
        cluster, chk = run
        restored = cluster.restore_node(chk, target_id=target_id)
        assert restored.id == (target_id or 1)
        assert restored.snapshot() == _renamed(chk.snapshot, restored.id)
        assert cluster.restore_node(chk).snapshot() == chk.snapshot

    @given(st.data())
    @settings(deadline=None)
    def test_restored_node_replays_as_the_node_that_never_stopped(self, data):
        # The twin's node 1 ran none of the work before the checkpoint: all it
        # knows of it comes from the snapshot.
        served = data.draw(_served)
        before, after = data.draw(_ticks(served)), data.draw(_ticks(served))
        live, twin = _two_nodes(served), _two_nodes(served)
        _feed(live, before)
        for _ in before:
            twin.heartbeat_tick()
        twin.restore_node(live.checkpoint_node(1))
        assert _feed(twin, after) == _feed(live, after)
        assert twin.checkpoint_node(1).snapshot == live.checkpoint_node(1).snapshot

    @given(_checkpointed_runs(), st.sampled_from([None, 9]), st.data())
    @settings(deadline=None)
    def test_json_value_mutation(self, run, target_id, data):
        cluster, chk = run
        state = json.loads(chk.snapshot)
        container, key = data.draw(st.sampled_from(list(_slots(state))))
        if data.draw(st.booleans()):
            container[key] = data.draw(_json_values)
        else:
            del container[key]
        _restore_or_refuse(cluster, Checkpoint(1, chk.seq, _canonical(state)), target_id)

    @given(_checkpointed_runs(), st.sampled_from([None, 9]), st.data())
    @settings(deadline=None)
    def test_byte_mutation(self, run, target_id, data):
        cluster, chk = run
        mutated = bytearray(chk.snapshot)
        edits = data.draw(st.lists(
            st.tuples(st.integers(0, len(mutated) - 1), st.integers(0, 255)),
            min_size=1, max_size=4,
        ))
        for index, value in edits:
            mutated[index] = value
        cut = data.draw(st.integers(0, len(mutated)))
        _restore_or_refuse(cluster, Checkpoint(1, chk.seq, bytes(mutated[:cut])), target_id)


# Text the canonical encoder escapes or passes through: quotes, backslashes,
# control characters, non-ASCII and astral characters. No lone surrogates:
# a tag must encode as UTF-8.
_escaped_text = st.text(
    st.sampled_from('"\\\x00\x1f\x7f\t\n é日 \U0001F600') | st.characters(blacklist_categories=("Cs",)),
    min_size=1, max_size=8)
# Samples push_metrics accepts, with the exact ints and the negative zero.
_samples = st.tuples(*[st.sampled_from([0, 1, -0.0, 0.0, 1.0]) | st.floats(0.0, 1.0)] * 3)


def _state(node) -> dict:
    """The state a snapshot holds, read off the node: what the json.dumps oracle encodes."""
    return {
        "heartbeat_seq": node.heartbeat_seq,
        "latest": {m.value: list(entry) for m, entry in node.latest.items()},
        "metrics": _packed(*node._metrics),
        "modalities": sorted(m.value for m in node.modalities),
        "node_id": node.id,
    }


class TestFastPathsMatchTheirOracles:
    """Snapshot, load and request payload are written by hand; json.dumps and loops are the oracles."""

    @given(_served, st.integers(1, 3), st.lists(_samples, max_size=5),
           st.lists(st.tuples(st.integers(0, 3), _escaped_text), max_size=6), st.integers(3, 2**32 - 1))
    @settings(deadline=None)
    def test_snapshot_is_the_canonical_json_dumps(self, served, beats, samples, inputs, new_id):
        cluster = _two_nodes(served)
        node = cluster.nodes[1]
        for _ in range(beats):
            cluster.heartbeat_tick()
        assert node.snapshot() == _canonical(_state(node))
        for sample in samples:
            node.push_metrics(*sample)
            assert node.snapshot() == _canonical(_state(node))
        for index, tag in inputs:
            cluster.heartbeat_tick()
            cluster.submit_input(served[index % len(served)], tag)
            cluster.process_step()
            assert node.snapshot() == _canonical(_state(node))
        chk = cluster.checkpoint_node(1)
        for target_id in (None, new_id):
            restored = cluster.restore_node(chk, target_id=target_id)
            assert restored.snapshot() == _canonical(_state(restored))

    @given(_served, st.lists(st.tuples(_samples, _samples), max_size=5),
           st.lists(st.tuples(st.integers(0, 3), _escaped_text), max_size=3))
    @settings(deadline=None)
    def test_samples_move_no_snapshot_length_and_restore_bit_for_bit(self, served, pairs, inputs):
        """Two nodes alike but for their sample values write snapshots of one length; a restore keeps the bits."""
        twins = _two_nodes(served), _two_nodes(served)
        for side, cluster in enumerate(twins):
            for sample in pairs:
                cluster.nodes[1].push_metrics(*sample[side])
            for index, tag in inputs:
                cluster.heartbeat_tick()
                cluster.submit_input(served[index % len(served)], tag)
                cluster.process_step()
        cluster, node = twins[0], twins[0].nodes[1]
        assert len(node.snapshot()) == len(twins[1].nodes[1].snapshot())
        restored = cluster.restore_node(cluster.checkpoint_node(1))
        # An int 0 or 1 comes back as the float with its bits, and so gives the same load.
        assert all(type(value) is float for sample in restored._metrics for value in sample)
        assert _packed(*restored._metrics) == _packed(*node._metrics)
        assert struct.pack("<d", restored._load) == struct.pack("<d", node._load)

    @given(st.lists(_samples, min_size=1, max_size=7), st.data())
    @settings(deadline=None)
    def test_load_is_bit_identical_to_three_left_to_right_loops(self, samples, data):
        node = Node(1, {Modality.VISION})
        for count, sample in enumerate(samples, 1):
            node.push_metrics(*sample)
            windows = [[s[k] for s in samples[max(0, count - 3):count]] for k in range(3)]
            assert node.predicted_load().hex() == _load(windows).hex()
            bad = list(sample)
            bad[data.draw(st.integers(0, 2))] = data.draw(st.sampled_from([1.5, -0.1, math.nan, True, None, "0"]))
            before = node.snapshot()
            with pytest.raises(InvalidArgument) as refused:
                node.push_metrics(*bad)
            assert refused.value.detail == f"metric sample {tuple(bad)!r} is not three numbers in [0, 1]"
            assert node.snapshot() == before and node.predicted_load().hex() == _load(windows).hex()

    @given(st.sampled_from(list(Modality)), _escaped_text, st.sampled_from(list(QoS)))
    @settings(deadline=None)
    def test_request_payload_is_the_sorted_key_json_dumps(self, modality, tag, qos):
        cluster = Cluster()
        cluster.add_node(1, set(Modality))
        cluster.submit_input(modality, tag, qos)
        (env,) = cluster.nodes[1].drain_inbox()
        assert env.payload == json.dumps({"modality": modality.value, "tag": tag}, sort_keys=True).encode("utf-8")


class TestLoadBalancer:
    def test_low_load_node_wins(self):
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION})
        cluster.add_node(2, {Modality.VISION})
        cluster.nodes[1].push_metrics(0.9, 0.9, 0.9)
        cluster.nodes[2].push_metrics(0.1, 0.1, 0.1)
        assert cluster.balance_load(Modality.VISION) == 2

    def test_tie_breaks_to_lowest_id(self):
        cluster = Cluster()
        cluster.add_node(2, {Modality.AUDIO})
        cluster.add_node(1, {Modality.AUDIO})
        assert cluster.balance_load(Modality.AUDIO) == 1

    def test_all_supporters_failed_is_unreachable(self):
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION})
        cluster.heartbeat_tick()
        cluster.silence(1)
        for _ in range(7):
            cluster.heartbeat_tick()
        cluster.detect_failures()
        with pytest.raises(NodeUnreachable):
            cluster.balance_load(Modality.VISION)

    def test_load_formula_uses_three_sample_window(self):
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION})
        node = cluster.nodes[1]
        for load in (0.9, 0.3, 0.3, 0.3):  # first sample rolls out of the window
            node.push_metrics(load, 0.0, 0.0)
        assert node.predicted_load() == pytest.approx(0.5 * 0.3)

    def test_weights(self):
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION})
        cluster.nodes[1].push_metrics(1.0, 0.5, 0.25)
        assert cluster.nodes[1].predicted_load() == pytest.approx(0.5 + 0.15 + 0.05)

    def test_refused_sample_changes_no_window(self):
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION})
        node = cluster.nodes[1]
        node.push_metrics(0.2, 0.2, 0.2)
        for sample in ((0.9, 0.9, 1.5), (0.9, 0.9, "a"), (0.9, None, 0.9), (True, 0.9, 0.9),
                       (0.9, 0.9, math.nan)):
            with pytest.raises(InvalidArgument):
                node.push_metrics(*sample)
        assert _window(node.snapshot()) == [(0.2, 0.2, 0.2)]
        assert node.predicted_load() == _load(([0.2], [0.2], [0.2]))

    def test_routing_follows_membership_changes(self):
        """balance_load against the oracle after each kind of table change."""
        V, A, L, S = Modality.VISION, Modality.AUDIO, Modality.LANGUAGE, Modality.SENSOR
        cluster = Cluster()

        def routes():
            """balance_load per modality, checked against the recomputed loads."""
            loads = {}
            for node_id, node in cluster.nodes.items():
                loads[node_id] = _load(zip(*_window(node.snapshot())))
                assert node.predicted_load() == loads[node_id]
            chosen = {}
            for modality in Modality:
                live = [(loads[node_id], node_id) for node_id, node in cluster.nodes.items()
                        if node.liveness is not Liveness.FAILED and modality in node.modalities]
                try:
                    chosen[modality] = cluster.balance_load(modality)
                except NodeUnreachable:
                    chosen[modality] = None
                assert chosen[modality] == min(live, default=(None, None))[1]
            return chosen

        cluster.add_node(5, {V, A})
        cluster.add_node(3, {V})  # below the last id; neither has samples
        assert routes() == {V: 3, A: 5, L: None, S: None}
        cluster.nodes[3].push_metrics(0.5, 0.5, 0.5)
        assert routes() == {V: 5, A: 5, L: None, S: None}
        chk5 = cluster.checkpoint_node(5)
        cluster.restore_node(chk5, target_id=2)  # a new id, below the others
        assert routes() == {V: 2, A: 2, L: None, S: None}
        cluster.add_node(4, {L, S})
        cluster.nodes[4].push_metrics(0.1, 0.0, 0.0)
        cluster.restore_node(cluster.checkpoint_node(4), target_id=2)  # 2 now serves L, S
        assert routes() == {V: 5, A: 5, L: 2, S: 2}  # 2 and 4 tie; the lower id wins
        cluster.nodes[2].push_metrics(0.3, 0.0, 0.0)
        assert routes() == {V: 5, A: 5, L: 4, S: 4}
        cluster.restore_node(chk5)  # onto its own id: the same modalities
        assert routes() == {V: 5, A: 5, L: 4, S: 4}
        target, msg_id = cluster.submit_input(A, "help")
        assert target == 5
        cluster.heartbeat_tick()
        cluster.silence(5)
        for _ in range(7):
            cluster.heartbeat_tick()
        assert cluster.detect_failures() == [5]
        assert cluster.last_failover_events() == [(msg_id, None)]  # nothing else serves audio
        assert routes() == {V: 3, A: None, L: 4, S: 4}
        cluster.restore_node(chk5, target_id=6)  # the failed node's state on a new id
        assert routes() == {V: 6, A: 6, L: 4, S: 4}

    def test_failover_never_routes_to_the_node_it_just_failed(self):
        """The supporter table is dropped before _failover routes the failed node's queue."""
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION})
        cluster.add_node(2, {Modality.VISION})
        cluster.nodes[2].push_metrics(0.5, 0.5, 0.5)  # node 1, idle, takes the inputs
        msg_ids = [cluster.submit_input(Modality.VISION, f"t{i}")[1] for i in range(3)]
        assert cluster.nodes[1].pending == 3
        cluster.heartbeat_tick()
        cluster.silence(1)
        for _ in range(7):
            cluster.heartbeat_tick()
        assert cluster.detect_failures() == [1]
        assert cluster.last_failover_events() == [(msg_id, 2) for msg_id in msg_ids]
        assert (cluster.nodes[1].pending, cluster.nodes[2].pending) == (0, 3)
        assert cluster.balance_load(Modality.VISION) == 2


class TestFusion:
    def out(self, label):
        return (label, (1.0, 0.0))

    def test_demo_sentence(self):
        fused = fuse({
            Modality.VISION: self.out("person"),
            Modality.SENSOR: self.out("distance=3m"),
            Modality.AUDIO: self.out("asking for help"),
        })
        assert fused.summary == "A person is standing 3 meters away, asking for help"
        assert decide(fused) == "Approach the person and respond verbally"

    def test_single_modality_template(self):
        fused = fuse({Modality.VISION: self.out("person")})
        assert fused.summary == "A person is present"

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidArgument):
            fuse({})

    def test_fallback_listing_keeps_fusion_order(self):
        fused = fuse({
            Modality.LANGUAGE: self.out("greeting"),
            Modality.VISION: self.out("obstacle"),
        })
        assert fused.summary == "Observed: obstacle; greeting"
        assert decide(fused) == "Stop and replan the route"

    def test_default_decision(self):
        fused = fuse({Modality.VISION: self.out("empty room")})
        assert decide(fused) == "No action required"


class TestModalityStubs:
    def test_vision_person(self):
        label, vec = modality_process(Modality.VISION, b"person")
        assert label == "person"
        assert sum(x * x for x in vec) == pytest.approx(1.0, abs=1e-12)

    def test_sensor_distance(self):
        label, _ = modality_process(Modality.SENSOR, b"3m")
        assert label == "distance=3m"

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidArgument):
            modality_process("smell", b"tag")

    def test_deterministic(self):
        assert modality_process(Modality.AUDIO, b"help") == modality_process(
            Modality.AUDIO, b"help"
        )


class TestOutputsAreComputedWhereRead:
    """Nodes keep labels only; collect_outputs embeds, once per modality it returns."""

    @pytest.fixture
    def embeds(self, monkeypatch):
        """The inputs fusion embeds from here on, in call order."""
        calls = []

        def counted(raw):
            calls.append(raw)
            return embed(raw)

        monkeypatch.setattr(fusion, "embed", counted)
        return calls

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_only_collect_outputs_embeds_the_newest_record_per_modality(self, seed, embeds):
        rng = Random(seed)
        modalities = list(Modality)
        cluster = Cluster()
        for node_id in range(1, 9):
            cluster.add_node(node_id, set(rng.sample(modalities, rng.randint(1, 2))))
        newest = {node_id: {} for node_id in cluster.nodes}  # node -> modality -> (tick, tag)
        saved = {}  # node -> (its newest checkpoint, its records when taken)
        restores = returned = 0
        for tick in range(1, 81):
            if tick in (20, 45):
                cluster.silence(rng.choice(list(cluster.nodes)))
            cluster.heartbeat_tick()
            cluster.detect_failures()
            for _ in range(rng.randint(0, 4)):
                try:
                    cluster.submit_input(rng.choice(modalities), rng.choice(_SNAPSHOT_TAGS))
                except NodeUnreachable:
                    pass
            for node_id, modality, tag, _label in cluster.process_step():
                newest[node_id][modality] = (tick, tag)
            live = [nid for nid, n in cluster.nodes.items() if n.liveness is not Liveness.FAILED]
            if tick % 3 == 0 and len(live) > 1:
                node_id = rng.choice(live)
                saved[node_id] = (cluster.checkpoint_node(node_id), dict(newest[node_id]))
            if tick % 10 == 0 and saved:  # roll a node back, or bring a failed one back
                node_id = rng.choice(sorted(saved))
                chk, records = saved[node_id]
                cluster.restore_node(chk)
                newest[node_id] = dict(records)
                restores += 1
            assert embeds == []  # nothing but collect_outputs embeds
            expected = {}  # modality -> (tick, node, tag): highest tick, then highest id
            for node_id, n in cluster.nodes.items():
                if n.liveness is not Liveness.FAILED:
                    for modality, (at, tag) in newest[node_id].items():
                        expected[modality] = max(expected.get(modality, (-1,)), (at, node_id, tag))
            outputs = cluster.collect_outputs()
            assert sorted(embeds) == sorted(tag.encode("utf-8") for _at, _node, tag in expected.values())
            assert outputs == {m: (fusion.modality_label(m, raw), embed(raw))
                               for m, (_at, _node, tag) in expected.items() for raw in [tag.encode("utf-8")]}
            returned += len(outputs)
            embeds.clear()
        assert restores == 8 and returned > 100

    def test_the_failover_golden_vectors_are_pinned(self, monkeypatch):
        """Benchmark digests do not hash output vectors, so their bits are pinned here."""
        seen = []
        collect = Cluster.collect_outputs

        def recorded(cluster):
            seen.append(collect(cluster))
            return seen[-1]

        monkeypatch.setattr(Cluster, "collect_outputs", recorded)
        text = (Path(__file__).parent / "golden" / "orchestrate_failover.scenario").read_text("utf-8")
        run_scenario(parse_scenario(text), ticks=60, seed=3)
        (outputs,) = seen
        digest = hashlib.sha256()
        for modality in (m for m in FUSION_ORDER if m in outputs):
            label, vector = outputs[modality]
            digest.update(f"{modality.value}\n{label}\n".encode())
            digest.update(struct.pack("<32d", *vector))
        assert digest.hexdigest() == "7ee2aad8bf67d23c4bf67a6da24e51f20f4755d9e5b0efbd34c71554b1a9e73d"


class TestModalityHash:
    def test_a_member_hashes_by_identity(self):
        assert Modality.__hash__ is object.__hash__
        assert len(Modality) == 4  # the dunder did not become a member

    @pytest.mark.parametrize("modality", list(Modality), ids=lambda m: m.value)
    def test_a_pickled_member_is_the_same_member_and_finds_its_labels(self, modality):
        back = pickle.loads(pickle.dumps(modality))
        assert back is modality
        assert fusion.MODALITY_LABELS[back] is fusion.MODALITY_LABELS[modality]


class TestInboxQoS:
    def test_realtime_processed_before_bulk(self):
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION})
        cluster.heartbeat_tick()
        cluster.submit_input(Modality.VISION, "obstacle", qos=QoS.BULK)
        cluster.submit_input(Modality.VISION, "person", qos=QoS.REALTIME)
        records = cluster.process_step()
        assert records[0][2] == "person"
        records = cluster.process_step()
        assert records[0][2] == "obstacle"


class TestSubmitInput:
    @pytest.mark.parametrize("tag", [5, "", "\ud800"], ids=["int", "empty", "lone-surrogate"])
    def test_bad_tag_refused_and_nothing_routed(self, tag):
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION})
        cluster.add_node(2, {Modality.AUDIO})
        with pytest.raises(InvalidArgument):
            cluster.submit_input(Modality.VISION, tag)
        assert cluster.nodes[1].pending == 0
        assert cluster.submit_input(Modality.AUDIO, "help") == (2, 1)  # no msg id used up
        assert cluster.process_step() == [(2, Modality.AUDIO, "help", "asking for help")]

    @pytest.mark.parametrize("modality", ["vision", None, {"vision"}], ids=["str", "none", "set"])
    def test_a_modality_that_is_not_a_modality_is_refused(self, modality):
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION})
        before = dict(cluster.nodes)
        with pytest.raises(InvalidArgument):
            cluster.submit_input(modality, "person")
        assert cluster.nodes == before and cluster.nodes[1].pending == 0
        assert cluster.submit_input(Modality.VISION, "person") == (1, 1)  # no msg id used up

    @pytest.mark.parametrize("qos", [5, "realtime", None], ids=["int", "str", "none"])
    def test_a_refused_qos_uses_no_message_id(self, qos):
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION})
        with pytest.raises(InvalidArgument):
            cluster.submit_input(Modality.VISION, "x", qos=qos)
        assert cluster.nodes[1].pending == 0
        assert cluster.submit_input(Modality.VISION, "person") == (1, 1)  # no msg id used up

    def test_the_payload_is_the_request_as_sorted_key_json(self):
        cluster = Cluster()
        cluster.add_node(1, set(Modality))
        requests = list(zip(cycle(Modality), _SNAPSHOT_TAGS))
        for modality, tag in requests:
            cluster.submit_input(modality, tag)
        assert [env.payload for env in cluster.nodes[1].drain_inbox()] == [
            json.dumps({"modality": m.value, "tag": tag}, sort_keys=True).encode("utf-8")
            for m, tag in requests]


class TestRequestRefusals:
    """A payload _request cannot read as an input request is one InvalidArgument naming the message."""

    @pytest.mark.parametrize("payload", [
        b"not json", b'["vision", "person"]', b'{"modality": "vision"}',
        b'{"modality": "smell", "tag": "x"}', b'{"modality": [], "tag": "x"}',
        # A payload is UTF-8 JSON, as submit_input writes it; json.loads(bytes) also took the first three.
        b'\xef\xbb\xbf{"modality": "vision", "tag": "x"}',
        '{"modality": "vision", "tag": "x"}'.encode("utf-16-le"),
        b'{"modality": "vision", "tag": "\xed\xa0\x80"}',
        b'{"modality": "vision", "tag": "\xff"}',
    ], ids=["not-json", "array", "no-tag", "unknown-modality", "unhashable-modality",
            "utf-8-bom", "utf-16-le", "encoded-surrogate", "invalid-utf-8"])
    def test_a_payload_that_is_not_a_request_is_refused(self, payload):
        env = MessageEnvelope(msg_id=7, source=0, dest=1, payload=payload)
        with pytest.raises(InvalidArgument, match="^InvalidArgument: message 7 is not an input request$"):
            _request(env)

    def test_a_modality_the_server_does_not_serve_is_refused(self):
        env = MessageEnvelope(msg_id=7, source=0, dest=3, payload=b'{"modality": "audio", "tag": "help"}')
        with pytest.raises(InvalidArgument, match="^InvalidArgument: node 3 does not support audio$"):
            _request(env, Node(3, {Modality.VISION}))
        assert _request(env, Node(3, {Modality.AUDIO})) == (Modality.AUDIO, "help")


_RECORD_VALUES = {
    MessageEnvelope: (7, 0, 3, b'{"modality": "vision", "tag": "x"}', QoS.REALTIME),
    Checkpoint: (3, 2, b"{}"),
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


_BUILTIN_SUM = builtins.sum


def _compensated_sum(values, start=0):
    """sum() with float rounding compensated, as Python 3.12's sum() does."""
    values = list(values)
    if values and all(type(x) is float for x in values):
        return start + math.fsum(values)
    return _BUILTIN_SUM(values, start)


class TestFloatSumsAreLeftToRight:
    """Loads, embeddings and checkpoints do not depend on how sum() adds floats."""

    # cpu, mem, io windows whose load is 0.6000000000000001 summed left to
    # right and 0.6 from exactly rounded sums.
    WINDOWS = ((0.5, 0.6, 0.6), (0.6, 0.6, 0.9), (0.5, 0.4, 0.7))
    TAGS = [f"t{i}" for i in range(200)]

    def build(self):
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION})
        cluster.add_node(2, {Modality.AUDIO})
        for sample in zip(*self.WINDOWS):
            cluster.nodes[1].push_metrics(*sample)
        for tag in self.TAGS[:20]:
            cluster.submit_input(Modality.VISION, tag)
            cluster.process_step()
        return cluster

    def test_compensated_builtin_sum_changes_nothing(self, monkeypatch):
        assert any(_compensated_sum(w) != _left_to_right(w) for w in self.WINDOWS)
        load = self.build().nodes[1].predicted_load()
        assert load == _load(self.WINDOWS)
        vectors = [embed(tag.encode("utf-8")) for tag in self.TAGS]
        chk = self.build().checkpoint_node(1)
        monkeypatch.setattr(builtins, "sum", _compensated_sum)
        assert self.build().nodes[1].predicted_load() == load
        assert [embed(tag.encode("utf-8")) for tag in self.TAGS] == vectors
        cluster = Cluster()
        cluster.add_node(2, {Modality.AUDIO})
        restored = cluster.restore_node(chk)  # written with plain sums
        assert restored.snapshot() == chk.snapshot
        assert restored.predicted_load() == load


class TestScenario:
    def test_demo_produces_exact_strings(self):
        events, summary, action = run_scenario(parse_scenario(DEMO_SCENARIO), ticks=8, seed=0)
        assert summary == "A person is standing 3 meters away, asking for help"
        assert action == "Approach the person and respond verbally"
        assert any(event == "processed" for _, event, _d in events)

    def test_kill_directive_fails_node_and_reroutes(self):
        text = (
            "node 1 vision\n"
            "node 2 vision\n"
            "input 2 vision person\n"
            "kill 1 1\n"
        )
        events, summary, _ = run_scenario(parse_scenario(text), ticks=12, seed=0)
        kinds = [event for _, event, _d in events]
        assert "kill" in kinds
        assert "failed" in kinds
        assert summary == "A person is present"

    def test_bad_directive_rejected(self):
        with pytest.raises(InvalidArgument):
            parse_scenario("node 1 vision\nfly 1 2\n")

    def test_bad_modality_rejected(self):
        with pytest.raises(InvalidArgument):
            parse_scenario("node 1 teleport\n")

    def test_deterministic_for_fixed_seed(self):
        scenario = parse_scenario(DEMO_SCENARIO)
        assert run_scenario(scenario, 8, seed=5) == run_scenario(
            parse_scenario(DEMO_SCENARIO), 8, seed=5
        )


class ClusterModel(RuleBasedStateMachine):
    """Cluster liveness, routing and message conservation against a per-node model.

    The model keeps each node's metric windows, so it knows the balancer's
    choice, min over non-failed supporters of (load, id); it then knows each
    message's inbox, and in which order each node pops its inbox.

    A twin cluster gets every call and must answer as the cluster does; a
    checkpoint of a beating node may also be restored onto the twin's node,
    which must then go on as the node that never stopped.
    """

    MAX_NODES = 5

    def __init__(self):
        super().__init__()
        self.tick = 0
        self.last_beat: dict[int, int] = {}  # node -> tick of its last heartbeat
        self.seq: dict[int, int] = {}
        self.modalities: dict[int, frozenset] = {}
        self.windows: dict[int, tuple[deque, deque, deque]] = {}  # cpu, mem, io samples
        self.liveness: dict[int, Liveness] = {}
        self.silenced: set[int] = set()
        # node -> (realtime, bulk) queues of (msg_id, modality, tag)
        self.inbox: dict[int, tuple[deque, deque]] = {}
        self.submitted: set[int] = set()
        self.processed: set[int] = set()
        self.dropped: set[int] = set()
        self.next_tag = 0
        self.checkpoints: dict[int, int] = {}  # node -> checkpoints taken
        self.store: dict[int, dict[int, Checkpoint]] = {}  # peer -> source -> newest replica
        # and the node's heartbeat seq, modalities and windows when it was taken
        self.newest: tuple[Checkpoint, int, frozenset, tuple] | None = None

    @initialize(timeout=st.integers(1, 3))
    def make_cluster(self, timeout):
        self.timeout = timeout
        self.cluster = Cluster(timeout_ticks=timeout)
        self.twin = Cluster(timeout_ticks=timeout)

    def _both(self, name, *args):
        return _agree(self.cluster, self.twin, name, *args)

    def _live(self, modality=None):
        return sorted(nid for nid, state in self.liveness.items()
                      if state is not Liveness.FAILED
                      and (modality is None or modality in self.modalities[nid]))

    def _route(self, modality):
        live = self._live(modality)
        return min(live, key=lambda nid: (_load(self.windows[nid]), nid)) if live else None

    def _queue(self, node_id, qos):
        return self.inbox[node_id][0 if qos is QoS.REALTIME else 1]

    @rule(node_id=st.integers(1, MAX_NODES),
          modalities=st.sets(st.sampled_from(list(Modality)), min_size=1, max_size=2))
    def add_node(self, node_id, modalities):
        if node_id in self.liveness:
            with pytest.raises(InvalidArgument):
                self._both("add_node", node_id, modalities)
            return
        self._both("add_node", node_id, modalities)
        self.last_beat[node_id] = self.tick
        self.seq[node_id] = 0
        self.modalities[node_id] = frozenset(modalities)
        self.windows[node_id] = tuple(deque(maxlen=3) for _ in range(3))
        self.liveness[node_id] = Liveness.ALIVE
        self.inbox[node_id] = (deque(), deque())

    # Few distinct values, so equal loads and the id tie-break come up.
    SAMPLES = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0))

    @precondition(lambda self: self.liveness)
    @rule(data=st.data(), cpu=SAMPLES, mem=SAMPLES, io=SAMPLES)
    def push_metrics(self, data, cpu, mem, io):
        node_id = data.draw(st.sampled_from(sorted(self.liveness)))
        for cluster in (self.cluster, self.twin):
            cluster.nodes[node_id].push_metrics(cpu, mem, io)
        for window, value in zip(self.windows[node_id], (cpu, mem, io)):
            window.append(value)

    @precondition(lambda self: self.liveness)
    @rule(data=st.data(), silent=st.booleans())
    def silence(self, data, silent):
        node_id = data.draw(st.sampled_from(sorted(self.liveness)))
        if silent:
            self._both("silence", node_id)
            self.silenced.add(node_id)
        else:
            self._both("unsilence", node_id)
            self.silenced.discard(node_id)

    @rule(ticks=st.integers(1, 3), detect=st.booleans())
    def heartbeat_tick(self, ticks, detect):
        """Advance some ticks; with detect, run detection after each one."""
        for _ in range(ticks):
            assert self._both("heartbeat_tick") is None
            self.tick += 1
            for node_id in self._live():
                if node_id not in self.silenced:
                    self.seq[node_id] += 1
                    self.last_beat[node_id] = self.tick
            beats = {nid: (n.heartbeat_seq, n.last_heartbeat) for nid, n in self.cluster.nodes.items()}
            assert beats == {nid: (self.seq[nid], self.last_beat[nid]) for nid in self.liveness}
            if detect:
                self.detect_failures()

    @rule()
    def detect_failures(self):
        newly_failed = self._both("detect_failures")
        expected = []
        for node_id in self._live():
            gap = self.tick - self.last_beat[node_id]
            if gap > 2 * self.timeout:
                self.liveness[node_id] = Liveness.FAILED
                expected.append(node_id)
            elif gap > self.timeout:
                self.liveness[node_id] = Liveness.SUSPECT
            else:
                self.liveness[node_id] = Liveness.ALIVE
        assert newly_failed == expected
        events = []
        for node_id in expected:
            realtime, bulk = self.inbox[node_id]
            for qos, queue in ((QoS.REALTIME, realtime), (QoS.BULK, bulk)):
                while queue:
                    msg_id, modality, tag = queue.popleft()
                    target = self._route(modality)
                    if target is not None:
                        self._queue(target, qos).append((msg_id, modality, tag))
                        events.append((msg_id, target))
                    else:
                        self.dropped.add(msg_id)
                        events.append((msg_id, None))
        assert self._both("last_failover_events") == events

    @rule(modality=st.sampled_from(list(Modality)), qos=st.sampled_from([QoS.REALTIME, QoS.BULK]))
    def submit_input(self, modality, qos):
        tag = f"t{self.next_tag}"
        self.next_tag += 1
        expected = self._route(modality)
        if expected is None:
            with pytest.raises(NodeUnreachable):
                self._both("submit_input", modality, tag, qos)
            return
        target, msg_id = self._both("submit_input", modality, tag, qos)
        assert target == expected and msg_id not in self.submitted
        self.submitted.add(msg_id)
        self._queue(target, qos).append((msg_id, modality, tag))

    @rule()
    def process_step(self):
        records = self._both("process_step")
        expected = []
        for node_id in self._live():
            if node_id in self.silenced:
                continue
            realtime, bulk = self.inbox[node_id]
            queue = realtime or bulk
            if queue:
                msg_id, modality, tag = queue.popleft()
                self.processed.add(msg_id)
                expected.append((node_id, modality, tag, modality_process(modality, tag.encode())[0]))
        assert records == expected

    @precondition(lambda self: self.liveness)
    @rule(data=st.data(), replay=st.booleans())
    def checkpoint(self, data, replay):
        """Checkpoint a node; with replay, restore the twin's node from it."""
        node_id = data.draw(st.sampled_from(sorted(self.liveness)))
        peers = [nid for nid in self._live() if nid != node_id]
        if not peers:
            with pytest.raises(NodeUnreachable):
                self._both("checkpoint_node", node_id)
            return
        chk = self._both("checkpoint_node", node_id)  # the same snapshot
        if replay and _beating(self.cluster, node_id):
            self.twin.restore_node(chk)
        self.checkpoints[node_id] = self.checkpoints.get(node_id, 0) + 1
        assert (chk.node_id, chk.seq) == (node_id, self.checkpoints[node_id])
        self.store.setdefault(peers[0], {})[node_id] = chk
        windows = tuple(deque(w, maxlen=3) for w in self.windows[node_id])
        self.newest = (chk, self.seq[node_id], self.modalities[node_id], windows)

    @precondition(lambda self: self.newest is not None)
    @rule(data=st.data())
    def restore(self, data):
        """Restore the newest checkpoint onto any id, used or not.

        Onto a used id, the replicas, the checkpoint number and the queued
        messages carry over, so the model keeps them, and a queued message
        the restored modalities do not serve refuses the restore; an unused
        id starts with none of them.
        """
        chk, seq, modalities, windows = self.newest
        target = data.draw(st.integers(1, self.MAX_NODES))
        realtime, bulk = self.inbox.get(target, ((), ()))
        if any(modality not in modalities for _msg, modality, _tag in (*realtime, *bulk)):
            with pytest.raises(InvalidArgument):
                self._both("restore_node", chk, target)
            return
        restored = self._both("restore_node", chk, target)
        assert (restored.id, restored.modalities, restored.heartbeat_seq) == (target, modalities, seq)
        assert restored.liveness is Liveness.ALIVE and not restored.silenced
        self.liveness[target] = Liveness.ALIVE
        self.silenced.discard(target)
        self.last_beat[target] = self.tick
        self.seq[target] = seq
        self.modalities[target] = modalities
        self.windows[target] = tuple(deque(w, maxlen=3) for w in windows)
        self.inbox.setdefault(target, (deque(), deque()))

    @invariant()
    def the_twin_is_the_same_cluster(self):
        def state(cluster):
            return {nid: (n.snapshot(), n.liveness, n.silenced, n.last_heartbeat, n.checkpoint_seq,
                          n.checkpoint_store, n.pending, n.predicted_load())
                    for nid, n in cluster.nodes.items()}
        assert state(self.twin) == state(self.cluster)
        assert self.twin.collect_outputs() == self.cluster.collect_outputs()

    @invariant()
    def table_in_id_order(self):
        assert list(self.cluster.nodes) == sorted(self.cluster.nodes)

    @invariant()
    def last_beat_and_checkpoint_number_match(self):
        nodes = self.cluster.nodes
        assert {nid: n.last_heartbeat for nid, n in nodes.items()} == self.last_beat
        assert {nid: n.checkpoint_seq for nid, n in nodes.items()} == {
            nid: self.checkpoints.get(nid, 0) for nid in self.liveness}

    @invariant()
    def balance_load_is_the_least_loaded_live_supporter(self):
        for node_id, windows in self.windows.items():
            assert self.cluster.nodes[node_id].predicted_load() == _load(windows)
        for modality in Modality:
            expected = self._route(modality)
            if expected is None:
                with pytest.raises(NodeUnreachable):
                    self.cluster.balance_load(modality)
            else:
                assert self.cluster.balance_load(modality) == expected

    @invariant()
    def liveness_matches(self):
        assert {nid: n.liveness for nid, n in self.cluster.nodes.items()} == self.liveness

    @invariant()
    def each_store_holds_the_newest_replica_per_source(self):
        for node_id, node in self.cluster.nodes.items():
            assert node.checkpoint_store == self.store.get(node_id, {})

    @invariant()
    def every_message_ends_exactly_once(self):
        queued = [msg_id for rt, bulk in self.inbox.values() for msg_id, _m, _t in (*rt, *bulk)]
        assert len(queued) == len(set(queued))
        outcomes = (set(queued), self.processed, self.dropped)
        assert set().union(*outcomes) == self.submitted
        assert sum(map(len, outcomes)) == len(self.submitted)  # no message has two ends
        for node_id, (realtime, bulk) in self.inbox.items():
            assert self.cluster.nodes[node_id].pending == len(realtime) + len(bulk)


TestClusterModel = ClusterModel.TestCase
TestClusterModel.settings = settings(max_examples=60, stateful_step_count=60, deadline=None)
