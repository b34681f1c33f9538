import json
from random import Random

import pytest
from hypothesis import given, strategies as st

from neurokernel.errors import ChecksumMismatch, InvalidArgument, NodeUnreachable
from neurokernel.orchestrator import (
    DEMO_SCENARIO,
    Cluster,
    Liveness,
    MessageEnvelope,
    Modality,
    QoS,
    decide,
    decode,
    encode,
    fuse,
    modality_process,
    parse_scenario,
    run_scenario,
)
from neurokernel.orchestrator.envelope import MAGIC


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

    def test_future_version_rejected(self):
        frame = bytearray(encode(MessageEnvelope(msg_id=1, source=1, dest=2, payload=b"x")))
        frame[4:6] = (2).to_bytes(2, "little")
        with pytest.raises(InvalidArgument):
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

    def test_encoding_future_version_rejected(self):
        env = MessageEnvelope(msg_id=1, source=1, dest=2, payload=b"", version=2)
        with pytest.raises(InvalidArgument):
            encode(env)


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
        for _ in range(5):
            cluster.heartbeat_tick()
        seqs = [b.seq for b in cluster.heartbeat_log if b.node_id == 1]
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


class TestCheckpoints:
    def build(self):
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION, Modality.SENSOR})
        cluster.add_node(2, {Modality.AUDIO})
        cluster.heartbeat_tick()
        cluster.submit_input(Modality.VISION, "person")
        cluster.process_step()
        return cluster

    def serialized(self, cluster, node_id):
        return json.dumps(
            cluster.nodes[node_id].state_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def test_round_trip_is_byte_exact(self):
        cluster = self.build()
        chk = cluster.checkpoint_node(1)
        cluster.submit_input(Modality.SENSOR, "3m")
        cluster.process_step()
        cluster.nodes[1].push_metrics(0.5, 0.5, 0.5)
        assert self.serialized(cluster, 1) != chk.snapshot
        cluster.restore_node(chk)
        assert self.serialized(cluster, 1) == chk.snapshot

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
        held = {(2, 1): cluster.checkpoint_node(2), (3, 1): cluster.checkpoint_node(3)}
        assert cluster.nodes[1].checkpoint_store == held
        cluster.restore_node(own)
        assert cluster.nodes[1].checkpoint_store == held
        # A replacement id held nothing, so it starts with an empty store.
        assert cluster.restore_node(own, target_id=9).checkpoint_store == {}

    def test_corrupt_checkpoint_rejected(self):
        cluster = self.build()
        chk = cluster.checkpoint_node(1)
        bad = type(chk)(node_id=chk.node_id, seq=chk.seq, snapshot=b"{not json")
        with pytest.raises(InvalidArgument):
            cluster.restore_node(bad)

    def test_checkpoint_replicated_to_peer(self):
        cluster = self.build()
        chk = cluster.checkpoint_node(1)
        assert cluster.nodes[2].checkpoint_store[(1, chk.seq)] is chk

    def test_no_peer_means_unreachable(self):
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION})
        with pytest.raises(NodeUnreachable):
            cluster.checkpoint_node(1)

    def test_checkpoint_unknown_node_rejected(self):
        with pytest.raises(InvalidArgument):
            Cluster().checkpoint_node(99)


def _canonical_state(node) -> bytes:
    """The snapshot oracle: canonical JSON of the node's state_dict()."""
    return json.dumps(node.state_dict(), sort_keys=True, separators=(",", ":")).encode("utf-8")


_SNAPSHOT_TAGS = (
    "person", "3m", "help", "hello", 'say"hi"', "back\\slash", '\\"', "café",
    "日本語", "emoji\U0001F600", "tab\there", "line\u2028sep", "nul\x00byte",
)


class TestSnapshotOracle:
    """Every checkpoint snapshot is byte-equal to json.dumps of state_dict()."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_long_run_with_failover_and_restores(self, seed):
        rng = Random(seed)
        modalities = list(Modality)
        cluster = Cluster(timeout_ticks=3)
        for node_id in range(1, 13):
            cluster.add_node(node_id, set(rng.sample(modalities, rng.randint(1, 3))))
        kills = {40: 4, 95: 7, 160: 11}
        latest = {}
        checkpoints = failovers = 0
        for tick in range(1, 241):
            if tick in kills:
                cluster.silence(kills[tick])
            cluster.heartbeat_tick()
            for node in cluster.nodes.values():
                if node.liveness is not Liveness.FAILED and not node.silenced:
                    node.push_metrics(rng.random(), rng.random(), rng.random())
            for _ in range(rng.randint(1, 4)):
                try:
                    cluster.submit_input(rng.choice(modalities), rng.choice(_SNAPSHOT_TAGS))
                except NodeUnreachable:
                    pass
            cluster.detect_failures()
            failovers += len(cluster.last_failover_events())
            cluster.process_step()
            if tick == 120:  # roll node 3 back to an older checkpoint, same id
                cluster.restore_node(latest[3][0])
            if tick == 150:  # bring failed node 4 back under a replacement id
                assert cluster.nodes[4].liveness is Liveness.FAILED
                cluster.restore_node(latest[4][-1], target_id=99)
            if tick % 5 == 0:
                live = [nid for nid, n in sorted(cluster.nodes.items())
                        if n.liveness is not Liveness.FAILED]
                for node_id in live:
                    chk = cluster.checkpoint_node(node_id)
                    assert chk.snapshot == _canonical_state(cluster.nodes[node_id]), (tick, node_id)
                    latest.setdefault(node_id, []).append(chk)
                    checkpoints += 1
        assert checkpoints > 450 and failovers > 0
        assert len(latest[99]) > 10

    def test_checkpoint_after_more_work_is_reencoded(self):
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION, Modality.LANGUAGE})
        cluster.add_node(2, {Modality.AUDIO})
        node = cluster.nodes[1]
        cluster.heartbeat_tick()
        cluster.submit_input(Modality.VISION, "person")
        cluster.process_step()
        first = cluster.checkpoint_node(1)
        assert first.snapshot == _canonical_state(node)
        assert cluster.checkpoint_node(1).snapshot == first.snapshot
        # New history, a replaced output for a modality seen before and a
        # new one, new metrics and a new heartbeat: all must show.
        cluster.heartbeat_tick()
        node.push_metrics(0.25, 0.5, 1.0)
        cluster.submit_input(Modality.VISION, 'say"hi"')
        cluster.submit_input(Modality.LANGUAGE, "日本語")
        cluster.process_step()
        cluster.process_step()
        second = cluster.checkpoint_node(1)
        assert second.snapshot != first.snapshot
        assert second.snapshot == _canonical_state(node)
        restored = cluster.restore_node(first)
        assert cluster.checkpoint_node(1).snapshot == first.snapshot == _canonical_state(restored)


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

    def test_route_to_failed_node_is_unreachable(self):
        cluster = Cluster()
        cluster.add_node(1, {Modality.VISION})
        cluster.add_node(2, {Modality.AUDIO})
        cluster.heartbeat_tick()
        cluster.silence(1)
        for _ in range(7):
            cluster.heartbeat_tick()
        cluster.detect_failures()
        env = MessageEnvelope(msg_id=1, source=0, dest=1, payload=b"{}")
        with pytest.raises(NodeUnreachable):
            cluster.route(env)
