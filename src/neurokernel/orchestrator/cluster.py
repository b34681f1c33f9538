"""Simulated node cluster: heartbeats, failure detection, checkpoints, balancing.

Time is a logical tick counter owned by the cluster, so every run is
deterministic. Nodes are stepped by the coordinator (no threads); all
work travels as encoded envelopes even in-process, which keeps the codec
on the hot path.
"""

from __future__ import annotations

import itertools
import json
import struct
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter

from ..errors import InvalidArgument, NodeUnreachable, check_count, check_type, shown
from .envelope import MAX_ADDRESS, MessageEnvelope, QoS, decode, encode
from .fusion import Modality, modality_label, modality_process

COORDINATOR_ID = 0
METRIC_WINDOW = 3
# A short window's load pads it in front with these; 0.0 + 0.0 is 0.0, so no column sum moves a bit.
_NO_SAMPLES = ((0.0, 0.0, 0.0),) * (METRIC_WINDOW - 1)
_SAMPLE_TYPES = (float, int)  # exact types: a bool is an int subclass, not a load
_WINDOWS = tuple(struct.Struct(f"<{3 * n}d") for n in range(METRIC_WINDOW + 1))  # n samples, as snapshots pack them


class Liveness(Enum):
    ALIVE = "alive"
    SUSPECT = "suspect"
    FAILED = "failed"


# Members the timed loops read, bound once: before Python 3.12, a member read
# through its class goes through EnumType.__getattr__ (90-135 ns, a global 20 ns).
_ALIVE, _SUSPECT, _FAILED = Liveness.ALIVE, Liveness.SUSPECT, Liveness.FAILED
_REALTIME = QoS.REALTIME


@dataclass(frozen=True)
class Checkpoint:
    node_id: int
    seq: int
    snapshot: bytes

    def __init__(self, node_id: int, seq: int, snapshot: bytes):  # fills its dict as MessageEnvelope's does
        fields = self.__dict__
        fields["node_id"] = node_id
        fields["seq"] = seq
        fields["snapshot"] = snapshot


# Each modality's request payload up to the tag: json.dumps(request, sort_keys=True).
_REQUEST_HEADS = {m: f'{{"modality": {_json_str(m.value)}, "tag": ' for m in Modality}
_MODALITIES = {m.value: m for m in Modality}  # what Modality(value) finds, without the enum call
_parse_json = json.JSONDecoder().decode  # a str: json.loads(bytes) detects the encoding on every call
_by_load = attrgetter("_load")


class Node:
    """One simulated worker node with an inbox ordered Realtime before Bulk.

    ``latest`` keeps, per modality served, the last input processed as
    ``(tick, tag, label)``, the triple its snapshot holds. A new input of the
    modality replaces the entry, so a node's state does not grow with its
    uptime. The stub's output vector is not kept: ``Cluster.collect_outputs``
    computes it for the records it returns. ``id`` and ``modalities`` are
    fixed for the node's life. The coordinator's records of the node are
    not in the snapshot: ``checkpoint_store`` maps a peer's id to the newest
    checkpoint it replicated here, ``last_heartbeat`` is the tick of the
    node's last beat and ``checkpoint_seq`` the number of its newest
    checkpoint (0 for none).
    """

    def __init__(self, node_id: int, modalities):
        # The coordinator is 0, and a node id is an envelope's dest.
        self.id = check_count(node_id, "node id", COORDINATOR_ID + 1, MAX_ADDRESS)
        try:
            self.modalities = frozenset(modalities)
            if not all(isinstance(m, Modality) for m in self.modalities):
                raise TypeError
        except TypeError:
            raise InvalidArgument(f"modalities must be a set of Modality, got {shown(modalities)}") from None
        # What id and modalities, which never change, fix in every snapshot: "latest" keys and the tail.
        served = sorted(self.modalities, key=lambda m: m.value)
        self._latest_keys = tuple((m, _json_str(m.value) + ":[") for m in served)
        self._snapshot_tail = f',"modalities":[{",".join(_json_str(m.value) for m in served)}],"node_id":{node_id}}}'
        self.liveness = _ALIVE
        self.silenced = False
        self.last_heartbeat = 0
        self.checkpoint_seq = 0
        self.heartbeat_seq = 0
        self.latest: dict[Modality, tuple[int, str, str]] = {}
        self.checkpoint_store: dict[int, Checkpoint] = {}
        self._metrics: deque[tuple[float, float, float]] = deque(maxlen=METRIC_WINDOW)  # (cpu, mem, io)
        self._load = 0.0
        self._inbox_rt: deque[MessageEnvelope] = deque()
        self._inbox_bulk: deque[MessageEnvelope] = deque()

    def push_metrics(self, cpu: float, mem: float, io: float) -> None:
        """Add one (cpu, mem, io) sample to the window, and store the load it gives.

        A sample is an int or float (not a bool) in [0, 1]. The window takes
        the three in one append, and a fault after it still stores the load.
        """
        if not (type(cpu) in _SAMPLE_TYPES and type(mem) in _SAMPLE_TYPES and type(io) in _SAMPLE_TYPES
                and 0.0 <= cpu <= 1.0 and 0.0 <= mem <= 1.0 and 0.0 <= io <= 1.0):
            raise InvalidArgument(f"metric sample ({shown(cpu)}, {shown(mem)}, {shown(io)}) is not three numbers in [0, 1]")
        window, sample = self._metrics, (cpu, mem, io)
        n = len(window)
        if n == METRIC_WINDOW:  # the load of the window the append makes: the last two samples, then this one
            _, (c0, m0, i0), (c1, m1, i1) = window
        else:
            (c0, m0, i0), (c1, m1, i1) = (*_NO_SAMPLES, *window)[n:]
            n += 1
        load = (0.0 + 0.5 * ((0.0 + c0 + c1 + cpu) / n) + 0.3 * ((0.0 + m0 + m1 + mem) / n)
                + 0.2 * ((0.0 + i0 + i1 + io) / n))
        try:
            window.append(sample)
            self._load = load
        except BaseException:  # a host fault after the append: the load that window gives
            if window and window[-1] is sample:
                self._load = load
            raise

    def predicted_load(self) -> float:
        """0.5*cpu + 0.3*mem + 0.2*io over 3-sample moving averages; 0 with no sample."""
        return self._load

    def _enqueue(self, env: MessageEnvelope) -> None:
        (self._inbox_rt if env.qos is _REALTIME else self._inbox_bulk).append(env)

    def drain_inbox(self) -> list[MessageEnvelope]:
        pending = list(self._inbox_rt) + list(self._inbox_bulk)
        self._inbox_rt.clear()
        self._inbox_bulk.clear()
        return pending

    @property
    def pending(self) -> int:
        return len(self._inbox_rt) + len(self._inbox_bulk)

    def _record(self, modality: Modality, tick: int, tag: str) -> str:
        """Label tag with the modality's stub at tick, keep it as the modality's latest; the label."""
        label = modality_label(modality, tag.encode("utf-8"))
        self.latest[modality] = (tick, tag, label)
        return label

    def snapshot(self) -> bytes:
        """The canonical JSON of the node's state, UTF-8; its size does not grow with uptime.

        ``json.dumps(state, sort_keys=True, separators=(",", ":"))`` of the
        id, modalities, heartbeat number, metric window and, per modality,
        the latest ``[tick, tag, label]``. The window is the lowercase hex of
        its samples' little-endian float64 ``(cpu, mem, io)`` triples, in window
        order. Output vectors are not stored: they are a function of the modality
        and tag. Written directly, as that encoder would: strings escaped to ASCII, ints by str.
        """
        window = self._metrics
        latest = ",".join([f"{key}{entry[0]},{_json_str(entry[1])},{_json_str(entry[2])}]"
                           for m, key in self._latest_keys if (entry := self.latest.get(m)) is not None])
        return (f'{{"heartbeat_seq":{self.heartbeat_seq},"latest":{{{latest}}},'
                f'"metrics":"{_WINDOWS[len(window)].pack(*sum(window, ())).hex()}"{self._snapshot_tail}').encode()

    @classmethod
    def from_snapshot(cls, snapshot: bytes, node_id: int, as_id: int, now: int) -> Node:
        """Rebuild node ``node_id``, as ``as_id``, at tick ``now``, from bytes its snapshot() wrote.

        Each unpacked metric sample goes through push_metrics and each latest
        input through _record, which derives its label again. Bytes that the rebuilt
        node's snapshot() does not reproduce (uppercase or spaced hex, a fourth
        sample), or that record an input after ``now``, raise InvalidArgument.
        """
        # Checked here too: True equals 1, so it would keep the id unmoved.
        check_count(as_id, "node id", COORDINATOR_ID + 1, MAX_ADDRESS)
        check_count(now, "now", 0)
        try:
            state = json.loads(snapshot)
            node = cls(node_id, frozenset(map(Modality, state["modalities"])))
            node.heartbeat_seq = check_count(state["heartbeat_seq"], "heartbeat_seq", 0)
            for sample in _WINDOWS[1].iter_unpack(bytes.fromhex(state["metrics"])):  # one sample each
                node.push_metrics(*sample)
            served = {m.value: m for m in node.modalities}  # KeyError: a modality not served
            for value, (tick, tag, _label) in state["latest"].items():
                node._record(served[value], check_count(tick, "tick", 0, now), tag)  # no input after now
            if node.snapshot() != snapshot:
                raise ValueError("not the bytes snapshot() writes")
        except (InvalidArgument, ValueError, KeyError, TypeError, AttributeError, RecursionError, struct.error):
            raise InvalidArgument("unknown or corrupt checkpoint") from None
        if as_id != node_id:  # the checked state, moved onto the replacement id
            moved = cls(as_id, node.modalities)
            moved.heartbeat_seq, moved._metrics = node.heartbeat_seq, node._metrics
            moved._load, moved.latest = node._load, node.latest
            node = moved
        return node


def _request(env: MessageEnvelope, server: Node | None = None) -> tuple[Modality, str]:
    """The (modality, tag) that a submit_input payload asks for, served by ``server``."""
    try:
        request = _parse_json(env.payload.decode())  # UTF-8 only, as submit_input writes it
        modality, tag = _MODALITIES[request["modality"]], request["tag"]
    except (ValueError, KeyError, TypeError, AttributeError):
        raise InvalidArgument(f"message {shown(env.msg_id)} is not an input request") from None
    if server is not None and modality not in server.modalities:
        raise InvalidArgument(f"node {server.id} does not support {modality.value}")
    return modality, tag


class Cluster:
    """Coordinator-stepped cluster with two-phase heartbeat failure detection.

    ``nodes`` is kept in ascending id order, the order of every walk.
    """

    def __init__(self, timeout_ticks: int = 3):
        self.timeout_ticks = check_count(timeout_ticks, "timeout_ticks")
        self.tick = 0
        self.nodes: dict[int, Node] = {}
        # Per modality, the non-failed nodes serving it in id order; _insert and a failure drop it.
        self._supporters: dict[Modality, list[Node]] | None = None
        self._next_msg_id = itertools.count(1)
        self._failover_log: list[tuple[int, int | None]] = []

    # -- membership ---------------------------------------------------------

    def add_node(self, node_id: int, modalities) -> Node:
        node = Node(node_id, modalities)  # first: it refuses an unhashable id the lookup would raise on
        if node_id in self.nodes:
            raise InvalidArgument(f"node {shown(node_id)} already exists")
        return self._insert(node)

    def _insert(self, node: Node) -> Node:
        """Put a node in the table, as having beaten now, keeping ids in order."""
        node.last_heartbeat = self.tick
        self._supporters = None
        nodes = self.nodes
        in_order = node.id in nodes or not nodes or node.id > next(reversed(nodes))
        nodes[node.id] = node  # a replaced id keeps its place, a new one goes last
        if not in_order:
            for node_id in sorted(nodes):
                nodes[node_id] = nodes.pop(node_id)
        return node

    def node(self, node_id: int) -> Node:
        # A node id as Node checks it: True or 1.0 would find node 1.
        node = self.nodes.get(check_count(node_id, "node id", COORDINATOR_ID + 1, MAX_ADDRESS))
        if node is None:
            raise InvalidArgument(f"unknown node {shown(node_id)}")
        return node

    def silence(self, node_id: int) -> None:
        """Stop a node's heartbeats (models a crash or partition)."""
        self.node(node_id).silenced = True

    def unsilence(self, node_id: int) -> None:
        """Let a silenced node beat again: the one way a Suspect node turns Alive."""
        self.node(node_id).silenced = False

    # -- heartbeats and failure detection ------------------------------------

    def heartbeat_tick(self) -> None:
        """Advance logical time one tick; every responsive node beats.

        A beat is recorded on the node alone, as its ``heartbeat_seq`` and
        ``last_heartbeat``: detection reads only the last tick.
        """
        self.tick = tick = self.tick + 1
        for node in self.nodes.values():
            if node.silenced or node.liveness is _FAILED:
                continue
            node.heartbeat_seq += 1
            node.last_heartbeat = tick

    def detect_failures(self) -> list[int]:
        """Two-phase detection; returns ids that became Failed on this call.

        A gap longer than the timeout makes a node Suspect, longer than
        twice the timeout makes it Failed and triggers failover of its
        pending work. Suspects whose heartbeats resume return to Alive.
        """
        tick, timeout = self.tick, self.timeout_ticks
        newly_failed = []
        for node in self.nodes.values():
            if node.liveness is _FAILED:
                continue
            gap = tick - node.last_heartbeat
            if gap > 2 * timeout:
                node.liveness = _FAILED
                newly_failed.append(node.id)
                self._supporters = None  # before _failover routes: the table holds only non-failed nodes
            elif gap > timeout:
                node.liveness = _SUSPECT
            else:
                node.liveness = _ALIVE
        self._failover_log = []
        for node_id in newly_failed:
            self._failover_log.extend(self._failover(node_id))
        return newly_failed

    def last_failover_events(self) -> list[tuple[int, int | None]]:
        """(msg_id, new node or None if dropped) pairs from the last detection."""
        return list(self._failover_log)

    def _failover(self, failed_id: int) -> list[tuple[int, int | None]]:
        events = []
        for env in self.nodes[failed_id].drain_inbox():
            try:
                target = self.balance_load(_request(env)[0])
            except NodeUnreachable:
                events.append((env.msg_id, None))  # nothing can serve it
                continue
            self._deliver(replace(env, dest=target))
            events.append((env.msg_id, target))
        return events

    # -- messaging ------------------------------------------------------------

    def _deliver(self, env: MessageEnvelope) -> None:
        """Send a request built here to balance_load's live pick, through the wire codec."""
        self.nodes[env.dest]._enqueue(decode(encode(env)))

    def submit_input(self, modality: Modality, tag: str, qos: QoS = QoS.REALTIME) -> tuple[int, int]:
        """Balance, wrap, and route one nonempty UTF-8 str tag; (node, msg_id).

        A refused argument routes nothing and uses no message id.
        """
        if not isinstance(tag, str) or not tag:
            check_type(tag, str, "tag")
            raise InvalidArgument("tag must be a nonempty str")
        try:
            tag.encode("utf-8")
        except UnicodeEncodeError:
            raise InvalidArgument(f"tag {shown(tag)} is not encodable as UTF-8") from None
        if type(qos) is not QoS:  # its int value is taken too, but not a bool or a float
            qos = QoS(check_count(qos, "qos", 0, len(QoS) - 1))
        target = self.balance_load(modality)
        payload = f"{_REQUEST_HEADS[modality]}{_json_str(tag)}}}".encode()
        env = MessageEnvelope(
            msg_id=next(self._next_msg_id), source=COORDINATOR_ID, dest=target,
            payload=payload, qos=qos,
        )
        self._deliver(env)
        return target, env.msg_id

    def process_step(self) -> list[tuple[int, Modality, str, str]]:
        """Let every non-failed node process one inbox item.

        Returns (node, modality, tag, label) records in node-id order.
        """
        records = []
        for node in self.nodes.values():
            inbox = node._inbox_rt or node._inbox_bulk  # Realtime first; an idle node costs this one test
            if not inbox or node.liveness is _FAILED or node.silenced:
                continue
            modality, tag = _request(inbox.popleft(), node)
            records.append((node.id, modality, tag, node._record(modality, self.tick, tag)))
        return records

    # -- load balancing ---------------------------------------------------------

    def balance_load(self, modality: Modality) -> int:
        """Pick the non-failed supporter with the lowest predicted load.

        Ties break toward the lowest node id; identical metric histories
        therefore always give identical selections.
        """
        if not isinstance(modality, Modality):
            check_type(modality, Modality, "modality")
        supporters = self._supporters
        if supporters is None:  # id order, and min keeps the first of equal loads: the lowest id wins
            supporters = self._supporters = {m: [node for node in self.nodes.values()
                                                 if m in node.modalities and node.liveness is not _FAILED]
                                             for m in Modality}
        live = supporters[modality]
        if not live:
            raise NodeUnreachable(f"no live node supports {modality.value}")
        return min(live, key=_by_load).id

    # -- checkpoints ---------------------------------------------------------

    def checkpoint_node(self, node_id: int) -> Checkpoint:
        """Snapshot a node's state and replicate the checkpoint to one peer.

        The peer is the first non-failed other node in the table, so the
        lowest-id one. It keeps only this node's newest checkpoint: an older
        replica there is replaced.
        """
        node = self.node(node_id)
        for peer in self.nodes.values():
            if peer is not node and peer.liveness is not _FAILED:
                break
        else:
            raise NodeUnreachable("no peer available to replicate the checkpoint")
        chk = Checkpoint(node_id, node.checkpoint_seq + 1, node.snapshot())
        node.checkpoint_seq = chk.seq
        peer.checkpoint_store[node_id] = chk
        return chk

    def restore_node(self, chk: Checkpoint, target_id: int | None = None) -> Node:
        """Rebuild a checkpointed node, optionally under a new id; a refusal changes no node.

        Onto an existing id, what the snapshot does not hold carries over from
        the node replaced: the replicas it keeps for peers, its checkpoint
        number and its queued messages. A queued message of a modality the
        restored node does not serve refuses the restore, and so does an input
        recorded at a tick later than the cluster's clock.
        """
        check_type(chk, Checkpoint, "checkpoint")
        node_id = chk.node_id if target_id is None else target_id
        node = Node.from_snapshot(chk.snapshot, chk.node_id, node_id, self.tick)
        old = self.nodes.get(node_id)
        if old is not None:
            for env in (*old._inbox_rt, *old._inbox_bulk):
                _request(env, node)
            node.checkpoint_store, node.checkpoint_seq = old.checkpoint_store, old.checkpoint_seq
            node._inbox_rt, node._inbox_bulk = old._inbox_rt, old._inbox_bulk
        return self._insert(node)

    # -- fusion inputs ---------------------------------------------------------

    def collect_outputs(self) -> dict[Modality, tuple[str, tuple[float, ...]]]:
        """Most recent output per modality across non-failed nodes: (label, vector).

        Of equal ticks, the node walked last, so the highest id, wins. The
        stub runs again on each winning record's tag, so this is the one
        place output vectors are computed: one embedding per modality returned.
        """
        latest: dict[Modality, tuple[int, str, str]] = {}
        for node in self.nodes.values():
            if node.liveness is _FAILED:
                continue
            for modality, entry in node.latest.items():
                current = latest.get(modality)
                if current is None or entry[0] >= current[0]:
                    latest[modality] = entry
        return {m: modality_process(m, tag.encode("utf-8")) for m, (_, tag, _) in latest.items()}
