"""Line-based scenario runner for the cluster, emitting a deterministic event log.

Scenario grammar (one directive per line, '#' starts a comment):

    node <id> <modality[,modality...]>
    input <tick> <modality> <tag>
    kill <tick> <node-id>
    revive <tick> <node-id>

A node id is an int in 1..2**32-1, declared by one node line; a kill or
revive names a declared id, whether its node line comes before or after it.
A tick is an int from 1, the first tick run; a tick after the run's last is
allowed and never happens. A kill at tick t silences the node before it
would beat at t, so its last heartbeat is tick t-1. A revive at t, after t's
kills, lets a silenced node beat again from t: a Suspect node turns Alive, a
Failed one stays Failed. Node metrics are synthetic per-tick samples drawn
from the run seed, which is what makes the balancer exercise different
choices across seeds while staying reproducible for a fixed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from ..config import directives
from ..errors import InvalidArgument, NodeUnreachable, check_count, check_type, shown
from .cluster import Cluster, Liveness
from .envelope import MAX_ADDRESS
from .fusion import Modality, decide, fuse

CHECKPOINT_PERIOD = 5
MAX_TICKS = 2**63 - 1  # the cluster clock is a signed 64-bit count, as in a kernel
_SUSPECT, _FAILED = Liveness.SUSPECT, Liveness.FAILED  # bound once, as in cluster.py: read every tick

DEMO_SCENARIO = """\
# Demo: three nodes, three modalities, no failures.
node 1 vision,sensor
node 2 audio,language
node 3 vision,audio
input 2 vision person
input 3 sensor 3m
input 4 audio help
"""


@dataclass
class Scenario:
    nodes: list[tuple[int, frozenset[Modality]]] = field(default_factory=list)
    inputs: list[tuple[int, Modality, str]] = field(default_factory=list)
    kills: list[tuple[int, int]] = field(default_factory=list)
    revives: list[tuple[int, int]] = field(default_factory=list)


def _tick(text: str) -> int:
    """A directive's tick: an int from 1; a ValueError names any other."""
    tick = int(text)
    if tick < 1:
        raise ValueError(f"tick {tick} is before the first tick, 1")
    return tick


def parse_scenario(text: str) -> Scenario:
    scenario = Scenario()
    declared: dict[int, int] = {}  # node id -> the line that declares it
    named: list[tuple[int, int]] = []  # (line, node id) of each kill and revive
    for lineno, line in directives(text):
        parts = line.split()
        try:
            if parts[0] == "node" and len(parts) == 3:
                node_id = int(parts[1])
                if not 1 <= node_id <= MAX_ADDRESS:
                    raise ValueError(f"node id {node_id} is not in 1..{MAX_ADDRESS}")
                if node_id in declared:
                    raise ValueError(f"node {node_id} is already declared on line {declared[node_id]}")
                modalities = frozenset(Modality(m) for m in parts[2].split(","))
                declared[node_id] = lineno
                scenario.nodes.append((node_id, modalities))
            elif parts[0] == "input" and len(parts) == 4:
                scenario.inputs.append((_tick(parts[1]), Modality(parts[2]), parts[3]))
            elif parts[0] in ("kill", "revive") and len(parts) == 3:
                switch = (_tick(parts[1]), int(parts[2]))
                (scenario.kills if parts[0] == "kill" else scenario.revives).append(switch)
                named.append((lineno, switch[1]))
            else:
                raise ValueError(f"unrecognized directive {shown(parts[0])}")
        except ValueError as exc:
            raise InvalidArgument(f"scenario line {lineno}: {exc}") from None
    for lineno, node_id in named:
        if node_id not in declared:
            raise InvalidArgument(f"scenario line {lineno}: unknown node {node_id}")
    return scenario


def run_scenario(
    scenario: Scenario,
    ticks: int,
    seed: int = 0,
    timeout_ticks: int = 3,
) -> tuple[list[tuple[int, str, str]], str | None, str | None]:
    """Step the cluster for the given ticks.

    Returns the event log as (tick, event, detail) rows plus the final
    fused summary and decision (None if nothing was processed).
    """
    check_type(scenario, Scenario, "scenario")
    check_count(ticks, "ticks", 1, MAX_TICKS)
    rng = Random(check_type(seed, int, "seed"))
    cluster = Cluster(timeout_ticks=timeout_ticks)
    events: list[tuple[int, str, str]] = []
    for node_id, modalities in scenario.nodes:
        cluster.add_node(node_id, modalities)
        names = ",".join(sorted(m.value for m in modalities))
        events.append((0, "node", f"id={node_id} modalities={names}"))

    inputs_by_tick: dict[int, list[tuple[Modality, str]]] = {}
    for tick, modality, tag in scenario.inputs:
        inputs_by_tick.setdefault(tick, []).append((modality, tag))
    switches_by_tick: dict[int, list[tuple[str, int]]] = {}  # a tick's kills, then its revives
    for kind, switches in (("kill", scenario.kills), ("revive", scenario.revives)):
        for tick, node_id in switches:
            switches_by_tick.setdefault(tick, []).append((kind, node_id))

    for tick in range(1, ticks + 1):
        for kind, node_id in switches_by_tick.get(tick, ()):
            (cluster.silence if kind == "kill" else cluster.unsilence)(node_id)
            events.append((tick, kind, f"node={node_id}"))
        cluster.heartbeat_tick()
        for node in cluster.nodes.values():
            if node.liveness is not _FAILED and not node.silenced:
                node.push_metrics(rng.random(), rng.random(), rng.random())
        for modality, tag in inputs_by_tick.get(tick, ()):
            try:
                target, msg_id = cluster.submit_input(modality, tag)
                events.append(
                    (tick, "input", f"modality={modality.value} tag={tag} node={target} msg={msg_id}")
                )
            except NodeUnreachable as exc:
                events.append((tick, "input-dropped", f"modality={modality.value}: {exc.detail}"))
        was_suspect = {
            nid for nid, n in cluster.nodes.items() if n.liveness is _SUSPECT
        }
        failed = cluster.detect_failures()
        for node_id, node in cluster.nodes.items():
            if node.liveness is _SUSPECT and node_id not in was_suspect:
                events.append((tick, "suspect", f"node={node_id}"))
        for node_id in failed:
            events.append((tick, "failed", f"node={node_id}"))
        for msg_id, new_dest in cluster.last_failover_events():
            detail = f"msg={msg_id} node={new_dest}" if new_dest else f"msg={msg_id} dropped"
            events.append((tick, "reroute", detail))
        for node_id, modality, tag, label in cluster.process_step():
            events.append(
                (tick, "processed", f"node={node_id} modality={modality.value} label={label}")
            )
        if tick % CHECKPOINT_PERIOD == 0:
            live = [nid for nid, n in cluster.nodes.items() if n.liveness is not _FAILED]
            if len(live) > 1:
                for node_id in live:
                    chk = cluster.checkpoint_node(node_id)
                    events.append((tick, "checkpoint", f"node={node_id} seq={chk.seq}"))

    outputs = cluster.collect_outputs()
    if not outputs:
        return events, None, None
    fused = fuse(outputs)
    action = decide(fused)
    return events, fused.summary, action
