"""``cluster``: a generated scenario stepped through the Cluster public methods.

The workload calls the Cluster in the same order as ``run_scenario`` and
builds the same event log, so a step is one tick: kills, heartbeats,
metric samples, inputs, failure detection and failover, one processing
step, and every CHECKPOINT_PERIOD ticks a checkpoint of every live node.
``NodeUnreachable`` on an input is an expected refusal, logged as
``input-dropped`` exactly as ``run_scenario`` does.

Every input carries a unique tag, which the modality stubs pass through
as the label, so each message can be followed to its end.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from random import Random

N_NODES = 48
TICKS = 1200
INPUTS_PER_TICK = 4
N_KILLS = 6
MODALITIES = ("vision", "audio", "language", "sensor")


def generate(seed: int, scale: float = 1.0) -> dict:
    rng = Random(f"cluster-{seed}")
    n_nodes = max(6, round(N_NODES * scale))
    ticks = max(20, round(TICKS * scale))
    n_kills = max(1, round(N_KILLS * scale))
    lines = []
    for node_id in range(1, n_nodes + 1):
        mods = [m for m in MODALITIES if rng.random() < 0.5] or [rng.choice(MODALITIES)]
        lines.append(f"node {node_id} {','.join(mods)}")
    msg = 0
    for tick in range(1, ticks + 1):
        for _ in range(INPUTS_PER_TICK):
            msg += 1
            lines.append(f"input {tick} {rng.choice(MODALITIES)} t{msg}")
    for node_id in rng.sample(range(1, n_nodes + 1), n_kills):
        lines.append(f"kill {rng.randint(ticks // 10, ticks * 9 // 10)} {node_id}")
    return {"scenario": "\n".join(lines) + "\n", "ticks": ticks, "metrics_seed": seed}


def load(nk, inputs: dict):
    """The scenario text as the program's Scenario; the workload only reads it."""
    from neurokernel.orchestrator import parse_scenario

    return parse_scenario(inputs["scenario"])


class Workload:
    def __init__(self, nk, inputs: dict, loaded, tracer):
        from neurokernel.orchestrator import Cluster

        self.inputs = inputs
        self.tracer = tracer
        self.scenario = loaded
        self.cluster = Cluster(timeout_ticks=3)
        self.events: list[tuple[int, str, str]] = []
        for node_id, modalities in self.scenario.nodes:
            self.cluster.add_node(node_id, modalities)
            names = ",".join(sorted(m.value for m in modalities))
            self.events.append((0, "node", f"id={node_id} modalities={names}"))
        self.NodeUnreachable = nk.NodeUnreachable
        self.KernelError = nk.KernelError

    def run(self) -> dict:
        import neurokernel.orchestrator.cluster as cluster_mod
        import neurokernel.orchestrator.fusion as fusion_mod
        from neurokernel.orchestrator import Liveness, decide, fuse
        from neurokernel.orchestrator.runner import CHECKPOINT_PERIOD

        tracer, cluster, events = self.tracer, self.cluster, self.events
        tracer.rebind(cluster_mod, "encode", "orchestrator.envelope.encode")
        tracer.rebind(cluster_mod, "decode", "orchestrator.envelope.decode")
        tracer.rebind(fusion_mod, "embed", "rabab.embed")
        heartbeat_tick = tracer.wrap("orchestrator.heartbeat_tick", cluster.heartbeat_tick)
        detect_failures = tracer.wrap("orchestrator.detect_failures", cluster.detect_failures)
        submit_input = tracer.wrap("orchestrator.submit_input", cluster.submit_input)
        process_step = tracer.wrap("orchestrator.process_step", cluster.process_step)
        checkpoint_node = tracer.wrap("orchestrator.checkpoint_node", cluster.checkpoint_node)
        NodeUnreachable, KernelError = self.NodeUnreachable, self.KernelError
        FAILED, SUSPECT = Liveness.FAILED, Liveness.SUSPECT
        clock = time.perf_counter_ns

        rng = Random(self.inputs["metrics_seed"])
        inputs_by_tick: dict[int, list] = {}
        for tick, modality, tag in self.scenario.inputs:
            inputs_by_tick.setdefault(tick, []).append((modality, tag))
        kills_by_tick: dict[int, list[int]] = {}
        for tick, node_id in self.scenario.kills:
            kills_by_tick.setdefault(tick, []).append(node_id)

        steps: list[int] = []
        failed = checkpoint_bytes = 0
        self.submitted: dict[int, str] = {}   # msg id -> tag
        self.processed_tags: list[str] = []

        first_step = clock()
        for tick in range(1, self.inputs["ticks"] + 1):
            tracer.begin_step(len(steps))
            t0 = clock()
            try:
                for node_id in kills_by_tick.get(tick, ()):
                    cluster.silence(node_id)
                    events.append((tick, "kill", f"node={node_id}"))
                heartbeat_tick()
                for node_id in sorted(cluster.nodes):
                    node = cluster.nodes[node_id]
                    if node.liveness is not FAILED and not node.silenced:
                        node.push_metrics(rng.random(), rng.random(), rng.random())
                for modality, tag in inputs_by_tick.get(tick, ()):
                    try:
                        target, msg_id = submit_input(modality, tag)
                        self.submitted[msg_id] = tag
                        events.append((tick, "input",
                                       f"modality={modality.value} tag={tag} node={target} msg={msg_id}"))
                    except NodeUnreachable as exc:
                        events.append((tick, "input-dropped", f"modality={modality.value}: {exc.detail}"))
                was_suspect = {nid for nid, n in cluster.nodes.items() if n.liveness is SUSPECT}
                newly_failed = detect_failures()
                for node_id, node in sorted(cluster.nodes.items()):
                    if node.liveness is SUSPECT and node_id not in was_suspect:
                        events.append((tick, "suspect", f"node={node_id}"))
                for node_id in newly_failed:
                    events.append((tick, "failed", f"node={node_id}"))
                for msg_id, new_dest in cluster.last_failover_events():
                    detail = f"msg={msg_id} node={new_dest}" if new_dest else f"msg={msg_id} dropped"
                    events.append((tick, "reroute", detail))
                for node_id, modality, tag, label in process_step():
                    self.processed_tags.append(tag)
                    events.append((tick, "processed",
                                   f"node={node_id} modality={modality.value} label={label}"))
                if tick % CHECKPOINT_PERIOD == 0:
                    live = [nid for nid, n in sorted(cluster.nodes.items()) if n.liveness is not FAILED]
                    if len(live) > 1:
                        for node_id in live:
                            chk = checkpoint_node(node_id)
                            checkpoint_bytes += len(chk.snapshot)
                            events.append((tick, "checkpoint", f"node={node_id} seq={chk.seq}"))
            except KernelError:
                failed += 1
                steps.append(clock() - t0)
                break
            steps.append(clock() - t0)
        tracer.restore()

        outputs = cluster.collect_outputs()
        if outputs:
            fused = fuse(outputs)
            self.summary, self.action = fused.summary, decide(fused)
        else:
            self.summary = self.action = None
        kinds = Counter(kind for _tick, kind, _detail in events)
        self.counters = {
            "orchestrator.checkpoint_bytes": checkpoint_bytes,
            "orchestrator.reroutes": sum(1 for _t, k, d in events if k == "reroute" and not d.endswith("dropped")),
            "orchestrator.inputs_dropped": kinds["input-dropped"]
            + sum(1 for _t, k, d in events if k == "reroute" and d.endswith("dropped")),
        }
        return {"first_step_ns": first_step, "steps_ns": steps, "units": len(steps),
                "attempted": len(steps), "failed": failed}

    def verify(self) -> list[str]:
        """Message conservation: each input ends exactly once, processed,
        dropped or still queued, and every reroute names a submitted input."""
        errors = []
        scenario_tags = Counter(tag for _tick, _modality, tag in self.scenario.inputs)
        submitted_tags = Counter(self.submitted.values())
        dropped_at_submit = sum(1 for _t, kind, _d in self.events if kind == "input-dropped")
        if sum(submitted_tags.values()) + dropped_at_submit != sum(scenario_tags.values()):
            errors.append("inputs submitted plus refused do not add up to the scenario")
        ends = Counter(self.processed_tags)
        for _tick, kind, detail in self.events:
            if kind == "reroute":
                msg_id = int(detail.split()[0].removeprefix("msg="))
                if msg_id not in self.submitted:
                    errors.append(f"reroute of unknown message {msg_id}")
                elif detail.endswith("dropped"):
                    ends[self.submitted[msg_id]] += 1
        for node in self.cluster.nodes.values():
            for env in node.drain_inbox():
                ends[json.loads(env.payload)["tag"]] += 1
        if ends != submitted_tags:
            lost = submitted_tags - ends
            extra = ends - submitted_tags
            errors.append(f"message conservation broken: {sum(lost.values())} lost, "
                          f"{sum(extra.values())} duplicated")
        return errors

    def digest(self) -> str:
        record = {"events": self.events, "summary": self.summary, "action": self.action,
                  "checkpoint_bytes": self.counters["orchestrator.checkpoint_bytes"]}
        return hashlib.sha256(json.dumps(record).encode()).hexdigest()
