"""Distributed multi-modal orchestration: envelopes, cluster, fusion, scenarios."""

from .cluster import Checkpoint, Cluster, Liveness, Node
from .envelope import MessageEnvelope, QoS, decode, encode
from .fusion import (
    DEFAULT_DECISION,
    FUSION_ORDER,
    FusedRepresentation,
    Modality,
    decide,
    fuse,
    modality_process,
)
from .runner import DEMO_SCENARIO, Scenario, parse_scenario, run_scenario

__all__ = [
    "Checkpoint",
    "Cluster",
    "DEFAULT_DECISION",
    "DEMO_SCENARIO",
    "FUSION_ORDER",
    "FusedRepresentation",
    "Liveness",
    "MessageEnvelope",
    "Modality",
    "Node",
    "QoS",
    "Scenario",
    "decide",
    "decode",
    "encode",
    "fuse",
    "modality_process",
    "parse_scenario",
    "run_scenario",
]
