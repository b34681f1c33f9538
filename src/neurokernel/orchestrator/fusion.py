"""Deterministic modality stubs, label fusion, and the action rule table.

The per-modality "models" are lookup stubs: the tag carried in the raw
input selects a label (``modality_label``), and the tensor is a hash
embedding of the bytes. A cluster node keeps only the label;
``modality_process`` adds the embedding where an output vector is read.
Fusion renders the labels through fixed templates in Vision, Sensor,
Audio, Language order; the decision stage maps the fused sentence through
a fixed keyword rule table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from ..errors import InvalidArgument, check_type, shown
from ..rabab.engine import embed


class Modality(Enum):
    VISION = "vision"
    AUDIO = "audio"
    LANGUAGE = "language"
    SENSOR = "sensor"


FUSION_ORDER = (Modality.VISION, Modality.SENSOR, Modality.AUDIO, Modality.LANGUAGE)

# Fixed tag -> label stubs standing in for real per-modality models.
MODALITY_LABELS: dict[Modality, dict[str, str]] = {
    Modality.VISION: {"person": "person", "obstacle": "obstacle", "empty": "empty room"},
    Modality.SENSOR: {"3m": "distance=3m", "5m": "distance=5m", "contact": "contact"},
    Modality.AUDIO: {"help": "asking for help", "silence": "silence", "alarm": "alarm"},
    Modality.LANGUAGE: {"hello": "greeting", "stop": "stop request"},
}

_DECISION_RULES: tuple[tuple[tuple[str, ...], str], ...] = (
    (("person", "asking for help"), "Approach the person and respond verbally"),
    (("obstacle",), "Stop and replan the route"),
    (("alarm",), "Raise an alert"),
)
DEFAULT_DECISION = "No action required"


@dataclass(frozen=True)
class FusedRepresentation:
    """Modality outputs in fusion order plus the rendered summary sentence."""

    outputs: tuple[tuple[Modality, str, tuple[float, ...]], ...]
    summary: str


def modality_label(kind: Modality, raw: bytes) -> str:
    """The stub's label for nonempty raw bytes: the stripped tag's entry in kind's table, or the tag."""
    if not (isinstance(kind, Modality) and isinstance(raw, (bytes, bytearray)) and raw):  # once per input
        check_type(kind, Modality, "modality")
        check_type(raw, (bytes, bytearray), "modality input")
        raise InvalidArgument("modality input must be nonempty")
    tag = raw.decode("utf-8", errors="replace").strip()
    return MODALITY_LABELS[kind].get(tag, tag)


def modality_process(kind: Modality, raw: bytes) -> tuple[str, tuple[float, ...]]:
    """Run one modality stub: its label for raw, plus the unit-norm embedding of raw."""
    return modality_label(kind, raw), embed(raw)


def _meters(sensor_label: str) -> str:
    value = sensor_label.removeprefix("distance=")
    return value[:-1] if value.endswith("m") else value


def fuse(outputs: Mapping[Modality, tuple[str, Sequence[float]]]) -> FusedRepresentation:
    """Merge per-modality outputs into one summary sentence.

    The template is keyed by which modalities are present; combinations
    without a dedicated template fall back to a semicolon listing.
    """
    if not check_type(outputs, Mapping, "fusion outputs"):
        raise InvalidArgument("fusion needs at least one modality output")
    for m, output in outputs.items():
        check_type(m, Modality, "fused modality")
        if not (type(output) is tuple and len(output) == 2 and type(output[0]) is str
                and isinstance(output[1], (tuple, list))):
            raise InvalidArgument(f"{m.value} output must be a (label, vector) pair, got {shown(output)}")
    present = frozenset(outputs)
    labels = {m: outputs[m][0] for m in outputs}
    if present == {Modality.VISION, Modality.SENSOR, Modality.AUDIO}:
        summary = (
            f"A {labels[Modality.VISION]} is standing "
            f"{_meters(labels[Modality.SENSOR])} meters away, {labels[Modality.AUDIO]}"
        )
    elif present == {Modality.VISION}:
        summary = f"A {labels[Modality.VISION]} is present"
    else:
        ordered = [labels[m] for m in FUSION_ORDER if m in present]
        summary = "Observed: " + "; ".join(ordered)
    ordered_outputs = tuple(
        (m, outputs[m][0], tuple(outputs[m][1])) for m in FUSION_ORDER if m in present
    )
    return FusedRepresentation(outputs=ordered_outputs, summary=summary)


def decide(fused: FusedRepresentation) -> str:
    """Map a fused summary through the fixed rule table; first match wins."""
    check_type(fused, FusedRepresentation, "fused representation")
    summary = check_type(fused.summary, str, "fused summary")
    for keywords, action in _DECISION_RULES:
        if all(k in summary for k in keywords):
            return action
    return DEFAULT_DECISION
