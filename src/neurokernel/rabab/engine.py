"""Core reasoning state: evolvable predicates, knowledge graph, embeddings,
and single-use resource tokens.

Predicates are pure boolean rules carrying a Beta(alpha, beta) confidence
that moves with observed outcomes. Graph edges are smoothed toward targets
with a fixed learning rate. Embeddings are seeded-hash unit vectors so the
whole engine stays deterministic without a trained encoder.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

from ..errors import InvalidArgument, ResourceConsumed

EMBEDDING_DIM = 32
GRAPH_LEARNING_RATE = 0.1


@dataclass
class Predicate:
    """Named pure rule with Beta-distributed confidence."""

    name: str
    rule: Callable[[object], bool]
    alpha: float = 1.0
    beta: float = 1.0

    @property
    def confidence(self) -> float:
        return self.alpha / (self.alpha + self.beta)


class KnowledgeGraph:
    """Directed (subject, object) edges weighted in [0, 1]."""

    def __init__(self):
        self._edges: dict[tuple[str, str], float] = {}

    def __len__(self) -> int:
        return len(self._edges)

    def weight(self, subject: str, obj: str) -> float:
        return self._edges.get((subject, obj), 0.0)

    def evolve(self, subject: str, obj: str, target: float) -> float:
        """Move the edge weight one smoothing step toward the target.

        Absent edges start at zero. The formula keeps weights inside
        [0, 1] on its own; the clamp just enforces the invariant.
        """
        if subject == obj:
            raise InvalidArgument(f"self-loop on {subject!r} is not a fact")
        if not 0.0 <= target <= 1.0:
            raise InvalidArgument(f"target {target} outside [0, 1]")
        w = self._edges.get((subject, obj), 0.0)
        w = w + GRAPH_LEARNING_RATE * (target - w)
        w = min(1.0, max(0.0, w))
        self._edges[(subject, obj)] = w
        return w


_SLOT_SUFFIXES = tuple(slot.to_bytes(4, "little") for slot in range(EMBEDDING_DIM))
_U64_MAX = float(2**64 - 1)
_FIRST_U64 = struct.Struct("<Q").unpack_from  # int.from_bytes(digest[:8], "little")


def embed(data: bytes | str) -> tuple[float, ...]:
    """Deterministic unit-norm embedding: slot i hashes (input, i) into [-1, 1].

    Slot i is sha256(data + i as 4 little-endian bytes), continued from one hash of data.
    """
    if isinstance(data, str):
        try:
            data = data.encode("utf-8")
        except UnicodeEncodeError:
            raise InvalidArgument(f"cannot embed {data!r}: not encodable as UTF-8") from None
    elif not isinstance(data, (bytes, bytearray)):
        raise InvalidArgument(f"embed takes bytes or str, got {data!r}")
    if not data:
        raise InvalidArgument("cannot embed empty input")
    prefix = hashlib.sha256(data)
    raw = []
    squares = 0.0  # left to right: from Python 3.12, sum() compensates rounding
    for suffix in _SLOT_SUFFIXES:
        slot_hash = prefix.copy()
        slot_hash.update(suffix)
        x = _FIRST_U64(slot_hash.digest())[0] / _U64_MAX * 2.0 - 1.0
        raw.append(x)
        squares += x * x
    norm = math.sqrt(squares)
    if norm == 0.0:
        raise InvalidArgument("degenerate embedding (zero norm)")
    return tuple(x / norm for x in raw)


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    """dot(a, b) / (|a| * |b|), clamped into [-1, 1] against rounding.

    Operands are pre-scaled by their max magnitude so squared terms cannot
    under- or overflow, and the norm product is a single sqrt, which makes
    cos(v, v) exactly 1.0.
    """
    if len(a) != len(b):
        raise InvalidArgument(f"dimension mismatch: {len(a)} vs {len(b)}")
    ma = max((abs(x) for x in a), default=0.0)
    mb = max((abs(y) for y in b), default=0.0)
    if ma == 0.0 or mb == 0.0:
        raise InvalidArgument("cosine similarity of a zero vector is undefined")
    dot = 0.0
    na = 0.0
    nb = 0.0
    for x, y in zip(a, b):
        x /= ma
        y /= mb
        dot += x * y
        na += x * x
        nb += y * y
    value = dot / math.sqrt(na * nb)
    return min(1.0, max(-1.0, value))


@dataclass
class LinearResource:
    """Token that must be consumed exactly once."""

    id: int
    payload: object
    consumed: bool = False


class RababEngine:
    """Single-owner access point for all mutating reasoning state."""

    def __init__(self):
        self.graph = KnowledgeGraph()
        self._predicates: dict[str, Predicate] = {}
        self._resources: dict[int, LinearResource] = {}
        self._next_resource = itertools.count(1)
        self._consumed_count = 0

    # -- predicates ---------------------------------------------------------

    def register_predicate(self, name: str, rule: Callable[[object], bool]) -> Predicate:
        """Store a rule under a unique name with the uniform prior (1, 1)."""
        if name in self._predicates:
            raise InvalidArgument(f"predicate {name!r} already registered")
        pred = Predicate(name=name, rule=rule)
        self._predicates[name] = pred
        return pred

    def predicate(self, name: str) -> Predicate:
        try:
            return self._predicates[name]
        except KeyError:
            raise InvalidArgument(f"no predicate named {name!r}") from None

    def evaluate(self, pred: Predicate | str, value) -> bool:
        """Pure rule application; never touches confidence."""
        if isinstance(pred, str):
            pred = self.predicate(pred)
        return bool(pred.rule(value))

    def evolve_predicate(self, pred: Predicate | str, value, truth: bool) -> Predicate:
        """Beta-Bernoulli update: agreement bumps alpha, disagreement beta."""
        if isinstance(pred, str):
            pred = self.predicate(pred)
        elif self._predicates.get(pred.name) is not pred:
            raise InvalidArgument(f"predicate {pred.name!r} is not registered here")
        if self.evaluate(pred, value) == bool(truth):
            pred.alpha += 1.0
        else:
            pred.beta += 1.0
        return pred

    # -- linear resources -------------------------------------------------------

    def allocate_linear(self, payload) -> LinearResource:
        res = LinearResource(id=next(self._next_resource), payload=payload)
        self._resources[res.id] = res
        return res

    def consume_linear(self, res: LinearResource):
        """Hand out the payload exactly once; any further use is an error."""
        tracked = self._resources.get(res.id)
        if tracked is not res:
            raise InvalidArgument(f"resource {res.id} does not belong to this engine")
        if res.consumed:
            raise ResourceConsumed(f"resource {res.id} was already consumed")
        res.consumed = True
        self._consumed_count += 1
        return res.payload

    def leaked_resources(self) -> int:
        """Allocated-but-never-consumed count: the engine's one leak report."""
        return len(self._resources) - self._consumed_count
