"""Core reasoning state: evolvable predicates, knowledge graph, embeddings,
and single-use resource tokens.

Predicates are pure boolean rules carrying a Beta(alpha, beta) confidence
that moves with observed outcomes. Graph edges are smoothed toward targets
with a fixed learning rate. Embeddings are seeded-hash unit vectors so the
whole engine stays deterministic without a trained encoder.
"""

from __future__ import annotations

import hashlib
import math
import struct
import weakref
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from ..errors import InvalidArgument, ResourceConsumed, check_type, shown

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
        return self._edges.get(_edge(subject, obj), 0.0)

    def evolve(self, subject: str, obj: str, target: float) -> float:
        """Move the edge weight one smoothing step toward the target.

        Absent edges start at zero. The formula keeps weights inside
        [0, 1] on its own; the clamp just enforces the invariant.
        """
        edge = _edge(subject, obj)
        if subject == obj:
            raise InvalidArgument(f"self-loop on {shown(subject)} is not a fact")
        if not 0.0 <= check_type(target, (int, float), "target") <= 1.0:
            raise InvalidArgument(f"target {shown(target)} outside [0, 1]")
        w = self._edges.get(edge, 0.0)
        w = w + GRAPH_LEARNING_RATE * (target - w)
        w = min(1.0, max(0.0, w))
        self._edges[edge] = w
        return w


def _edge(subject: str, obj: str) -> tuple[str, str]:
    return check_type(subject, str, "edge subject"), check_type(obj, str, "edge object")


_SLOT_SUFFIXES = tuple(slot.to_bytes(4, "little") for slot in range(EMBEDDING_DIM))
_U64_MAX = float(2**64 - 1)
_FIRST_U64 = struct.Struct("<Q").unpack_from  # int.from_bytes(digest[:8], "little")


def embed(data: bytes) -> tuple[float, ...]:
    """Deterministic unit-norm embedding: slot i hashes (input, i) into [-1, 1].

    Slot i is sha256(data + i as 4 little-endian bytes), continued from one hash of data.
    """
    if not check_type(data, (bytes, bytearray), "embed input"):
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
    try:
        a, b = tuple(a), tuple(b)
        finite = all(map(math.isfinite, a + b))
    except (TypeError, OverflowError):  # not iterable, an entry not a number, an int past float64
        raise InvalidArgument("cosine similarity takes sequences of real numbers") from None
    if not finite:
        raise InvalidArgument("cosine similarity of a vector with NaN or Inf is undefined")
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


@dataclass(eq=False)
class LinearResource:
    """Token that must be consumed exactly once, by the engine that allocated it; equal only to itself."""

    payload: object


class RababEngine:
    """Single-owner access point for all mutating reasoning state."""

    def __init__(self):
        self.graph = KnowledgeGraph()
        self._predicates: dict[str, Predicate] = {}
        self._live: set[LinearResource] = set()  # allocated, not yet consumed
        # Weak: a consumed token is refused as consumed while its holder keeps it, and its payload is not kept.
        self._spent: weakref.WeakSet[LinearResource] = weakref.WeakSet()

    # -- predicates ---------------------------------------------------------

    def register_predicate(self, name: str, rule: Callable[[object], bool]) -> Predicate:
        """Store a rule under a unique name with the uniform prior (1, 1)."""
        check_type(rule, Callable, "predicate rule")
        if check_type(name, str, "predicate name") in self._predicates:
            raise InvalidArgument(f"predicate {shown(name)} already registered")
        pred = Predicate(name=name, rule=rule)
        self._predicates[name] = pred
        return pred

    def evolve_predicate(self, pred: Predicate, value, truth: bool) -> Predicate:
        """Beta-Bernoulli update: agreement bumps alpha, disagreement beta; a rule that raises, neither."""
        check_type(truth, bool, "truth")
        check_type(pred, Predicate, "predicate")
        if self._predicates.get(check_type(pred.name, str, "predicate name")) is not pred:
            raise InvalidArgument(f"predicate {shown(pred.name)} is not registered here")
        if bool(pred.rule(value)) == truth:
            pred.alpha += 1.0
        else:
            pred.beta += 1.0
        return pred

    # -- linear resources -------------------------------------------------------

    def allocate_linear(self, payload) -> LinearResource:
        res = LinearResource(payload)
        self._live.add(res)
        return res

    def consume_linear(self, res: LinearResource):
        """Hand out the payload exactly once, and forget the token; any further use is an error."""
        # The exact type keeps a subclass's __hash__ out of both set lookups.
        if not (type(res) is LinearResource and res in self._live):
            check_type(res, LinearResource, "resource")
            kind = f"{type(res.payload).__name__} resource"  # a payload's repr may be anything
            if type(res) is LinearResource and res in self._spent:
                raise ResourceConsumed(f"{kind} was already consumed")
            raise InvalidArgument(f"{kind} is not a token this engine allocated")
        self._spent.add(res)
        self._live.remove(res)
        return res.payload

    def leaked_resources(self) -> int:
        """Allocated-but-never-consumed count: the engine's one leak report."""
        return len(self._live)
