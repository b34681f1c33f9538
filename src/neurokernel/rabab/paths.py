"""Framebuffer intents and transform-path canonicalization.

A transform path is a sequence of Identity, Translate, and DrawPixel ops.
Two paths count as equivalent when they have the same effect on every
framebuffer state. For this op set the effect is exactly the final
pixel -> color map the draws leave behind, so the canonical form is that
map rendered as draws: translations folded into coordinates, shadowed
draws dropped (last write per pixel wins), survivors in raster order.
Equality of canonical forms then coincides with effect equivalence.

``canonicalize_path`` is the one implementation of a path's meaning:
``apply_path`` draws the canonical form, so a path it refuses draws nothing,
and ``interpret_intent`` draws a one-op path.
``selftest._effect_signature`` interprets paths on its own, as the oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from ..errors import InvalidArgument, OutOfMemory, check_count, check_type, shown

DEFAULT_WIDTH = 128
DEFAULT_HEIGHT = 128

Color = tuple[int, int, int]

RED: Color = (255, 0, 0)
BLACK: Color = (0, 0, 0)


def _check_color(color) -> Color:
    check_type(color, tuple, "color")
    if len(color) != 3 or any(type(c) is not int or not 0 <= c <= 255 for c in color):
        raise InvalidArgument(f"color must be an RGB triple of 0..255, got {shown(color)}")
    return color


@dataclass(frozen=True)
class Identity:
    """No-op; removed by canonicalization."""


@dataclass(frozen=True)
class Translate:
    """Shift applied to the coordinates of every subsequent draw."""

    dx: int
    dy: int


@dataclass(frozen=True)
class DrawPixel:
    x: int
    y: int
    color: Color


PathOp = Union[Identity, Translate, DrawPixel]

# int() alone also takes a sign, "_" separators, inner spaces and non-ASCII digits.
_COORD = re.compile(r"-?[0-9]+")
_HEX_COLOR = re.compile(r"#[0-9A-Fa-f]{6}")


class Framebuffer:
    """Width x height grid of RGB triples, black by default."""

    def __init__(self, width: int = DEFAULT_WIDTH, height: int = DEFAULT_HEIGHT):
        self.width = check_count(width, "framebuffer width")
        self.height = check_count(height, "framebuffer height")
        try:
            self._pixels: list[Color] = [BLACK] * (width * height)
        except (MemoryError, OverflowError):
            raise OutOfMemory(f"host cannot hold a {shown(width)}x{shown(height)} framebuffer") from None

    def _set(self, x: int, y: int, color: Color) -> None:
        self._pixels[y * self.width + x] = color

    def to_ppm(self) -> str:
        """Plain-text PPM (P3) rendering of the framebuffer."""
        lines = ["P3", f"{self.width} {self.height}", "255"]
        for y in range(self.height):
            row = self._pixels[y * self.width : (y + 1) * self.width]
            lines.append(" ".join(f"{r} {g} {b}" for r, g, b in row))
        return "\n".join(lines) + "\n"


def interpret_intent(intent: DrawPixel, fb: Framebuffer) -> Framebuffer:
    """Apply one declarative intent to the framebuffer.

    v1 understands DrawPixel only: exactly one pixel changes, everything
    else stays untouched.
    """
    return apply_path((check_type(intent, DrawPixel, "intent"),), fb)


def parse_intent(text: str) -> DrawPixel:
    """Parse the CLI intent syntax ``pixel:x,y,#RRGGBB``.

    x and y are an optional ``-`` and ASCII digits, the color ``#`` and six
    ASCII hex digits; spaces around each field are ignored.
    """
    kind, _, rest = check_type(text, str, "intent text").partition(":")
    if kind.strip() != "pixel":
        raise InvalidArgument(f"unsupported intent kind {shown(kind.strip())}")
    parts = [p.strip() for p in rest.split(",")]
    if len(parts) != 3:
        raise InvalidArgument(f"intent needs x,y,#RRGGBB, got {shown(rest)}")
    x, y, hex_color = parts
    if not (_COORD.fullmatch(x) and _COORD.fullmatch(y) and _HEX_COLOR.fullmatch(hex_color)):
        raise InvalidArgument(f"malformed intent {shown(text)}")
    try:
        return DrawPixel(int(x), int(y), (int(hex_color[1:3], 16), int(hex_color[3:5], 16), int(hex_color[5:7], 16)))
    except ValueError:  # a coordinate past int()'s digit limit, sys.get_int_max_str_digits()
        raise InvalidArgument("intent coordinate has more digits than int() converts") from None


def apply_path(path: Iterable[PathOp], fb: Framebuffer) -> Framebuffer:
    """Draw a transform path's canonical form; a path it refuses draws nothing."""
    check_type(fb, Framebuffer, "framebuffer")
    for op in canonicalize_path(path, fb.width, fb.height):
        fb._set(op.x, op.y, op.color)
    return fb


def canonicalize_path(
    path: Sequence[PathOp],
    width: int = DEFAULT_WIDTH,
    height: int = DEFAULT_HEIGHT,
) -> tuple[DrawPixel, ...]:
    """Reduce a path to its normal form: folded, shadow-free, raster-ordered draws.

    Raises InvalidArgument when a coordinate, a delta or the size is not an
    int (a bool is not), or when folding the translations pushes a draw out
    of bounds, since running that path would fault the same way.
    """
    check_type(path, Iterable, "path")
    check_count(width, "path width")
    check_count(height, "path height")
    tx = ty = 0
    final: dict[tuple[int, int], Color] = {}  # keyed (y, x), so sorted keys are raster order
    for op in path:
        if isinstance(op, Identity):
            continue
        if isinstance(op, Translate):
            tx += check_type(op.dx, int, "translation dx")
            ty += check_type(op.dy, int, "translation dy")
            continue
        if isinstance(op, DrawPixel):
            x, y = check_type(op.x, int, "draw x") + tx, check_type(op.y, int, "draw y") + ty
            if not (0 <= x < width and 0 <= y < height):
                raise InvalidArgument(f"pixel ({shown(x)}, {shown(y)}) outside {shown(width)}x{shown(height)} framebuffer")
            final[(y, x)] = _check_color(op.color)
            continue
        raise InvalidArgument(f"unknown path op {shown(op)}")
    return tuple(DrawPixel(x, y, final[y, x]) for y, x in sorted(final))


def paths_equivalent(
    p: Sequence[PathOp],
    q: Sequence[PathOp],
    width: int = DEFAULT_WIDTH,
    height: int = DEFAULT_HEIGHT,
) -> bool:
    """True iff the two paths act identically on every framebuffer state."""
    return canonicalize_path(p, width, height) == canonicalize_path(q, width, height)
