"""Opcode-dispatched integer compute service with checked 64-bit arithmetic.

Models the arithmetic syscall surface: four opcodes over signed 64-bit
integers, kernel-style errors instead of wrapped or silently wrong results.
"""

from __future__ import annotations

from enum import IntEnum

from .errors import InvalidArgument, Overflow, check_count, check_type, shown

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class Opcode(IntEnum):
    ADD = 0
    SUBTRACT = 1
    MULTIPLY = 2
    DIVIDE = 3


_ADD, _SUBTRACT, _MULTIPLY = Opcode.ADD, Opcode.SUBTRACT, Opcode.MULTIPLY  # bound once, as in scheduler.py


def simple_compute(a: int, b: int, op: Opcode | int) -> int:
    """Apply ``op`` to two signed 64-bit integers.

    Arithmetic is checked, never wrapping: a result outside the signed
    64-bit range raises Overflow. Division truncates toward zero, so
    ``(a / b) * b == a - (a trunc-mod b)`` holds exactly for ``b != 0``.
    """
    check_count(a, "a", INT64_MIN, INT64_MAX)
    check_count(b, "b", INT64_MIN, INT64_MAX)
    try:
        op = Opcode(check_type(op, int, "opcode"))
    except ValueError:
        raise InvalidArgument(f"unknown opcode {shown(op)}") from None

    if op is _ADD:
        result = a + b
    elif op is _SUBTRACT:
        result = a - b
    elif op is _MULTIPLY:
        result = a * b
    else:
        if b == 0:
            raise InvalidArgument("division by zero")
        result = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            result = -result

    if not INT64_MIN <= result <= INT64_MAX:
        raise Overflow(f"{op.name}({shown(a)}, {shown(b)}) does not fit a signed 64-bit integer")
    return result
