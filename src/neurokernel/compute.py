"""Opcode-dispatched integer compute service with checked 64-bit arithmetic.

Models the arithmetic syscall surface: four opcodes over signed 64-bit
integers, kernel-style errors instead of wrapped or silently wrong results.
"""

from __future__ import annotations

from enum import IntEnum

from .errors import InvalidArgument, Overflow, check_type

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class Opcode(IntEnum):
    ADD = 0
    SUBTRACT = 1
    MULTIPLY = 2
    DIVIDE = 3


def _check_operand(name: str, value: int) -> None:
    if not INT64_MIN <= check_type(value, int, name) <= INT64_MAX:
        raise InvalidArgument(f"{name}={value} is outside the signed 64-bit range")


def simple_compute(a: int, b: int, op: Opcode | int) -> int:
    """Apply ``op`` to two signed 64-bit integers.

    Arithmetic is checked, never wrapping: a result outside the signed
    64-bit range raises Overflow. Division truncates toward zero, so
    ``(a / b) * b == a - (a trunc-mod b)`` holds exactly for ``b != 0``.
    """
    _check_operand("a", a)
    _check_operand("b", b)
    try:
        op = Opcode(check_type(op, int, "opcode"))
    except ValueError:
        raise InvalidArgument(f"unknown opcode {op!r}") from None

    if op is Opcode.ADD:
        result = a + b
    elif op is Opcode.SUBTRACT:
        result = a - b
    elif op is Opcode.MULTIPLY:
        result = a * b
    else:
        if b == 0:
            raise InvalidArgument("division by zero")
        result = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            result = -result

    if not INT64_MIN <= result <= INT64_MAX:
        raise Overflow(f"{op.name}({a}, {b}) does not fit a signed 64-bit integer")
    return result
