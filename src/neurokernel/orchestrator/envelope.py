"""Binary wire format for inter-node messages.

Frame layout, all little-endian:

    magic "NKE1" | qos u8 | msg_id u64 |
    source u32 | dest u32 | payload_len u32 | payload | crc32(payload) u32

The transport behind it is an in-process channel, but the frame is
transport-independent: a socket transport could carry the same bytes. The
magic is the format's version: decode refuses any other, and a new format
gets a new magic.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum

from ..errors import ChecksumMismatch, InvalidArgument, check_count, check_type, shown

MAGIC = b"NKE1"

_HEADER = struct.Struct("<4sBQIII")
_CRC = struct.Struct("<I")

_U32 = 0xFFFF_FFFF
_U64 = 0xFFFF_FFFF_FFFF_FFFF
MAX_ADDRESS = _U32  # the largest source or dest a frame carries


class QoS(IntEnum):
    REALTIME = 0
    BULK = 1


_QOS = tuple(map(QoS, range(len(QoS))))  # by qos byte: an index, not an enum call per message


@dataclass(frozen=True)
class MessageEnvelope:
    msg_id: int
    source: int
    dest: int
    payload: bytes
    qos: QoS = QoS.BULK

    # Frozen, its generated __init__ makes one object.__setattr__ call per field: fill the dict directly.
    def __init__(self, msg_id: int, source: int, dest: int, payload: bytes, qos: QoS = QoS.BULK):
        fields = self.__dict__
        fields["msg_id"] = msg_id
        fields["source"] = source
        fields["dest"] = dest
        fields["payload"] = payload
        fields["qos"] = qos


def encode(env: MessageEnvelope) -> bytes:
    """The frame of env: int fields plain ints that fit, qos a QoS, the payload bytes (timed-loop form)."""
    if not (isinstance(env, MessageEnvelope) and type(env.qos) is QoS
            and type(env.msg_id) is int and 0 <= env.msg_id <= _U64
            and type(env.source) is int and 0 <= env.source <= _U32
            and type(env.dest) is int and 0 <= env.dest <= _U32):
        check_type(env, MessageEnvelope, "envelope")
        check_type(env.qos, QoS, "qos")
        check_count(env.msg_id, "msg_id", 0, _U64)
        check_count(env.source, "source", 0, _U32)
        check_count(env.dest, "dest", 0, _U32)
    try:
        header = _HEADER.pack(MAGIC, env.qos, env.msg_id, env.source, env.dest, len(env.payload))
        return header + env.payload + _CRC.pack(zlib.crc32(env.payload))
    except (TypeError, struct.error):  # the one field left: the payload's type, or its length
        check_type(env.payload, (bytes, bytearray), "payload")
        raise InvalidArgument(f"payload_len {len(env.payload)} does not fit the frame field") from None


def decode(data: bytes) -> MessageEnvelope:
    """Parse a frame; structural faults are InvalidArgument, integrity
    faults ChecksumMismatch."""
    if not isinstance(data, (bytes, bytearray)):  # per message: the checker only on failure
        check_type(data, (bytes, bytearray), "frame")
    if len(data) < _HEADER.size + _CRC.size:
        raise InvalidArgument(f"frame truncated at {len(data)} bytes")
    magic, qos_raw, msg_id, source, dest, payload_len = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise InvalidArgument(f"bad magic {shown(magic)}")
    if qos_raw >= len(_QOS):  # an unsigned byte: no negative index
        raise InvalidArgument(f"unknown qos byte {qos_raw}")
    if len(data) != _HEADER.size + payload_len + _CRC.size:
        raise InvalidArgument(
            f"frame length {len(data)} does not match payload_len {payload_len}"
        )
    payload = data[_HEADER.size : _HEADER.size + payload_len]
    (crc,) = _CRC.unpack_from(data, _HEADER.size + payload_len)
    if crc != zlib.crc32(payload):
        raise ChecksumMismatch(f"payload CRC mismatch on msg {msg_id}")
    return MessageEnvelope(msg_id=msg_id, source=source, dest=dest, payload=payload, qos=_QOS[qos_raw])
