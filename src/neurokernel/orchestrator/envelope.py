"""Binary wire format for inter-node messages.

Frame layout, all little-endian:

    magic "NKE1" | version u16 | qos u8 | msg_id u64 |
    source u32 | dest u32 | payload_len u32 | payload | crc32(payload) u32

The transport behind it is an in-process channel, but the frame is
transport-independent: a socket transport could carry the same bytes.
Compression and encryption are not part of v1; the version field reserves
room for them.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum

from ..errors import ChecksumMismatch, InvalidArgument

MAGIC = b"NKE1"
CURRENT_VERSION = 1

_HEADER = struct.Struct("<4sHBQIII")
_CRC = struct.Struct("<I")

_U16 = 0xFFFF
_U32 = 0xFFFF_FFFF
_U64 = 0xFFFF_FFFF_FFFF_FFFF
MAX_ADDRESS = _U32  # the largest source or dest a frame carries


class QoS(IntEnum):
    REALTIME = 0
    BULK = 1


@dataclass(frozen=True)
class MessageEnvelope:
    msg_id: int
    source: int
    dest: int
    payload: bytes
    qos: QoS = QoS.BULK
    version: int = CURRENT_VERSION


def _check_range(name: str, value: int, limit: int) -> None:
    if not 0 <= value <= limit:
        raise InvalidArgument(f"{name}={value} does not fit the frame field")


def encode(env: MessageEnvelope) -> bytes:
    if not isinstance(env, MessageEnvelope):
        raise InvalidArgument(f"not a message envelope: {env!r}")
    try:  # a field of the wrong type fails a comparison, len() or pack()
        if not 1 <= env.version <= CURRENT_VERSION:
            raise InvalidArgument(
                f"cannot encode version {env.version}; current version is {CURRENT_VERSION}"
            )
        try:
            qos = QoS(env.qos)
        except ValueError:
            raise InvalidArgument(f"unknown qos {env.qos!r}") from None
        _check_range("msg_id", env.msg_id, _U64)
        _check_range("source", env.source, _U32)
        _check_range("dest", env.dest, _U32)
        _check_range("payload_len", len(env.payload), _U32)
        header = _HEADER.pack(
            MAGIC, env.version, qos, env.msg_id, env.source, env.dest, len(env.payload)
        )
        return header + env.payload + _CRC.pack(zlib.crc32(env.payload))
    except (TypeError, struct.error) as exc:
        raise InvalidArgument(f"envelope field of the wrong type: {exc}") from None


def decode(data: bytes) -> MessageEnvelope:
    """Parse a frame; structural faults are InvalidArgument, integrity
    faults ChecksumMismatch."""
    if not isinstance(data, (bytes, bytearray)):
        raise InvalidArgument(f"a frame is bytes, got {data!r}")
    if len(data) < _HEADER.size + _CRC.size:
        raise InvalidArgument(f"frame truncated at {len(data)} bytes")
    magic, version, qos_raw, msg_id, source, dest, payload_len = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise InvalidArgument(f"bad magic {magic!r}")
    if not 1 <= version <= CURRENT_VERSION:
        raise InvalidArgument(
            f"version {version} not accepted (current is {CURRENT_VERSION})"
        )
    try:
        qos = QoS(qos_raw)
    except ValueError:
        raise InvalidArgument(f"unknown qos byte {qos_raw}") from None
    if len(data) != _HEADER.size + payload_len + _CRC.size:
        raise InvalidArgument(
            f"frame length {len(data)} does not match payload_len {payload_len}"
        )
    payload = data[_HEADER.size : _HEADER.size + payload_len]
    (crc,) = _CRC.unpack_from(data, _HEADER.size + payload_len)
    if crc != zlib.crc32(payload):
        raise ChecksumMismatch(f"payload CRC mismatch on msg {msg_id}")
    return MessageEnvelope(
        msg_id=msg_id, source=source, dest=dest, payload=payload, qos=qos, version=version
    )
