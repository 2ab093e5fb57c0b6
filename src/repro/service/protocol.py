"""Length-prefixed binary wire protocol for the route-query service.

Every frame on the wire is::

    +----------------+------+-------------+------------------+
    | length (4, BE) | type | request id  | body             |
    +----------------+------+-------------+------------------+
                       1 B     4 B (BE)     length - 5 bytes

``length`` counts everything after itself, so a reader needs exactly one
fixed-size read to know how much to buffer — the classic micro-batching-
friendly framing.  Frame types:

``QUERY``
    ``flags(1) d(1) k(1) source(k) destination(k)`` — flags bit 0 selects
    the directed network, bit 1 asks for the routing path (not just the
    distance).  Words use the one-byte-per-digit encoding of
    :func:`repro.network.message.encode_word`.
``REPLY``
    ``distance(1) n_steps(1) path(2*n_steps)`` — the path field is the
    paper's ``(a_i, b_i)`` pair encoding from
    :func:`repro.network.message.encode_path`, wildcards as
    :data:`~repro.network.message.WILDCARD_BYTE`.
``ERROR``
    ``code(1) message(utf-8)`` — see :class:`ErrorCode`; ``OVERLOADED``
    is the server's explicit backpressure signal.
``STATS`` / ``STATS_REPLY``
    empty request; the reply body is the UTF-8 JSON metrics snapshot of
    :meth:`repro.service.metrics.MetricsRegistry.snapshot`.

The codec is pure and synchronous; :class:`FrameDecoder` is the
incremental parser both the asyncio server and client feed socket chunks
through.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.routing import Path
from repro.core.word import WordTuple
from repro.exceptions import ProtocolError, WirePathError
from repro.network.message import (
    decode_path,
    decode_word,
    encode_path,
    encode_word,
)

#: Frame length prefix (big-endian, counts type + request id + body).
_LENGTH = struct.Struct("!I")

#: Frame type byte plus request-id word.
_HEAD = struct.Struct("!BI")

#: A whole distance-only ``REPLY`` frame: length, type, request id,
#: distance, and a zero step count.
_DISTANCE_REPLY = struct.Struct("!IBIBB")

#: Hard ceiling on one frame's payload; anything larger is a protocol
#: violation, not a big request (a DG(255, 255) query is still < 1 KiB).
MAX_FRAME_BYTES = 1 << 20


class FrameType(enum.IntEnum):
    """The one-byte frame discriminator."""

    QUERY = 0  #: route/distance request
    REPLY = 1  #: successful answer
    ERROR = 2  #: per-request failure (see :class:`ErrorCode`)
    STATS = 3  #: metrics-snapshot request
    STATS_REPLY = 4  #: metrics snapshot as UTF-8 JSON


class ErrorCode(enum.IntEnum):
    """Why a query got an ``ERROR`` frame instead of a ``REPLY``."""

    MALFORMED = 0  #: the query body failed to decode
    OVERLOADED = 1  #: admission queue full — explicit backpressure
    TIMEOUT = 2  #: the request aged out before the engine reached it
    UNSUPPORTED = 3  #: wrong (d, k) for this server, or unknown frame
    INTERNAL = 4  #: the engine raised; message carries the repr
    SHUTTING_DOWN = 5  #: server is draining and no longer answers


#: Every :class:`FrameType`, indexed by its type byte.
_FRAME_TYPES = tuple(FrameType(value) for value in range(len(FrameType)))


#: ``flags`` bit 0: route on the uni-directional network.
FLAG_DIRECTED = 0x01
#: ``flags`` bit 1: include the routing path in the reply.
FLAG_WANT_PATH = 0x02


@dataclass(frozen=True)
class RouteQuery:
    """One decoded ``QUERY`` frame."""

    request_id: int
    d: int
    source: WordTuple
    destination: WordTuple
    directed: bool = False
    want_path: bool = True

    @property
    def k(self) -> int:
        return len(self.source)


@dataclass(frozen=True)
class Frame:
    """One decoded frame: type, correlation id, raw body."""

    frame_type: FrameType
    request_id: int
    body: bytes


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def encode_frame(frame_type: FrameType, request_id: int, body: bytes = b"") -> bytes:
    """Wrap ``body`` in the length-prefixed frame envelope."""
    if not 0 <= request_id <= 0xFFFFFFFF:
        raise ProtocolError(f"request id {request_id} does not fit 32 bits")
    if len(body) + _HEAD.size > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame body of {len(body)} bytes exceeds the cap")
    return (
        _LENGTH.pack(_HEAD.size + len(body))
        + _HEAD.pack(int(frame_type), request_id)
        + body
    )


def encode_query(
    request_id: int,
    d: int,
    source: WordTuple,
    destination: WordTuple,
    directed: bool = False,
    want_path: bool = True,
) -> bytes:
    """A complete ``QUERY`` frame for one (source, destination) pair."""
    k = len(source)
    if len(destination) != k:
        raise ProtocolError(
            f"source has {k} digits but destination has {len(destination)}"
        )
    if not 0 < k <= 0xFF or not 1 < d <= 0xFF:
        raise ProtocolError(f"(d, k) = ({d}, {k}) does not fit the wire format")
    flags = (FLAG_DIRECTED if directed else 0) | (FLAG_WANT_PATH if want_path else 0)
    body = bytes([flags, d, k]) + encode_word(source) + encode_word(destination)
    return encode_frame(FrameType.QUERY, request_id, body)


def decode_query(frame: Frame) -> RouteQuery:
    """Parse a ``QUERY`` frame's body (raises :class:`ProtocolError`)."""
    body = frame.body
    if len(body) < 3:
        raise ProtocolError("query body too short for its header")
    flags, d, k = body[0], body[1], body[2]
    if d < 2 or k < 1:
        raise ProtocolError(f"query carries invalid parameters (d={d}, k={k})")
    if len(body) != 3 + 2 * k:
        raise ProtocolError(
            f"query body is {len(body)} bytes, expected {3 + 2 * k} for k={k}"
        )
    source = decode_word(body[3 : 3 + k])
    destination = decode_word(body[3 + k : 3 + 2 * k])
    if max(source) >= d:
        raise ProtocolError(f"word {source!r} has digits outside 0..{d - 1}")
    if max(destination) >= d:
        raise ProtocolError(
            f"word {destination!r} has digits outside 0..{d - 1}"
        )
    return RouteQuery(
        frame.request_id,
        d,
        source,
        destination,
        bool(flags & FLAG_DIRECTED),
        bool(flags & FLAG_WANT_PATH),
    )


def encode_reply(request_id: int, distance: int, path: Optional[Path]) -> bytes:
    """A ``REPLY`` frame; ``path=None`` answers a distance-only query."""
    if not path and 0 <= distance <= 0xFF and 0 <= request_id <= 0xFFFFFFFF:
        return _DISTANCE_REPLY.pack(
            _HEAD.size + 2, FrameType.REPLY, request_id, distance, 0
        )
    if not 0 <= distance <= 0xFF:
        raise ProtocolError(f"distance {distance} does not fit one byte")
    steps = encode_path(path) if path else b""
    if len(steps) // 2 > 0xFF:
        raise ProtocolError(f"path of {len(steps) // 2} steps does not fit")
    body = bytes([distance, len(steps) // 2]) + steps
    return encode_frame(FrameType.REPLY, request_id, body)


def decode_reply(frame: Frame) -> Tuple[int, Path]:
    """Parse a ``REPLY`` body into ``(distance, path)``."""
    body = frame.body
    if len(body) < 2:
        raise ProtocolError("reply body too short for its header")
    distance, n_steps = body[0], body[1]
    if len(body) != 2 + 2 * n_steps:
        raise ProtocolError(
            f"reply body is {len(body)} bytes, expected {2 + 2 * n_steps}"
        )
    try:
        return distance, decode_path(body[2:])
    except WirePathError as exc:
        # Corrupt step bytes are a wire-protocol violation, not a
        # routing error: keep the decode contract to one exception type.
        raise ProtocolError(f"reply carries a malformed path: {exc}") from exc


def encode_error(request_id: int, code: ErrorCode, message: str = "") -> bytes:
    """An ``ERROR`` frame carrying ``code`` and a short UTF-8 message."""
    return encode_frame(
        FrameType.ERROR, request_id, bytes([int(code)]) + message.encode("utf-8")
    )


def decode_error(frame: Frame) -> Tuple[ErrorCode, str]:
    """Parse an ``ERROR`` body into ``(code, message)``."""
    if not frame.body:
        raise ProtocolError("error body is empty")
    try:
        code = ErrorCode(frame.body[0])
    except ValueError as exc:
        raise ProtocolError(f"unknown error code {frame.body[0]}") from exc
    return code, frame.body[1:].decode("utf-8", errors="replace")


def encode_stats_request(request_id: int) -> bytes:
    """An empty ``STATS`` request frame."""
    return encode_frame(FrameType.STATS, request_id)


def encode_stats_reply(request_id: int, snapshot: Dict[str, object]) -> bytes:
    """A ``STATS_REPLY`` frame carrying the snapshot as UTF-8 JSON."""
    return encode_frame(
        FrameType.STATS_REPLY,
        request_id,
        json.dumps(snapshot, sort_keys=True).encode("utf-8"),
    )


def decode_stats_reply(frame: Frame) -> Dict[str, object]:
    """Parse a ``STATS_REPLY`` body back into the snapshot dict."""
    try:
        snapshot = json.loads(frame.body.decode("utf-8"))
    except ValueError as exc:
        raise ProtocolError("stats reply is not valid JSON") from exc
    if not isinstance(snapshot, dict):
        raise ProtocolError("stats reply is not a JSON object")
    return snapshot


# ----------------------------------------------------------------------
# Incremental decoding
# ----------------------------------------------------------------------


class FrameDecoder:
    """Incremental frame parser: feed socket chunks, iterate frames.

    Keeps at most one partial frame of state, so a pipelined burst that
    arrives as arbitrary TCP segment boundaries decodes identically to
    one frame per segment (property-tested).

    >>> decoder = FrameDecoder()
    >>> blob = encode_stats_request(7)
    >>> [f.request_id for f in decoder.feed(blob[:3])]
    []
    >>> [f.request_id for f in decoder.feed(blob[3:])]
    [7]
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Frame]:
        """Append ``data`` and return every frame it completed."""
        buffer = self._buffer
        buffer.extend(data)
        end = len(buffer)
        frames: List[Frame] = []
        offset = 0
        try:
            while end - offset >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(buffer, offset)
                if length < _HEAD.size or length > MAX_FRAME_BYTES:
                    raise ProtocolError(f"frame length {length} out of range")
                head_at = offset + _LENGTH.size
                stop = head_at + length
                if stop > end:
                    break
                type_byte, request_id = _HEAD.unpack_from(buffer, head_at)
                if type_byte >= len(_FRAME_TYPES):
                    raise ProtocolError(f"unknown frame type {type_byte}")
                frames.append(
                    Frame(
                        _FRAME_TYPES[type_byte],
                        request_id,
                        bytes(buffer[head_at + _HEAD.size : stop]),
                    )
                )
                offset = stop
        finally:
            del buffer[:offset]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buffer)
