"""The server's lean codec and packer against the code they replaced.

``FrameDecoder.feed``, ``decode_query``, ``encode_reply`` and
``PackedSpace.pack_checked`` were rewritten for the serving hot path.
The plain versions they replaced are kept here as the reference: fed the
same input, both must return equal results or raise the same exception
type with the same message.
"""

from __future__ import annotations

import enum
import struct
from typing import Iterator, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packed import PackedSpace
from repro.core.routing import route
from repro.core.word import validate_word
from repro.exceptions import ProtocolError
from repro.network.message import decode_word, encode_path
from repro.service.protocol import (
    FLAG_DIRECTED,
    FLAG_WANT_PATH,
    MAX_FRAME_BYTES,
    Frame,
    FrameDecoder,
    FrameType,
    RouteQuery,
    decode_query,
    encode_frame,
    encode_reply,
)

_LENGTH = struct.Struct("!I")
_HEAD = struct.Struct("!BI")


# ----------------------------------------------------------------------
# The replaced code
# ----------------------------------------------------------------------


class ReferenceFrameDecoder:
    """The generator decoder: one ``FrameType(...)`` call per frame."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Frame]:
        self._buffer.extend(data)
        return list(self._drain())

    def _drain(self) -> Iterator[Frame]:
        buffer = self._buffer
        offset = 0
        try:
            while len(buffer) - offset >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(buffer, offset)
                if length < _HEAD.size or length > MAX_FRAME_BYTES:
                    raise ProtocolError(f"frame length {length} out of range")
                if len(buffer) - offset - _LENGTH.size < length:
                    break
                head_at = offset + _LENGTH.size
                type_byte, request_id = _HEAD.unpack_from(buffer, head_at)
                try:
                    frame_type = FrameType(type_byte)
                except ValueError as exc:
                    raise ProtocolError(f"unknown frame type {type_byte}") from exc
                body = bytes(buffer[head_at + _HEAD.size : head_at + length])
                offset += _LENGTH.size + length
                yield Frame(frame_type, request_id, body)
        finally:
            del buffer[:offset]

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


def reference_decode_query(frame: Frame) -> RouteQuery:
    """``decode_query`` with its ``any()`` digit check."""
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
    for word in (source, destination):
        if any(digit >= d for digit in word):
            raise ProtocolError(f"word {word!r} has digits outside 0..{d - 1}")
    return RouteQuery(
        request_id=frame.request_id,
        d=d,
        source=source,
        destination=destination,
        directed=bool(flags & FLAG_DIRECTED),
        want_path=bool(flags & FLAG_WANT_PATH),
    )


def reference_encode_reply(request_id, distance, path) -> bytes:
    """``encode_reply`` built through the generic frame envelope."""
    if not 0 <= distance <= 0xFF:
        raise ProtocolError(f"distance {distance} does not fit one byte")
    steps = encode_path(path) if path else b""
    if len(steps) // 2 > 0xFF:
        raise ProtocolError(f"path of {len(steps) // 2} steps does not fit")
    body = bytes([distance, len(steps) // 2]) + steps
    return encode_frame(FrameType.REPLY, request_id, body)


def reference_pack_checked(space: PackedSpace, word) -> int:
    """``validate_word`` then ``pack``: two passes over the digits."""
    validate_word(word, space.d, space.k)
    return space.pack(word)


def outcome(fn, *args):
    """``("ok", result)`` or ``("raised", exception type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return ("raised", type(exc), str(exc))


# ----------------------------------------------------------------------
# Frame streams
# ----------------------------------------------------------------------


def _query_bodies():
    """Query bodies: well formed, digits >= d, or a broken header."""
    def well_sized(d, k):
        word = st.lists(st.integers(0, d + 1), min_size=k, max_size=k)
        return st.tuples(st.integers(0, 3), word, word).map(
            lambda parts: bytes([parts[0], d, k]) + bytes(parts[1])
            + bytes(parts[2]))

    sized = st.integers(2, 4).flatmap(
        lambda d: st.integers(1, 4).flatmap(lambda k: well_sized(d, k)))
    return st.one_of(sized, st.binary(max_size=12))


_REQUEST_ID = st.integers(0, 0xFFFFFFFF)

#: Well-formed envelopes of every frame type, the query bodies included.
_VALID_FRAME = st.one_of(
    st.builds(lambda rid, body: encode_frame(FrameType.QUERY, rid, body),
              _REQUEST_ID, _query_bodies()),
    st.builds(encode_frame, st.sampled_from(list(FrameType)), _REQUEST_ID,
              st.binary(max_size=8)),
)

#: A type byte past the last :class:`FrameType`.
_UNKNOWN_TYPE = st.builds(
    lambda type_byte, rid, body: _LENGTH.pack(_HEAD.size + len(body))
    + _HEAD.pack(type_byte, rid) + body,
    st.integers(len(FrameType), 0xFF), _REQUEST_ID, st.binary(max_size=4))

#: A length prefix below the 5-byte head or above ``MAX_FRAME_BYTES``.
_BAD_LENGTH = st.builds(
    lambda length, tail: _LENGTH.pack(length) + tail,
    st.one_of(st.integers(0, _HEAD.size - 1),
              st.integers(MAX_FRAME_BYTES + 1, 0xFFFFFFFF)),
    st.binary(max_size=6))


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_feed_and_decode_query_equal_the_reference(data):
    """Random segmentation of a mixed stream: same frames, same errors."""
    pieces = data.draw(st.lists(
        st.one_of(_VALID_FRAME, _VALID_FRAME, _VALID_FRAME, _UNKNOWN_TYPE,
                  _BAD_LENGTH),
        min_size=1, max_size=8))
    stream = b"".join(pieces)
    cuts = sorted(data.draw(st.sets(st.integers(0, len(stream)),
                                    max_size=8)))
    lean, reference = FrameDecoder(), ReferenceFrameDecoder()
    previous = 0
    for cut in cuts + [len(stream)]:
        chunk = stream[previous:cut]
        previous = cut
        got = outcome(lean.feed, chunk)
        want = outcome(reference.feed, chunk)
        assert got == want
        assert lean.pending_bytes == reference.pending_bytes
        if got[0] != "ok":
            continue
        for frame in got[1]:
            assert type(frame.frame_type) is FrameType
            if frame.frame_type == FrameType.QUERY:
                assert (outcome(decode_query, frame)
                        == outcome(reference_decode_query, frame))


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------


class _Digit(enum.IntEnum):
    """An int subclass: ``validate_word`` accepts it, so must the packer."""

    ZERO = 0
    ONE = 1


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_pack_checked_equals_validate_then_pack(data):
    d = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(1, 6))
    space = PackedSpace(d, k)
    digit = st.one_of(
        st.integers(0, d - 1),
        st.integers(0, d - 1),
        st.integers(-3, d + 2),
        st.booleans(),
        st.floats(-2.0, d + 1.0),
        st.sampled_from(list(_Digit)),
    )
    digits = data.draw(st.lists(digit, min_size=max(0, k - 1),
                                max_size=k + 1))
    for word in (tuple(digits), list(digits)):
        got = outcome(space.pack_checked, word)
        assert got == outcome(reference_pack_checked, space, word)
        if got[0] == "ok":
            assert type(got[1]) is int


# ----------------------------------------------------------------------
# Distance-only replies
# ----------------------------------------------------------------------


def test_distance_only_reply_is_the_envelope_at_the_edges():
    for request_id in (0, 0xFFFFFFFF):
        for distance in (0, 0xFF):
            envelope = encode_frame(FrameType.REPLY, request_id,
                                    bytes([distance, 0]))
            assert encode_reply(request_id, distance, None) == envelope
            assert encode_reply(request_id, distance, []) == envelope
    for request_id, distance in ((-1, 0), (1 << 32, 0), (0, -1), (0, 256)):
        got = outcome(encode_reply, request_id, distance, None)
        assert got[1] is ProtocolError
        assert got == outcome(reference_encode_reply, request_id, distance,
                              None)


@given(st.integers(-2, (1 << 32) + 1), st.integers(-2, 257),
       st.sampled_from([None, [], route((0, 0, 1), (1, 1, 0), 2)]))
@settings(max_examples=300, deadline=None)
def test_encode_reply_equals_the_reference(request_id, distance, path):
    assert (outcome(encode_reply, request_id, distance, path)
            == outcome(reference_encode_reply, request_id, distance, path))
