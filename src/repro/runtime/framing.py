"""Length-prefixed message framing over a stream socket.

The runtime's processes speak a minimal binary protocol: every message is

    u32 length (little endian, length of type byte + payload)
    u8  type   (:mod:`repro.runtime.protocol` constants)
    payload    (length - 1 bytes)

TCP gives the byte stream; this module gives message boundaries, EOF
detection, and the tiny pack/unpack helpers for payloads that are
themselves lists of frames.  It deliberately knows nothing about message
*semantics* — that lives in :mod:`repro.runtime.protocol` — so the framing
layer can be property-tested in isolation.
"""

from __future__ import annotations

import socket
import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Message header: payload length including the type byte.
LENGTH_HEADER = struct.Struct("<I")

#: A frame list's leading frame count.
_COUNT = struct.Struct("<I")

#: Upper bound on one message (64 MiB) — a framing-error tripwire, not a
#: capacity plan; a corrupt length prefix otherwise asks recv for gigabytes.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: Default socket timeout (seconds).  Generous because one UPDATE batch
#: can carry tens of thousands of rebuilds; liveness probes override it.
DEFAULT_TIMEOUT = 180.0


class FramingError(ConnectionError):
    """The peer closed mid-message or sent an impossible length."""


def pack_message(msg_type: int, payload: bytes = b"") -> bytes:
    """One wire message: length header + type byte + payload."""
    if not 0 <= msg_type <= 0xFF:
        raise ValueError("message type must fit a byte")
    body_len = 1 + len(payload)
    if body_len > MAX_MESSAGE_BYTES:
        raise ValueError("message exceeds MAX_MESSAGE_BYTES")
    return LENGTH_HEADER.pack(body_len) + bytes([msg_type]) + payload


def pack_frame_list(frames: Sequence[bytes]) -> bytes:
    """``u32 n | n x u32 len | frames end to end`` — a batch of raw
    packet frames: a length table, then one blob."""
    lengths = np.fromiter(map(len, frames), dtype="<u4", count=len(frames))
    return b"".join([_COUNT.pack(len(frames)), lengths.tobytes(), *frames])


def frame_columns(payload: bytes) -> Tuple[bytes, np.ndarray]:
    """Inverse of :func:`pack_frame_list` as columns, with no ``bytes``
    object per frame: ``(blob, offsets)``, frame ``i`` being
    ``blob[offsets[i]:offsets[i + 1]]``.

    Raises:
        FramingError: the payload is cut short anywhere, or carries bytes
            after the last frame.
    """
    if len(payload) < _COUNT.size:
        raise FramingError("frame list truncated in count")
    (count,) = _COUNT.unpack_from(payload, 0)
    start = _COUNT.size + 4 * count
    if start > len(payload):
        raise FramingError("frame list truncated in length table")
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(
        np.frombuffer(payload, dtype="<u4", count=count, offset=_COUNT.size),
        dtype=np.int64, out=offsets[1:],
    )
    body = len(payload) - start
    if offsets[-1] > body:
        raise FramingError("frame list truncated in frame body")
    if offsets[-1] < body:
        raise FramingError("frame list has trailing bytes")
    return payload[start:], offsets


class FramedSocket:
    """A connected stream socket that sends and receives whole messages."""

    def __init__(self, sock: socket.socket,
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        self.sock = sock
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (tests may wrap a socketpair)
        sock.settimeout(timeout)

    @classmethod
    def connect(cls, host: str, port: int,
                timeout: float = DEFAULT_TIMEOUT) -> "FramedSocket":
        """Dial a listening runtime process."""
        sock = socket.create_connection((host, port), timeout=timeout)
        return cls(sock, timeout=timeout)

    def settimeout(self, timeout: Optional[float]) -> None:
        """Adjust the per-operation timeout (liveness probes shrink it)."""
        self.sock.settimeout(timeout)

    def send(self, msg_type: int, payload: bytes = b"") -> int:
        """Ship one message; returns the bytes written."""
        data = pack_message(msg_type, payload)
        self.sock.sendall(data)
        return len(data)

    def recv(self) -> Tuple[int, bytes]:
        """Read exactly one message; raises :class:`FramingError` on EOF."""
        header = self._recv_exact(LENGTH_HEADER.size)
        (body_len,) = LENGTH_HEADER.unpack(header)
        if not 1 <= body_len <= MAX_MESSAGE_BYTES:
            raise FramingError(f"impossible message length {body_len}")
        body = self._recv_exact(body_len)
        return body[0], body[1:]

    def request(self, msg_type: int, payload: bytes = b"") -> Tuple[int, bytes]:
        """Send one message and block for the single response."""
        self.send(msg_type, payload)
        return self.recv()

    def _recv_exact(self, count: int) -> bytes:
        chunks: List[bytes] = []
        remaining = count
        while remaining:
            chunk = self.sock.recv(min(remaining, 1 << 20))
            if not chunk:
                raise FramingError("connection closed mid-message")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        """Close the underlying socket (idempotent)."""
        try:
            self.sock.close()
        except OSError:
            pass
