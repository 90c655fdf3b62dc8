"""Length-prefixed, checksummed message framing over stream sockets.

The multiprocess backend moves two kinds of traffic over unix-domain
stream sockets: control commands between the driver and each rank
worker, and data/mark frames between peer workers.  Both use the same
frame format::

    MAGIC (2 bytes) | length (u32 le) | crc32 (u32 le) | payload

The payload is a pickled Python object (supersteps ship NumPy arrays
and the resilient protocol's packet dataclasses; pickle round-trips
both exactly).  The CRC is not a security boundary -- everything stays
on one machine under one user -- it catches truncated or interleaved
writes during teardown races, turning them into a clean
:class:`FrameError` instead of an unpickling crash deep inside a
barrier.

Every read is bounded by a :class:`~repro.machine.mp.timeouts.Deadline`;
a peer that dies mid-frame surfaces as :class:`FrameTimeout` (or
:class:`FrameClosed` on a clean EOF), never as a hang.
"""

from __future__ import annotations

import pickle
import socket
import struct
import zlib
from typing import Any

from .timeouts import Backoff, Deadline

__all__ = [
    "FrameClosed",
    "FrameError",
    "FrameTimeout",
    "HEADER_SIZE",
    "connect_framed",
    "pack_frame",
    "parse_header",
    "recv_frame",
    "send_frame",
    "verify_payload",
]

MAGIC = b"\xabM"
_HEADER = struct.Struct("<2sII")
#: Size of the fixed frame header (magic + length + crc32).
HEADER_SIZE = _HEADER.size
#: Refuse frames above this size -- a corrupted length prefix must not
#: make a reader try to allocate gigabytes.
MAX_FRAME = 1 << 30


class FrameError(RuntimeError):
    """Malformed frame: bad magic, oversized length, or CRC mismatch."""


class FrameClosed(FrameError):
    """The peer closed the connection cleanly (EOF between frames)."""


class FrameTimeout(FrameError):
    """The deadline expired before a complete frame arrived."""


# ---------------------------------------------------------------------------
# Byte-level primitives (transport-agnostic)
# ---------------------------------------------------------------------------
#
# Header packing, parsing, and CRC verification are pure byte functions;
# the blocking socket helpers below are thin shells over them.


def pack_frame(payload: bytes) -> bytes:
    """Wrap an already-encoded payload in one complete frame."""
    if len(payload) > MAX_FRAME:
        raise FrameError(f"payload length {len(payload)} exceeds cap {MAX_FRAME}")
    return _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload


def parse_header(header: bytes) -> tuple[int, int]:
    """Validate a frame header and return ``(payload_length, crc32)``."""
    magic, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME:
        raise FrameError(f"frame length {length} exceeds cap {MAX_FRAME}")
    return length, crc


def verify_payload(payload: bytes, crc: int) -> bytes:
    """Check the payload against its header CRC; returns the payload."""
    if zlib.crc32(payload) != crc:
        raise FrameError(f"frame CRC mismatch on {len(payload)}-byte payload")
    return payload


def send_frame(sock: socket.socket, obj: Any) -> int:
    """Pickle ``obj`` and write it as one frame; returns bytes written.

    ``sendall`` either completes or raises (``BrokenPipeError`` when the
    peer died); partial writes never leak onto the wire unnoticed.
    """
    frame = pack_frame(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    sock.sendall(frame)
    return len(frame)


def _recv_exact(sock: socket.socket, n: int, deadline: Deadline, what: str) -> bytes:
    """Read exactly ``n`` bytes before the deadline or raise."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        if deadline.expired():
            raise FrameTimeout(f"timed out reading {what} ({got}/{n} bytes)")
        sock.settimeout(max(deadline.remaining(), 1e-4))
        try:
            chunk = sock.recv(n - got)
        except socket.timeout:
            raise FrameTimeout(f"timed out reading {what} ({got}/{n} bytes)") from None
        if not chunk:
            if got:
                raise FrameError(f"peer closed mid-{what} ({got}/{n} bytes)")
            raise FrameClosed(f"peer closed before {what}")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, deadline: Deadline) -> Any:
    """Read one complete frame and return the unpickled object."""
    header = _recv_exact(sock, HEADER_SIZE, deadline, "frame header")
    length, crc = parse_header(header)
    payload = _recv_exact(sock, length, deadline, "frame payload")
    return pickle.loads(verify_payload(payload, crc))


def connect_framed(path: str, deadline: Deadline) -> socket.socket:
    """Connect to a unix-domain listener with bounded retry-backoff.

    A listener that is momentarily absent (the peer is mid-restart and
    has not bound its new incarnation's socket yet) is retried on a
    deterministic :class:`~repro.machine.mp.timeouts.Backoff` schedule
    until the deadline; a peer that never appears surfaces as
    :class:`FrameTimeout` naming the path.
    """
    backoff = Backoff()
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(max(deadline.remaining(), 1e-4))
            sock.connect(path)
            sock.settimeout(None)
            return sock
        except (FileNotFoundError, ConnectionRefusedError, socket.timeout, OSError):
            sock.close()
            if deadline.expired():
                raise FrameTimeout(f"could not connect to {path!r}") from None
            backoff.sleep(deadline)
