"""Frame encoding for the socket backend.

Every frame is length-prefixed (u32 little-endian byte count) and its body
leads with a version byte.  Data frames carry one tagged block message with a
little-endian float64 payload:

    version u8 | type u8 (0=data) | src u32 | dst u32 | epoch u32 |
    name_len u32 | name bytes | zero pad | phase u32 | I u32 | J u32 |
    payload f64[]

The pad (0-7 bytes) puts the payload at a multiple of 8 bytes into the body,
so a payload read into a fresh buffer is an aligned array that BLAS reads
in place.

Control frames (type 1) carry a pickled command/result/abort object and are a
backend-internal extension; block data never travels through them.
"""

import pickle
import struct

import numpy as np

from .base import PHASES

WIRE_VERSION = 2
TYPE_DATA = 0
TYPE_CONTROL = 1

_HEAD = struct.Struct("<BBIII")   # version, type, src, dst, epoch
_U32 = struct.Struct("<I")
_TAG_TAIL = struct.Struct("<III")  # phase, I, J


def _pad(name_len):
    """Zero bytes after a data frame's name that align its payload."""
    return -(_HEAD.size + _U32.size + name_len + _TAG_TAIL.size) % 8


def encode_data(src, dst, epoch, tag, payload):
    """The whole frame, length prefix included, in one join: the payload's
    C-order bytes are copied once, straight from the array."""
    name, phase, I, J = tag
    name_b = name.encode("utf-8")
    buf = np.ascontiguousarray(payload, dtype="<f8")
    pad = bytes(_pad(len(name_b)))
    length = (_HEAD.size + _U32.size + len(name_b) + len(pad)
              + _TAG_TAIL.size + buf.nbytes)
    return b"".join([
        _U32.pack(length),
        _HEAD.pack(WIRE_VERSION, TYPE_DATA, src, dst, epoch),
        _U32.pack(len(name_b)), name_b, pad,
        _TAG_TAIL.pack(PHASES.index(phase), I, J),
        buf,
    ])


def encode_control(obj):
    body = _HEAD.pack(WIRE_VERSION, TYPE_CONTROL, 0, 0, 0) + pickle.dumps(obj)
    return _U32.pack(len(body)) + body


def decode_body(body):
    """Returns ("data", src, dst, epoch, tag, payload) or ("control", obj).

    A data payload is a 1-D view into `body`, not a copy; it is writable
    when `body` is (a `read_frame` body is), and aligned when `body` is.
    """
    version, ftype, src, dst, epoch = _HEAD.unpack_from(body, 0)
    if version != WIRE_VERSION:
        raise ValueError(f"unsupported wire version {version}")
    off = _HEAD.size
    if ftype == TYPE_CONTROL:
        return ("control", pickle.loads(memoryview(body)[off:]))
    (name_len,) = _U32.unpack_from(body, off)
    off += _U32.size
    name = body[off:off + name_len].decode("utf-8")
    off += name_len + _pad(name_len)
    phase_idx, I, J = _TAG_TAIL.unpack_from(body, off)
    off += _TAG_TAIL.size
    payload = np.frombuffer(body, dtype="<f8", offset=off)
    return ("data", src, dst, epoch, (name, PHASES[phase_idx], I, J), payload)


def read_frame(sock):
    """Read one frame body from a socket into a fresh bytearray; None on
    orderly EOF."""
    head = _read_exact(sock, 4)
    if head is None:
        return None
    (length,) = _U32.unpack(head)
    body = _read_exact(sock, length)
    if body is None:
        raise ConnectionError("truncated frame")
    return body


def _read_exact(sock, count):
    buf = bytearray(count)
    view = memoryview(buf)
    got = 0
    while got < count:
        read = sock.recv_into(view[got:])
        if not read:
            if got == 0:
                return None
            raise ConnectionError("connection closed mid-frame")
        got += read
    return buf
