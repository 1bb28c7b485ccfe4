"""Versioned binary envelope for exchanging sketches between two peers.

One envelope per message is all a similarity exchange needs. The layout
is normative and bit-exact (all integers little-endian):

    offset  size  field
    0       4     magic "SKSM"
    4       1     version (1)
    5       1     kind: 0 = BF, 1 = CBF, 2 = CMS
    6       4     width w / length n (uint32)
    10      4     depth d (uint32; 1 for BF and CBF)
    14      4     hash count k (uint32; 1 for CMS)
    18      8     hash seed (uint64)
    26      1     counter width code: 0 = 1-bit packed (BF), 2 = 32-bit LE (CBF, CMS)
    27      -     payload: d * w counters, row-major

A header decodes to the sketch's shape, a `sketches.SketchParams`: its
constructor is the one check of the shape fields, and the counter width
code must be the one of the kind.

BF payloads pack each row of bits LSB-first into ceil(n/8) bytes (bit i
lives in byte i//8 at bit i%8). Counter payloads are uint32 LE. Every
sketch, BF included, encodes from and decodes to its depth x width
`table`, which `sketches._from_state` sets whatever the kind. The
recommended one-hash CBF of length 128 therefore travels in exactly
27 + 128*4 = 539 bytes.

A BF's padding bits past n must be zero, so each sketch has one envelope.
A valid header's shape is memoised (a malformed one raises on every call).

The saturation flag is a derived convenience, not a wire field: every
sketch, built or decoded, reads saturation as any cell at the max.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from .metrics import witness_of
from .sketches import Sketch, SketchParams, _from_state

MAGIC = b"SKSM"
VERSION = 1
_HEADER = struct.Struct("<4sBBIIIQB")
HEADER_SIZE = _HEADER.size  # 27
_HEADER_MEMO = 256  # distinct validated headers kept by decode_header

_KIND_CODES = {"bf": 0, "cbf": 1, "cms": 2}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}
_COUNTER_CODES = {"bf": 0, "cbf": 2, "cms": 2}  # kind -> counter width code


class WireFormatError(ValueError):
    """Base for all envelope decoding failures."""


class BadMagicError(WireFormatError):
    pass


class UnsupportedVersionError(WireFormatError):
    pass


class TruncatedPayloadError(WireFormatError):
    pass


class HeaderConsistencyError(WireFormatError):
    pass


def encode(sketch: Sketch) -> bytes:
    """Serialize a sketch; equal sketches always yield equal bytes."""
    params = witness_of(sketch)
    header = _HEADER.pack(MAGIC, VERSION, _KIND_CODES[params.kind], params.width, params.depth,
                          params.hash_count, params.seed, _COUNTER_CODES[params.kind])
    if params.kind == "bf":
        payload = np.packbits(sketch.table, axis=1, bitorder="little").tobytes()
    else:
        payload = sketch.table.astype("<u4").tobytes()
    return header + payload


def decode_header(data: bytes) -> SketchParams:
    """Parse and validate the 27-byte header into the sketch's shape."""
    if len(data) < 4:
        raise TruncatedPayloadError(f"expected at least 4 bytes of header, got {len(data)}")
    if data[:4] != MAGIC:
        raise BadMagicError(f"bad magic {bytes(data[:4])!r}, expected {MAGIC!r}")
    if len(data) < HEADER_SIZE:
        raise TruncatedPayloadError(f"expected {HEADER_SIZE}-byte header, got {len(data)}")
    return _header_shape(bytes(data[:HEADER_SIZE]))


@functools.lru_cache(maxsize=_HEADER_MEMO)  # an exception raised is never cached
def _header_shape(header: bytes) -> SketchParams:
    _, version, kind_code, width, depth, hash_count, seed, counter_code = _HEADER.unpack(header)
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported envelope version {version}")
    kind = _KIND_NAMES.get(kind_code)
    if kind is None:
        raise HeaderConsistencyError(f"unknown sketch kind code {kind_code}")
    if counter_code != _COUNTER_CODES[kind]:
        raise HeaderConsistencyError(f"{kind} envelopes use counter width code {_COUNTER_CODES[kind]}, got {counter_code}")
    try:
        return SketchParams(kind, width, depth, hash_count, seed)
    except ValueError as exc:
        raise HeaderConsistencyError(str(exc)) from exc


def decode(data: bytes) -> Sketch:
    """Parse an envelope (any bytes-like object) into a sketch that owns a copy of its cells."""
    params = decode_header(data)
    packed = params.kind == "bf"
    expected = (params.width + 7) // 8 if packed else params.depth * params.width * 4
    if len(data) - HEADER_SIZE != expected:
        raise TruncatedPayloadError(f"expected {expected} payload bytes, got {len(data) - HEADER_SIZE}")
    if packed:
        unpacked = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=HEADER_SIZE), bitorder="little")
        if unpacked[params.width :].any():
            raise WireFormatError(f"padding bits past the {params.width} bits of the BF must be zero")
        return _from_state(params, unpacked[None, : params.width].astype(bool))
    table = np.frombuffer(data, dtype="<u4", offset=HEADER_SIZE).astype(np.uint32)  # copies: never share the caller's buffer
    return _from_state(params, table.reshape(params.depth, params.width))


__all__ = [
    "BadMagicError",
    "HeaderConsistencyError",
    "TruncatedPayloadError",
    "UnsupportedVersionError",
    "WireFormatError",
    "HEADER_SIZE",
    "MAGIC",
    "VERSION",
    "decode",
    "decode_header",
    "encode",
]
