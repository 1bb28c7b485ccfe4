"""Versioned binary envelope for exchanging sketches between two peers.

The layout is normative and bit-exact (README "Wire format"): a 27-byte
little-endian header (magic "SKSM", version 1, kind code, width, depth,
hash count, seed, counter width code), then the depth x width `table`
row-major, as uint32 LE counters or, for a BF, bits packed LSB-first.
A header decodes to a `sketches.SketchParams`, whose constructor is the
one check of the shape fields, and its counter width code must be the
kind's. A BF's padding bits must be zero, so each sketch has exactly one
envelope. Saturation is not a wire field: both ends derive it from the cells.
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
