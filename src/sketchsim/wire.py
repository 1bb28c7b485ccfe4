"""Versioned binary envelope for exchanging sketches between two peers.

The layout is normative and bit-exact (README "Wire format"): a 27-byte
little-endian header (magic "SKSM", version 1, kind code, width, depth,
hash count, seed, counter width code), then the depth x width `table`
row-major, as uint32 LE counters or, for a BF, bits packed LSB-first.
A header decodes to a `sketches.SketchParams`, whose constructor is the
one check of the shape fields, and its counter width code must be the
kind's. A BF's padding bits must be zero, so each sketch has exactly one
envelope. Saturation is not a wire field: both ends derive it from the cells.

Only bytes, bytearray and memoryview are parsed, a memoryview as the
bytes it holds whatever its shape or format. Each distinct valid
header is checked once into a decode plan (shape, sketch class, payload
length, table shape) kept in a bounded memo that never holds an error,
so a decode is the length and magic checks, one memo lookup, the
payload-length check and one owning copy of the payload. The plan's
`SketchParams` comes from the shape memo every build goes through
(`sketches._shape`), so each decode of one header, and each sketch built
in that shape, carries the same object while the memos hold it.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from .metrics import witness_of
from .sketches import SKETCH_KINDS, BloomFilter, Sketch, SketchParams, _shape

MAGIC = b"SKSM"
VERSION = 1
_HEADER = struct.Struct("<4sBBIIIQB")
HEADER_SIZE = _HEADER.size  # 27
_PLAN_MEMO = 256  # distinct valid headers whose decode plans are kept

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
    return _plan_of(_octets(data))[0]


def _octets(data: bytes) -> bytes:
    """An envelope whose lengths and slices count bytes: a memoryview of any shape, format or strides is cast."""
    if isinstance(data, (bytes, bytearray)):
        return data
    if isinstance(data, memoryview):
        return data.cast("B") if data.c_contiguous else data.tobytes()
    raise TypeError(f"an envelope is bytes, bytearray or memoryview, not {type(data).__name__}")


def _plan_of(data: bytes) -> tuple[SketchParams, type, int, tuple[int, int]]:
    """The decode plan of an envelope's header, after the checks that need no memo: length and magic."""
    if len(data) < 4:
        raise TruncatedPayloadError(f"expected at least 4 bytes of header, got {len(data)}")
    if data[:4] != MAGIC:
        raise BadMagicError(f"bad magic {bytes(data[:4])!r}, expected {MAGIC!r}")
    if len(data) < HEADER_SIZE:
        raise TruncatedPayloadError(f"expected {HEADER_SIZE}-byte header, got {len(data)}")
    return _plan(bytes(data[:HEADER_SIZE]))


@functools.lru_cache(maxsize=_PLAN_MEMO)  # an exception raised is never cached
def _plan(header: bytes) -> tuple[SketchParams, type, int, tuple[int, int]]:
    """A valid header's decode plan: its shape, its sketch class, its payload length and its table's shape."""
    _, version, kind_code, width, depth, hash_count, seed, counter_code = _HEADER.unpack(header)
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported envelope version {version}")
    kind = _KIND_NAMES.get(kind_code)
    if kind is None:
        raise HeaderConsistencyError(f"unknown sketch kind code {kind_code}")
    if counter_code != _COUNTER_CODES[kind]:
        raise HeaderConsistencyError(f"{kind} envelopes use counter width code {_COUNTER_CODES[kind]}, got {counter_code}")
    try:
        params = _shape(kind, width, depth, hash_count, seed)  # the object each build of this shape carries
    except ValueError as exc:
        raise HeaderConsistencyError(str(exc)) from exc
    return params, SKETCH_KINDS[kind], (width + 7) // 8 if kind == "bf" else depth * width * 4, (depth, width)


def decode(data: bytes) -> Sketch:
    """Parse an envelope (bytes, bytearray or memoryview) into a sketch that owns a copy of its cells."""
    data = _octets(data)
    params, sketch_type, expected, shape = _plan_of(data)
    if len(data) - HEADER_SIZE != expected:
        raise TruncatedPayloadError(f"expected {expected} payload bytes, got {len(data) - HEADER_SIZE}")
    if sketch_type is BloomFilter:
        unpacked = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=HEADER_SIZE), bitorder="little")
        if unpacked[params.width :].any():
            raise WireFormatError(f"padding bits past the {params.width} bits of the BF must be zero")
        table = unpacked[None, : params.width].astype(bool)
    else:
        table = np.ndarray(shape, "<u4", data, HEADER_SIZE).astype(np.uint32)  # copies: never share the caller's buffer
    sketch = object.__new__(sketch_type)
    sketch.params, sketch.table = params, table
    return sketch


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
