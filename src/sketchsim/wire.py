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
    26      1     counter width code: 0 = 1-bit packed, 2 = 32-bit LE
    27      -     payload: d * w counters, row-major

BF payloads pack each row of bits LSB-first into ceil(n/8) bytes (bit i
lives in byte i//8 at bit i%8). Counter payloads are uint32 LE. The
recommended one-hash CBF of length 128 therefore travels in exactly
27 + 128*4 = 539 bytes.

total_insertions and the saturation flag are derived conveniences, not
wire fields: decode reconstructs total_insertions as the sum of the
first row // hash_count (exact absent saturation) and flags saturation
when any cell sits at the counter maximum.
"""

from __future__ import annotations

import struct

import numpy as np

from .metrics import CompatibilityWitness, IncompatibleSketchError, witness_of
from .sketches import COUNTER_MAX, COUNTER_TYPES, BloomFilter, CounterTable

MAGIC = b"SKSM"
VERSION = 1
_HEADER = struct.Struct("<4sBBIIIQB")
HEADER_SIZE = _HEADER.size  # 27

_KIND_CODES = {"bf": 0, "cbf": 1, "cms": 2}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}
_WIDTH_CODES = {1: 0, 32: 2}
_WIDTH_BITS = {code: bits for bits, code in _WIDTH_CODES.items()}


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


Sketch = BloomFilter | CounterTable


def payload_size(kind: str, width: int, depth: int = 1) -> int:
    if kind == "bf":
        return depth * ((width + 7) // 8)
    return depth * width * 4


def encode(sketch: Sketch) -> bytes:
    """Serialize a sketch; equal sketches always yield equal bytes."""
    witness = witness_of(sketch)
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        _KIND_CODES[witness.kind],
        witness.width,
        witness.depth,
        witness.hash_count,
        witness.seed,
        _WIDTH_CODES[witness.counter_width],
    )
    if isinstance(sketch, BloomFilter):
        payload = np.packbits(sketch.bits, bitorder="little").tobytes()
    else:
        payload = sketch.table.astype("<u4").tobytes()
    return header + payload


def decode_header(data: bytes) -> CompatibilityWitness:
    """Parse and validate the 27-byte header into a compatibility witness."""
    if len(data) < 4:
        raise TruncatedPayloadError(f"expected at least 4 bytes of header, got {len(data)}")
    if data[:4] != MAGIC:
        raise BadMagicError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    if len(data) < HEADER_SIZE:
        raise TruncatedPayloadError(f"expected {HEADER_SIZE}-byte header, got {len(data)}")
    _, version, kind_code, width, depth, hash_count, seed, width_code = _HEADER.unpack_from(data)
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported envelope version {version}")
    kind = _KIND_NAMES.get(kind_code)
    if kind is None:
        raise HeaderConsistencyError(f"unknown sketch kind code {kind_code}")
    counter_width = _WIDTH_BITS.get(width_code)
    if counter_width is None:
        raise HeaderConsistencyError(f"unknown counter width code {width_code}")
    if width < 1 or depth < 1 or hash_count < 1:
        raise HeaderConsistencyError("width, depth and hash count must all be >= 1")
    if kind in ("bf", "cbf") and depth != 1:
        raise HeaderConsistencyError(f"{kind} envelopes must have depth 1, got {depth}")
    if kind == "cms" and hash_count != 1:
        raise HeaderConsistencyError(f"cms envelopes must have hash count 1, got {hash_count}")
    if kind == "bf" and counter_width != 1:
        raise HeaderConsistencyError("bf envelopes must use the 1-bit counter code")
    if kind in ("cbf", "cms") and counter_width != 32:
        raise HeaderConsistencyError(f"{kind} envelopes must use the 32-bit counter code")
    return CompatibilityWitness(kind, width, depth, hash_count, seed, counter_width)


def decode(data: bytes) -> Sketch:
    """Parse an envelope back into a sketch, validating layout throughout."""
    witness = decode_header(data)
    payload = data[HEADER_SIZE:]
    expected = payload_size(witness.kind, witness.width, witness.depth)
    if len(payload) != expected:
        raise TruncatedPayloadError(f"expected {expected} payload bytes, got {len(payload)}")
    if witness.kind == "bf":
        sketch = BloomFilter(witness.width, witness.hash_count, witness.seed)
        unpacked = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")
        sketch.bits = unpacked[: witness.width].astype(bool)
        return sketch
    # both constructors take (width, k or d, seed), and one of depth and hash count is 1
    sketch = COUNTER_TYPES[witness.kind](witness.width, witness.depth * witness.hash_count, witness.seed)
    sketch.table = np.frombuffer(payload, dtype="<u4").astype(np.uint32).reshape(witness.depth, witness.width)
    sketch.total_insertions = int(sketch.table[0].sum(dtype=np.uint64)) // witness.hash_count
    sketch.saturated = bool((sketch.table == COUNTER_MAX).any())
    return sketch


__all__ = [
    "BadMagicError",
    "HeaderConsistencyError",
    "IncompatibleSketchError",
    "TruncatedPayloadError",
    "UnsupportedVersionError",
    "WireFormatError",
    "HEADER_SIZE",
    "MAGIC",
    "VERSION",
    "decode",
    "decode_header",
    "encode",
    "payload_size",
]
