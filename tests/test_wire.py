import dataclasses
import hashlib
import random
import struct
import subprocess
import sys

import numpy as np
import pytest

from sketchsim import (
    BadMagicError,
    BloomFilter,
    CountMinSketch,
    CountingBloomFilter,
    HeaderConsistencyError,
    IncompatibleSketchError,
    Multiset,
    SketchParams,
    TruncatedPayloadError,
    UnsupportedVersionError,
    WireFormatError,
    check_witnesses,
    decode,
    decode_header,
    encode,
    witness_of,
)
from sketchsim import wire
from sketchsim.wire import HEADER_SIZE


def _random_multiset(rng, max_distinct=30, max_count=9):
    m = Multiset()
    for _ in range(rng.randint(1, max_distinct)):
        m.insert(rng.randbytes(rng.randint(1, 12)), rng.randint(1, max_count))
    return m


def _random_sketch(rng):
    m = _random_multiset(rng)
    seed = rng.randint(0, 2**64 - 1)
    pick = rng.randint(0, 2)
    if pick == 0:
        return BloomFilter.from_multiset(m, rng.randint(1, 300), rng.randint(1, 4), seed)
    if pick == 1:
        return CountingBloomFilter.from_multiset(m, rng.randint(1, 300), rng.randint(1, 4), seed)
    return CountMinSketch.from_multiset(m, rng.randint(1, 150), rng.randint(1, 6), seed)


class TestLayout:
    def test_header_is_27_bytes(self):
        assert HEADER_SIZE == 27

    def test_empty_cbf_length_128_is_539_bytes(self):
        data = encode(CountingBloomFilter(128, hash_count=1, seed=0))
        assert len(data) == 27 + 512 == 539
        assert data[27:] == b"\x00" * 512

    def test_layout_fields(self):
        sketch = CountMinSketch(5, 3, seed=0xDEADBEEF)
        data = encode(sketch)
        assert data[:4] == b"SKSM"
        assert data[4] == 1  # version
        assert data[5] == 2  # cms kind code
        width, depth, hash_count = struct.unpack_from("<III", data, 6)
        assert (width, depth, hash_count) == (5, 3, 1)
        (seed,) = struct.unpack_from("<Q", data, 18)
        assert seed == 0xDEADBEEF
        assert data[26] == 2  # 32-bit counter code
        assert len(data) == 27 + 5 * 3 * 4

    def test_bf_payload_bit_packing(self):
        bf = BloomFilter(10, hash_count=1, seed=0)
        bf.bits[0] = True
        bf.bits[9] = True
        data = encode(bf)
        # LSB-first: bit 0 -> byte 0 bit 0, bit 9 -> byte 1 bit 1
        assert data[27:] == bytes([0b00000001, 0b00000010])


class TestRoundTrip:
    def test_random_sketches(self):
        rng = random.Random(2024)
        for _ in range(300):
            sketch = _random_sketch(rng)
            data = encode(sketch)
            again = decode(data)
            assert again == sketch
            assert encode(again) == data

    def test_equal_builds_give_identical_bytes(self):
        m = Multiset({"a": 3, "b": 1, "c": 9})
        one = encode(CountingBloomFilter.from_multiset(m, 64, 2, seed=5))
        two = encode(CountingBloomFilter.from_multiset(m, 64, 2, seed=5))
        assert one == two

    def test_cross_process_determinism(self, child_env):
        script = (
            "import hashlib, sys\n"
            "from sketchsim import CountingBloomFilter, Multiset, encode\n"
            "m = Multiset({'song-a': 3, 'song-b': 1, 'song-c': 9})\n"
            "data = encode(CountingBloomFilter.from_multiset(m, 128, 1, seed=42))\n"
            "sys.stdout.write(hashlib.sha256(data).hexdigest())\n"
        )
        digest = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=child_env
        ).stdout
        m = Multiset({"song-a": 3, "song-b": 1, "song-c": 9})
        local = hashlib.sha256(encode(CountingBloomFilter.from_multiset(m, 128, 1, seed=42))).hexdigest()
        assert digest == local

    def test_cell_at_the_maximum_reads_saturated_on_both_sides(self):
        sketch = CountingBloomFilter(4, hash_count=1, seed=0)
        sketch.insert("x", 2**32 - 1)  # reaches the maximum without a clamp
        assert sketch.saturated and decode(encode(sketch)).saturated

    def test_decode_flags_saturated_cells(self):
        sketch = CountingBloomFilter(4, hash_count=1, seed=0)
        sketch.insert("hot", 2**32 - 1)
        sketch.insert("hot", 5)
        assert sketch.saturated
        assert decode(encode(sketch)).saturated


class TestDecodeErrors:
    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            decode(b"NOPE" + b"\x00" * 30)

    def test_unsupported_version(self):
        data = bytearray(encode(CountingBloomFilter(4)))
        data[4] = 2
        with pytest.raises(UnsupportedVersionError):
            decode(bytes(data))

    def test_truncated_payload_names_lengths(self):
        data = encode(CountingBloomFilter(128))
        with pytest.raises(TruncatedPayloadError) as info:
            decode(data[:-10])
        assert "512" in str(info.value)
        assert "502" in str(info.value)

    def test_trailing_bytes_rejected(self):
        data = encode(CountingBloomFilter(4))
        with pytest.raises(TruncatedPayloadError):
            decode(data + b"\x00")

    def test_truncated_header(self):
        with pytest.raises(TruncatedPayloadError):
            decode(b"SKSM\x01")
        with pytest.raises(TruncatedPayloadError):
            decode(b"SK")

    def test_cms_with_hash_count_two_is_inconsistent(self):
        header = struct.pack("<4sBBIIIQB", b"SKSM", 1, 2, 4, 1, 2, 0, 2)
        with pytest.raises(HeaderConsistencyError):
            decode(header + b"\x00" * 16)

    def test_cbf_with_depth_two_is_inconsistent(self):
        header = struct.pack("<4sBBIIIQB", b"SKSM", 1, 1, 4, 2, 1, 0, 2)
        with pytest.raises(HeaderConsistencyError):
            decode(header + b"\x00" * 32)

    def test_unknown_kind_and_counter_codes(self):
        header = struct.pack("<4sBBIIIQB", b"SKSM", 1, 9, 4, 1, 1, 0, 2)
        with pytest.raises(HeaderConsistencyError):
            decode(header)
        header = struct.pack("<4sBBIIIQB", b"SKSM", 1, 1, 4, 1, 1, 0, 7)
        with pytest.raises(HeaderConsistencyError):
            decode(header)

    def test_zero_width_is_inconsistent(self):
        header = struct.pack("<4sBBIIIQB", b"SKSM", 1, 1, 0, 1, 1, 0, 2)
        with pytest.raises(HeaderConsistencyError):
            decode(header)


    def test_nonzero_bf_padding_bits_rejected(self):
        bf = BloomFilter(5, hash_count=1, seed=0)
        bf.bits[[0, 4]] = True
        clean = encode(bf)
        assert clean[-1] == 0b00010001
        for padding in (0b00100000, 0b10000000, 0b11100000):
            dirty = clean[:-1] + bytes([clean[-1] | padding])
            with pytest.raises(WireFormatError, match="padding"):
                decode(dirty)
        assert decode(clean) == bf


# One malformed header per check decode_header makes after the magic.
MALFORMED_HEADERS = [
    (b"NOPE" + b"\x00" * 30, BadMagicError),
    (struct.pack("<4sBBIIIQB", b"SKSM", 2, 1, 4, 1, 1, 0, 2), UnsupportedVersionError),
    (struct.pack("<4sBBIIIQB", b"SKSM", 1, 9, 4, 1, 1, 0, 2), HeaderConsistencyError),
    (struct.pack("<4sBBIIIQB", b"SKSM", 1, 1, 4, 1, 1, 0, 7), HeaderConsistencyError),
    (struct.pack("<4sBBIIIQB", b"SKSM", 1, 1, 4, 2, 1, 0, 2), HeaderConsistencyError),
    (struct.pack("<4sBBIIIQB", b"SKSM", 1, 1, 0, 1, 1, 0, 2), HeaderConsistencyError),
]


class TestHeaderMemo:
    @pytest.mark.parametrize("header, error", MALFORMED_HEADERS)
    def test_malformed_header_raises_on_every_call(self, header, error):
        for _ in range(2):
            with pytest.raises(error):
                decode_header(header)
            with pytest.raises(error):
                decode(header + b"\x00" * 16)

    def test_memo_stays_within_its_bound(self):
        bound = wire._plan.cache_info().maxsize
        for seed in range(bound + 10):
            sketch = CountingBloomFilter(2, 1, seed)
            assert decode(encode(sketch)) == sketch
        assert wire._plan.cache_info().currsize <= bound

    def test_built_and_decoded_sketches_share_one_shape(self, monkeypatch):
        wire._plan.cache_clear()  # a plan kept from an earlier test may hold a shape the shape memo has since dropped
        m = Multiset({"a": 3, "b": 1})
        built = [CountingBloomFilter.from_multiset(m, 128, 1, 11), CountMinSketch.from_multiset(m, 128, 4, 11),
                 BloomFilter.from_multiset(m, 13, 2, 11)]
        decoded = [decode(encode(sketch)) for sketch in built]
        assert all(d.params is s.params for s, d in zip(built, decoded))
        assert decode_header(encode(built[0])) is built[0].params
        # so the shape check passes them without comparing a field
        monkeypatch.setattr(SketchParams, "__eq__", lambda a, b: pytest.fail("shapes compared field by field"))
        for sketch, other in zip(built, decoded):
            assert check_witnesses(sketch.params, other.params) is sketch.params

    def test_shape_too_large_to_plan_is_rejected_by_its_payload_length(self):
        # a valid header of 2^32 - 1 rows: the decode must not derive its rows before it checks the payload
        header = struct.pack("<4sBBIIIQB", b"SKSM", 1, 2, 1, 2**32 - 1, 1, 0, 2)
        for _ in range(2):
            with pytest.raises(TruncatedPayloadError):
                decode(header + b"\x00" * 4)
        assert decode_header(header).depth == 2**32 - 1

    @pytest.mark.parametrize("data", [
        encode(CountingBloomFilter(8, 1, 0)).decode("latin-1"),  # a str that spells a valid envelope
        list(encode(CountingBloomFilter(8, 1, 0))),  # so does this list of ints
        7,
        None,
        np.frombuffer(encode(CountingBloomFilter(8, 1, 0)), dtype=np.uint8),
    ], ids=["str", "list", "int", "None", "ndarray"])
    def test_only_bytes_like_input_is_parsed(self, data):
        message = f"^an envelope is bytes, bytearray or memoryview, not {type(data).__name__}$"
        for parse in (decode, decode_header):
            with pytest.raises(TypeError, match=message):
                parse(data)

    def test_bytes_like_inputs_decode_alike(self):
        # a memoryview's lengths and offsets count bytes, whatever its shape, format or strides
        rng = random.Random(7)
        for _ in range(30):
            data = encode(_random_sketch(rng))
            expected = decode(data)
            strided = np.repeat(np.frombuffer(data, dtype=np.uint8), 2)[::2]
            for same in (bytearray(data), memoryview(data), memoryview(data).cast("B", (1, len(data))),
                         memoryview(strided)):
                assert decode(same) == expected
                assert decode_header(same) == decode_header(data)
        whole_words = encode(BloomFilter.from_multiset(Multiset({"a": 1}), 40, 2, 3))  # 27 + 5 bytes
        assert decode(memoryview(whole_words).cast("I")) == decode(whole_words)
        padded = encode(CountMinSketch(8, 2, 0)) + b"\x00"  # 27 + 64 + 1 bytes
        with pytest.raises(TruncatedPayloadError, match="^expected 64 payload bytes, got 65$"):
            decode(memoryview(padded).cast("I"))

    @pytest.mark.parametrize("sketch", [
        CountingBloomFilter.from_multiset(Multiset({"a": 3, "b": 1}), 8, 2, 1),
        CountMinSketch.from_multiset(Multiset({"a": 3, "b": 1}), 8, 3, 1),
        BloomFilter.from_multiset(Multiset({"a": 3, "b": 1}), 13, 2, 1),
    ])
    def test_decoded_cells_are_a_private_writable_copy(self, sketch):
        source = bytearray(encode(sketch))
        decoded = decode(source)
        cells = decoded.bits if isinstance(decoded, BloomFilter) else decoded.table
        assert cells.flags.writeable and not np.shares_memory(cells, np.frombuffer(source, dtype=np.uint8))
        source[HEADER_SIZE:] = bytes(len(source) - HEADER_SIZE)
        assert decoded == sketch
        cells[0] = 1
        assert bytes(source[HEADER_SIZE:]) == bytes(len(source) - HEADER_SIZE)


class TestCompatibility:
    def test_identical_headers_give_witness(self):
        sketch = CountingBloomFilter(64, 2, seed=9)
        header = decode_header(encode(sketch))
        witness = check_witnesses(header, header)
        assert witness == witness_of(sketch)

    def test_differing_seed_named(self):
        a = decode_header(encode(CountingBloomFilter(64, 2, seed=1)))
        b = decode_header(encode(CountingBloomFilter(64, 2, seed=2)))
        with pytest.raises(IncompatibleSketchError) as info:
            check_witnesses(a, b)
        assert info.value.mismatched_fields == ["seed"]

    def test_kind_mismatch_named(self):
        a = decode_header(encode(CountingBloomFilter(64, 1, seed=0)))
        b = decode_header(encode(CountMinSketch(64, 1, seed=0)))
        with pytest.raises(IncompatibleSketchError) as info:
            check_witnesses(a, b)
        assert "kind" in info.value.mismatched_fields

    @pytest.mark.parametrize("base, field, value", [
        (SketchParams("cbf", 64, hash_count=2, seed=9), "kind", "bf"),  # the counter width follows from the kind
        (SketchParams("cbf", 64, hash_count=2, seed=9), "width", 65),
        (SketchParams("cms", 64, depth=2, seed=9), "depth", 3),
        (SketchParams("cbf", 64, hash_count=2, seed=9), "hash_count", 3),
        (SketchParams("cms", 64, depth=2, seed=9), "seed", 10),
    ])
    def test_exactly_the_differing_field_named(self, base, field, value):
        other = dataclasses.replace(base, **{field: value})
        m = Multiset({"a": 2, "b": 1})
        a, b = base.sketch(m), other.sketch(m)
        memoised = decode(encode(a)).params, decode(encode(b)).params
        assert memoised[0] is decode_header(encode(a)) and memoised[1] is decode_header(encode(b))  # the memo's own
        for shapes in ((witness_of(a), witness_of(b)), memoised):
            with pytest.raises(IncompatibleSketchError) as info:
                check_witnesses(*shapes)
            assert info.value.mismatched_fields == [field]
