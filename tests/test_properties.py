"""Property tests over generated multisets, shapes, seeds and counts.

They pin the invariants every counting-sketch build and scorer must keep:
a one-hash CBF is a one-row CMS, every build path and sequential inserts
equal a Python reference that adds one probe at a time (saturation
included), envelopes round-trip in cells and in the cell-derived
saturation flag, decode fails only with typed errors, sketch Dice never
undershoots the exact Dice, a sketch score is undefined exactly when the
exact score is, the Dice cell scorer (on both sides of its float64
guard) and every grid cell equal the scalar row mean bit for bit, two
decoded envelopes score through each named scorer as the built sketches
do, from any bytes-like input, cold memo or fresh shape, the grid's
array truths equal the scalar oracle's pair by pair (failures included, on
both sides of their uint64 guard), sketches of
the shared part and the two remainders satisfy min(p, q) = s + min(a, b)
cell for cell, the
bulk hash path gives the scalar digests for many start states and row
seeds in one call, and `_probe_positions` gives the index formula
computed in Python ints. The triplet reader sums
duplicate lines exactly as a plain dict does, in first-seen order, plain
or gzip, with or without a BOM, and its profiles round-trip through the
profile file. The profile writer refuses, before it makes the file,
exactly the maps a profile file cannot hold as they are, and every other
map reads back equal, in the same user order. A file's undecodable
byte, and a gzip stream that breaks off, are parse errors naming the line
being read, plain or gzip, with or without a BOM, CRLF or blank lines;
the profile writer lists each user's songs in sorted item order. A header decodes to
exactly the shapes `SketchParams` accepts, with the counter code of its kind.
Any small JSON value as a corpus manifest makes `sketchsim grid` exit 1
with one error line, or 0 for a valid manifest, never a traceback, and
any argv drawn from a grammar of the real CLI flags exits 0, 1, 2 or 64.
Examples are derandomised, so every run checks the same inputs.
"""

import contextlib
import dataclasses
import gzip
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import sequential_table
from sketchsim import (
    COUNT_MAX,
    COUNTER_MAX,
    BloomFilter,
    CountMinSketch,
    CountingBloomFilter,
    GridSpec,
    HeaderConsistencyError,
    Multiset,
    SketchParams,
    TripletParseError,
    UndefinedSimilarityError,
    WireFormatError,
    cbf_cosine,
    cbf_dice,
    cms_cosine,
    cms_dice,
    decode,
    decode_header,
    derive_row_seed,
    dice,
    digest_pair,
    encode,
    read_profiles,
    witness_of,
    write_profiles,
)
from sketchsim import metrics, wire
from sketchsim.cli import main
from sketchsim.datasets import MANIFEST_NAME, MANIFEST_SCHEMA
from sketchsim.experiments import PairFailure, _Columns
from sketchsim.metrics import METRICS, _cosine_sums, _dice_cells, _dice_sums, score
from sketchsim.hashing import _probe_positions, digest_rows, fnv1a64, fnv1a64_bulk
from sketchsim.sketches import SKETCH_KINDS
from sketchsim.wire import HEADER_SIZE, MAGIC

PROPERTY = settings(deadline=None, max_examples=100, derandomize=True)

seeds = st.integers(0, 2**64 - 1)
widths = st.integers(1, 64)
probes = st.integers(1, 4)  # k of a CBF, d of a CMS
small_counts = st.integers(1, 30)
# counts that land on either side of the 32-bit counter limit
edge_counts = st.one_of(small_counts, st.integers(2**32 - 3, 2**32 + 3), st.integers(1, COUNT_MAX))


def multisets(counts=small_counts, min_size=1):
    return st.dictionaries(st.binary(min_size=1, max_size=6), counts, min_size=min_size, max_size=20).map(Multiset)


def _sketches(kind, multiset, width, probe_count, seed):
    """The same sketch by from_multiset, as the grid engine's rows and by sequential insert."""
    sketch_type = SKETCH_KINDS[kind]  # every constructor takes (width, k or d, seed)
    columns = _Columns([("p", multiset, multiset)], GridSpec(kind, [width], [probe_count], seed=seed))  # one profile
    rows = [table[0].copy() for table in columns._rows(width)]
    rows = np.array(rows if kind == "cms" else rows[-1:])  # a CBF row is yielded after each of its probes
    manual = sketch_type(width, probe_count, seed)
    for element, count in multiset.items():
        manual.insert(element, count)
    return sketch_type.from_multiset(multiset, width, probe_count, seed), rows, manual


@PROPERTY
@given(multisets(edge_counts), multisets(edge_counts), widths, seeds)
def test_one_hash_cbf_is_one_row_cms(x, y, width, seed):
    p, q = (CountingBloomFilter.from_multiset(m, width, 1, seed) for m in (x, y))
    r, s = (CountMinSketch.from_multiset(m, width, 1, seed) for m in (x, y))
    assert np.array_equal(p.table, r.table) and np.array_equal(q.table, s.table)
    assert np.array_equal(p.counters, r.table[0])
    assert cbf_dice(p, q) == cms_dice(r, s)
    assert cbf_cosine(p, q) == cms_cosine(r, s)


@PROPERTY
@given(st.sampled_from(["cbf", "cms"]), multisets(edge_counts), widths, probes, seeds)
def test_build_paths_agree_with_sequential_insert(kind, multiset, width, probe_count, seed):
    bulk, rows, manual = _sketches(kind, multiset, width, probe_count, seed)
    reference = sequential_table(bulk.params, multiset)  # Python ints, one probe at a time: no shared code path
    assert np.array_equal(rows, reference)
    assert np.array_equal(bulk.table, reference)
    assert np.array_equal(manual.table, reference)
    assert bulk.saturated == manual.saturated == bool((reference == COUNTER_MAX).any())


@PROPERTY
@given(st.sampled_from(["cbf", "cms"]), multisets(edge_counts), widths, probes, seeds,
       st.lists(st.tuples(st.binary(min_size=1, max_size=6), edge_counts), max_size=4))
def test_envelope_round_trip(kind, multiset, width, probe_count, seed, inserts):
    # built, then inserted into: the receiver reads the sender's cells and the sender's flag
    sketch = SKETCH_KINDS[kind].from_multiset(multiset, width, probe_count, seed)
    for element, times in inserts:
        sketch.insert(element, times)
    decoded = decode(encode(sketch))
    assert decoded == sketch
    # the envelope carries no flag: both ends mark any cell at the maximum
    assert decoded.saturated == sketch.saturated == bool((sketch.table == COUNTER_MAX).any())


@PROPERTY
@given(multisets(min_size=0), st.integers(1, 200), probes, seeds)
def test_bf_envelope_round_trip(multiset, width, hash_count, seed):
    # a BF's bits are its one-row table; they travel packed LSB-first with zero padding past the width
    bf = BloomFilter.from_multiset(multiset, width, hash_count, seed)
    data = encode(bf)
    decoded = decode(data)
    assert decoded == bf
    assert np.array_equal(decoded.bits, bf.bits)
    assert encode(decoded) == data


@PROPERTY
@given(st.sampled_from(["cbf", "cms"]), multisets(edge_counts), widths, probes, seeds)
def test_decoded_fields_are_derived_lazily(kind, multiset, width, probe_count, seed):
    sketch = SKETCH_KINDS[kind].from_multiset(multiset, width, probe_count, seed)
    decoded = decode(encode(sketch))
    assert "saturated" not in vars(decoded)
    assert decoded.saturated == any(cell == COUNTER_MAX for row in sketch.table.tolist() for cell in row)


@PROPERTY
@given(st.sampled_from(["cbf", "cms"]), multisets(), widths, probes, seeds,
       st.lists(st.tuples(st.binary(min_size=1, max_size=6), edge_counts), max_size=6))
def test_decoded_and_built_sketches_insert_alike(kind, multiset, width, probe_count, seed, inserts):
    built = SKETCH_KINDS[kind].from_multiset(multiset, width, probe_count, seed)
    decoded = decode(encode(built))
    for element, times in inserts:
        built.insert(element, times)
        decoded.insert(element, times)
    assert np.array_equal(decoded.table, built.table)
    assert decoded.saturated == built.saturated


@PROPERTY
@given(st.sampled_from(["cbf", "cms"]), st.sampled_from(list(METRICS)), multisets(edge_counts), multisets(edge_counts),
       widths, probes, seeds, st.sampled_from([bytes, bytearray, memoryview]), st.booleans(), st.booleans())
def test_decoded_envelopes_score_as_the_built_sketches(kind, metric, x, y, width, probe_count, seed, as_input,
                                                       cold_memo, fresh_shape):
    # bit for bit through each named scorer: from any bytes-like input, after the plan memo is cleared, and with
    # one shape rebuilt as an equal but distinct SketchParams, which the shape check compares field by field
    p, q = (SKETCH_KINDS[kind].from_multiset(m, width, probe_count, seed) for m in (x, y))
    if cold_memo:
        wire._plan.cache_clear()
    a, b = (decode(as_input(encode(sketch))) for sketch in (p, q))
    assert a.params is b.params
    if fresh_shape:
        b.params = dataclasses.replace(b.params)
        assert b.params is not a.params and b.params == a.params
    assert getattr(metrics, f"{kind}_{metric}")(a, b).hex() == score(metric, p, q).hex()


# counter tables of 1-4 row pairs; cells on either side of the int64 guard of _cosine_sums
cells = st.one_of(st.integers(0, 30), st.integers(2**31 - 3, 2**31 + 3), st.integers(COUNTER_MAX - 3, COUNTER_MAX))
table_pairs = st.tuples(st.integers(1, 4), widths).flatmap(
    lambda shape: st.tuples(*(st.lists(st.lists(cells, min_size=shape[1], max_size=shape[1]),
                                       min_size=shape[0], max_size=shape[0]) for _ in range(2))))


@PROPERTY
@given(table_pairs)
def test_row_sums_match_python_sums(tables):
    p, q = tables
    a, b = (np.array(t, dtype=np.uint32) for t in tables)
    shared, rest = _dice_sums(a, b)
    assert shared.dtype == rest.dtype == np.uint64
    assert shared.tolist() == [sum(map(min, x, y)) for x, y in zip(p, q)]
    assert rest.tolist() == [sum(map(max, x, y)) for x, y in zip(p, q)]
    (gram,) = _cosine_sums(a, b)
    norms_sq_p, dots, dots_qp, norms_sq_q = gram.tolist()
    assert dots == dots_qp == [sum(map(int.__mul__, x, y)) for x, y in zip(p, q)]
    assert norms_sq_p == [sum(v * v for v in x) for x in p]
    assert norms_sq_q == [sum(v * v for v in y) for y in q]
    assert all(type(v) is int for v in dots + norms_sq_p + norms_sq_q)


# plausible headers: small fields, any kind and counter code, payloads of any length
headers = st.builds(
    struct.pack,
    st.just("<4sBBIIIQB"),
    st.just(MAGIC),
    st.integers(0, 2),
    st.integers(0, 3),
    st.integers(0, 9),
    st.integers(0, 3),
    st.integers(0, 3),
    seeds,
    st.integers(0, 3),
)
envelope_like = st.one_of(
    st.binary(max_size=40),
    st.binary(max_size=HEADER_SIZE + 40).map(lambda tail: MAGIC + b"\x01" + tail),
    st.tuples(headers, st.binary(max_size=80)).map(b"".join),
)


@settings(deadline=None, max_examples=500, derandomize=True)
@given(envelope_like)
def test_decode_raises_only_wire_format_errors(data):
    try:
        decode(data)
    except WireFormatError:
        pass


WIRE_KINDS = {0: "bf", 1: "cbf", 2: "cms"}  # the header's kind codes
COUNTER_CODES = {"bf": 0, "cbf": 2, "cms": 2}  # 1-bit packed bits, or 32-bit counters


def _valid_fields(codes, width, probe_count, seed):
    kind_code, counter_code = codes
    depth, hash_count = (probe_count, 1) if kind_code == 2 else (1, probe_count)
    return kind_code, counter_code, width, depth, hash_count, seed


# header fields of any kind and counter code, sizes 0 included; half are valid shapes
header_fields = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 9), st.integers(0, 4), st.integers(0, 4), seeds),
    st.builds(_valid_fields, st.sampled_from([(0, 0), (1, 2), (2, 2)]), widths, probes, seeds),
)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(header_fields, multisets())
def test_header_decodes_exactly_the_valid_shapes(fields, multiset):
    kind_code, counter_code, width, depth, hash_count, seed = fields
    header = struct.pack("<4sBBIIIQB", MAGIC, 1, kind_code, width, depth, hash_count, seed, counter_code)
    kind = WIRE_KINDS.get(kind_code)
    try:
        params = SketchParams(kind, width, depth, hash_count, seed)
    except ValueError:
        params = None
    if params is None or COUNTER_CODES[kind] != counter_code:
        with pytest.raises(HeaderConsistencyError):
            decode_header(header)
        return
    assert decode_header(header) == params
    envelope = encode(params.sketch(multiset))
    assert decode_header(envelope) == witness_of(decode(envelope)) == params


@PROPERTY
@given(multisets(), multisets(), widths, probes, seeds)
def test_sketch_dice_never_below_exact(x, y, width, probe_count, seed):
    truth = dice(x, y)
    p, q = (CountingBloomFilter.from_multiset(m, width, probe_count, seed) for m in (x, y))
    r, s = (CountMinSketch.from_multiset(m, width, probe_count, seed) for m in (x, y))
    assert cbf_dice(p, q) >= truth
    assert cms_dice(r, s) >= truth


def _undefined(function, *args) -> bool:
    try:
        function(*args)
    except UndefinedSimilarityError:
        return True
    return False


@PROPERTY
@given(st.sampled_from(["cbf", "cms"]), st.sampled_from(list(METRICS)), multisets(edge_counts, min_size=0),
       multisets(edge_counts, min_size=0), widths, probes, seeds)
def test_estimate_undefined_exactly_when_truth_is(kind, metric, x, y, width, probe_count, seed):
    # a non-empty profile puts mass in every sketch row, which is what lets the grid engine decide failures once
    oracle, _, _, _ = METRICS[metric]
    p, q = (SKETCH_KINDS[kind].from_multiset(m, width, probe_count, seed) for m in (x, y))
    assert _undefined(score, metric, p, q) == _undefined(oracle, x, y)


def _row_mean(metric, a, b):
    """The scalar reference: the row mean of `metrics.METRICS` for two tables, or the message it raises."""
    _, sums, row_mean, _ = METRICS[metric]
    try:
        return row_mean(*[rows.tolist() for rows in sums(a, b)])
    except UndefinedSimilarityError as exc:
        return str(exc)


def _dice_cells_or_error(pairs):
    """The Dice cell scorer over (a, b) table pairs, or the message it raises."""
    per_pair = [_dice_sums(a, b) for a, b in pairs]
    shared, rest = (np.array([sums[i] for sums in per_pair]).T for i in (0, 1))  # rows x pairs
    try:
        return _dice_cells(shared, rest).tolist()
    except UndefinedSimilarityError as exc:
        return str(exc)


@st.composite
def table_batches(draw):
    """Pairs of equal-shape uint32 tables of 1-10 rows (one row is a CBF's).

    A pair may repeat one row pair in every row, where the fsum mean can
    round below the row scores, and may share an all-zero row.
    """
    rows, width = draw(st.integers(1, 10)), draw(st.integers(1, 12))
    batch = []
    for _ in range(draw(st.integers(1, 3))):
        repeated = draw(st.booleans())
        a, b = (np.array(draw(st.lists(st.lists(cells, min_size=width, max_size=width),
                                       min_size=1 if repeated else rows, max_size=1 if repeated else rows)),
                         dtype=np.uint32).repeat(rows if repeated else 1, axis=0) for _ in range(2))
        if draw(st.integers(0, 4)) == 0:  # one pair in five
            blank = draw(st.integers(0, rows - 1))
            a[blank] = b[blank] = 0
        batch.append((a, b))
    return batch


@PROPERTY
@given(table_batches())
@example([(np.full((3, 1), 2, dtype=np.uint32), np.full((3, 1), 9, dtype=np.uint32))])  # the mean rounds below 4/11
def test_dice_cell_scorer_is_the_row_mean_of_each_pair(batch):
    # bit for bit, saturated cells included; a zero-mass row raises in both, for the first pair that has one
    expected = [_row_mean("dice", a, b) for a, b in batch]
    errors = [value for value in expected if isinstance(value, str)]
    assert _dice_cells_or_error(batch) == (errors[0] if errors else expected)


GUARD_WIDTH = 2**20 + 64
BELOW_GUARD = (2**52 - 1) // GUARD_WIDTH  # the largest cell value whose row of GUARD_WIDTH cells sums below 2^52


@settings(deadline=None, max_examples=12, derandomize=True)
@given(st.integers(1, 2), st.integers(1, 3), st.lists(st.integers(0, 1000), min_size=2, max_size=2),
       st.lists(st.tuples(st.integers(0, 1), st.integers(0, GUARD_WIDTH - 1), cells), max_size=8))
# a max-sum just past 2^52 with a joint mass below 2^53 (the exact fallback), and one just below 2^52 (float64)
@example(1, 1, [COUNTER_MAX - BELOW_GUARD - 1, COUNTER_MAX - BELOW_GUARD + 1], [])
@example(1, 1, [COUNTER_MAX - BELOW_GUARD, COUNTER_MAX - BELOW_GUARD + 1], [])
def test_dice_cell_scorer_past_the_float64_guard(rows, pair_count, deficits, overrides):
    # rows of 2^20 + 64 cells near COUNTER_MAX hold a max-sum near or past 2^52, where the float64 division stops
    a, b = (np.full((rows, GUARD_WIDTH), COUNTER_MAX - deficit, dtype=np.uint32) for deficit in deficits)
    for side, cell, value in overrides:
        (a, b)[side][:, cell] = value
    batch = [(a, b), (b, a), (a, a)][:pair_count]
    if deficits[0] <= 1000:  # drawn, not an example: every row pair is past the guard
        assert all(high >= 2**52 for pair in batch for high in _dice_sums(*pair)[1].tolist())
    assert _dice_cells_or_error(batch) == [_row_mean("dice", *pair) for pair in batch]


@PROPERTY
@given(st.sampled_from(["cbf", "cms"]), st.sampled_from(list(METRICS)),
       st.lists(st.tuples(multisets(edge_counts), multisets(edge_counts)), min_size=1, max_size=3),
       st.lists(widths, min_size=1, max_size=2), st.sets(probes, min_size=1), seeds)
def test_grid_cells_equal_the_scalar_score(kind, metric, pairs, dims, depths, seed):
    # every lattice cell of the grid engine is, pair by pair, the score of the two sketches built alone
    grid = GridSpec(kind, dims, sorted(depths), metric, seed)
    for dim, depth, estimates in _Columns([(f"p{i}", x, y) for i, (x, y) in enumerate(pairs)], grid)._cells():
        params = grid.params_for(dim, depth)
        assert estimates.tolist() == [score(metric, params.sketch(x), params.sketch(y)) for x, y in pairs]


@st.composite
def pooled_corpora(draw):
    """Pairs over a pool of profile objects: sides repeat, a pair may hold one object twice, profiles may be empty."""
    pool = draw(st.lists(multisets(edge_counts, min_size=0), min_size=1, max_size=5))
    sides = st.integers(0, len(pool) - 1)
    pairs = draw(st.lists(st.tuples(sides, sides), min_size=1, max_size=8))
    return [(f"p{i}", pool[a], pool[b]) for i, (a, b) in enumerate(pairs)]


huge = Multiset({b"a": COUNT_MAX, b"b": 1})  # past the uint64 guard of both metrics
small, empty = Multiset({b"a": 2, b"c": 5}), Multiset()


@PROPERTY
@given(pooled_corpora(), st.sampled_from(list(METRICS)))
@example([("same", huge, huge), ("mixed", huge, small), ("one-empty", small, empty), ("both-empty", empty, empty),
          ("again", small, small)], "dice")
@example([("same", huge, huge), ("mixed", small, huge), ("one-empty", empty, small), ("again", small, small)], "cosine")
@example([("one-empty", small, empty), ("below", small, Multiset({b"c": 1}))], "cosine")
def test_grid_truths_equal_the_oracle(corpus, metric):
    # the grid's array truths, pair by pair in corpus order, are the scalar oracle's bit for bit, failures included
    oracle, expected, failures = METRICS[metric][0], [], []
    for pair_id, x, y in corpus:
        try:
            expected.append((pair_id, oracle(x, y).hex()))
        except UndefinedSimilarityError as exc:
            failures.append(PairFailure(pair_id, str(exc)))
    columns = _Columns(corpus, GridSpec("cbf", [8], [1], metric))
    assert list(zip(columns.pair_ids, (truth.hex() for truth in columns.truths))) == expected
    assert columns.failures == failures


@PROPERTY
@given(st.sampled_from(["cbf", "cms"]), multisets(), multisets(), widths, probes, seeds)
def test_shared_part_identity(kind, x, y, width, probe_count, seed):
    # S = min(X, Y), A = X - S, B = Y - S; sketches add, so without saturation min(p, q) = s + min(a, b) per cell
    shared = {e: min(c, y.count(e)) for e, c in x.items() if e in y}
    parts = [Multiset(shared), *(Multiset({e: c - shared.get(e, 0) for e, c in m.items() if c > shared.get(e, 0)})
                                 for m in (x, y))]
    p, q, s, a, b = (SKETCH_KINDS[kind].from_multiset(m, width, probe_count, seed).table.astype(np.int64)
                     for m in (x, y, *parts))
    assert np.array_equal(np.minimum(p, q), s + np.minimum(a, b))


# sizes 1, small non-powers of two, powers of two and the largest the header carries
sizes = st.one_of(st.just(1), st.integers(2, 1000), st.sampled_from([2**10, 2**31, 2**32 - 1]))


@PROPERTY
@given(st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=40), seeds, st.integers(1, 10),
       st.integers(1, 8), sizes, st.lists(seeds, min_size=1, max_size=4))
def test_bulk_hashing_matches_scalar(elements, seed, depth, hash_count, size, states):
    assert fnv1a64_bulk(elements, states).tolist() == [[fnv1a64(e, state) for e in elements] for state in states]
    row_seeds = [derive_row_seed(seed, row) for row in range(depth)]
    digests = digest_rows(row_seeds, hash_count, elements)
    pairs = [[digest_pair(row_seed, element) for element in elements] for row_seed in row_seeds]
    assert digests[0].tolist() == [[h1 for h1, _ in row] for row in pairs]
    if hash_count > 1:
        assert digests[1].tolist() == [[h2 for _, h2 in row] for row in pairs]
    # the normative index formula, in Python ints, against its one implementation
    expected = [[[((first + i * step) % 2**64) % size for first, step in row] for row in pairs] for i in range(hash_count)]
    assert _probe_positions(digests, hash_count, size).tolist() == expected


@PROPERTY
@given(st.integers(1, 24).flatmap(lambda n: st.lists(st.binary(min_size=n, max_size=n), max_size=40)),
       st.lists(seeds, min_size=1, max_size=4), st.integers(1, 8))
def test_bulk_hashing_of_one_length_matches_scalar(elements, states, hash_count):
    # inputs of one length are digested as one byte block, a path mixed lengths almost never take
    assert fnv1a64_bulk(elements, states).tolist() == [[fnv1a64(e, state) for e in elements] for state in states]
    digests = digest_rows(states, hash_count, elements)  # the drawn states serve as row seeds here
    pairs = [[digest_pair(row_seed, element) for element in elements] for row_seed in states]
    assert digests[0].tolist() == [[h1 for h1, _ in row] for row in pairs]
    if hash_count > 1:
        assert digests[1].tolist() == [[h2 for _, h2 in row] for row in pairs]


# ids never hold a tab, CR or LF; U+2028 and U+0085 are line breaks to
# str.splitlines only, so the reader must keep them inside an id
ids = st.one_of(
    st.sampled_from(["u1", "s1", "é", "中🎵"]),
    st.text(st.sampled_from("aß é\u2028\x85🎵"), min_size=1, max_size=3),
)
endings = st.sampled_from(["\n", "\r\n", "\n\n", "\r\n\r\n"])  # the doubled ones add blank lines
triplet_lines = st.lists(st.tuples(ids, ids, st.integers(1, 2**40), endings), max_size=30)


def _same_profiles(got, expected):
    assert list(got) == list(expected)  # first-seen user order
    for user, profile in expected.items():
        # Multiset equality compares entries only; the cardinality is cached apart from them
        assert got[user] == profile and got[user].cardinality() == profile.cardinality()


def _triplet_file(tmp, body: bytes, compress: bool) -> Path:
    path = Path(tmp) / "triplets.tsv"
    path.write_bytes(gzip.compress(body, mtime=0) if compress else body)
    return path


@PROPERTY
@given(triplet_lines)
def test_triplet_reader_matches_dict_sum(lines):
    body = "".join(f"{user}\t{song}\t{count}{ending}" for user, song, count, ending in lines).encode("utf-8")
    model: dict[tuple[str, str], int] = {}
    for user, song, count, _ in lines:
        model[(user, song)] = model.get((user, song), 0) + count
    songs_by_user: dict[str, dict[str, int]] = {}
    for (user, song), count in model.items():
        songs_by_user.setdefault(user, {})[song] = count
    expected = {user: Multiset(songs) for user, songs in songs_by_user.items()}
    with tempfile.TemporaryDirectory() as tmp:
        profiles_file = Path(tmp) / "profiles.tsv"
        for bom in (False, True):  # one leading BOM is dropped
            for compress in (False, True):
                profiles = read_profiles(_triplet_file(tmp, b"\xef\xbb\xbf" * bom + body, compress))
                _same_profiles(profiles, expected)
                # each user's songs in first-seen order, as the model met them
                held = [(user, song.decode(), count)
                        for user, profile in profiles.items() for song, count in profile.items()]
                assert held == [(user, song, count) for user, songs in songs_by_user.items() for song, count in songs.items()]
        write_profiles(profiles_file, profiles)
        _same_profiles(read_profiles(profiles_file), expected)


nonempty_triplet_lines = st.lists(st.tuples(ids, ids, st.integers(1, 2**40), endings), min_size=1, max_size=30)
# lone continuation bytes, overlong and out-of-range leads, and leads cut short by the next character
undecodable = st.sampled_from([0x80, 0xBF, 0xC0, 0xC1, 0xC3, 0xE2, 0xED, 0xF0, 0xF4, 0xF5, 0xFF])


@PROPERTY
@given(nonempty_triplet_lines, st.data(), undecodable, st.booleans(), st.booleans())
def test_reader_names_the_line_of_an_undecodable_byte(lines, data, bad, bom, compress):
    texts = [f"{user}\t{song}\t{count}" for user, song, count, _ in lines]
    target = data.draw(st.integers(0, len(lines) - 1))
    at = data.draw(st.integers(0, len(texts[target])))  # a character boundary, so the byte starts no valid sequence
    chunks = [text.encode() for text in texts]
    chunks[target] = texts[target][:at].encode() + bytes([bad]) + texts[target][at:].encode()
    physical = [chunk + ending.encode() for chunk, (*_, ending) in zip(chunks, lines)]
    line_number = 1 + b"".join(physical[:target]).count(b"\n")  # blank lines count
    with pytest.raises(UnicodeDecodeError) as reference:
        physical[target].decode("utf-8")  # with its line end: a lead byte before it is cut short
    assert reference.value.object[reference.value.start] == bad
    with tempfile.TemporaryDirectory() as tmp:
        path = _triplet_file(tmp, b"\xef\xbb\xbf" * bom + b"".join(physical), compress)
        with pytest.raises(TripletParseError) as info:
            read_profiles(path)
    assert info.value.line_number == line_number
    assert str(info.value) == f"line {line_number}: not UTF-8: byte {bad:#04x} ({reference.value.reason})"


@PROPERTY
@given(nonempty_triplet_lines, st.data())
def test_reader_names_the_line_where_a_gzip_stream_breaks_off(lines, data):
    body = "".join(f"{user}\t{song}\t{count}{ending}" for user, song, count, ending in lines).encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = _triplet_file(tmp, body, compress=True)
        packed = path.read_bytes()
        path.write_bytes(packed[: data.draw(st.integers(2, len(packed) - 1))])  # the magic kept, the end lost
        read = 0
        with gzip.open(path, "rb") as handle, pytest.raises(EOFError):
            for read, _ in enumerate(handle, 1):
                pass
        with pytest.raises(TripletParseError) as info:
            read_profiles(path)
    # the line after the last whole one the stream gave up
    assert info.value.line_number == read + 1
    assert str(info.value).startswith(f"line {read + 1}: compressed stream is damaged: ")


# song ids that are prefixes of one another, and multi-byte UTF-8, which sorts by its bytes
prefix_songs = st.text(st.sampled_from("ab\ré🎵"), min_size=1, max_size=4)


@PROPERTY
@given(st.dictionaries(st.text(st.sampled_from("u\r é 🎵"), min_size=1, max_size=3),
                       st.dictionaries(prefix_songs, st.integers(1, COUNT_MAX), min_size=1, max_size=12), max_size=5))
def test_writer_lists_each_users_songs_in_sorted_item_order(songs_by_user):
    profiles = {user: Multiset(songs) for user, songs in songs_by_user.items()}
    # the reference writer: one f-string per line, over the sorted (element, count) items
    expected = "".join(f"{user}\t{song.decode('utf-8')}\t{count}\n"
                       for user, profile in profiles.items() for song, count in sorted(profile.items()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profiles.tsv"
        write_profiles(path, profiles)
        assert path.read_bytes() == expected.encode("utf-8")
        _same_profiles(read_profiles(path), profiles)


# plain ids hold a CR, U+0085 or a BOM, which a profile file keeps (a BOM past line 1 only); each hostile
# entry is a user id that is empty, holds a tab, an LF or a lone surrogate, or is no str, a song with a tab,
# an LF or bytes that are not UTF-8, a profile that holds no songs, or a profile that is a plain dict
plain_users = st.text(st.sampled_from("u\r\x85\ufeff"), min_size=1, max_size=3)
plain_profiles = st.dictionaries(st.text(st.sampled_from("sé\r"), min_size=1, max_size=3), st.integers(1, COUNT_MAX),
                                 min_size=1, max_size=3).map(Multiset)
hostile_entries = st.one_of(
    st.tuples(st.sampled_from(["", "u\t", "u\n", "\ud800", 0, 5]), plain_profiles),
    st.tuples(plain_users, st.sampled_from([b"s\t", b"\n", b"\xff", b"s\xc3"]).map(lambda song: Multiset({song: 1}))),
    st.tuples(plain_users, st.just(Multiset())),
    st.tuples(plain_users, st.just({"s": 1})),
)


@st.composite
def profile_maps(draw):
    """A map of plain entries with, half the time, one hostile entry placed among them, first place included."""
    entries = list(draw(st.dictionaries(plain_users, plain_profiles, max_size=4)).items())
    if draw(st.booleans()):
        entries.insert(draw(st.integers(0, len(entries))), draw(hostile_entries))
    return dict(entries)


def _reads_back(profiles) -> bool:
    """Whether a profile file could hold these profiles as they are: judged id by id, then the first line's BOM."""
    def fits(data: bytes) -> bool:
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return False
        return bool(data) and b"\t" not in data and b"\n" not in data

    def user_fits(user) -> bool:
        try:
            return isinstance(user, str) and fits(user.encode("utf-8"))
        except UnicodeEncodeError:
            return False

    first = next(iter(profiles), "")
    return not (isinstance(first, str) and first.startswith("\ufeff")) and all(
        user_fits(user) and isinstance(profile, Multiset) and profile.distinct_count() > 0
        and all(map(fits, profile.elements()))
        for user, profile in profiles.items())


one_song = Multiset({"s": 1})


@PROPERTY
@given(profile_maps())
@example({"": one_song})
@example({"u\t": one_song})
@example({"u\n": one_song})
@example({"u\ud800": one_song})
@example({"u": one_song, 5: one_song})
@example({"\ufeffu": one_song, "v": one_song})
@example({"u": one_song, "\ufeffv": one_song})  # only line 1 loses a BOM
@example({"u": one_song, "v": Multiset()})
@example({"u": {"s": 1}})
@example({"u\r": Multiset({b"s\r": 2, "é": 1})})
def test_writer_refuses_exactly_the_maps_the_reader_would_not_read_back(profiles):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profiles.tsv"
        if _reads_back(profiles):
            write_profiles(path, profiles)
            _same_profiles(read_profiles(path), profiles)
        else:
            with pytest.raises(ValueError, match="cannot be written"):
                write_profiles(path, profiles)
            assert not path.exists()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=10,
)


def mostly(usable, hostile):
    """`usable` in about three draws of four, `hostile` in the others."""
    return st.sampled_from([usable, usable, usable, hostile]).flatmap(lambda strategy: strategy)


# manifests past the schema check. Each field is usable in most draws and hostile in the rest, so draws
# reach the pairs' profile lookups, the `multisets` comparison and a grid; a missing key is test_cli's case
profile_names = mostly(st.sampled_from(["u1", "u2"]), st.just("nobody"))
pair_entries = st.fixed_dictionaries({"pair_id": st.sampled_from(["x", "y"]), "a": profile_names,
                                     "b": profile_names})
hostile_pair_entries = st.fixed_dictionaries({}, optional={"pair_id": st.sampled_from(["x", "y"]) | json_values,
                                                           "a": profile_names | json_values,
                                                           "b": profile_names | json_values})
# u1 holds 1 distinct song and 1 play, u2 2 and 3, so small counts hit both a match and a mismatch
multiset_records = mostly(
    st.fixed_dictionaries({"distinct": st.integers(0, 3), "cardinality": st.integers(0, 4)}),
    st.fixed_dictionaries({}, optional={"distinct": st.integers(0, 3) | json_values,
                                        "cardinality": st.integers(0, 4) | json_values}) | json_values)
near_manifests = st.fixed_dictionaries({
    "schema": st.just(MANIFEST_SCHEMA),
    "profiles_file": mostly(st.just("profiles.tsv"),
                            st.sampled_from(["nope.tsv", "", ".", "a\x00b", MANIFEST_NAME]) | json_values),
    "pairs": mostly(st.lists(pair_entries, min_size=1, max_size=3),
                    st.lists(hostile_pair_entries, min_size=1, max_size=3) | json_values),
}, optional={
    "multisets": mostly(st.dictionaries(mostly(st.sampled_from(["u1", "u2"]), st.text(max_size=6)),
                                        multiset_records, max_size=2), json_values),
})


def _grid_on(manifest) -> tuple[int, str]:
    """`sketchsim grid` over a manifest.json holding this JSON value, beside a two-user profiles.tsv."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        write_profiles(Path(tmp) / "profiles.tsv", {"u1": Multiset({"s": 1}), "u2": Multiset({"s": 2, "t": 1})})
        (Path(tmp) / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
        code = main(["grid", "--corpus", str(Path(tmp) / MANIFEST_NAME), "--out", str(Path(tmp) / "grid.csv")])
    return code, err.getvalue()


@PROPERTY
@given(json_values)
def test_any_json_value_as_manifest_is_one_data_error(manifest):
    code, err = _grid_on(manifest)
    assert code == 1
    assert err.startswith("sketchsim: error:") and len(err.splitlines()) == 1 and len(err) < 200, err
    assert "Traceback" not in err


def _manifest(pairs, **fields):
    """A manifest of these (pair_id, a, b) pairs over profiles.tsv, plus any other fields."""
    return {"schema": MANIFEST_SCHEMA, "profiles_file": "profiles.tsv",
            "pairs": [{"pair_id": pair_id, "a": a, "b": b} for pair_id, a, b in pairs], **fields}


@PROPERTY
@given(near_manifests)
@example(_manifest([("x", "u1", "u2")]))  # exits 0
@example(_manifest([("x", "u1", "u9")]))  # a pair names an absent profile
@example(_manifest([("x", "u1", "u2"), ("x", "u2", "u1")]))  # a repeated pair_id
@example(_manifest([("x", "u1", "u2")], multisets={"u1": {"distinct": 1, "cardinality": 2}}))  # u1 holds 1 play
def test_hostile_manifest_fields_are_one_data_error_or_a_grid(manifest):
    code, err = _grid_on(manifest)
    if code == 1:
        assert err.startswith("sketchsim: error:") and len(err.splitlines()) == 1 and len(err) < 200, err
    else:
        assert code == 0 and err.startswith("grid: cbf 5x5 cells over"), err
    assert "Traceback" not in err


# a grammar of the real CLI flags: every value is valid and small, junk, 0, negative, or past 2^32 - 1;
# a size past 2^32 - 1 is drawn only for the shape flags and grid's --dims and --depths, which refuse it
# before any profile or corpus is read or any table is built
BAD = ["", "x", "1.5", "0", "-1", "-4294967296"]
size_args = st.sampled_from(["1", "2", "16", "1024", *BAD, "4294967296", "18446744073709551616"])
seed_args = st.sampled_from(["0", "7", "4294967296", "18446744073709551615", "18446744073709551616", "-1", "x", ""])
size_list_args = st.lists(size_args, min_size=1, max_size=3).map(",".join) | st.sampled_from([",", "1,,2", "1;2"])
metric_args = st.sampled_from(["dice", "cosine", "jaccard", ""])
kind_args = st.sampled_from(["cbf", "cms", "bf", "x"])
user_args = st.sampled_from(["u1", "u2", "nobody", ""])
# {root} is the fixture directory: inputs of every kind, one missing; outputs in a directory that is or is not there
input_args = st.sampled_from(["{root}/corpus/manifest.json", "{root}/profiles.tsv", "{root}/one.tsv",
                              "{root}/cbf.env", "{root}/cms.env", "{root}/nope", "{root}"])
output_args = st.sampled_from(["{root}/out/result", "{root}/nope/result", "{root}/out"])
envelope_args = st.sampled_from(["{root}/cbf.env", "{root}/cms.env"]) | input_args  # two envelopes, half the time
SHAPE = {"--kind": kind_args, "--length": size_args, "--width": size_args, "--hashes": size_args,
         "--depth": size_args, "--seed": seed_args}
COMMANDS = {  # command -> (its positional and required arguments, its optional flags; None for a switch)
    "gen": ([st.just("--out"), st.sampled_from(["{root}/gen", "{root}/nope/gen", "{root}/one.tsv"]),
             st.just("--pairs"), st.sampled_from(["1", "3", "20", *BAD])],  # never the default 1,001 pairs
            {"--unique": st.sampled_from(["1", "5", "67", *BAD]), "--strlen": st.sampled_from(["1", "8", *BAD]),
             "--seed": seed_args}),
    "ingest": ([input_args, st.just("--out"), output_args],
               {"--min-distinct": st.sampled_from(["0", "1", "2", "50", "4294967296", "-1", "x"])}),
    "sketch": ([input_args, st.just("--out"), output_args], {"--user": user_args, **SHAPE}),
    "compare": ([envelope_args, envelope_args],
                {"--user-a": user_args, "--user-b": user_args, "--metric": metric_args, "--truth": st.none(), **SHAPE}),
    "grid": ([st.just("--corpus"), input_args, st.just("--out"), output_args],
             {"--kind": kind_args, "--dims": size_list_args, "--depths": size_list_args, "--metric": metric_args,
              "--seed": seed_args}),
    "threshold": ([st.just("--corpus"), input_args, st.just("--out"), output_args],
                  {"--threshold": st.sampled_from(["0.1", "0.6", "0", "-0.5", "1", "1.5", "nan", "x"]),
                   "--metric": metric_args, **SHAPE}),
}


@st.composite
def cli_argvs(draw):
    """A subcommand, its arguments, and any of its flags, each once, in drawn order."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    flags = draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=4))
    argv = [command, *(draw(argument) for argument in required)]
    for flag in flags:
        value = draw(optional[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A three-pair corpus, a two-user and a one-user profile file, a CBF and a CMS envelope, an output directory."""
    root = tmp_path_factory.mktemp("cli")
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["gen", "--out", str(root / "corpus"), "--pairs", "3", "--unique", "5", "--strlen", "6"]) == 0
    write_profiles(root / "profiles.tsv", {"u1": Multiset({"s": 1, "t": 2}), "u2": Multiset({"s": 2, "u": 1})})
    write_profiles(root / "one.tsv", {"u1": Multiset({"s": 1, "t": 2})})
    (root / "cbf.env").write_bytes(encode(CountingBloomFilter.from_multiset(Multiset({"s": 1}), 16, 1, 0)))
    (root / "cms.env").write_bytes(encode(CountMinSketch.from_multiset(Multiset({"s": 1}), 16, 2, 0)))
    (root / "out").mkdir()
    return root


@settings(PROPERTY, max_examples=300)
@given(argv=cli_argvs())
def test_any_flags_exit_with_a_documented_code(cli_files, argv):
    # no draw builds a large table: valid size_args are at most 1,024, and larger ones are refused first
    argv = [argument.replace("{root}", str(cli_files)) for argument in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2, 64), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
